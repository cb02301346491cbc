"""Dense symmetric linear algebra used by the face machinery.

The eigensolver is LAPACK's symmetric solver (numpy.linalg.eigh).
Eigenvalues come back in descending order with deterministically fixed
eigenvector signs so repeated runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, Q[:, k] pairs with eigenvalues[k]


def _fix_signs(q: np.ndarray) -> np.ndarray:
    """q with every column whose first entry above 1e-12 max(1, max |col|)
    in magnitude is negative flipped, in one pass over all columns."""
    mag = np.abs(q)
    big = mag > 1e-12 * np.maximum(1.0, mag.max(axis=0, initial=0.0))
    if not big.shape[0]:
        return q.copy()
    first, cols = big.argmax(axis=0), np.arange(q.shape[1])
    return np.where(big[first, cols] & (q[first, cols] < 0), -q, q)


def _sym(mats):
    """0.5 (M + M^T) over the last two axes, which is exactly symmetric."""
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def sym_eig(x: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy eigh) on
    its symmetric part, eigenvalues descending.

    Rejects inputs whose asymmetry exceeds 1e-10 relative to the largest
    entry.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("square matrix required")
    asym = np.max(np.abs(x - x.T), initial=0.0)
    if asym > 1e-10 * (1.0 + np.max(np.abs(x), initial=0.0)):
        raise ValueError(f"matrix asymmetry {asym:.3e} beyond tolerance")
    lam, q = np.linalg.eigh(_sym(x))
    order = np.argsort(-lam, kind="stable")
    return EigenDecomposition(lam[order], _fix_signs(q[:, order]))


def numeric_rank(eigenvalues: np.ndarray, tol: float = None) -> int:
    """Count of eigenvalues above ``tol * max(1, largest eigenvalue)``.

    Expects descending order (as produced by :func:`sym_eig`).
    """
    if tol is None:
        tol = config.RANK_TOL
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        return 0
    if np.any(np.diff(lam) > 1e-12 * (1.0 + np.max(np.abs(lam)))):
        raise ValueError("eigenvalues must be in descending order")
    cutoff = tol * max(1.0, float(lam[0]))
    return int(np.sum(lam > cutoff))


def flatten_element(y) -> np.ndarray:
    """Isometric flattening of a YElement: inner products become dot products."""
    return np.concatenate([blk.svec(part)
                           for blk, part in zip(y.blocks, y.parts)]) \
        if y.blocks else np.zeros(0)


def flatten_data(p) -> np.ndarray:
    """The isometric flattening of a program's data, read off its stacks:
    one row for each of a_1, ..., a_m, b, in C order as rows stacked one
    by one would be (a batched svec comes out in another order, and BLAS
    rounds a product differently by layout)."""
    return np.ascontiguousarray(np.hstack([
        blk.svec(stack) for blk, stack in zip(p.blocks, p.stacks)]))


def unflatten_element(vec: np.ndarray, blocks):
    """Inverse of ``flatten_element``.  Each ``unsvec`` payload is a new
    array and exactly symmetric, so the element is built unchecked."""
    from .model import YElement
    parts, at = [], 0
    for blk in blocks:
        d = blk.ambient_dim
        parts.append(blk.unsvec(vec[at:at + d]))
        at += d
    return YElement._trusted(blocks, parts)


def nullspace_basis(mat: np.ndarray):
    """(N, M^+) of a matrix M from one SVD: N an orthonormal basis of the
    null space of M, as columns, and M^+ the pseudo-inverse V_r S_r^-1 U_r^T.
    Singular values at or below 1e-10 times the largest count as zero.  So
    {z : M z = r} is M^+ r + N s when it is not empty, and a matrix with no
    rows gives N = I."""
    rows, cols = mat.shape
    if not rows:
        return np.eye(cols), np.zeros((cols, 0))
    # The thin V^T is square when rows >= cols; with fewer rows it would
    # drop null directions, so only then is V computed whole.
    u, s, vt = np.linalg.svd(mat, full_matrices=rows < cols)
    rank = int(np.sum(s > 1e-10 * np.max(s, initial=0.0)))
    return vt[rank:].T, (vt[:rank].T / s[:rank]) @ u[:, :rank].T


def shift_off_objective(z_p: np.ndarray, null: np.ndarray, q: np.ndarray):
    """z_p moved along the columns of ``null`` so that <q, z_p> = 0, which
    leaves the objective <q, z_p + null s> with no constant.  When null^T q
    is at most 1e-10 |q|, <q, .> is constant on the affine set up to
    rounding, and z_p is returned unmoved."""
    qn = null.T @ q
    if np.linalg.norm(qn) <= 1e-10 * np.linalg.norm(q):
        return z_p
    return z_p - null @ (float(q @ z_p) * qn / float(qn @ qn))

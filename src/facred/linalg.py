"""Dense symmetric linear algebra used by the face machinery.

The eigensolver is LAPACK's symmetric solver (numpy.linalg.eigh).
Eigenvalues come back in descending order with deterministically fixed
eigenvector signs so repeated runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import config


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, Q[:, k] pairs with eigenvalues[k]

    def reconstruct(self) -> np.ndarray:
        q, lam = self.eigenvectors, self.eigenvalues
        return (q * lam) @ q.T


def _fix_signs(q: np.ndarray) -> np.ndarray:
    q = q.copy()
    for k in range(q.shape[1]):
        col = q[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.max(np.abs(col))))[0]
        if nz.size and col[nz[0]] < 0:
            q[:, k] = -col
    return q


def sym_eig(x: np.ndarray, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy eigh) on
    its symmetric part, eigenvalues descending.

    Rejects inputs whose asymmetry exceeds ``tol`` relative to the largest
    entry.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("square matrix required")
    asym = np.max(np.abs(x - x.T), initial=0.0)
    if asym > tol * (1.0 + np.max(np.abs(x), initial=0.0)):
        raise ValueError(f"matrix asymmetry {asym:.3e} beyond tolerance")
    lam, q = np.linalg.eigh(0.5 * (x + x.T))
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


@lru_cache(maxsize=256)
def _packed_index(n: int, off_diag: float):
    """Row and column indices of the n x n upper triangle, row by row, and
    the weight of each entry: 1 on the diagonal, ``off_diag`` off it.
    Cached and read-only, shared by every packing of that shape."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, off_diag)
    for arr in (rows, cols, weights):
        arr.flags.writeable = False
    return rows, cols, weights


def _svec(part: np.ndarray, kind: str,
          off_diag: float = np.sqrt(2.0)) -> np.ndarray:
    """Flatten a block payload's upper triangle row by row, off-diagonals
    scaled by ``off_diag``: sqrt 2 makes the flattening isometric, 1 packs
    the plain entries, 2 gives the functional of a symmetric matrix."""
    if kind == "orthant":
        return np.asarray(part, dtype=float).reshape(-1)
    rows, cols, weights = _packed_index(part.shape[0], off_diag)
    return part[rows, cols] * weights


def _unsvec(vec: np.ndarray, kind: str, size: int,
            off_diag: float = np.sqrt(2.0)) -> np.ndarray:
    """Inverse of :func:`_svec` with the same ``off_diag``."""
    if kind == "orthant":
        return np.asarray(vec, dtype=float).copy()
    mat = np.zeros((size, size))
    rows, cols, weights = _packed_index(size, 1.0 / off_diag)
    mat[rows, cols] = vec * weights
    mat = mat + mat.T - np.diag(np.diag(mat))
    return mat


def flatten_element(y) -> np.ndarray:
    """Isometric flattening of a YElement: inner products become dot products."""
    return np.concatenate([_svec(part, blk.kind)
                           for blk, part in zip(y.blocks, y.parts)]) \
        if y.blocks else np.zeros(0)


def unflatten_element(vec: np.ndarray, blocks):
    from .model import YElement
    parts, at = [], 0
    for blk in blocks:
        d = blk.ambient_dim
        parts.append(_unsvec(vec[at:at + d], blk.kind, blk.size))
        at += d
    return YElement(blocks, parts)


def nullspace_basis(rows, tol: float = None):
    """Orthonormal basis of the joint orthogonal complement of ``rows``.

    ``rows`` is a list of YElements (typically the constraint elements plus
    the right-hand side).  The basis is computed from the eigendecomposition
    of the Gram matrix R^T R of the flattened rows, avoiding a general SVD;
    eigenvectors with eigenvalue at or below the cutoff span the complement.
    Returns a (possibly empty) list of YElements.
    """
    if tol is None:
        tol = config.RANK_TOL
    if not rows:
        raise ValueError("at least one row required")
    blocks = rows[0].blocks
    r = np.vstack([flatten_element(y) for y in rows])
    gram = r.T @ r
    dec = sym_eig(gram)
    lam, q = dec.eigenvalues, dec.eigenvectors
    scale = max(1.0, float(lam[0])) if lam.size else 1.0
    keep = lam <= (tol * tol) * scale
    basis = [unflatten_element(q[:, k], blocks)
             for k in range(q.shape[1]) if keep[k]]
    return basis

"""Face algebra for products of orthant and PSD cones.

A face is represented per block: an index support set for an orthant block,
an orthonormal basis Q of the active subspace for a PSD block (the face is
{ Q z Q^T : z psd of order r }).  r = 0 encodes the trivial face {0},
r = n the full cone.  Both block cones are self-dual and nice, so conjugate
faces and tangent spaces have the explicit forms implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .linalg import numeric_rank, sym_eig
from .model import StructureMismatchError, YElement


@dataclass(frozen=True)
class OrthantFace:
    support: tuple  # strictly increasing 0-based indices

    @property
    def rank(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class PsdFace:
    basis: np.ndarray  # n x r, orthonormal columns

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class FaceRep:
    """Per-block description of a face of the product cone."""

    __slots__ = ("blocks", "reps")

    def __init__(self, blocks, reps):
        blocks = tuple(blocks)
        if len(blocks) != len(reps):
            raise StructureMismatchError("one face component required per block")
        clean = []
        for blk, rep in zip(blocks, reps):
            if blk.kind == "orthant":
                support = tuple(sorted(set(int(i) for i in rep.support)))
                if support and (support[0] < 0 or support[-1] >= blk.size):
                    raise ValueError("support index out of range")
                clean.append(OrthantFace(support))
            else:
                q = np.asarray(rep.basis, dtype=float)
                if q.ndim != 2 or q.shape[0] != blk.size or q.shape[1] > blk.size:
                    raise ValueError("basis shape incompatible with block")
                if q.shape[1] and np.linalg.norm(q.T @ q - np.eye(q.shape[1])) > 1e-10:
                    raise ValueError("basis columns not orthonormal")
                clean.append(PsdFace(_frozen(q)))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "reps", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("FaceRep is immutable")

    @classmethod
    def full_cone(cls, blocks) -> "FaceRep":
        reps = [OrthantFace(tuple(range(blk.size))) if blk.kind == "orthant"
                else PsdFace(np.eye(blk.size)) for blk in blocks]
        return cls(blocks, reps)

    @property
    def ranks(self) -> tuple:
        return tuple(rep.rank for rep in self.reps)

    def is_full(self) -> bool:
        return all(rep.rank == blk.size for rep, blk in zip(self.reps, self.blocks))

    def describe(self) -> str:
        bits = []
        for k, (blk, rep) in enumerate(zip(self.blocks, self.reps)):
            if blk.kind == "orthant":
                inside = ",".join(str(i + 1) for i in rep.support)
                bits.append(f"block {k + 1}: orthant support {{{inside}}}")
            else:
                bits.append(f"block {k + 1}: psd rank {rep.rank} of {blk.size}")
        return "; ".join(bits)

    def __repr__(self):
        return f"FaceRep({self.describe()})"


def subspace_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Spectral distance between the ranges of two orthonormal bases."""
    n = q1.shape[0]
    p1 = q1 @ q1.T if q1.shape[1] else np.zeros((n, n))
    p2 = q2 @ q2.T if q2.shape[1] else np.zeros((n, n))
    return float(np.linalg.norm(p1 - p2, 2)) if n else 0.0


def faces_equal(f1: FaceRep, f2: FaceRep, tol: float = 1e-8) -> bool:
    if f1.blocks != f2.blocks:
        return False
    for blk, r1, r2 in zip(f1.blocks, f1.reps, f2.reps):
        if blk.kind == "orthant":
            if r1.support != r2.support:
                return False
        else:
            if r1.rank != r2.rank or subspace_distance(r1.basis, r2.basis) > tol:
                return False
    return True


def _orthonormal_complement(q: np.ndarray, n: int) -> np.ndarray:
    """Deterministic orthonormal basis of range(q)^perp inside R^n."""
    if q.shape[1] == 0:
        return np.eye(n)
    if q.shape[1] == n:
        return np.zeros((n, 0))
    proj = q @ q.T
    dec = sym_eig(proj)
    keep = dec.eigenvalues < 0.5
    return dec.eigenvectors[:, keep]


def minimal_face(x: YElement, blocks, tol: float = None) -> FaceRep:
    """The face of the cone containing ``x`` in its relative interior.

    ``x`` must lie in the cone up to tolerance; orthant support keeps entries
    above tol, PSD blocks keep eigenvectors of eigenvalues above the relative
    rank cutoff.
    """
    if tol is None:
        tol = config.RANK_TOL
    if tuple(blocks) != x.blocks:
        raise StructureMismatchError("block structures differ")
    reps = []
    for blk, part in zip(blocks, x.parts):
        if blk.kind == "orthant":
            if np.min(part, initial=0.0) < -tol:
                raise ValueError("point outside the cone beyond tolerance")
            reps.append(OrthantFace(tuple(np.nonzero(part > tol)[0])))
        else:
            dec = sym_eig(part)
            if dec.eigenvalues.size and dec.eigenvalues[-1] < -tol * max(
                    1.0, float(dec.eigenvalues[0])):
                raise ValueError("point outside the cone beyond tolerance")
            r = numeric_rank(dec.eigenvalues, tol)
            reps.append(PsdFace(dec.eigenvectors[:, :r]))
    return FaceRep(blocks, reps)


def conjugate_face(face: FaceRep) -> FaceRep:
    """Conjugate face inside the (self-dual) cone: complementary support or
    complementary subspace."""
    reps = []
    for blk, rep in zip(face.blocks, face.reps):
        if blk.kind == "orthant":
            comp = tuple(i for i in range(blk.size) if i not in rep.support)
            reps.append(OrthantFace(comp))
        else:
            reps.append(PsdFace(_orthonormal_complement(rep.basis, blk.size)))
    return FaceRep(face.blocks, reps)


def face_contains(face: FaceRep, y: YElement, tol: float = 1e-9) -> bool:
    """Membership of ``y`` in the face itself (not its dual)."""
    if y.blocks != face.blocks:
        raise StructureMismatchError("block structures differ")
    for blk, rep, part in zip(face.blocks, face.reps, y.parts):
        scale = 1.0 + float(np.max(np.abs(part), initial=0.0))
        if blk.kind == "orthant":
            mask = np.zeros(blk.size, dtype=bool)
            mask[list(rep.support)] = True
            if np.min(part[mask], initial=0.0) < -tol * scale:
                return False
            if np.max(np.abs(part[~mask]), initial=0.0) > tol * scale:
                return False
        else:
            q = rep.basis
            compressed = q.T @ part @ q
            if compressed.size and np.linalg.eigvalsh(compressed)[0] < -tol * scale:
                return False
            residual = part - (q @ compressed @ q.T if q.shape[1] else 0.0)
            if np.max(np.abs(residual), initial=0.0) > tol * scale:
                return False
    return True


def face_dual_membership(face: FaceRep, y: YElement, tol: float = 1e-7) -> bool:
    """Membership of ``y`` in the dual of the face, i.e. in K* + F^perp."""
    if y.blocks != face.blocks:
        raise StructureMismatchError("block structures differ")
    for blk, rep, part in zip(face.blocks, face.reps, y.parts):
        if blk.kind == "orthant":
            if any(part[i] < -tol for i in rep.support):
                return False
        else:
            q = rep.basis
            if q.shape[1]:
                compressed = q.T @ part @ q
                if np.linalg.eigvalsh(compressed)[0] < -tol:
                    return False
    return True


def intersect_with_hyperplane(face: FaceRep, y: YElement, tol: float = None) -> FaceRep:
    """The face cut out of ``face`` by the hyperplane orthogonal to ``y``.

    ``y`` must belong to the dual of the face; the result is again a face of
    the cone.  Orthant blocks drop support indices where y is positive, PSD
    blocks keep the kernel of the compressed y.
    """
    if tol is None:
        tol = config.RANK_TOL
    if not face_dual_membership(face, y, max(tol, 1e-7)):
        raise ValueError("certificate lies outside the face dual beyond tolerance")
    reps = []
    for blk, rep, part in zip(face.blocks, face.reps, y.parts):
        if blk.kind == "orthant":
            reps.append(OrthantFace(tuple(i for i in rep.support if part[i] <= tol)))
        else:
            q = rep.basis
            if q.shape[1] == 0:
                reps.append(PsdFace(q))
                continue
            dec = sym_eig(q.T @ part @ q)
            cutoff = tol * max(1.0, float(dec.eigenvalues[0]) if dec.eigenvalues.size else 1.0)
            kernel = dec.eigenvectors[:, dec.eigenvalues <= cutoff]
            reps.append(PsdFace(q @ kernel))
    return FaceRep(face.blocks, reps)


def split_on_face(face: FaceRep, y: YElement):
    """Split ``y`` in the dual of ``face`` as (u, y - u): u is the part of y
    inside the face's span clipped to the cone (nonnegative support entries,
    psd compressed block), y - u the remainder in the complement."""
    u_parts = []
    for blk, rep, part in zip(face.blocks, face.reps, y.parts):
        if blk.kind == "orthant":
            vec = np.zeros(blk.size)
            sup = list(rep.support)
            if sup:
                vec[sup] = np.maximum(part[sup], 0.0)
            u_parts.append(vec)
        else:
            q = rep.basis
            mat = np.zeros((blk.size, blk.size))
            if q.shape[1]:
                compressed = q.T @ part @ q
                lam, w = np.linalg.eigh(0.5 * (compressed + compressed.T))
                mat = q @ ((w * np.maximum(lam, 0.0)) @ w.T) @ q.T
            u_parts.append(mat)
    u = YElement(face.blocks, u_parts)
    return u, y - u


def relative_interior_point(face: FaceRep) -> YElement:
    """A canonical point in the relative interior: support indicator vectors
    and projectors Q Q^T."""
    parts = []
    for blk, rep in zip(face.blocks, face.reps):
        if blk.kind == "orthant":
            v = np.zeros(blk.size)
            v[list(rep.support)] = 1.0
            parts.append(v)
        else:
            q = rep.basis
            parts.append(q @ q.T if q.shape[1] else np.zeros((blk.size, blk.size)))
    return YElement(face.blocks, parts)


def tangent_space_basis(u: YElement, blocks, tol: float = None):
    """Orthogonal-pattern basis of the tangent space of the cone at ``u``.

    For an orthant block the tangent space is spanned by the coordinates where
    u is positive.  For a PSD block with eigenbasis split [P, P_perp] at rank
    r, it consists of all symmetric matrices whose P_perp-by-P_perp block
    vanishes; the basis below enumerates that pattern.  Returns a list of
    YElements.
    """
    if tol is None:
        tol = config.RANK_TOL
    if tuple(blocks) != u.blocks:
        raise StructureMismatchError("block structures differ")
    if u.min_eigenvalue() < -max(tol, 1e-7):
        raise ValueError("base point outside the cone beyond tolerance")
    basis = []
    for bi, (blk, part) in enumerate(zip(blocks, u.parts)):
        if blk.kind == "orthant":
            for i in np.nonzero(part > tol)[0]:
                e = YElement.zeros(blocks)
                parts = [p.copy() for p in e.parts]
                parts[bi] = parts[bi].copy()
                parts[bi][i] = 1.0
                basis.append(YElement(blocks, parts))
        else:
            dec = sym_eig(part)
            r = numeric_rank(dec.eigenvalues, tol)
            v = dec.eigenvectors
            n = blk.size
            for k in range(n):
                for l in range(k, n):
                    if k >= r and l >= r:
                        continue
                    mat = np.zeros((n, n))
                    if k == l:
                        mat[k, k] = 1.0
                    else:
                        mat[k, l] = mat[l, k] = 1.0 / np.sqrt(2.0)
                    parts = [b.zero() for b in blocks]
                    parts[bi] = v @ mat @ v.T
                    basis.append(YElement(blocks, parts))
    return basis


def in_tangent_space(x: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    """Pattern test for v in the tangent space of the PSD cone at x: the
    component of v on the kernel-by-kernel block of x must vanish."""
    dec = sym_eig(np.asarray(x, dtype=float))
    r = numeric_rank(dec.eigenvalues, config.RANK_TOL)
    q = dec.eigenvectors
    vt = q.T @ np.asarray(v, dtype=float) @ q
    tail = vt[r:, r:]
    scale = 1.0 + float(np.max(np.abs(v), initial=0.0))
    return float(np.max(np.abs(tail), initial=0.0)) <= tol * scale


def tangent_membership_schur(x: np.ndarray, v: np.ndarray, tol: float = 1e-8):
    """Certificate test for v in the tangent space of the PSD cone at x.

    Decides via the range condition (the component of v outside range(x)
    must vanish) and, when it holds, returns an explicit witness (w, beta)
    with v = w + w^T and the bordered matrix [[x, w], [w^T, beta I]] psd:
    w is the half of v that respects range(x), beta bounds the Schur
    complement via the pseudoinverse of x.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    dec = sym_eig(x)
    if dec.eigenvalues.size and dec.eigenvalues[-1] < -tol * max(
            1.0, float(dec.eigenvalues[0])):
        raise ValueError("base point outside the cone beyond tolerance")
    r = numeric_rank(dec.eigenvalues, config.RANK_TOL)
    q = dec.eigenvectors
    proj = q[:, :r] @ q[:, :r].T
    n = x.shape[0]
    outside = (np.eye(n) - proj) @ v @ (np.eye(n) - proj)
    scale = 1.0 + float(np.max(np.abs(v), initial=0.0))
    if np.max(np.abs(outside), initial=0.0) > tol * scale:
        return False, None
    w = 0.5 * proj @ v @ proj + proj @ v @ (np.eye(n) - proj)
    if r:
        pinv = q[:, :r] @ np.diag(1.0 / dec.eigenvalues[:r]) @ q[:, :r].T
        beta = float(np.linalg.eigvalsh(w.T @ pinv @ w)[-1]) + 1.0
    else:
        beta = 1.0
    return True, (w, beta)


def longest_chain_length(blocks) -> int:
    """Length of the longest chain of faces of the product cone.

    Each orthant or PSD block of size n contributes a chain of n + 1 faces;
    chains of a product interleave, giving the sum minus (blocks - 1).
    """
    blocks = tuple(blocks)
    if not blocks:
        return 1
    return sum(blk.size + 1 for blk in blocks) - (len(blocks) - 1)

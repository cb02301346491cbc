"""Face algebra for products of orthant and PSD cones.

A face is represented per block: an index support set for an orthant block,
an orthonormal basis Q of the active subspace for a PSD block (the face is
{ Q z Q^T : z psd of order r }).  r = 0 encodes the trivial face {0},
r = n the full cone.  Both block cones are self-dual and nice, so face
duals and tangent spaces have the explicit forms implemented here.

FaceRep also owns the face's coordinates: ``compress`` maps an element to
one payload per block of nonzero rank (the support entries of an orthant
block, Q^T Y Q of a PSD block) and ``embed`` maps payloads back, zero
outside the face.  Membership in F, in F* and in ri F are statements about
those payloads: a vector payload lives in an orthant, a matrix payload in a
PSD cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .linalg import _sym, numeric_rank, sym_eig
from .model import (ConeBlock, StructureMismatchError, YElement, _freeze,
                    cone_margin)


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


class FaceRep:
    """Per-block description of a face of the product cone."""

    __slots__ = ("blocks", "reps", "kept_blocks")

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
                clean.append(PsdFace(_freeze(q)))
        self._set(blocks, clean)

    def _set(self, blocks, reps):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "reps", tuple(reps))
        # The cone of the compressed payloads: one block per nonzero rank.
        object.__setattr__(self, "kept_blocks", tuple(
            ConeBlock(blk.kind, rep.rank)
            for blk, rep in zip(blocks, reps) if rep.rank))

    def __setattr__(self, name, value):
        raise AttributeError("FaceRep is immutable")

    def compress(self, y: YElement) -> list:
        """Payloads of ``y`` in the face's coordinates, one per kept block:
        the support entries of an orthant block, Q^T Y Q of a PSD block."""
        return [part[list(rep.support)] if blk.kind == "orthant"
                else rep.basis.T @ part @ rep.basis
                for blk, rep, part in zip(self.blocks, self.reps, y.parts)
                if rep.rank]

    def _embed_parts(self, parts) -> list:
        """Per-block arrays of ``embed`` before the symmetric check."""
        full, kept = [], iter(parts)
        for blk, rep in zip(self.blocks, self.reps):
            part = blk.zero()
            if rep.rank and blk.kind == "orthant":
                part[list(rep.support)] = next(kept)
            elif rep.rank:
                part = rep.basis @ next(kept) @ rep.basis.T
            full.append(part)
        return full

    def embed(self, parts) -> YElement:
        """Inverse of ``compress``: payloads placed back, zero outside."""
        return YElement(self.blocks, self._embed_parts(parts))

    def margin(self, y: YElement):
        """(cone margin, scale) of ``y`` in the face's coordinates: the
        smallest compressed eigenvalue or entry, and the largest |compressed
        entry|; (+inf, 0.0) on the zero face."""
        parts = self.compress(y)
        return (min(map(cone_margin, parts), default=np.inf),
                max((float(np.max(np.abs(part))) for part in parts),
                    default=0.0))

    @classmethod
    def full_cone(cls, blocks) -> "FaceRep":
        """The cone itself: full supports and identity bases, valid by
        construction, so the constructor's checks are skipped."""
        self = object.__new__(cls)
        self._set(tuple(blocks), [
            OrthantFace(tuple(range(blk.size))) if blk.kind == "orthant"
            else PsdFace(_freeze(np.eye(blk.size))) for blk in blocks])
        return self

    @property
    def ranks(self) -> tuple:
        return tuple(rep.rank for rep in self.reps)

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


def faces_equal(f1: FaceRep, f2: FaceRep) -> bool:
    if f1.blocks != f2.blocks:
        return False
    for blk, r1, r2 in zip(f1.blocks, f1.reps, f2.reps):
        if blk.kind == "orthant":
            if r1.support != r2.support:
                return False
        else:
            if r1.rank != r2.rank or subspace_distance(r1.basis, r2.basis) > 1e-8:
                return False
    return True


def minimal_face(x: YElement, blocks) -> FaceRep:
    """The face of the cone containing ``x`` in its relative interior.

    ``x`` must lie in the cone up to the rank cutoff; orthant support keeps
    entries above it, PSD blocks keep eigenvectors of eigenvalues above it
    relative to the largest.
    """
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


def _nearest_cone_point(part: np.ndarray, cutoff: float = 0.0) -> np.ndarray:
    """Nearest cone point of a compressed payload: negative entries or
    eigenvalues set to zero.  A positive ``cutoff`` also zeroes those at or
    below cutoff * max(1, largest)."""
    if part.ndim == 1:
        return np.where(part > cutoff * max(1.0, np.max(part)), part, 0.0)
    lam, w = np.linalg.eigh(_sym(part))
    return (w * np.where(lam > cutoff * max(1.0, lam[-1]), lam, 0.0)) @ w.T


def containment(face: FaceRep, y: YElement, tol: float = 1e-9):
    """(inside, margin) from one compression of ``y``: its membership in
    the face itself (not its dual), as ``face_contains`` decides it, and
    its compressed cone margin, ``face.margin(y)[0]``."""
    if y.blocks != face.blocks:
        raise StructureMismatchError("block structures differ")
    bounds = [tol * (1.0 + float(np.max(np.abs(part), initial=0.0)))
              for part in y.parts]
    compressed = face.compress(y)
    margins = [cone_margin(part) for part in compressed]
    kept_bounds = [bound for bound, rep in zip(bounds, face.reps) if rep.rank]
    margin = min(margins, default=np.inf)
    if any(lo < -bound for lo, bound in zip(margins, kept_bounds)):
        return False, margin
    outside = [part - inside for part, inside
               in zip(y.parts, face._embed_parts(compressed))]
    return all(np.max(np.abs(part), initial=0.0) <= bound
               for part, bound in zip(outside, bounds)), margin


def face_contains(face: FaceRep, y: YElement, tol: float = 1e-9) -> bool:
    """Membership of ``y`` in the face itself (not its dual): the compressed
    payloads lie in their cones and nothing of y is left outside the span."""
    return containment(face, y, tol)[0]


def face_dual_membership(face: FaceRep, y: YElement, tol: float = 1e-7) -> bool:
    """Membership of ``y`` in the dual of the face, i.e. in K* + F^perp."""
    if y.blocks != face.blocks:
        raise StructureMismatchError("block structures differ")
    return not face.margin(y)[0] < -tol


def intersect_with_hyperplane(face: FaceRep, y: YElement) -> FaceRep:
    """The face cut out of ``face`` by the hyperplane orthogonal to ``y``.

    ``y`` must belong to the dual of the face at the rank cutoff, a verdict
    read off the compressed y the cut is made from; the result is again a
    face of the cone.  Orthant blocks drop support indices where y is above
    the cutoff, PSD blocks keep the compressed y's kernel.
    """
    tol = config.RANK_TOL
    if y.blocks != face.blocks:
        raise StructureMismatchError("block structures differ")
    reps, margin, compressed = [], np.inf, iter(face.compress(y))
    for blk, rep in zip(face.blocks, face.reps):
        if not rep.rank:
            reps.append(rep)
        elif blk.kind == "orthant":
            part = next(compressed)
            margin = min(margin, float(np.min(part)))
            reps.append(OrthantFace(tuple(
                i for i, v in zip(rep.support, part) if v <= tol)))
        else:
            dec = sym_eig(next(compressed))
            margin = min(margin, float(dec.eigenvalues[-1]))
            kernel = dec.eigenvectors[:, numeric_rank(dec.eigenvalues, tol):]
            reps.append(PsdFace(rep.basis @ kernel))
    if margin < -tol:
        raise ValueError("certificate lies outside the face dual beyond tolerance")
    return FaceRep(face.blocks, reps)


def split_on_face(face: FaceRep, y: YElement):
    """Split ``y`` in the dual of ``face`` as (u, y - u): u is the part of y
    inside the face's span clipped to the cone (nonnegative support entries,
    psd compressed block), y - u the remainder in the complement."""
    u = face.embed([_nearest_cone_point(part) for part in face.compress(y)])
    return u, y - u


def relative_interior_point(face: FaceRep) -> YElement:
    """A canonical point in the relative interior: support indicator vectors
    and projectors Q Q^T."""
    return face.embed([blk.identity() for blk in face.kept_blocks])


def _tangent_range(x, v, tol: float):
    """The range test shared by both tangent-space routines: for v in the
    tangent space of the PSD cone at x, the block of v on the kernel of x
    must vanish.  Returns (eigendecomposition of x, rank, verdict)."""
    dec = sym_eig(np.asarray(x, dtype=float))
    r = numeric_rank(dec.eigenvalues, config.RANK_TOL)
    q = dec.eigenvectors
    tail = (q.T @ v @ q)[r:, r:]
    scale = 1.0 + float(np.max(np.abs(v), initial=0.0))
    return dec, r, float(np.max(np.abs(tail), initial=0.0)) <= tol * scale


def in_tangent_space(x: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    """Pattern test for v in the tangent space of the PSD cone at x: the
    component of v on the kernel-by-kernel block of x must vanish."""
    return _tangent_range(x, np.asarray(v, dtype=float), tol)[2]


def tangent_membership_schur(x: np.ndarray, v: np.ndarray, tol: float = 1e-8):
    """Certificate test for v in the tangent space of the PSD cone at x.

    Decides via the range condition (the component of v outside range(x)
    must vanish, the test of in_tangent_space) and, when it holds, returns
    an explicit witness (w, beta) with v = w + w^T and the bordered matrix
    [[x, w], [w^T, beta I]] psd: w is the half of v that respects range(x),
    beta bounds the Schur complement via the pseudoinverse of x.
    """
    v = np.asarray(v, dtype=float)
    dec, r, inside = _tangent_range(x, v, tol)
    if dec.eigenvalues.size and dec.eigenvalues[-1] < -tol * max(
            1.0, float(dec.eigenvalues[0])):
        raise ValueError("base point outside the cone beyond tolerance")
    if not inside:
        return False, None
    q = dec.eigenvectors
    proj = q[:, :r] @ q[:, :r].T
    n = v.shape[0]
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

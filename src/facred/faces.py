"""Face algebra for products of orthant and PSD cones.

A face is represented per block by a face component that owns the face's
coordinates on that block: an OrthantFace, the index support set of an
orthant block, or a PsdFace, an orthonormal basis Q of the active subspace
of a PSD block (the face is { Q z Q^T : z psd of order r }).  r = 0 encodes
the trivial face {0}, r = n the full cone.  Both block cones are self-dual
and nice, so face duals and tangent spaces have the explicit forms
implemented here.  A component compresses a payload to the face's
coordinates (the support entries, or Q^T Y Q) and embeds one back, zero
outside; it splits data into that compressed part and the span rows
outside, finds the minimal face of a payload, cuts itself by a hyperplane
and describes itself.  ``_FACES`` is the one place that picks a
component's class by the block's kind.

FaceRep holds one component per block and maps whole elements:
``compress`` gives one payload per block of nonzero rank and ``embed``
maps payloads back.  Membership in F, in F* and in ri F are statements
about those payloads: a vector payload lives in an orthant, a matrix
payload in a PSD cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, linalg
from .linalg import _sym, numeric_rank, sym_eig
from .model import (ConeBlock, StructureMismatchError, YElement, _freeze,
                    cone_margin)


@dataclass(frozen=True)
class OrthantFace:
    support: tuple  # strictly increasing 0-based indices
    product = np.multiply   # the complementarity product s . y

    @property
    def rank(self) -> int:
        return len(self.support)

    @classmethod
    def checked(cls, rep, blk) -> "OrthantFace":
        support = tuple(sorted(set(int(i) for i in rep.support)))
        if support and (support[0] < 0 or support[-1] >= blk.size):
            raise ValueError("support index out of range")
        return cls(support)

    @classmethod
    def full(cls, blk) -> "OrthantFace":
        return cls(tuple(range(blk.size)))

    @classmethod
    def of(cls, part, tol) -> "OrthantFace":
        if np.min(part, initial=0.0) < -tol:
            raise ValueError("point outside the cone beyond tolerance")
        return cls(tuple(np.flatnonzero(part > tol).tolist()))

    def compress(self, part):
        return part[..., list(self.support)]

    def embed(self, z, blk):
        part = np.zeros(np.shape(z)[:-1] + blk.shape)
        part[..., list(self.support)] = z
        return part

    def split(self, data, blk):
        return (self.compress(data),
                np.delete(data, list(self.support), axis=-1))

    def outside_adjoint(self, coeffs, blk):
        outside = np.delete(np.arange(blk.size), list(self.support))
        part = blk.zero()
        part[outside] = coeffs[:len(outside)]
        return part, len(outside)

    def cut(self, part, tol):
        return (OrthantFace(tuple(i for i, v in zip(self.support, part)
                                  if v <= tol)), float(np.min(part)))

    def same(self, other) -> bool:
        return self.support == other.support

    def describe(self, blk) -> str:
        inside = ",".join(str(i + 1) for i in self.support)
        return f"orthant support {{{inside}}}"


@dataclass(frozen=True)
class PsdFace:
    basis: np.ndarray  # n x r, orthonormal columns
    product = np.matmul    # the complementarity product S Y

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def checked(cls, rep, blk) -> "PsdFace":
        q = np.asarray(rep.basis, dtype=float)
        if q.ndim != 2 or q.shape[0] != blk.size or q.shape[1] > blk.size:
            raise ValueError("basis shape incompatible with block")
        if q.shape[1] and np.linalg.norm(q.T @ q - np.eye(q.shape[1])) > 1e-10:
            raise ValueError("basis columns not orthonormal")
        return cls(_freeze(q))

    @classmethod
    def full(cls, blk) -> "PsdFace":
        return cls(_freeze(np.eye(blk.size)))

    @classmethod
    def of(cls, part, tol) -> "PsdFace":
        dec = sym_eig(part)
        if dec.eigenvalues.size and dec.eigenvalues[-1] < -tol * max(
                1.0, float(dec.eigenvalues[0])):
            raise ValueError("point outside the cone beyond tolerance")
        return cls(_freeze(
            dec.eigenvectors[:, :numeric_rank(dec.eigenvalues, tol)]))

    def compress(self, part):
        return self.basis.T @ part @ self.basis

    def embed(self, z, blk):
        return self.basis @ z @ self.basis.T

    def split(self, data, blk):
        """The span rows Y - Q (Q^T Y Q) Q^T are all n(n+1)/2 packed
        entries below full rank, whatever the rank, and none at it."""
        inside = _sym(self.compress(data))
        if self.rank == blk.size:
            return inside, np.zeros(data.shape[:-2] + (0,))
        return inside, blk.svec(data - self.embed(inside, blk))

    def outside_adjoint(self, coeffs, blk):
        if self.rank == blk.size:
            return blk.zero(), 0
        part = blk.unsvec(coeffs[:blk.ambient_dim])
        return part - self.embed(self.compress(part), blk), blk.ambient_dim

    def cut(self, part, tol):
        dec = sym_eig(part)
        kernel = dec.eigenvectors[:, numeric_rank(dec.eigenvalues, tol):]
        return PsdFace(_freeze(self.basis @ kernel)), \
            float(dec.eigenvalues[-1])

    def same(self, other) -> bool:
        return self.rank == other.rank and \
            subspace_distance(self.basis, other.basis) <= 1e-8

    def describe(self, blk) -> str:
        return f"psd rank {self.rank} of {blk.size}"


_FACES = {"orthant": OrthantFace, "psd": PsdFace}


class FaceRep:
    """Per-block description of a face of the product cone."""

    __slots__ = ("blocks", "reps", "kept_blocks")

    def __init__(self, blocks, reps):
        blocks = tuple(blocks)
        if len(blocks) != len(reps):
            raise StructureMismatchError("one face component required per block")
        self._set(blocks, [_FACES[blk.kind].checked(rep, blk)
                           for blk, rep in zip(blocks, reps)])

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
        return [rep.compress(part) for rep, part in zip(self.reps, y.parts)
                if rep.rank]

    def _embed_parts(self, parts) -> list:
        """Per-block arrays of ``embed`` before the symmetric check."""
        kept = iter(parts)
        return [rep.embed(next(kept), blk) if rep.rank else blk.zero()
                for blk, rep in zip(self.blocks, self.reps)]

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
    def _trusted(cls, blocks, reps) -> "FaceRep":
        """A face of components made by this module (sorted supports,
        orthonormal bases from sym_eig), valid by construction, so the
        constructor's checks are skipped; caller-supplied reps go through
        the constructor."""
        self = object.__new__(cls)
        self._set(tuple(blocks), reps)
        return self

    @classmethod
    def full_cone(cls, blocks) -> "FaceRep":
        """The cone itself: full supports and identity bases."""
        return cls._trusted(blocks, [_FACES[blk.kind].full(blk)
                                     for blk in blocks])

    @property
    def ranks(self) -> tuple:
        return tuple(rep.rank for rep in self.reps)

    def describe(self) -> str:
        return "; ".join(f"block {k + 1}: {rep.describe(blk)}"
                         for k, (blk, rep)
                         in enumerate(zip(self.blocks, self.reps)))

    def __repr__(self):
        return f"FaceRep({self.describe()})"


def subspace_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Spectral distance between the ranges of two orthonormal bases."""
    n = q1.shape[0]
    p1 = q1 @ q1.T if q1.shape[1] else np.zeros((n, n))
    p2 = q2 @ q2.T if q2.shape[1] else np.zeros((n, n))
    return float(np.linalg.norm(p1 - p2, 2)) if n else 0.0


def faces_equal(f1: FaceRep, f2: FaceRep) -> bool:
    return f1.blocks == f2.blocks and all(
        r1.same(r2) for r1, r2 in zip(f1.reps, f2.reps))


def minimal_face(x: YElement, blocks) -> FaceRep:
    """The face of the cone containing ``x`` in its relative interior.

    ``x`` must lie in the cone up to the rank cutoff; orthant support keeps
    entries above it, PSD blocks keep eigenvectors of eigenvalues above it
    relative to the largest.
    """
    if tuple(blocks) != x.blocks:
        raise StructureMismatchError("block structures differ")
    return FaceRep._trusted(blocks, [_FACES[blk.kind].of(part, config.RANK_TOL)
                                     for blk, part in zip(blocks, x.parts)])


def _nearest_cone_point(part: np.ndarray, cutoff: float = 0.0) -> np.ndarray:
    """Nearest cone point of a compressed payload: negative entries or
    eigenvalues set to zero.  A positive ``cutoff`` also zeroes those at or
    below cutoff * max(1, largest)."""
    if part.ndim == 1:
        return np.where(part > cutoff * max(1.0, np.max(part)), part, 0.0)
    lam, w = linalg.eigh(_sym(part))
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
    for rep in face.reps:
        if rep.rank:
            rep, low = rep.cut(next(compressed), tol)
            margin = min(margin, low)
        reps.append(rep)
    if margin < -tol:
        raise ValueError("certificate lies outside the face dual beyond tolerance")
    return FaceRep._trusted(face.blocks, reps)


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
    """Pattern test for v in the tangent space of the cone at x: the
    component of v on the kernel-by-kernel block of a PSD x, or on the dead
    entries of an orthant x (those at or below RANK_TOL), must vanish."""
    v = np.asarray(v, dtype=float)
    if np.ndim(x) == 2:
        return _tangent_range(x, v, tol)[2]
    dead = np.asarray(x, dtype=float) <= config.RANK_TOL
    scale = 1.0 + float(np.max(np.abs(v), initial=0.0))
    return float(np.max(np.abs(v[dead]), initial=0.0)) <= tol * scale


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
        beta = float(linalg.eigvalsh(w.T @ pinv @ w)[-1]) + 1.0
    else:
        beta = 1.0
    return True, (w, beta)


def longest_chain_length(blocks) -> int:
    """Length of the longest chain of faces of the product cone: each
    orthant or PSD block of size n adds n steps to the chain {0} < ... < K."""
    return 1 + sum(blk.size for blk in blocks)

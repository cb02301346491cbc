"""Data model for conic linear programs over orthant and PSD blocks.

A program is

    sup  <c, x>
    s.t. b - sum_i x_i a_i  in  K,

where K is a product of nonnegative orthants and cones of symmetric positive
semidefinite matrices.  Elements of the constraint space (the a_i, b, slacks,
dual points) are :class:`YElement` values: one vector per orthant block, one
dense symmetric matrix per PSD block.

All types here are immutable after construction and safe to share across
threads; arithmetic returns new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SYMMETRY_TOL = 1e-12


class StructureMismatchError(ValueError):
    """Operands do not share the same block structure."""


@lru_cache(maxsize=256)
def _packed_index(n: int):
    """Row and column indices of the n x n upper triangle, row by row, the
    svec weight of each entry (1 on the diagonal, sqrt 2 off it) and its
    inverse.  Cached and read-only, shared by every packing of that shape."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    inverse = np.where(rows == cols, 1.0, 1.0 / np.sqrt(2.0))
    for arr in (rows, cols, weights, inverse):
        arr.flags.writeable = False
    return rows, cols, weights, inverse


@dataclass(frozen=True)
class ConeBlock:
    """One factor of the cone: ``orthant`` of a given dimension or ``psd``
    matrices of a given order.  The block owns the facts of its kind: the
    payload shape, the ambient dimension, the canonical interior point and
    the isometric packing."""

    kind: str  # "orthant" | "psd"
    size: int

    def __post_init__(self):
        if self.kind not in ("orthant", "psd"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("block size must be >= 1")

    @property
    def shape(self) -> tuple:
        n = self.size
        return (n,) if self.kind == "orthant" else (n, n)

    @property
    def ambient_dim(self) -> int:
        """Dimension of the block's ambient vector space."""
        n = self.size
        return n if self.kind == "orthant" else n * (n + 1) // 2

    def identity(self) -> np.ndarray:
        """Canonical interior point: all-ones vector or identity matrix."""
        n = self.size
        return np.ones(n) if self.kind == "orthant" else np.eye(n)

    def zero(self) -> np.ndarray:
        return np.zeros(self.shape)

    def svec(self, part: np.ndarray) -> np.ndarray:
        """Flatten a payload, batched over leading axes: a PSD payload's
        upper triangle row by row, off-diagonals scaled by sqrt 2, which
        makes the flattening isometric."""
        if self.kind == "orthant":
            return np.asarray(part, dtype=float)
        rows, cols, weights, _ = _packed_index(self.size)
        return part[..., rows, cols] * weights

    def unsvec(self, vec: np.ndarray) -> np.ndarray:
        """Inverse of ``svec``, batched as it is.  Off the diagonal the
        sqrt 2 scaling is undone to within one rounding, not bit for bit."""
        if self.kind == "orthant":
            return np.asarray(vec, dtype=float).copy()
        rows, cols, _, inverse = _packed_index(self.size)
        mat = np.zeros(vec.shape[:-1] + self.shape)
        mat[..., rows, cols] = mat[..., cols, rows] = vec * inverse
        return mat


def cone_margin(part: np.ndarray) -> float:
    """Cone margin of a payload: the smallest entry of a vector (orthant),
    the smallest eigenvalue of a matrix (PSD; its lower triangle is read)."""
    if part.ndim == 1:
        return float(np.min(part))
    return float(np.linalg.eigvalsh(part)[0])


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class YElement:
    """A point of the constraint space: per-block vectors / symmetric matrices.

    PSD payloads are symmetrized on ingest (input asymmetry beyond 1e-12
    relative is rejected).  Instances are read-only.
    """

    __slots__ = ("blocks", "parts")

    def __init__(self, blocks, parts):
        blocks = tuple(blocks)
        if len(blocks) != len(parts):
            raise StructureMismatchError("one payload required per block")
        clean = []
        for blk, part in zip(blocks, parts):
            arr = np.asarray(part, dtype=float)
            if arr.shape != blk.shape:
                raise StructureMismatchError(f"{blk.kind} payload shape "
                                             f"{arr.shape}, expected {blk.shape}")
            if arr.ndim == 2:
                asym = np.max(np.abs(arr - arr.T))
                if asym > SYMMETRY_TOL * (1.0 + np.max(np.abs(arr))):
                    raise ValueError(
                        f"psd payload: asymmetry {asym:.3e} beyond tolerance")
                arr = 0.5 * (arr + arr.T)
            clean.append(_freeze(arr))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "parts", tuple(clean))

    @classmethod
    def _trusted(cls, blocks, parts) -> "YElement":
        """An element of float payloads of the blocks' shapes, exactly
        symmetric on PSD blocks and not shared with a writer: no checks, no
        copies, and the payloads are made read-only in place.  For readers
        and arithmetic that build such payloads themselves."""
        for part in parts:
            part.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "parts", tuple(parts))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("YElement is immutable")

    @classmethod
    def zeros(cls, blocks) -> "YElement":
        return cls(blocks, [blk.zero() for blk in blocks])

    @classmethod
    def identity(cls, blocks) -> "YElement":
        return cls(blocks, [blk.identity() for blk in blocks])

    def _require_same_structure(self, other: "YElement"):
        if self.blocks != other.blocks:
            raise StructureMismatchError("block structures differ")

    # Sums and multiples of exactly symmetric payloads are exactly
    # symmetric, so arithmetic skips the constructor's checks.
    def __add__(self, other: "YElement") -> "YElement":
        self._require_same_structure(other)
        return YElement._trusted(self.blocks,
                                 [a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other: "YElement") -> "YElement":
        self._require_same_structure(other)
        return YElement._trusted(self.blocks,
                                 [a - b for a, b in zip(self.parts, other.parts)])

    def __mul__(self, scalar: float) -> "YElement":
        s = float(scalar)
        return YElement._trusted(self.blocks, [s * a for a in self.parts])

    __rmul__ = __mul__

    def __neg__(self) -> "YElement":
        return self * -1.0

    def inner(self, other: "YElement") -> float:
        """Sum of per-block Euclidean / trace inner products."""
        self._require_same_structure(other)
        return float(sum(np.sum(a * b) for a, b in zip(self.parts, other.parts)))

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(a * a) for a in self.parts)))

    def min_eigenvalue(self) -> float:
        """Smallest orthant entry / PSD eigenvalue across blocks (cone margin)."""
        return min(map(cone_margin, self.parts), default=np.inf)

    def __repr__(self):
        desc = ", ".join(f"{b.kind}{b.size}" for b in self.blocks)
        return f"YElement[{desc}]"


@dataclass(frozen=True)
class ConicProgram:
    """sup <c, x> subject to b - sum_i x_i a_i in K.

    ``a`` holds one YElement per scalar variable; ``b`` shares their block
    structure; ``c`` is the objective vector.  The data is kept once, as
    ``stacks``: per block, a_1, ..., a_m, b stacked on a leading axis
    (m + 1 payloads), read-only, of which the a_i and b are views.  Every
    reader of all the data at once takes it from there.
    """

    blocks: tuple
    a: tuple
    b: YElement
    c: np.ndarray
    name: str = ""
    stacks: tuple = field(default=(), repr=False, compare=False)

    def __init__(self, blocks, a, b, c, name=""):
        blocks = tuple(blocks)
        a = tuple(a)
        for ai in a:
            if ai.blocks != blocks:
                raise StructureMismatchError("constraint element structure differs")
        if b.blocks != blocks:
            raise StructureMismatchError("right-hand side structure differs")
        if len(np.ravel(c)) != len(a):
            raise ValueError("objective length must match variable count")
        self._set(blocks, [np.array([ai.parts[k] for ai in a] + [b.parts[k]])
                           for k in range(len(blocks))], c, name)

    @classmethod
    def from_stacks(cls, blocks, stacks, c, name="") -> "ConicProgram":
        """The program of ``stacks``: per block, a float64 array of a_1,
        ..., a_m, b stacked on a leading axis, of the block's payload shape,
        exactly symmetric on PSD blocks and not shared with a writer (it is
        made read-only in place); nothing is checked or copied.  Callers
        outside the package use the validating constructor."""
        self = object.__new__(cls)
        self._set(tuple(blocks), stacks, c, name)
        return self

    def _set(self, blocks, stacks, c, name):
        c = _freeze(np.asarray(c, dtype=float).reshape(-1))
        for stack in stacks:
            stack.flags.writeable = False
        # One payload view per block for each of a_1, ..., a_m, b.
        views = [YElement._trusted(blocks, list(parts))
                 for parts in zip(*stacks)] or \
            [YElement._trusted((), [])] * (len(c) + 1)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "a", tuple(views[:-1]))
        object.__setattr__(self, "b", views[-1])
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "stacks", tuple(stacks))

    @property
    def m(self) -> int:
        """Number of scalar variables."""
        return len(self.a)

    @property
    def ambient_dim(self) -> int:
        return sum(blk.ambient_dim for blk in self.blocks)

    def apply(self, x) -> YElement:
        """Evaluate the constraint map: sum_i x_i a_i, added up term by
        term in the order of i, as a loop over the a_i does, not by a BLAS
        product, whose rounding depends on the memory layout."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if len(x) != self.m:
            raise ValueError(f"x has length {len(x)}, program has {self.m} variables")
        parts = []
        for stack in self.stacks:
            part = np.zeros(stack.shape[1:])
            for term in x.reshape((-1,) + (1,) * (stack.ndim - 1)) * stack[:-1]:
                part += term
            parts.append(part)
        return YElement._trusted(self.blocks, parts)


def adjoint_apply(p: ConicProgram, y: YElement) -> np.ndarray:
    """Adjoint of the constraint map: the vector (<a_1, y>, ..., <a_m, y>)."""
    if y.blocks != p.blocks:
        raise StructureMismatchError("point structure differs from program")
    return sum((np.sum(stack[:-1] * part, axis=tuple(range(1, stack.ndim)))
                for stack, part in zip(p.stacks, y.parts)), np.zeros(p.m))


def primal_slack(p: ConicProgram, x) -> YElement:
    """Constraint slack b - sum_i x_i a_i at the point x."""
    return p.b - p.apply(x)

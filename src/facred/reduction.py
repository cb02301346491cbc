"""Facial reduction driver: face chains, certificates, verification, and the
decomposition of certificates into cone and tangent parts.

The driver repeatedly solves the reducing pair; every recorded step strictly
shrinks the face, and the run ends when the pair confirms minimality with a
point whose slack lies in the relative interior of the final face, often a
checked point with no solve.  ``reducing.step_test`` accepts each step, and
verify repeats it.  The number of reducing steps never exceeds
min(longest face chain - 1, dim of the joint nullspace of the data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .faces import (FaceRep, containment, faces_equal, in_tangent_space,
                    intersect_with_hyperplane, longest_chain_length,
                    split_on_face)
from .linalg import flatten_data
from .model import ConicProgram, YElement, primal_slack
from .reducing import (AmbiguousOutcome, FaceCoordinates, ReducingOutcome,
                       SolverError, solve_reducing_pair, step_test)
from .solver import SolverOptions


class ReductionError(RuntimeError):
    """The reduction run could not be completed; carries the partial chain."""

    def __init__(self, message, partial_chain=None):
        super().__init__(message)
        self.partial_chain = partial_chain


@dataclass
class ReductionCertificate:
    """Chain y_0 .. y_t (y_0 = 0) with faces F_0 .. F_t (or None), per-step
    reducing flags, a point whose slack is strictly inside the final face,
    and the iteration bound ``ell`` of the run (None when not from a run).
    A run also keeps the final face's frame on the reduced program
    (``frame``, a FaceCoordinates), which solve_restricted_to_face takes in
    place of the face; it is neither compared nor printed."""

    ys: list
    faces: list
    reducing_flags: list
    x_strict: np.ndarray
    ell: int = None
    frame: FaceCoordinates = field(default=None, compare=False, repr=False)

    @property
    def steps(self) -> int:
        return len(self.ys) - 1

    @property
    def reducing_count(self) -> int:
        return sum(1 for flag in self.reducing_flags if flag)

    @property
    def minimal_face(self) -> FaceRep:
        return self.faces[-1]


@dataclass
class DecomposedChain:
    """Certificates split as y_i = u_i + v_i with u_i in the dual cone and
    v_i in the tangent space of the dual cone at u_0 + ... + u_{i-1}."""

    us: list
    vs: list


def compute_ell(p: ConicProgram) -> int:
    """Bound on reducing iterations and on the depth of extended duals:
    min(longest face chain of the cone - 1, dim of the nullspace of the
    stacked constraint data and right-hand side), the latter counted from
    singular values at or below RANK_TOL max(1, sigma_max).  That cutoff is
    coarser than linalg.nullspace_basis's on purpose: a direction with so
    small a singular value passes a reducing step's residual test as a null
    direction does, so a chain may use it, and the bound counts it."""
    rows = flatten_data(p)
    sigma = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sigma > config.RANK_TOL * max(1.0, float(sigma[0]))))
    return min(longest_chain_length(p.blocks) - 1, rows.shape[1] - rank)


def run_facial_reduction(p: ConicProgram, tol: float = None,
                         options: SolverOptions = None) -> ReductionCertificate:
    """Compute the minimal cone of a feasible program.

    Returns the full certificate chain, carrying the bound ``ell`` from
    compute_ell; raises ReductionError (with the partial chain attached)
    when a reducing solve fails, a certificate accepted at a loose ``tol``
    fails the face cut's own dual-membership bound, or the theoretical
    iteration bound is exceeded, and propagates AmbiguousOutcome (partial
    chain attached) when a reducing value falls between the decision rungs.
    """
    if tol is None:
        tol = config.DEFAULT_TOL
    if options is None:
        options = SolverOptions()

    face = FaceRep.full_cone(p.blocks)
    ys = [YElement.zeros(p.blocks)]
    faces = [face]
    flags = []
    ell = compute_ell(p)

    def partial():
        return ReductionCertificate(ys, faces, flags, None, ell)

    for _ in range(ell + 1):
        try:
            outcome = solve_reducing_pair(p, face, tol, options)
        except AmbiguousOutcome as exc:
            exc.partial_chain = partial()
            raise
        except SolverError as exc:
            raise ReductionError(str(exc), partial()) from exc
        if outcome.minimal:
            return ReductionCertificate(ys, faces, flags, outcome.x_strict,
                                        ell, outcome.frame)
        # The certificate passed its check at ``tol``; the cut re-tests
        # face-dual membership at its own fixed bound.
        try:
            face = intersect_with_hyperplane(face, outcome.y)
        except ValueError as exc:
            raise ReductionError(f"step {len(ys)}: {exc}", partial()) from exc
        ys.append(outcome.y)
        faces.append(face)
        flags.append(True)

    raise ReductionError(
        f"exceeded the bound of {ell} reducing iterations", partial())


@dataclass
class CheckRecord:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name, ok, detail=""):
        self.checks.append(CheckRecord(name, bool(ok), detail))

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def lines(self):
        return [f"{'pass' if c.ok else 'FAIL'}  {c.name}"
                + (f"  ({c.detail})" if c.detail else "")
                for c in self.checks]


def verify_certificate_chain(p: ConicProgram, cert: ReductionCertificate,
                             tol: float = None) -> VerificationReport:
    """Independently recheck a reduction certificate.

    Pure evaluation, no solves: every certificate passes the run's own step
    test (``step_test``: nullspace membership and membership in the
    running face dual), then face recomputation, flag consistency, and the
    strict-slack condition for the final face.  The recomputed faces are
    compared with ``cert.faces`` if set.
    """
    if tol is None:
        tol = config.DEFAULT_TOL
    face = FaceRep.full_cone(p.blocks)
    report = VerificationReport()
    report.add("chain starts at zero", cert.ys[0].norm() <= tol,
               f"|y_0| = {cert.ys[0].norm():.2e}")

    if cert.faces is not None:
        if not faces_equal(cert.faces[0], face):
            report.add("face 0 is the full cone", False, cert.faces[0].describe())
            return report
        report.add("face 0 is the full cone", True)

    for i in range(1, len(cert.ys)):
        y = cert.ys[i]
        resid, in_l, in_dual = step_test(p, face, y, tol)
        report.add(f"y_{i} in the data nullspace", in_l,
                   f"residual {resid:.2e}")
        report.add(f"y_{i} in the dual of face {i - 1}", in_dual)
        if not (in_l and in_dual):
            return report
        try:
            new_face = intersect_with_hyperplane(face, y)
        except ValueError as exc:
            report.add(f"face {i} recomputation", False, str(exc))
            return report
        if cert.faces is None:
            report.add(f"face {i} recomputation", True, new_face.describe())
        else:
            report.add(f"face {i} matches the recomputed intersection",
                       faces_equal(cert.faces[i], new_face), cert.faces[i].describe())
        strict = not faces_equal(new_face, face)
        flag = cert.reducing_flags[i - 1]
        report.add(f"step {i} flag consistent", flag == strict,
                   f"flagged {flag}, strict drop {strict}")
        face = new_face

    if cert.x_strict is None:
        report.add("strictly feasible point present", False)
        return report
    inside, margin = containment(face, primal_slack(p, cert.x_strict), tol)
    report.add("slack of x_strict lies in the final face", inside)
    report.add("slack of x_strict is strictly interior", margin > tol,
               f"margin {margin:.2e}")
    return report


def decompose_certificates(p: ConicProgram,
                           cert: ReductionCertificate) -> DecomposedChain:
    """Split each chain certificate as y_i = u_i + v_i with u_i in the dual
    cone and v_i in the orthogonal complement of face i-1 (equivalently the
    tangent space of the dual cone at the running sum of the u_j).  u_i is in
    the cone by construction; the v_i are checked at 1e-8."""
    us = [YElement.zeros(p.blocks)]
    vs = [YElement.zeros(p.blocks)]
    for i in range(1, len(cert.ys)):
        u, v = split_on_face(cert.faces[i - 1], cert.ys[i])
        us.append(u)
        vs.append(v)
    _verify_tangency(p, us, vs, 1e-8)
    return DecomposedChain(us, vs)


def _verify_tangency(p, us, vs, tol):
    running = YElement.zeros(p.blocks)
    for i in range(1, len(us)):
        if not all(in_tangent_space(w, v, tol)
                   for w, v in zip(running.parts, vs[i].parts)):
            raise ValueError(
                f"tangent part of step {i} leaves the tangent space")
        running = running + us[i]


__all__ = [
    "AmbiguousOutcome", "DecomposedChain", "ReducingOutcome",
    "ReductionCertificate", "ReductionError", "VerificationReport",
    "compute_ell", "decompose_certificates", "run_facial_reduction",
    "solve_reducing_pair", "verify_certificate_chain",
]

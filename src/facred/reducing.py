"""Face-restricted solves and the auxiliary reducing pair.

Restricting the constraint  b - Ax in F  to a face F splits into linear
equalities (the coordinates of b - Ax outside the span of F must vanish) and
a standard cone constraint in the face's compressed coordinates.  The
equalities are eliminated by parameterizing x over their solution set, so
the subsolver only ever sees orthant/PSD cones.

The face's own coordinates (compress and embed) belong to FaceRep.
FaceCoordinates reads the program through the face's basis Q alone: its
compressed data, the span equalities (b - Ax less its part inside the span,
svec-packed), their elimination by one SVD and the reconstruction of a full
dual element.  Every face-restricted solve, the reducing pair and the
certificate polish go through it.

The reducing pair decides whether F already is the minimal cone of the
program (there is a slack in the relative interior of F) or produces a
certificate y in F* and the nullspace that cuts F down.  One candidate point
is checked first: a slack that lies in ri F by a clear margin proves
F = F_min outright.  Otherwise one interior-point solve of the bounded
primal

    sup t   s.t.  b - Ax - t f in F,  t <= 1,

decides, and its dual optimal solution at value 0 is exactly the
certificate, after undoing the compression.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import config
from .faces import (FaceRep, _nearest_cone_point, face_dual_membership,
                    relative_interior_point)
from .linalg import (_sym, flatten_data, flatten_element, nullspace_basis,
                     unflatten_element)
from .model import ConeBlock, ConicProgram, YElement, adjoint_apply
from .solver import (SolveResult, SolverError, SolverOptions, SolveStatus,
                     solve_conic_lp)

_PURIFY_ROUNDS = 80    # cap on purify's alternating-projection rounds
_POLISH_STEPS = 12     # cap on polish's Gauss-Newton steps


class AmbiguousOutcome(RuntimeError):
    """The reducing program's optimum falls between the decision rungs."""

    def __init__(self, message, partial_chain=None):
        super().__init__(message)
        self.partial_chain = partial_chain


@dataclass(frozen=True)
class ReducingOutcome:
    """Either a reducing certificate or the confirmation of minimality;
    the latter carries the face's frame on the program (FaceCoordinates),
    so a face-restricted solve on the minimal face need not rebuild it."""

    minimal: bool
    y: YElement = None           # certificate, normalized <f, y> = 1
    x_strict: np.ndarray = None  # point with slack in ri F
    frame: FaceCoordinates = None

    @classmethod
    def reduced(cls, y):
        return cls(False, y=y)

    @classmethod
    def minimal_reached(cls, x_strict, frame):
        return cls(True, x_strict=np.asarray(x_strict, dtype=float),
                   frame=frame)


class FaceCoordinates:
    """A program on a face, read through the face's basis Q alone: per
    block, a_1, ..., a_m, b split by the span {Y : Y = PYP}, P = Q Q^T,
    into the part inside, kept compressed (Q^T Y Q symmetrized, or the
    support entries), and the part outside (Y - PYP svec-packed, or the
    entries off the support), which gives the span equations of b - Ax.
    One SVD gives their particular solution, null basis and multipliers."""

    def __init__(self, p: ConicProgram, face: FaceRep):
        if p.blocks != face.blocks:
            raise ValueError("face structure differs from program")
        self.program, self.face = p, face
        self.compressed_data = []    # per kept block: a_1..a_m, b stacked
        values = [np.zeros((p.m + 1, 0))]    # per block: their span rows
        for blk, rep, data in zip(p.blocks, face.reps, p.stacks):
            inside, rows = rep.split(data, blk)
            values.append(rows)
            if rep.rank:
                self.compressed_data.append(inside)
        values = np.hstack(values)
        self.eq_matrix = np.ascontiguousarray(values[:-1].T)
        self.eq_rhs = values[-1]

        self.null_basis, self._pinv = nullspace_basis(self.eq_matrix)
        x = self._pinv @ self.eq_rhs
        resid = np.linalg.norm(self.eq_matrix @ x - self.eq_rhs)
        if resid > 1e-7 * (1.0 + np.linalg.norm(self.eq_rhs)):
            raise SolverError(
                "face does not admit the affine constraints: the span "
                f"equations are inconsistent (residual {resid:.3e})")
        self.x_particular = x

    def combine(self, coeffs) -> list:
        """Per kept block, the sum of coeffs[..., i] times the compressed
        i-th of a_1, ..., a_m, b, symmetrized; at coeffs = (-x, 1) the
        compressed slack b - Ax.  One product per block over the data
        flattened behind its first axis, as np.tensordot forms it."""
        k = np.shape(coeffs)[-1]
        lead, shape = np.reshape(coeffs, (-1, k)), np.shape(coeffs)[:-1]
        out = []
        for data in self.compressed_data:
            part = (lead @ data.reshape(k, -1)).reshape(shape + data.shape[1:])
            out.append(part if data.ndim == 2 else _sym(part))
        return out

    def outside_element(self, coeffs) -> YElement:
        """The adjoint of the span rows: <outside_element(coeffs), b - Ax>
        is coeffs . (eq_rhs - eq_matrix x).  A PSD block's part is the
        unpacked coefficients less their part inside the face's span."""
        parts, at = [], 0
        for blk, rep in zip(self.program.blocks, self.face.reps):
            part, read = rep.outside_adjoint(coeffs[at:], blk)
            parts.append(part)
            at += read
        return YElement(self.program.blocks, parts)

    def eliminated(self) -> list:
        """The program with x = x_particular + null_basis @ s substituted,
        in compressed coordinates, as ``ConicProgram.from_stacks`` takes
        it: per kept block, the images of the null-basis columns and then
        the slack at s = 0, stacked."""
        k = self.null_basis.shape[1]
        images = self.combine(np.hstack([self.null_basis.T, np.zeros((k, 1))]))
        slack0 = self.combine(np.append(-self.x_particular, 1.0))
        return [np.concatenate([im, s[None]]) for im, s in zip(images, slack0)]

    def dual_point(self, parts, c=0.0) -> YElement:
        """Full dual element y with A* y = c from a compressed dual element:
        embed it, then subtract the outside-coordinate multipliers that best
        cancel the adjoint's defect."""
        y_face = self.face.embed(parts)
        target = adjoint_apply(self.program, y_face) - c
        return y_face - self.outside_element(self._pinv.T @ target)


def _compressed_units(coords: FaceCoordinates):
    """Per kept block, its first ambient coordinate and the compressed image
    of each of its unit elements, in one batch."""
    g_hat, start = [], 0
    for blk, rep in zip(coords.face.blocks, coords.face.reps):
        if rep.rank:
            units = blk.unsvec(np.eye(blk.ambient_dim))
            g_hat.append((start, rep.compress(units)))
        start += blk.ambient_dim
    return g_hat


def polish_certificate(coords: FaceCoordinates, f: YElement, y0: YElement,
                       x0: np.ndarray) -> YElement:
    """Gauss-Newton refinement of a reducing certificate.

    An interior-point certificate sits about sqrt(gap) away from an exact
    one, which is too coarse for the rank geometry downstream.  The exact
    certificates are cut out by smooth equations: orthogonality to the data,
    the normalization against the face's interior point, the bilinear
    complementarity  slack(x) . y = 0,  and the requirement that slack(x)
    stays in the face's span.  Gauss-Newton from the solver's point lands on
    a nearby exact solution; any exact solution cuts a valid face, so the
    residual norm is all that matters.  Its Jacobian in y is closed form.
    """
    p, face = coords.program, coords.face
    dim, m = p.ambient_dim, p.m
    x = np.asarray(x0, dtype=float).copy()
    yvec = flatten_element(y0)
    data = np.vstack([flatten_data(p), flatten_element(f)])
    target = np.r_[np.zeros(m + 1), 1.0]    # (A, b)* y = 0 and <f, y> = 1
    span_rows, span_rhs = coords.eq_matrix, coords.eq_rhs
    top = np.hstack([np.zeros((m + 2, m)), data])
    bottom = np.hstack([span_rows, np.zeros((span_rows.shape[0], dim))])

    # Complementarity lives in the face's compressed coordinates: both the
    # slack and the certificate are psd there, so orthogonality of the
    # inner product forces the compressed matrix product to vanish.
    kept = [rep for rep in face.reps if rep.rank]
    g_hat = _compressed_units(coords)

    def residual(x, yel):
        s_hat = coords.combine(np.append(-x, 1.0))
        y_hat = face.compress(yel)
        parts = [data @ flatten_element(yel) - target]
        parts += [rep.product(s_c, y_c).reshape(-1)
                  for rep, s_c, y_c in zip(kept, s_hat, y_hat)]
        parts.append(span_rows @ x - span_rhs)
        return np.concatenate(parts), s_hat, y_hat

    best = None
    for _ in range(_POLISH_STEPS):
        yel = unflatten_element(yvec, p.blocks)
        res, s_hat, y_hat = residual(x, yel)
        norm = float(np.linalg.norm(res))
        if best is None or norm < best[0]:
            best = (norm, yvec.copy())
        if norm <= 1e-13 * (1.0 + float(np.linalg.norm(yvec))):
            break
        rows = [top]
        for k, (rep, s_c, y_c) in enumerate(zip(kept, s_hat, y_hat)):
            a_hat = coords.compressed_data[k][:m]
            jx = -rep.product(a_hat, y_c).reshape(m, s_c.size).T
            first, g = g_hat[k]
            jy = np.zeros((s_c.size, dim))
            jy[:, first:first + len(g)] = \
                rep.product(s_c, g).reshape(len(g), -1).T
            rows.append(np.hstack([jx, jy]))
        jac = np.vstack(rows + [bottom])
        # Truncate tiny singular values and cap the step: the certificate
        # family has flat directions along which a raw least-squares step
        # can run off to enormous but useless exact solutions.
        step, *_ = np.linalg.lstsq(jac, -res, rcond=1e-9)
        step_norm = float(np.linalg.norm(step))
        cap = 1.0 + 0.1 * float(np.linalg.norm(yvec))
        if step_norm > cap:
            step *= cap / step_norm
        x = x + step[:m]
        yvec = yvec + step[m:]

    return _normalized(f, unflatten_element(best[1], p.blocks),
                       "certificate polish")


def solve_restricted_to_face(p: ConicProgram, face,
                             options: SolverOptions = None):
    """Solve ``p`` with its cone replaced by ``face`` (value-preserving when
    the face contains the minimal cone).  ``face`` is a FaceRep, or its
    frame on a program with the data of ``p`` (a FaceCoordinates, as a
    reduction chain carries for its minimal face), which is not rebuilt.

    The span equalities are eliminated exactly, so the returned point's
    slack lies in the face itself.  The answer is closed form, with no
    solve and 0 iterations, when the face is {0} or when the span equations
    pin x (no variable is left) at a slack with a clear interior margin
    (``_has_margin``): x is the particular solution and the compressed dual
    is 0, so y is the span multipliers alone, which pair to zero with a
    slack in the face's span and close the gap.  A pinned slack on the
    face's boundary still goes to the subsolver, as does every program
    with variables left, in compressed coordinates.  Returns a SolveResult
    for the original program: ``x`` in its variables, ``z`` the slack
    embedded in its blocks, and ``y`` a dual element of its blocks with
    A* y = c (the compressed dual plus the span multipliers).
    """
    coords = _frame(p, face)
    face, blocks = coords.face, coords.face.kept_blocks
    stacks = coords.eliminated()
    if not blocks or (not coords.null_basis.shape[1] and _has_margin(
            coords, coords.x_particular, config.DEFAULT_TOL)):
        x = coords.x_particular
        obj = float(np.dot(p.c, x))
        y = coords.dual_point([blk.zero() for blk in blocks], p.c)
        return SolveResult(SolveStatus.OPTIMAL, x, y,
                           face.embed([stack[-1] for stack in stacks]),
                           obj, obj,
                           {"primal": 0.0, "dual": 0.0, "gap": 0.0, "mu": 0.0},
                           0, [], "the span equations pin x")
    prog = ConicProgram.from_stacks(blocks, stacks, coords.null_basis.T @ p.c,
                                    name=(p.name + " on-face").strip())
    res = solve_conic_lp(prog, options)
    shift = float(np.dot(p.c, coords.x_particular))
    res.x = coords.x_particular + coords.null_basis @ res.x
    res.y = coords.dual_point(res.y.parts, p.c)
    res.z = face.embed(res.z.parts)
    res.primal_obj += shift
    res.dual_obj += shift
    return res


def _frame(p: ConicProgram, face) -> FaceCoordinates:
    """The frame of ``face`` on ``p``, built from a FaceRep.  A frame given
    as ``face`` is used as it is when its program's blocks and stacks equal
    those of ``p`` (c is not part of a frame), and refused with ValueError
    otherwise."""
    if not isinstance(face, FaceCoordinates):
        return FaceCoordinates(p, face)
    other = face.program
    if other.blocks != p.blocks or not all(
            map(np.array_equal, other.stacks, p.stacks)):
        raise ValueError("face frame belongs to a program with other data")
    return face


def restricted_solve_failure(p: ConicProgram, face: FaceRep, res):
    """The first check that ``res``, a solve of ``p`` restricted to
    ``face``, fails on the program's own data, or None: A* y = c within
    tol (1 + max |c|), compressed slack and compressed y in the face's cone
    within tol (1 + their largest entry), and c x = <b, y> within
    tol (1 + |c x|), tol the default tolerance."""
    tol = config.DEFAULT_TOL
    c = np.asarray(p.c, dtype=float)
    adjoint = float(np.max(np.abs(adjoint_apply(p, res.y) - c), initial=0.0))
    if adjoint > tol * (1.0 + float(np.max(np.abs(c), initial=0.0))):
        return f"adjoint residual {adjoint:.2e}"
    for name, elem in (("slack", p.b - p.apply(res.x)), ("dual", res.y)):
        margin, scale = face.margin(elem)
        if margin < -tol * (1.0 + scale):
            return f"{name} cone margin {margin:.2e}"
    primal, dual = float(np.dot(c, res.x)), p.b.inner(res.y)
    if abs(primal - dual) > tol * (1.0 + abs(primal)):
        return f"gap {abs(primal - dual):.2e}"
    return None


def _strict_candidate(coords: FaceCoordinates, stacks, tol):
    """A point whose slack lies in the relative interior of the face by a
    clear margin, or None.

    Over the eliminated variables (``coords.eliminated()``), the candidate
    fits the compressed slack to tau * I, tau = |slack| / |I|, I the
    compressed canonical interior point; its slack is then recomputed from
    the program's data.  A margin mu (smallest compressed eigenvalue or
    entry) makes t = min(1, mu) feasible for the reducing primal, so
    accepting mu >= 100 tol (1 + largest entry) confirms only what its
    solve would.  Returns x or None.
    """
    flat = np.hstack([stack.reshape(len(stack), -1) for stack in stacks])
    goal = np.hstack([blk.identity().ravel()
                      for blk in coords.face.kept_blocks])
    goal *= np.linalg.norm(flat[-1]) / np.linalg.norm(goal)
    x = coords.x_particular
    if coords.null_basis.shape[1]:
        w, *_ = np.linalg.lstsq(flat[:-1].T, flat[-1] - goal, rcond=None)
        x = x + coords.null_basis @ w
    return x if _has_margin(coords, x, tol) else None


def _has_margin(coords: FaceCoordinates, x, tol) -> bool:
    """Whether the slack of x, recomputed from the program's data, has
    compressed interior margin at least 100 tol (1 + its largest entry)."""
    margin, scale = coords.face.margin(coords.program.b
                                       - coords.program.apply(x))
    return margin >= 100.0 * tol * (1.0 + scale)


def _reducing_primal(coords: FaceCoordinates, f: YElement, stacks):
    """sup t over the eliminated variables (``coords.eliminated()``), slack
    in the compressed cone, with the bounding row t <= 1."""
    k = coords.null_basis.shape[1]
    f_hat = [part if part.ndim == 1 else _sym(part)
             for part in coords.face.compress(f)]
    stacks = [np.concatenate([stack[:-1], f_c[None], stack[-1:]])
              for stack, f_c in zip(stacks, f_hat)]
    stacks.append(np.append(np.zeros(k), [1.0, 1.0]).reshape(-1, 1))
    return ConicProgram.from_stacks(
        coords.face.kept_blocks + (ConeBlock("orthant", 1),), stacks,
        np.append(np.zeros(k), 1.0), name="reducing")


def solve_reducing_pair(p: ConicProgram, face: FaceRep, tol: float = None,
                        options: SolverOptions = None) -> ReducingOutcome:
    """Decide whether ``face`` is the minimal cone of ``p`` or produce a
    reducing certificate.

    The caller guarantees the minimal cone is contained in ``face``.  The
    bounded reducing primal has value 0 exactly when the face can be cut
    further; in that case the interior-point dual solution, decompressed
    and combined with multipliers for the span equalities, is the
    certificate y in F* with (A,b)* y = 0 and <f, y> = 1, f the face's
    canonical interior point.

    Decision rungs: a checked point whose compressed slack has interior
    margin at least 100 * tol * (1 + its largest entry) confirms minimality
    without a solve (f compresses to the identity, so the margin bounds the
    value below), and so does the first solve iterate whose x passes the
    same check.  Otherwise the solve decides: values below ``tol``
    reduce, values above 100 * tol confirm minimality, anything between
    raises AmbiguousOutcome.
    """
    if tol is None:
        tol = config.DEFAULT_TOL
    if options is None:
        options = SolverOptions()
    coords = FaceCoordinates(p, face)

    if not face.kept_blocks:
        # The face is {0}: minimal iff b - Ax can vanish, which the span
        # equations already certified.
        return ReducingOutcome.minimal_reached(coords.x_particular, coords)

    stacks = coords.eliminated()
    x_strict = _strict_candidate(coords, stacks, tol)
    if x_strict is not None:
        return ReducingOutcome.minimal_reached(x_strict, coords)

    f = relative_interior_point(face)
    prog = _reducing_primal(coords, f, stacks)
    confirmed = []

    def checks(x, score, dual_obj, rel_dual):
        # Weak duality: at a dual feasible iterate <b, y> >= t*, and an x
        # that passes makes t = min(1, margin) >= min(1, 100 tol) feasible,
        # so no x can pass while the dual objective is below that bar.
        if rel_dual <= 1e-12 and dual_obj < min(1.0, 100.0 * tol):
            return False
        point = coords.x_particular + coords.null_basis @ x[:-1]
        if _has_margin(coords, point, tol):
            confirmed.append(point)
        return bool(confirmed)

    res = solve_conic_lp(prog, replace(options, stop=checks))
    if confirmed:
        return ReducingOutcome.minimal_reached(confirmed[0], coords)
    if res.status not in (SolveStatus.OPTIMAL, SolveStatus.NUMERICAL_FAILURE) \
            or res.score > 1e-5:
        raise SolverError(
            f"reducing solve unusable: status {res.status.value}, "
            f"score {res.score:.2e}")
    t_star = res.primal_obj
    x_cand = coords.x_particular + coords.null_basis @ res.x[:-1]

    if t_star >= 100.0 * tol:
        return ReducingOutcome.minimal_reached(x_cand, coords)

    if t_star <= tol:
        y = _normalized(f, coords.dual_point(res.y.parts[:-1]),
                        "certificate extraction")
        y = _purify_certificate(p, face, f, y)
        y = polish_certificate(coords, f, y, x_cand)
        _check_certificate(p, face, f, y, tol)
        return ReducingOutcome.reduced(y)

    raise AmbiguousOutcome(
        f"reducing value {t_star:.3e} lies between the decision rungs "
        f"({tol:.1e}, {100 * tol:.1e})")


def _normalized(f: YElement, y: YElement, stage: str) -> YElement:
    """y scaled to <f, y> = 1 after one stage of a certificate's making;
    SolverError when |<f, y>| < 1e-6."""
    scale = f.inner(y)
    if abs(scale) < 1e-6:
        raise SolverError(f"{stage} collapsed the normalization")
    return (1.0 / scale) * y


def _purify_certificate(p: ConicProgram, face: FaceRep, f: YElement,
                        y: YElement) -> YElement:
    """Clean the interior-point dust off a reducing certificate.

    A certificate solves a degenerate program, so the raw solution sits
    roughly sqrt(gap) away from the true one, which is too coarse for the
    rank decisions downstream.  The exact constraints are known: y must lie
    in the nullspace of (A, b)* and its face-compressed part must be psd of
    low rank.  Alternating projection between the two contracts the dust;
    the loop stops once the combined violation reaches fine precision, or
    stalls above half of its value three rounds earlier (it often settles
    at 1e-13 to 1e-10): polish then reaches 1e-13 in one or two steps.
    """
    rows = flatten_data(p)
    # Nullspace projection v - V_r^T (V_r v), V_r the thin SVD's row space.
    _, svals, vt = np.linalg.svd(rows, full_matrices=False)
    row_vt = vt[:int(np.sum(svals > 1e-12 * (svals[0] if svals.size else 1.0)))]

    # Rank cutoff for the structure projection: the large eigenvalues of a
    # normalized certificate are O(1), the dust is near sqrt(solver gap).
    cutoff = 1e-4

    # The projection in each round's stopping test starts the next round.
    vec = flatten_element(y)
    vec = vec - row_vt.T @ (row_vt @ vec)
    history = [np.inf] * 3      # violation by round; padded for the stall test
    for _ in range(_PURIFY_ROUNDS):
        cur = unflatten_element(vec, p.blocks)
        shifts = [_nearest_cone_point(part, cutoff) - part
                  for part in face.compress(cur)]
        change = max((float(np.max(np.abs(d))) for d in shifts), default=0.0)
        # Symmetrizing is exact on vectors and on blocks left unchanged.
        parts = [part + shift for part, shift
                 in zip(cur.parts, face._embed_parts(shifts))]
        parts = [0.5 * (part + part.T) for part in parts]
        vec_new = flatten_element(YElement._trusted(p.blocks, parts))
        vec = vec_new - row_vt.T @ (row_vt @ vec_new)
        null_resid = float(np.linalg.norm(vec_new - vec))
        history.append(max(change, null_resid))
        if history[-1] <= 1e-13 * (1.0 + float(np.linalg.norm(vec_new))) \
                or history[-1] > 0.5 * history[-4]:
            break
    return _normalized(f, unflatten_element(vec, p.blocks),
                       "certificate cleanup")


def step_test(p: ConicProgram, face: FaceRep, y: YElement, tol: float):
    """The acceptance test of one facial-reduction step, made by the run
    and again by verify: (residual, in_nullspace, in_face_dual), the
    residual max |<a_i, y>|, |<b, y>| within tol (1 + |y|), and y in the
    dual of ``face`` at tol."""
    resid = float(np.max(np.abs(np.append(adjoint_apply(p, y), p.b.inner(y)))))
    return (resid, resid <= tol * (1.0 + y.norm()),
            face_dual_membership(face, y, tol))


def _check_certificate(p: ConicProgram, face: FaceRep, f: YElement,
                       y: YElement, tol: float):
    resid, in_l, in_dual = step_test(p, face, y, tol)
    checks = [
        (in_l, f"certificate leaves the nullspace (residual {resid:.2e})"),
        (in_dual, "certificate leaves the face dual"),
        (abs(f.inner(y) - 1.0) <= 1e-9, "certificate normalization drifted"),
    ]
    for ok, msg in checks:
        if not ok:
            raise AmbiguousOutcome("reducing certificate failed verification: "
                                   + msg)

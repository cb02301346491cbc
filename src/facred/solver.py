"""Primal-dual interior-point subsolver for conic LPs.

Solves the pair

    sup  <c, x>                      inf  <b, y>
    s.t. b - sum x_i a_i = z in K    s.t. <a_i, y> = c_i,  y in K

by an infeasible-start predictor-corrector path-following method with
Nesterov-Todd scaling.  The iterate and the data are flat, as in SDPT3:
orthant entries first, then each PSD block's n x n payload row-major, so
residuals, objectives, A x, A* y and the Schur right-hand side are single
products over the vectors x, z, y and one (m x D) data matrix.

Each step is taken in the NT-scaled space (Todd, Toh and Tutuncu, SIOPT
1998), where z and y both map to V = diag(v) per block and the NT metric is
the identity.  A Cholesky factor and an eigendecomposition per PSD block
give the scaling root R, which scales the data (T = R a_i R^T) and r_p once
per iteration.  There the centring target sigma mu V^-1 - V is diagonal,
the Mehrotra term and the step tests (eigenvalues of V^-1/2 sym(d) V^-1/2)
are entrywise, and only the corrector is mapped back.  One QR factor of T
solves the Schur system and re-projects the dual direction onto the dual
equations: Euclidean here, so least in the NT metric (Nesterov and Todd,
SIOPT 1998) and small against the distance to the cone boundary, so the
endgame does not stall.  Those factorizations call LAPACK through
``linalg``'s entry points, which skip numpy.linalg's per-call wrapper: on
these small blocks it costs more than LAPACK.  Intended for desk-scale
problems (ambient dimension up to a few thousand); no sparsity
exploitation, no warm starts.

With ``SolverOptions(keep_history=True)`` every iterate is kept on the
result, so callers can inspect how the solver approached problems whose
optima are not attained; by default none is kept.  ``SolverOptions(stop=f)``
ends the solve at the first iterate that passes the caller's test
f(x, score, dual_obj, rel_dual): x the iterate's primal point, score its
``SolveResult.score``, dual_obj its dual objective <b, y> and rel_dual its
relative dual residual |c - A* y| / (1 + |c|), which together bound the
value from above once the dual is feasible.  The test is evaluated after
each iterate's residuals unless that iterate already meets the solve
tolerance; the result is then classified from the best iterate, as at any
other exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import config, linalg
from .linalg import (_sym, flatten_data, flatten_element, nullspace_basis,
                     shift_off_objective, unflatten_element)
from .model import ConicProgram, YElement


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


class SolverError(RuntimeError):
    """The subsolver could not produce a usable outcome."""


# Fraction of the distance to the cone boundary taken by a step.
STEP_FRACTION = 0.98


@dataclass
class SolverOptions:
    max_iter: int = 200
    keep_history: bool = False
    # f(x, score, dual_obj, rel_dual): see the module docstring.
    stop: Callable[[np.ndarray, float, float, float], bool] | None = None


@dataclass
class Iterate:
    x: np.ndarray
    z: YElement
    y: YElement
    primal_obj: float
    dual_obj: float
    rel_primal: float
    rel_dual: float
    mu: float


@dataclass
class SolveResult:
    status: SolveStatus
    x: np.ndarray
    y: YElement
    z: YElement
    primal_obj: float
    dual_obj: float
    residuals: dict
    iterations: int
    iterates: list = field(default_factory=list)
    message: str = ""

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    @property
    def score(self) -> float:
        """Worst of the relative primal, dual and gap residuals."""
        return max(self.residuals["primal"], self.residuals["dual"],
                   self.residuals["gap"])


def _psd_scaling(z, y):
    """Nesterov-Todd scaling root of one PSD block at the interior pair (Z, Y).

    With Z = L L^T and L^T Y L = U diag(lam) U^T, the root
    R = lam^1/4 U^T L^-1 satisfies W^-1 = R^T R and
    R Z R^T = R^-T Y R^-1 = diag(v), v = lam^1/2.  Returns (R, v).
    """
    lz = linalg.cholesky(z)
    lam, u = linalg.eigh(_sym(lz.T @ y @ lz))
    if lam[0] <= 0:
        raise np.linalg.LinAlgError("scaling matrix not PD")
    return lam[:, None] ** 0.25 * linalg.solve(lz.T, u).T, np.sqrt(lam)


def _step_min_eig(direction, hww):
    """Smallest eigenvalue of V^-1/2 sym(direction) V^-1/2, given the
    half-weights hww = 0.5 w w^T with w = v^-1/2 (``direction`` flat or
    square), as that of (direction + direction^T) * hww: halving is exact,
    so this is sym(direction) * w w^T bit for bit.  V + alpha direction is
    psd exactly while alpha times it is at least -1."""
    d = direction.reshape(hww.shape)
    return linalg.eigvalsh((d + d.T) * hww)[0]


def _mehrotra_psd(dz, dy, v):
    """Mehrotra's second-order term of one PSD block in the scaled space,
    where V = diag(v): the U with sym(U V) = sym(dZ dY), that is
    2 sym(dZ dY)_ij / (v_i + v_j), computed as (P + P^T)_ij / (v_i + v_j)
    with P = dZ dY, which is the same bit for bit."""
    prod = dz @ dy
    return (prod + prod.T) / np.add.outer(v, v)


def _norm(vec):
    """Euclidean norm, as np.linalg.norm computes it for a vector."""
    return math.sqrt(vec @ vec)


class _Layout:
    """Flat coordinates of a block structure: ``orth`` is the leading slice
    of orthant entries (None without any), ``psd`` each PSD block's slice
    and order."""

    def __init__(self, blocks):
        self.order = sorted(range(len(blocks)),
                            key=lambda k: len(blocks[k].shape))
        self.spans, self.psd, at = [None] * len(blocks), [], 0
        for k in self.order:
            shape = blocks[k].shape
            self.spans[k] = (slice(at, at + math.prod(shape)), shape)
            at = self.spans[k][0].stop
            if len(shape) == 2:
                self.psd.append((self.spans[k][0], shape[0]))
        n_orth = self.psd[0][0].start if self.psd else at
        self.dim, self.orth = at, slice(0, n_orth) if n_orth else None

    def flatten(self, parts):
        return np.concatenate([np.ravel(parts[k]) for k in self.order])

    def parts(self, vec):
        return [vec[sl].reshape(shape) for sl, shape in self.spans]


def _schur_solver(tmat):
    """Solver for the Schur system (T^T T) dx = rhs of the scaled data T.

    One QR factorization T = Q R gives T^T T = R^T R without forming it.
    Each solve takes one correction step against T itself, because the
    semi-normal equations alone are not backward stable.  A rank-deficient
    T gets the minimum-norm least-squares solution instead.
    """
    m = tmat.shape[1]
    r_t = linalg.qr_r(tmat)
    diag = np.abs(np.diag(r_t))
    if r_t.shape[0] < m or (m and diag.min() <= 1e-13 * diag.max()):
        mat = r_t.T @ r_t
        return lambda rhs: np.linalg.lstsq(mat, rhs, rcond=None)[0]
    r_inv = linalg.inv(r_t)

    def solve(rhs):
        sol = r_inv @ (r_inv.T @ rhs)
        return sol + r_inv @ (r_inv.T @ (rhs - tmat.T @ (tmat @ sol)))

    return solve


def solve_conic_lp(p: ConicProgram, options: SolverOptions = None) -> SolveResult:
    """Solve a conic LP; deterministic for fixed options.

    Status contract: OPTIMAL means primal and dual feasibility residuals and
    the relative gap are all below the solve tolerance.  On stalls and on a
    linear-algebra breakdown the best iterate found is returned with
    NUMERICAL_FAILURE.
    """
    if options is None:
        options = SolverOptions()
    if not p.blocks:
        raise SolverError("program has no cone blocks")
    lay = _Layout(p.blocks)
    orth, m = lay.orth, p.m
    nu = sum(blk.size for blk in p.blocks)
    # The data, one row per variable: A x is x @ amat and A* y is amat @ y.
    amat = np.concatenate([p.stacks[k][:m].reshape(m, p.stacks[k][0].size)
                           for k in lay.order], axis=1)
    # Per PSD block: its slice, order, data and the flat positions of its
    # diagonal, where V = diag(v) lives.
    psd = [(sl, n, amat[:, sl].reshape(m, n, n),
            sl.start + np.arange(n) * (n + 1)) for sl, n in lay.psd]
    bvec, c = lay.flatten(p.b.parts), p.c
    bnorm, cnorm = _norm(bvec), _norm(c)

    # Initial point: scaled identities, sized to the data.
    eta_p = max(1.0, bnorm / max(1.0, np.sqrt(nu)))
    ascale = max([1.0, *np.linalg.norm(amat, axis=1)])
    eta_d = max(1.0, cnorm / max(1.0, np.sqrt(max(m, 1))) / ascale)
    unit = lay.flatten([blk.identity() for blk in p.blocks])
    x, z, y = np.zeros(m), eta_p * unit, eta_d * unit
    # The scaled point V: v on the orthant entries and PSD diagonals.
    diag, v_hat = np.flatnonzero(unit), np.zeros(lay.dim)

    tol, tau = config.SOLVE_TOL, STEP_FRACTION
    history, best, best_score = [], None, np.inf
    stall = no_progress = it = 0
    status, message = None, ""

    def pack(vec):
        # Symmetrized without the constructor's check: rounding may fail it.
        return YElement._trusted(p.blocks, [
            _sym(part) if part.ndim == 2 else part.copy()
            for part in lay.parts(vec)])

    for it in range(options.max_iter + 1):
        rp = bvec - x @ amat - z
        ady = amat @ y
        rd = c - ady
        gap = float(z @ y)
        mu = gap / nu
        pobj = float(c @ x)
        dobj = float(bvec @ y)
        rel_p = _norm(rp) / (1.0 + bnorm)
        rel_d = _norm(rd) / (1.0 + cnorm)
        rel_gap = abs(dobj - pobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(rel_p, rel_d, rel_gap)

        if options.keep_history:
            history.append(Iterate(x.copy(), pack(z), pack(y),
                                   pobj, dobj, rel_p, rel_d, mu))
        # Stall accounting only matters in the endgame; early iterations
        # routinely trade residual components back and forth.
        if score < 0.9 * best_score or best_score > 1e-4:
            no_progress = 0
        else:
            no_progress += 1
        if score < best_score:
            best_score = score
            best = (x.copy(), z.copy(), y.copy(), pobj, dobj,
                    {"primal": rel_p, "dual": rel_d, "gap": rel_gap, "mu": mu})

        if score <= tol:
            break
        if options.stop is not None and options.stop(x, score, dobj, rel_d):
            message = "stopped by the caller's test"
            break
        if no_progress >= 10:
            message = "progress stalled"
            break

        # Infeasibility heuristics: scaled Farkas certificates.
        ynorm = _norm(y)
        if ynorm > 1e8 and dobj < 0:
            if (_norm(ady) <= 1e-7 * ynorm
                    and dobj <= -1e-7 * ynorm):
                status = SolveStatus.PRIMAL_INFEASIBLE
                message = "dual iterate certifies primal infeasibility"
                break
        xnorm = _norm(x)
        if xnorm > 1e8 and pobj > 0:
            ray_min = pack(-(x / xnorm) @ amat).min_eigenvalue()
            if ray_min >= -1e-7 and pobj >= 1e-7 * xnorm:
                status = SolveStatus.UNBOUNDED
                message = "primal ray certifies unboundedness (dual infeasible)"
                break

        if it == options.max_iter:
            message = "iteration limit reached"
            break

        # One step in the Nesterov-Todd scaled space, where z and y both
        # map to V = diag(v) per block (orthant scaling root sqrt(y / z)).
        # The Schur complement is T^T T for the scaled data T, one row per
        # variable; rp_hat is the scaled primal residual R rp R^T.
        try:
            tmat, rp_hat, scal = np.empty_like(amat), np.empty_like(rp), []
            if orth:
                if z[orth].min() <= 0 or y[orth].min() <= 0:
                    raise np.linalg.LinAlgError("interior lost")
                root = np.sqrt(y[orth] / z[orth])
                tmat[:, orth] = amat[:, orth] * root
                rp_hat[orth] = root * rp[orth]
                v_orth = v_hat[orth] = np.sqrt(z[orth] * y[orth])
            for sl, n, a3, pos in psd:
                rt, v = _psd_scaling(z[sl].reshape(n, n), y[sl].reshape(n, n))
                tmat[:, sl] = (rt @ a3 @ rt.T).reshape(m, n * n)
                rp_hat[sl] = (rt @ rp[sl].reshape(n, n) @ rt.T).ravel()
                v_hat[pos] = v
                w = 1.0 / np.sqrt(v)
                scal.append((sl, n, rt, v, 0.5 * np.outer(w, w)))
            v_all = v_hat[diag]
            schur_solve = _schur_solver(tmat.T)

            def directions(rc_hat):
                # dy_hat is re-projected onto T dy_hat = r_d, lost when W is
                # ill-conditioned; a Euclidean correction here is the least
                # one in the NT metric, where the boundary distance lives.
                dx = schur_solve(rd - tmat @ (rc_hat - rp_hat))
                tdx = dx @ tmat
                dy_hat = rc_hat - rp_hat + tdx
                if m:
                    dy_hat += schur_solve(rd - tmat @ dy_hat) @ tmat
                return dx, rp_hat - tdx, dy_hat

            def max_steps(dz_hat, dy_hat):
                lo_p = lo_d = 0.0
                if orth:
                    lo_p = min(lo_p, (dz_hat[orth] / v_orth).min())
                    lo_d = min(lo_d, (dy_hat[orth] / v_orth).min())
                for sl, _, _, _, hww in scal:
                    lo_p = min(lo_p, _step_min_eig(dz_hat[sl], hww))
                    lo_d = min(lo_d, _step_min_eig(dy_hat[sl], hww))
                return tuple(np.inf if lo >= -1e-14 else -1.0 / lo
                             for lo in (lo_p, lo_d))

            # Predictor (affine scaling) direction: the target is -V.
            dx_a, dz_a, dy_a = directions(-v_hat)
            ap_a, ad_a = max_steps(dz_a, dy_a)
            ap_a, ad_a = min(1.0, tau * ap_a), min(1.0, tau * ad_a)
            gap_aff = float((v_hat + ap_a * dz_a) @ (v_hat + ad_a * dy_a))
            sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-8),
                        0.999) if gap > 0 else 0.1
            # Recenter when progress stalls: a pure centering step restores the
            # proximity to the central path that cheap directions rely on.
            tau_eff = tau
            if no_progress >= 3:
                sigma = max(sigma, 0.8)
                tau_eff = min(tau, 0.9)

            # Centring target sigma mu V^-1 - V, less Mehrotra's term.
            rc_hat = np.zeros_like(z)
            rc_hat[diag] = sigma * mu / v_all - v_all
            if no_progress < 3:
                if orth:
                    rc_hat[orth] -= dz_a[orth] * dy_a[orth] / v_orth
                for sl, n, _, v, _ in scal:
                    block = _mehrotra_psd(dz_a[sl].reshape(n, n),
                                          dy_a[sl].reshape(n, n), v)
                    if np.isfinite(block).all():
                        rc_hat[sl] -= block.ravel()

            dx, dz_hat, dy_hat = directions(rc_hat)
            ap, ad = max_steps(dz_hat, dy_hat)
            ap, ad = min(1.0, tau_eff * ap), min(1.0, tau_eff * ad)
            if no_progress >= 3:
                ap = ad = min(ap, ad)
            # Only the corrector is mapped back: dz = rp - A dx, and
            # dy = R^T dy_hat R (root * dy_hat on the orthant).
            dz, dy = rp - dx @ amat, np.empty_like(y)
            if orth:
                dy[orth] = root * dy_hat[orth]
            for sl, n, rt, _, _ in scal:
                dy[sl] = _sym(rt.T @ dy_hat[sl].reshape(n, n) @ rt).ravel()
        except np.linalg.LinAlgError as exc:
            message = f"linear algebra breakdown: {exc}"
            break

        if max(ap, ad) < 1e-8:
            stall += 1
            if stall >= 3:
                message = "step sizes collapsed"
                break
        else:
            stall = 0

        x = x + ap * dx
        z = z + ap * dz
        y = y + ad * dy

    if best is None:
        raise SolverError("no iterate recorded")
    bx, bz, by, bpobj, bdobj, bres = best
    if status is None:
        # Classify by the best iterate: optimal once within the acceptance
        # tolerance, even if the inner SOLVE_TOL target was not quite reached.
        if best_score <= config.DEFAULT_TOL:
            status = SolveStatus.OPTIMAL
        else:
            status = SolveStatus.NUMERICAL_FAILURE
            message = message or "did not reach the acceptance tolerance"
    return SolveResult(status, bx, pack(by), pack(bz),
                       bpobj, bdobj, bres, it, history, message)


@dataclass(frozen=True)
class StandardDualForm:
    """The dual program  inf <b, y> : <a_i, y> = c_i, y in K  re-expressed in
    primal (sup) form by parameterizing the affine set as y0 + span(basis).

    The affine set is eliminated as the extended dual's encoding eliminates
    its own: one SVD of the flattened a_i (linalg.nullspace_basis), and y0
    shifted along the basis so that the sup-form objective carries no
    constant (linalg.shift_off_objective), unless <b, .> is constant on the
    affine set; that constant is then the offset.  value_of(result)
    recovers the dual objective value.
    """

    program: ConicProgram
    y0: YElement
    basis: tuple
    offset: float

    def value_of(self, res: SolveResult) -> float:
        return self.offset - res.primal_obj


def dual_equations(p: ConicProgram):
    """The dual equations <a_i, y> = c_i over the flattened y, eliminated
    once: (R, N, R^+, y) with R the rows of the a_i, (N, R^+) =
    nullspace_basis(R) and y = R^+ c, or y None when the equations are
    inconsistent (|R y - c| above 1e-9 (1 + |c|))."""
    rows = flatten_data(p)[:p.m]
    null, pinv = nullspace_basis(rows)
    sol = pinv @ p.c
    if np.linalg.norm(rows @ sol - p.c) > 1e-9 * (1.0 + np.linalg.norm(p.c)):
        sol = None
    return rows, null, pinv, sol


def dual_interior_direction(p: ConicProgram, ray: YElement):
    """A certified y0 in int K with <a_i, y0> = 0 for all i, or None.

    ``ray`` is a nonzero element of K with <a_i, ray> = 0 (a first reducing
    certificate).  The candidate I + s ray, s = |I| / |ray|, is projected
    onto the kernel of the flattened rows R of the a_i; the result is
    accepted only when R has full row rank, so A* y = c is consistent, and
    its smallest eigenvalue beats |R y0| / sigma_min(R), so by Weyl's
    inequality the exact projection is interior too, with a relative margin
    of 1e-8 for the eigensolver.  Then y_c + t y0 is a Slater point of the
    ordinary dual for any solution y_c of A* y = c and t large.
    """
    unit = YElement.identity(p.blocks)
    cand = flatten_element(unit + (unit.norm() / ray.norm()) * ray)
    dist = 0.0  # bound on the distance to the exact projection
    if p.m:
        rows = flatten_data(p)[:p.m]
        _, sigma, vt = np.linalg.svd(rows, full_matrices=False)
        if len(sigma) < p.m or sigma[-1] <= config.RANK_TOL * sigma[0]:
            return None
        cand = cand - vt.T @ (vt @ cand)
        dist = np.linalg.norm(rows @ cand) / sigma[-1]
    y0 = unflatten_element(cand, p.blocks)
    lam = y0.min_eigenvalue()
    return y0 if lam > dist and lam > 1e-8 * y0.norm() else None


def standard_dual(p: ConicProgram) -> StandardDualForm:
    """Build the standard dual of ``p`` as a solvable ConicProgram.

    Raises ValueError when the dual equations <a_i, y> = c_i are
    inconsistent (the dual is infeasible on its affine part).
    """
    _, null, _, sol = dual_equations(p)
    if sol is None:
        raise ValueError("dual affine equations are inconsistent")
    b = flatten_element(p.b)
    y0 = unflatten_element(shift_off_objective(sol, null, b), p.blocks)
    basis = [unflatten_element(col, p.blocks) for col in null.T]
    dual_prog = ConicProgram(p.blocks, [-1.0 * nj for nj in basis], y0,
                             -(null.T @ b), name=(p.name + " dual").strip())
    return StandardDualForm(dual_prog, y0, tuple(basis), p.b.inner(y0))

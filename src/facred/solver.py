"""Primal-dual interior-point subsolver for conic LPs.

Solves the pair

    sup  <c, x>                      inf  <b, y>
    s.t. b - sum x_i a_i = z in K    s.t. <a_i, y> = c_i,  y in K

by an infeasible-start predictor-corrector path-following method with
Nesterov-Todd scaling on PSD blocks.  Each iteration works in the NT-scaled
space: one Cholesky factor and one eigendecomposition per PSD block give
the scaling root, Y^-1, the whitened step-length tests and the Mehrotra
second-order term, and the Schur system is solved through one QR
factorization of the stacked scaled data.  The same factor re-projects the
dual direction onto the dual equations in the NT metric (Nesterov and Todd,
SIOPT 1998), where the correction is small against the distance to the cone
boundary, so the endgame does not stall.  Intended for desk-scale problems
(ambient dimension up to a few thousand); no sparsity exploitation, no warm
starts.

With ``SolverOptions(keep_history=True)`` every iterate is kept on the
result, so callers can inspect how the solver approached problems whose
optima are not attained; by default none is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import config
from .linalg import flatten_element
from .model import ConicProgram, YElement


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
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
    seed: int = 0  # consumed by drivers that perturb, never by the solver itself


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


def _sym(mat):
    return 0.5 * (mat + mat.T)


def _psd_scaling(z, y):
    """Nesterov-Todd factors of one PSD block at the interior pair (Z, Y).

    With Z = L L^T and L^T Y L = U diag(lam) U^T, the scaling root
    R = lam^1/4 U^T L^-1 satisfies W^-1 = R^T R and
    R Z R^T = R^-T Y R^-1 = diag(v), v = lam^1/2, and R^-1 = g lam^-1/4
    with g = L U.  Returns R ("root"), R^-1 ("rinv"), v, Y^-1 = g lam^-1 g^T
    ("yinv") and the bases h = L^-T U ("hz") and g lam^-1/2 ("hy") with
    h^T Z h = hy^T Y hy = I, which whiten the step-length tests.
    """
    lz = np.linalg.cholesky(z)
    lam, u = np.linalg.eigh(_sym(lz.T @ y @ lz))
    if lam[0] <= 0:
        raise np.linalg.LinAlgError("scaling matrix not PD")
    g = lz @ u
    q = lam ** 0.25
    v = np.sqrt(lam)
    h = np.linalg.solve(lz.T, u)
    return {"root": q[:, None] * h.T, "rinv": g / q, "v": v, "hz": h,
            "hy": g / v, "yinv": _sym((g / lam) @ g.T)}


def _second_order_psd(scaling, dz, dy):
    """Mehrotra's second-order term of one PSD block, formed where the
    scaled point V = diag(v) is diagonal: the U with
    sym(U V) = sym(R dZ R^T R^-T dY R^-1) is 2 sym(.)_ij / (v_i + v_j)
    entrywise, mapped back as R^-1 U R^-T."""
    root, rinv, v = scaling["root"], scaling["rinv"], scaling["v"]
    dzt = root @ dz @ root.T
    dyt = rinv.T @ dy @ rinv
    return rinv @ (2.0 * _sym(dzt @ dyt) / np.add.outer(v, v)) @ rinv.T


def _max_step_whitened(basis, direction):
    """Largest alpha with X + alpha * direction psd, given a basis with
    basis^T X basis = I (so the test is on basis^T direction basis)."""
    lam_min = float(np.linalg.eigvalsh(_sym(basis.T @ direction @ basis))[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _max_step_orthant(z, dz):
    neg = dz < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-z[neg] / dz[neg]))


class _BlockData:
    """Per-block stacked constraint data and scaling state."""

    def __init__(self, kind, size, a_stack, b_part):
        self.kind = kind
        self.size = size
        self.a = a_stack        # (m, n, n) or (m, d)
        self.flat = a_stack.reshape(len(a_stack), b_part.size)
        self.b = b_part

    def apply(self, x):
        return (x @ self.flat).reshape(self.b.shape)

    def adjoint(self, y_part):
        return self.flat @ y_part.ravel()


def _schur_solver(tmat):
    """Solver for the Schur system (T^T T) dx = rhs of the scaled data T.

    One QR factorization T = Q R gives T^T T = R^T R without forming it.
    Each solve takes one correction step against T itself, because the
    semi-normal equations alone are not backward stable.  A rank-deficient
    T gets the minimum-norm least-squares solution instead.
    """
    m = tmat.shape[1]
    r_t = np.linalg.qr(tmat, mode="r")
    diag = np.abs(np.diag(r_t))
    if r_t.shape[0] < m or (m and diag.min() <= 1e-13 * diag.max()):
        mat = r_t.T @ r_t
        return lambda rhs: np.linalg.lstsq(mat, rhs, rcond=None)[0]
    r_inv = np.linalg.inv(r_t)

    def solve(rhs):
        sol = r_inv @ (r_inv.T @ rhs)
        return sol + r_inv @ (r_inv.T @ (rhs - tmat.T @ (tmat @ sol)))

    return solve


def _prepare_blocks(p: ConicProgram):
    data = []
    for k, blk in enumerate(p.blocks):
        stack = (np.stack([ai.parts[k] for ai in p.a])
                 if p.m else np.zeros((0,) + np.shape(blk.zero())))
        data.append(_BlockData(blk.kind, blk.size, stack, np.array(p.b.parts[k])))
    return data


def _initial_point(p: ConicProgram, blocks_data):
    nu = sum(bd.size for bd in blocks_data)
    bscale = max(1.0, p.b.norm() / max(1.0, np.sqrt(nu)))
    ascale = max([1.0] + [ai.norm() for ai in p.a])
    cscale = max(1.0, float(np.linalg.norm(p.c)) / max(1.0, np.sqrt(max(p.m, 1))))
    eta_p = max(1.0, bscale)
    eta_d = max(1.0, cscale / ascale) if ascale > 0 else cscale
    zs, ys = [], []
    for bd in blocks_data:
        if bd.kind == "orthant":
            zs.append(eta_p * np.ones(bd.size))
            ys.append(eta_d * np.ones(bd.size))
        else:
            zs.append(eta_p * np.eye(bd.size))
            ys.append(eta_d * np.eye(bd.size))
    return zs, ys


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
    bd = _prepare_blocks(p)
    m = p.m
    nu = sum(b.size for b in bd)
    x = np.zeros(m)
    zs, ys = _initial_point(p, bd)

    bnorm = p.b.norm()
    cnorm = float(np.linalg.norm(p.c))
    tol = config.SOLVE_TOL
    tau = STEP_FRACTION

    history = []
    best = None
    best_score = np.inf
    stall = 0
    no_progress = 0
    status = None
    message = ""
    it = 0

    def pack(parts):
        return YElement(p.blocks, parts)

    for it in range(options.max_iter + 1):
        rp = [b.b - b.apply(x) - z for b, z in zip(bd, zs)]
        rd = p.c - sum((b.adjoint(y) for b, y in zip(bd, ys)),
                       start=np.zeros(m))
        gap = sum(float(np.sum(z * y)) for z, y in zip(zs, ys))
        mu = gap / nu
        pobj = float(np.dot(p.c, x))
        dobj = sum(float(np.sum(b.b * y)) for b, y in zip(bd, ys))
        rel_p = float(np.sqrt(sum(np.sum(r * r) for r in rp))) / (1.0 + bnorm)
        rel_d = float(np.linalg.norm(rd)) / (1.0 + cnorm)
        rel_gap = abs(dobj - pobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(rel_p, rel_d, rel_gap)

        if options.keep_history:
            history.append(Iterate(x.copy(), pack([z.copy() for z in zs]),
                                   pack([y.copy() for y in ys]),
                                   pobj, dobj, rel_p, rel_d, mu))
        # Stall accounting only matters in the endgame; early iterations
        # routinely trade residual components back and forth.
        if score < 0.9 * best_score or best_score > 1e-4:
            no_progress = 0
        else:
            no_progress += 1
        if score < best_score:
            best_score = score
            best = (x.copy(), [z.copy() for z in zs], [y.copy() for y in ys],
                    pobj, dobj, {"primal": rel_p, "dual": rel_d,
                                 "gap": rel_gap, "mu": mu})

        if score <= tol:
            break
        if no_progress >= 10:
            message = "progress stalled"
            break

        # Infeasibility heuristics: scaled Farkas certificates.
        ynorm = float(np.sqrt(sum(np.sum(y * y) for y in ys)))
        if ynorm > 1e8 and dobj < 0:
            ady = float(np.linalg.norm(
                sum((b.adjoint(y) for b, y in zip(bd, ys)), start=np.zeros(m))))
            if ady <= 1e-7 * ynorm and dobj <= -1e-7 * ynorm:
                status = SolveStatus.PRIMAL_INFEASIBLE
                message = "dual iterate certifies primal infeasibility"
                break
        xnorm = float(np.linalg.norm(x))
        if xnorm > 1e8 and pobj > 0:
            ray = [-b.apply(x / xnorm) for b in bd]
            ray_min = min(
                float(np.min(r)) if b.kind == "orthant"
                else float(np.linalg.eigvalsh(_sym(r))[0])
                for b, r in zip(bd, ray))
            if ray_min >= -1e-7 and pobj >= 1e-7 * xnorm:
                status = SolveStatus.UNBOUNDED
                message = "primal ray certifies unboundedness (dual infeasible)"
                break

        if it == options.max_iter:
            message = "iteration limit reached"
            break

        # Nesterov-Todd scaling per block (see _psd_scaling).  The Schur
        # complement is T^T T for the stacked scaled data T.
        try:
            scal = []
            for b, z, y in zip(bd, zs, ys):
                if b.kind == "orthant":
                    if np.min(z) <= 0 or np.min(y) <= 0:
                        raise np.linalg.LinAlgError("interior lost")
                    root = np.sqrt(y / z)
                    scal.append({"root": root, "yinv": 1.0 / y,
                                 "atil": b.flat * root})
                else:
                    s = _psd_scaling(z, y)
                    s["atil"] = (s["root"] @ b.a @ s["root"].T).reshape(
                        b.flat.shape)
                    scal.append(s)

            schur_solve = _schur_solver(
                np.concatenate([s["atil"] for s in scal], axis=1).T)

            def directions(rc):
                rhs = rd.copy()
                for b, s, r, rcb in zip(bd, scal, rp, rc):
                    if b.kind == "orthant":
                        stil = s["root"] * (rcb - r)
                    else:
                        stil = s["root"] @ (rcb - r) @ s["root"].T
                    rhs -= s["atil"] @ stil.ravel()
                dx = schur_solve(rhs)
                dzs, dys = [], []
                for b, s, r, rcb in zip(bd, scal, rp, rc):
                    adx = b.apply(dx)
                    dzs.append(r - adx)
                    if b.kind == "orthant":
                        dys.append((rcb - r + adx) * (s["root"] * s["root"]))
                    else:
                        inner = s["root"] @ (rcb - r + adx) @ s["root"].T
                        dys.append(_sym(s["root"].T @ inner @ s["root"]))
                # Re-project dY onto A*(dY) = r_d, lost when W is
                # ill-conditioned.  W^-1 A(lam) W^-1, (T^T T) lam = defect, is
                # the least correction in the NT metric, where the distance to
                # the boundary is measured; a Euclidean A(lam) leaves the cone.
                if m:
                    defect = rd - sum(
                        (b.adjoint(dy) for b, dy in zip(bd, dys)),
                        start=np.zeros(m))
                    lam = schur_solve(defect)
                    for k, (b, s) in enumerate(zip(bd, scal)):
                        alam, rt = b.apply(lam), s["root"]
                        dys[k] = dys[k] + (rt * rt * alam if b.kind == "orthant"
                                           else _sym(rt.T @ (rt @ alam @ rt.T) @ rt))
                return dx, dzs, dys

            def max_steps(dzs, dys):
                ap = ad = np.inf
                for b, s, z, y, dz, dy in zip(bd, scal, zs, ys, dzs, dys):
                    if b.kind == "orthant":
                        ap = min(ap, _max_step_orthant(z, dz))
                        ad = min(ad, _max_step_orthant(y, dy))
                    else:
                        ap = min(ap, _max_step_whitened(s["hz"], dz))
                        ad = min(ad, _max_step_whitened(s["hy"], dy))
                return ap, ad

            # Predictor (affine scaling) direction.
            rc_aff = [-z for z in zs]
            dx_a, dz_a, dy_a = directions(rc_aff)
            ap_a, ad_a = max_steps(dz_a, dy_a)
            ap_a, ad_a = min(1.0, tau * ap_a), min(1.0, tau * ad_a)
            gap_aff = sum(float(np.sum((z + ap_a * dz) * (y + ad_a * dy)))
                          for z, y, dz, dy in zip(zs, ys, dz_a, dy_a))
            sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 3,
                                  1e-8, 0.999)) if gap > 0 else 0.1
            # Recenter when progress stalls: a pure centering step restores the
            # proximity to the central path that cheap directions rely on.
            tau_eff = tau
            if no_progress >= 3:
                sigma = max(sigma, 0.8)
                tau_eff = min(tau, 0.9)

            if no_progress < 3:
                rc = []
                for b, s, z, dz, dy in zip(bd, scal, zs, dz_a, dy_a):
                    if b.kind == "orthant":
                        rc.append(sigma * mu * s["yinv"] - z
                                  - dz * dy * s["yinv"])
                    else:
                        corr = _second_order_psd(s, dz, dy)
                        if not np.all(np.isfinite(corr)):
                            corr = np.zeros_like(corr)
                        rc.append(sigma * mu * s["yinv"] - z - corr)
            else:
                rc = [sigma * mu * s["yinv"] - z for s, z in zip(scal, zs)]

            dx, dzs, dys = directions(rc)
            ap, ad = max_steps(dzs, dys)
            ap, ad = min(1.0, tau_eff * ap), min(1.0, tau_eff * ad)
            if no_progress >= 3:
                ap = ad = min(ap, ad)
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
        zs = [z + ap * dz for z, dz in zip(zs, dzs)]
        ys = [y + ad * dy for y, dy in zip(ys, dys)]

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
    return SolveResult(status, np.asarray(bx),
                       YElement(p.blocks, by), YElement(p.blocks, bz),
                       bpobj, bdobj, bres, it, history, message)


@dataclass(frozen=True)
class StandardDualForm:
    """The dual program  inf <b, y> : <a_i, y> = c_i, y in K  re-expressed in
    primal (sup) form by parameterizing the affine set as y0 + span(basis).

    The parameterization is shifted so that the sup-form objective carries no
    constant: value_of(result) recovers the dual objective value.
    """

    program: ConicProgram
    y0: YElement
    basis: tuple
    offset: float

    def value_of(self, res: SolveResult) -> float:
        return self.offset - res.primal_obj

    def y_iterates(self, res: SolveResult):
        """Cone-feasible dual iterates (the solver's slack trajectory).

        Raises ValueError when the solve kept no iterates (solve with
        ``SolverOptions(keep_history=True)``).
        """
        if not res.iterates:
            raise ValueError("the solve kept no iterates; "
                             "pass SolverOptions(keep_history=True)")
        return [rec.z for rec in res.iterates]


def dual_affine_point(p: ConicProgram):
    """A flattened least-squares solution of the dual equations
    <a_i, y> = c_i, or None when they are inconsistent."""
    if not p.m:
        return np.zeros(p.ambient_dim)
    rows = np.vstack([flatten_element(ai) for ai in p.a])
    sol, *_ = np.linalg.lstsq(rows, p.c, rcond=None)
    if np.linalg.norm(rows @ sol - p.c) > 1e-9 * (1.0 + np.linalg.norm(p.c)):
        return None
    return sol


def standard_dual(p: ConicProgram) -> StandardDualForm:
    """Build the standard dual of ``p`` as a solvable ConicProgram.

    Raises ValueError when the dual equations <a_i, y> = c_i are
    inconsistent (the dual is infeasible on its affine part).
    """
    from .linalg import nullspace_basis, unflatten_element

    sol = dual_affine_point(p)
    if sol is None:
        raise ValueError("dual affine equations are inconsistent")
    y0 = unflatten_element(sol, p.blocks)
    basis = nullspace_basis(list(p.a)) if p.m else \
        nullspace_basis([YElement.zeros(p.blocks)])
    bn = np.array([p.b.inner(nj) for nj in basis])
    offset = p.b.inner(y0)
    if bn.size and np.linalg.norm(bn) > 1e-12:
        shift = -offset * bn / float(np.dot(bn, bn))
        for sj, nj in zip(shift, basis):
            y0 = y0 + float(sj) * nj
        offset = p.b.inner(y0)
    dual_prog = ConicProgram(p.blocks, [-1.0 * nj for nj in basis], y0, -bn,
                             name=(p.name + " dual").strip())
    return StandardDualForm(dual_prog, y0, tuple(basis), float(offset))

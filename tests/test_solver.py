import functools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from facred import linalg
from facred.extended import build_extended_dual, solve_extended_dual
from facred.model import ConeBlock, ConicProgram, YElement, adjoint_apply
from facred.reduction import run_facial_reduction
from facred.sdpa import parse_sdpa
from facred.solver import (SolverOptions, SolveStatus, dual_interior_direction,
                           solve_conic_lp, standard_dual)

from conftest import (gap_sdp, random_degenerate, random_strictly_feasible,
                      sdp_chain, sym, y_iterates)


def simple_lp():
    blocks = (ConeBlock("orthant", 3),)
    a = [YElement(blocks, [np.array([1.0, -1.0, 0.0])]),
         YElement(blocks, [np.array([0.0, 0.0, -1.0])])]
    b = YElement(blocks, [np.array([1.0, 0.0, 0.0])])
    return ConicProgram(blocks, a, b, [1.0, 0.0])


def test_trivial_lp_optimum():
    res = solve_conic_lp(simple_lp())
    assert res.optimal
    assert res.primal_obj == pytest.approx(1.0, abs=1e-7)
    assert res.dual_obj == pytest.approx(1.0, abs=1e-7)


def kkt_residuals(p, res):
    """Independent optimality check: feasibility of both sides plus the
    complementarity gap, all scaled."""
    slack = p.b - p.apply(res.x)
    primal = max(0.0, -(slack - res.z).min_eigenvalue() * 0.0) \
        + (slack - res.z).norm() / (1 + p.b.norm())
    cone_p = max(0.0, -slack.min_eigenvalue())
    cone_d = max(0.0, -res.y.min_eigenvalue())
    dual = float(np.max(np.abs(adjoint_apply(p, res.y) - p.c))) \
        / (1 + float(np.max(np.abs(p.c))))
    gap = abs(p.b.inner(res.y) - res.primal_obj) \
        / (1 + abs(res.primal_obj) + abs(res.dual_obj))
    return max(primal, cone_p, cone_d, dual, gap)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_random_sdp_kkt(seed):
    p, _ = random_strictly_feasible(seed, n=3 + seed % 3, m=2 + seed % 3)
    res = solve_conic_lp(p)
    assert res.optimal
    assert kkt_residuals(p, res) <= 1e-7


def mixed_program():
    """Five variables over an orthant block beside a PSD block, with
    interior points on both sides."""
    rng = np.random.default_rng(7)
    blocks = (ConeBlock("orthant", 4), ConeBlock("psd", 3))
    a = [YElement(blocks, [rng.normal(size=4), sym(rng.normal(size=(3, 3)))])
         for _ in range(5)]
    xbar = rng.normal(size=5)
    root = rng.normal(size=(3, 3))
    interior = YElement(blocks, [rng.random(4) + 0.2,
                                 root @ root.T + 0.1 * np.eye(3)])
    b = YElement(blocks, [sum(xbar[i] * a[i].parts[k] for i in range(5))
                          + interior.parts[k] for k in range(2)])
    dual_pt = YElement(blocks, [rng.random(4) + 0.1,
                                (lambda w: w @ w.T + 0.1 * np.eye(3))(
                                    rng.normal(size=(3, 3)))])
    c = np.array([a[i].inner(dual_pt) for i in range(5)])
    return ConicProgram(blocks, a, b, c)


def test_mixed_block_program():
    res = solve_conic_lp(mixed_program())
    assert res.optimal


def test_regular_programs_end_optimal():
    """Every solve of a program with interior points on both sides ends
    OPTIMAL, and the iteration counts, which repeat exactly, stay within
    10% of the 1940 measured over this ladder."""
    failures, iterations = [], 0
    for n in (4, 8, 16, 30):
        for seed in range(40):
            p, _ = random_strictly_feasible(seed, n, max(3, n // 2))
            res = solve_conic_lp(p)
            iterations += res.iterations
            if not res.optimal:
                failures.append((n, seed, res.message))
    assert failures == []
    assert iterations <= 1.1 * 1940


def test_unattained_dual_iterates(example_sdp):
    """The fixture's ordinary dual has an unattained zero minimum: the
    objective drifts toward zero while the (1,1) entry stays positive on
    every cone-interior iterate."""
    sd = standard_dual(example_sdp)
    res = solve_conic_lp(sd.program,
                         SolverOptions(max_iter=150, keep_history=True))
    iterates = y_iterates(res)
    assert len(iterates) > 5
    assert all(y.parts[0][0, 0] > 0 for y in iterates)
    assert iterates[-1].parts[0][0, 0] <= 1e-3
    assert iterates[-1].parts[0][0, 0] < iterates[0].parts[0][0, 0]


def test_standard_dual_structure(example_sdp):
    sd = standard_dual(example_sdp)
    # the adjoint equations force the (1,2) entry to one half
    assert sd.y0.parts[0][0, 1] == pytest.approx(0.5, abs=1e-12)
    assert len(sd.basis) == 4
    assert sd.offset == pytest.approx(0.0, abs=1e-12)


def test_the_gap_sdp_gets_no_dual_certificate():
    """Every dual-feasible point of the gap SDP has y_22 = 0, so no
    interior direction exists, whatever the ray."""
    p = gap_sdp()
    e11 = YElement(p.blocks, [np.diag([1.0, 0.0, 0.0])])
    assert dual_interior_direction(p, e11) is None


def test_dependent_constraints_get_no_dual_certificate(example_sdp):
    """With a_3 = a_1 (and c_3 = c_1) the rows of A are dependent, so their
    computed smallest singular value is rounding noise: no certificate."""
    p = ConicProgram(example_sdp.blocks, list(example_sdp.a) + [example_sdp.a[0]],
                     example_sdp.b, [1.0, 0.0, 1.0])
    assert dual_interior_direction(p, sdp_chain(p.blocks)[0]) is None


def test_sdp3_gets_a_dual_certificate(example_sdp):
    """The fixture's ordinary dual has Slater points (its infimum 0 is
    unattained): I + s E33 projected onto ker A* is interior."""
    y0 = dual_interior_direction(example_sdp, sdp_chain(example_sdp.blocks)[0])
    assert y0 is not None
    assert np.linalg.eigvalsh(y0.parts[0])[0] > 0.1
    assert np.abs(adjoint_apply(example_sdp, y0)).max() < 1e-14


def test_without_variables_the_candidate_is_the_certificate():
    p = _no_variables_program()
    ray = YElement(p.blocks, [np.diag([0.0, 0.0, 1.0]), np.array([0.0, 1.0])])
    y0 = dual_interior_direction(p, ray)
    assert y0 is not None and y0.min_eigenvalue() >= 1.0


@functools.cache
def _degenerate_cases():
    """random_degenerate seeds 0-9 at n = 4, 5, 6 (m as on the bench's
    dualize ladder): (n, seed, program, xbar, chain, certificate or None)."""
    cases = []
    for n in (4, 5, 6):
        for seed in range(10):
            p, xbar = random_degenerate(seed, n=n, m=max(3, 2 * n // 3))
            chain = run_facial_reduction(p)
            cases.append((n, seed, p, xbar, chain,
                          dual_interior_direction(p, chain.ys[1])))
    return cases


def test_dual_certificates_give_slater_points():
    """Each certificate, checked with plain numpy on the unflattened data:
    y_c + t y0 with y_c the least-norm solution of A* y = c and
    t = 1 + 2 |y_c| / lambda_min(y0) is positive definite and solves
    A* y = c."""
    found = 0
    for n, seed, p, _, chain, y0 in _degenerate_cases():
        assert chain.steps >= 1, (n, seed)
        if y0 is None:
            continue
        found += 1
        amat = np.array([ai.parts[0].ravel() for ai in p.a])
        y_c = np.linalg.lstsq(amat, p.c, rcond=None)[0].reshape(n, n)
        lam = np.linalg.eigvalsh(y0.parts[0])[0]
        y = y_c + (1.0 + 2.0 * np.linalg.norm(y_c, 2) / lam) * y0.parts[0]
        assert np.linalg.eigvalsh(y)[0] > 0, (n, seed)
        assert np.abs(amat @ y.ravel() - p.c).max() < 1e-12, (n, seed)
    assert found >= 25


def test_certified_value_agrees_with_the_encoded_solve():
    """Where the certificate holds, dualize prints the verified extended
    value as the ordinary dual's.  It lies within 1e-7 (1 + |v|) of c xbar:
    xbar is feasible and the verified point bounds the value from above, so
    both pin it.  Wherever the encoded ordinary dual ends OPTIMAL, it agrees
    within 1e-6 (1 + |v|), except on n = 5, seed 8: there the encoded solve
    ends OPTIMAL at 0.402350, a feasible dual point 1.2e-4 above the value
    0.402226, because its lower-bound side misses its equations by 4e-8."""
    disagree = []
    for n, seed, p, xbar, chain, y0 in _degenerate_cases():
        if y0 is None:
            continue
        value, _, _ = solve_extended_dual(
            build_extended_dual(p, "star", None, chain))
        lower = float(p.c @ xbar)
        assert abs(value - lower) <= 1e-7 * (1.0 + abs(lower)), (n, seed)
        sd = standard_dual(p)
        res = solve_conic_lp(sd.program)
        if res.optimal:
            encoded = sd.value_of(res)
            assert encoded >= value - 1e-6 * (1.0 + abs(value)), (n, seed)
            if abs(encoded - value) > 1e-6 * (1.0 + abs(value)):
                disagree.append((n, seed))
    assert disagree == [(5, 8)]


def infeasible_program():
    blocks = (ConeBlock("psd", 2),)
    a = [YElement(blocks, [np.array([[1.0, 0.0], [0.0, 0.0]])])]
    b = YElement(blocks, [-np.eye(2)])
    return ConicProgram(blocks, a, b, [1.0])


def unbounded_program():
    blocks = (ConeBlock("psd", 2),)
    a = [YElement(blocks, [-np.eye(2)])]
    b = YElement(blocks, [np.eye(2)])
    return ConicProgram(blocks, a, b, [1.0])


def test_primal_infeasible_detected():
    res = solve_conic_lp(infeasible_program(), SolverOptions(max_iter=100))
    assert res.status in (SolveStatus.PRIMAL_INFEASIBLE,
                          SolveStatus.NUMERICAL_FAILURE)
    assert res.status is not SolveStatus.OPTIMAL


def test_unbounded_detected():
    res = solve_conic_lp(unbounded_program(), SolverOptions(max_iter=100))
    assert res.status is SolveStatus.UNBOUNDED


def test_deterministic_for_fixed_options():
    p, _ = random_strictly_feasible(11)
    r1 = solve_conic_lp(p, SolverOptions())
    r2 = solve_conic_lp(p, SolverOptions())
    np.testing.assert_array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_optimal_status_meets_contract():
    for seed in range(6):
        p, _ = random_strictly_feasible(seed, n=3, m=3)
        res = solve_conic_lp(p)
        if res.optimal:
            assert res.residuals["primal"] <= 1e-7
            assert res.residuals["dual"] <= 1e-7
            assert res.residuals["gap"] <= 1e-7


def test_history_recorded():
    res = solve_conic_lp(simple_lp(), SolverOptions(keep_history=True))
    assert len(res.iterates) == res.iterations + 1
    assert res.iterates[-1].mu <= res.iterates[0].mu


def test_iterates_come_back_exactly_symmetric(monkeypatch):
    """An iterate's PSD parts may drift from symmetry by more than the
    element constructor accepts (3e-10 on the emitted ramana dual of
    sdp3); the solver returns their symmetric parts instead of raising.
    The drift is planted as a skew 1e-9 added to every PSD part."""
    from facred import solver

    p = mixed_program()
    plain = solve_conic_lp(p, SolverOptions(keep_history=True))
    parts = solver._Layout.parts

    def skewed(self, vec):
        out = parts(self, vec)
        return [part + 1e-9 * (np.triu(np.ones_like(part), 1)
                               - np.tril(np.ones_like(part), -1))
                if part.ndim == 2 else part for part in out]

    monkeypatch.setattr(solver._Layout, "parts", skewed)
    res = solve_conic_lp(p, SolverOptions(keep_history=True))
    for got, want in ((res.y, plain.y), (res.z, plain.z),
                      (res.iterates[-1].z, plain.iterates[-1].z)):
        for part, ref in zip(got.parts, want.parts):
            assert np.array_equal(part, part.T)
            assert np.max(np.abs(part - ref)) <= 1e-12


def test_history_off_by_default(example_sdp):
    """No iterate is kept unless asked for, and the dual trajectory of a
    solve without one is an error rather than a vacuously empty list."""
    sd = standard_dual(example_sdp)
    res = solve_conic_lp(sd.program)
    assert res.iterates == []
    with pytest.raises(ValueError, match="kept no iterates"):
        y_iterates(res)


def test_linear_algebra_breakdown_ends_the_solve(monkeypatch):
    """A LinAlgError inside an iteration ends the solve with the best
    iterate so far instead of escaping the solver."""
    from facred import solver

    real, calls = solver._step_min_eig, []

    def flaky(direction, hww):
        calls.append(1)
        if len(calls) == 5:
            raise np.linalg.LinAlgError("injected")
        return real(direction, hww)

    monkeypatch.setattr(solver, "_step_min_eig", flaky)
    p, _ = random_strictly_feasible(1)
    res = solve_conic_lp(p)
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert "injected" in res.message


def test_collapsed_step_sizes_end_the_solve(monkeypatch):
    """No input is known to reach this exit: step tests that allow only
    steps below 1e-8 for three iterations running end the solve there."""
    from facred import solver

    monkeypatch.setattr(solver, "_step_min_eig", lambda direction, hww: -1e12)
    p, _ = random_strictly_feasible(1)
    res = solve_conic_lp(p)
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert (res.message, res.iterations) == ("step sizes collapsed", 2)


def _spd(rng, n, spread):
    """Random symmetric positive-definite matrix with eigenvalues spread
    over ``spread`` decades."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * np.logspace(0, -spread, n)) @ q.T


def _sqrtm(mat, power=0.5):
    lam, vec = np.linalg.eigh(mat)
    return (vec * lam ** power) @ vec.T


def _close(got, want, rel=1e-10):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("seed", range(8))
def test_scaled_space_identities(seed):
    """The per-block pieces of the scaled-space step (scaling root and v,
    the step test, the second-order term) and the affine gap agree with
    textbook formulas in the original coordinates."""
    from facred.solver import _mehrotra_psd, _psd_scaling, _step_min_eig

    rng = np.random.default_rng(seed)
    n = 3 + seed % 4
    z, y = _spd(rng, n, 2 + seed % 3), _spd(rng, n, 1 + seed % 3)
    root, v = _psd_scaling(z, y)
    rinv = np.linalg.inv(root)
    # W = Z^1/2 (Z^1/2 Y Z^1/2)^-1/2 Z^1/2 is the NT scaling: W Y W = Z.
    zh = _sqrtm(z)
    w = zh @ _sqrtm(zh @ y @ zh, -0.5) @ zh
    assert _close(w @ y @ w, z)
    assert _close(root.T @ root, np.linalg.inv(w))
    assert _close(root @ z @ root.T, np.diag(v))
    assert _close(rinv.T @ y @ rinv, np.diag(v))

    def step(mat, d):
        low = np.linalg.cholesky(mat)
        li = np.linalg.inv(low)
        lam_min = np.linalg.eigvalsh(li @ d @ li.T)[0]
        return np.inf if lam_min >= -1e-14 else -1.0 / lam_min

    # z + alpha d stays psd exactly while V + alpha R d R^T does, and
    # y + alpha d while V + alpha R^-T d R^-1 does.
    ww = np.outer(v ** -0.5, v ** -0.5)
    for _ in range(3):
        d = sym(rng.normal(size=(n, n)))
        for mat, d_hat in ((z, root @ d @ root.T), (y, rinv.T @ d @ rinv)):
            lam_min = _step_min_eig(d_hat, 0.5 * ww)
            got = np.inf if lam_min >= -1e-14 else -1.0 / lam_min
            want = step(mat, d)
            assert got == want or _close(got, want), (got, want)

    # Mehrotra's term in the W^1/2 form: V = W^-1/2 Z W^-1/2, solve
    # sym(U V) = sym(W^-1/2 dZ W^-1/2 W^1/2 dY W^1/2) in the eigenbasis of
    # V and map back as W^1/2 U W^1/2.  The scaled term, mapped back as
    # R^-1 U R^-T, is the same matrix.
    dz, dy = sym(rng.normal(size=(n, n))), sym(rng.normal(size=(n, n)))
    dz_hat, dy_hat = root @ dz @ root.T, rinv.T @ dy @ rinv
    wh, wih = _sqrtm(w), _sqrtm(w, -0.5)
    lv, qv = np.linalg.eigh(wih @ z @ wih)
    rhs = qv.T @ sym((wih @ dz @ wih) @ (wh @ dy @ wh)) @ qv
    u_c = qv @ (2.0 * rhs / np.add.outer(lv, lv)) @ qv.T
    assert _close(rinv @ _mehrotra_psd(dz_hat, dy_hat, v) @ rinv.T,
                  wh @ u_c @ wh)

    # The affine gap read in scaled coordinates, (V + a dZ^) . (V + b dY^),
    # is <z + a dz, y + b dy>.
    alpha, beta = rng.random(2)
    got = np.sum((np.diag(v) + alpha * dz_hat) * (np.diag(v) + beta * dy_hat))
    want = np.sum((z + alpha * dz) * (y + beta * dy))
    assert _close(got, want)


def _nt_factors(z, y):
    """Nesterov-Todd factors of one PSD block at the interior pair (Z, Y),
    as the reference loop reads them.

    With Z = L L^T and L^T Y L = U diag(lam) U^T, the scaling root
    R = lam^1/4 U^T L^-1 satisfies W^-1 = R^T R and
    R Z R^T = R^-T Y R^-1 = diag(v), v = lam^1/2, and R^-1 = g lam^-1/4
    with g = L U.  Returns R ("root"), R^-1 ("rinv"), v, Y^-1 = g lam^-1 g^T
    ("yinv") and the bases h = L^-T U ("hz") and g lam^-1/2 ("hy") with
    h^T Z h = hy^T Y hy = I, which whiten the step-length tests.
    """
    low = np.linalg.cholesky(z)
    lam, u = np.linalg.eigh(sym(low.T @ y @ low))
    if lam[0] <= 0:
        raise np.linalg.LinAlgError("scaling matrix not PD")
    g = low @ u
    q = lam ** 0.25
    v = np.sqrt(lam)
    h = np.linalg.solve(low.T, u)
    return {"root": q[:, None] * h.T, "rinv": g / q, "v": v, "hz": h,
            "hy": g / v, "yinv": sym((g / lam) @ g.T)}


def _second_order_psd(scaling, dz, dy):
    """Mehrotra's second-order term of one PSD block, formed where the
    scaled point V = diag(v) is diagonal: the U with
    sym(U V) = sym(R dZ R^T R^-T dY R^-1) is 2 sym(.)_ij / (v_i + v_j)
    entrywise, mapped back as R^-1 U R^-T."""
    root, rinv, v = scaling["root"], scaling["rinv"], scaling["v"]
    dzt = root @ dz @ root.T
    dyt = rinv.T @ dy @ rinv
    return rinv @ (2.0 * sym(dzt @ dyt) / np.add.outer(v, v)) @ rinv.T


def _max_step_whitened(basis, direction):
    """Largest alpha with X + alpha * direction psd, given a basis with
    basis^T X basis = I (so the test is on basis^T direction basis)."""
    lam_min = float(np.linalg.eigvalsh(sym(basis.T @ direction @ basis))[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _max_step_orthant(z, dz):
    neg = dz < 0
    if not neg.any():
        return np.inf
    return float((-z[neg] / dz[neg]).min())


def _reference_solve(p, options=None):
    """The interior-point loop as first written, one list of per-block
    arrays per iterate and a zip over blocks for every residual, product
    and step; kept to pin the flat kernel to the same iterates."""
    from facred import config
    from facred.solver import STEP_FRACTION, SolveResult, _schur_solver, _sym

    options = options or SolverOptions()
    m = p.m
    bd = []  # per block: kind, size, (m, ...) data stack, (m, d) rows, b part
    for k, blk in enumerate(p.blocks):
        stack = (np.stack([ai.parts[k] for ai in p.a]) if m
                 else np.zeros((0,) + np.shape(blk.zero())))
        bd.append((blk.kind, blk.size, stack,
                   stack.reshape(m, np.size(blk.zero())), np.array(p.b.parts[k])))

    def apply(b, x):
        return (x @ b[3]).reshape(b[4].shape)

    def adjoint(b, y_part):
        return b[3] @ y_part.ravel()

    nu = sum(b[1] for b in bd)
    bscale = max(1.0, p.b.norm() / max(1.0, np.sqrt(nu)))
    ascale = max([1.0] + [ai.norm() for ai in p.a])
    cscale = max(1.0, float(np.linalg.norm(p.c)) / max(1.0, np.sqrt(max(m, 1))))
    eta_p, eta_d = max(1.0, bscale), max(1.0, cscale / ascale)
    zs = [eta_p * (np.ones(b[1]) if b[0] == "orthant" else np.eye(b[1]))
          for b in bd]
    ys = [eta_d * (np.ones(b[1]) if b[0] == "orthant" else np.eye(b[1]))
          for b in bd]
    x = np.zeros(m)
    bnorm, cnorm = p.b.norm(), float(np.linalg.norm(p.c))
    tau = STEP_FRACTION
    best, best_score, stall, no_progress = None, np.inf, 0, 0
    status, message = None, ""
    for it in range(options.max_iter + 1):
        rp = [b[4] - apply(b, x) - z for b, z in zip(bd, zs)]
        rd = p.c - sum((adjoint(b, y) for b, y in zip(bd, ys)),
                       start=np.zeros(m))
        gap = sum(float(np.sum(z * y)) for z, y in zip(zs, ys))
        mu = gap / nu
        pobj = float(np.dot(p.c, x))
        dobj = sum(float(np.sum(b[4] * y)) for b, y in zip(bd, ys))
        rel_p = float(np.sqrt(sum(np.sum(r * r) for r in rp))) / (1.0 + bnorm)
        rel_d = float(np.linalg.norm(rd)) / (1.0 + cnorm)
        rel_gap = abs(dobj - pobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(rel_p, rel_d, rel_gap)
        if score < 0.9 * best_score or best_score > 1e-4:
            no_progress = 0
        else:
            no_progress += 1
        if score < best_score:
            best_score = score
            best = (x.copy(), [z.copy() for z in zs], [y.copy() for y in ys],
                    pobj, dobj, {"primal": rel_p, "dual": rel_d,
                                 "gap": rel_gap, "mu": mu})
        if score <= config.SOLVE_TOL:
            break
        if no_progress >= 10:
            message = "progress stalled"
            break
        ynorm = float(np.sqrt(sum(np.sum(y * y) for y in ys)))
        if ynorm > 1e8 and dobj < 0:
            ady = float(np.linalg.norm(
                sum((adjoint(b, y) for b, y in zip(bd, ys)), start=np.zeros(m))))
            if ady <= 1e-7 * ynorm and dobj <= -1e-7 * ynorm:
                status = SolveStatus.PRIMAL_INFEASIBLE
                message = "dual iterate certifies primal infeasibility"
                break
        xnorm = float(np.linalg.norm(x))
        if xnorm > 1e8 and pobj > 0:
            ray = [-apply(b, x / xnorm) for b in bd]
            ray_min = min(float(np.min(r)) if b[0] == "orthant"
                          else float(np.linalg.eigvalsh(_sym(r))[0])
                          for b, r in zip(bd, ray))
            if ray_min >= -1e-7 and pobj >= 1e-7 * xnorm:
                status = SolveStatus.UNBOUNDED
                message = "primal ray certifies unboundedness (dual infeasible)"
                break
        if it == options.max_iter:
            message = "iteration limit reached"
            break
        try:
            scal = []
            for b, z, y in zip(bd, zs, ys):
                if b[0] == "orthant":
                    if np.min(z) <= 0 or np.min(y) <= 0:
                        raise np.linalg.LinAlgError("interior lost")
                    root = np.sqrt(y / z)
                    scal.append({"root": root, "yinv": 1.0 / y,
                                 "atil": b[3] * root})
                else:
                    s = _nt_factors(z, y)
                    s["atil"] = (s["root"] @ b[2] @ s["root"].T).reshape(
                        b[3].shape)
                    scal.append(s)
            schur_solve = _schur_solver(
                np.concatenate([s["atil"] for s in scal], axis=1).T)

            def directions(rc):
                rhs = rd.copy()
                for b, s, r, rcb in zip(bd, scal, rp, rc):
                    if b[0] == "orthant":
                        stil = s["root"] * (rcb - r)
                    else:
                        stil = s["root"] @ (rcb - r) @ s["root"].T
                    rhs -= s["atil"] @ stil.ravel()
                dx = schur_solve(rhs)
                dzs, dys = [], []
                for b, s, r, rcb in zip(bd, scal, rp, rc):
                    adx = apply(b, dx)
                    dzs.append(r - adx)
                    if b[0] == "orthant":
                        dys.append((rcb - r + adx) * (s["root"] * s["root"]))
                    else:
                        inner = s["root"] @ (rcb - r + adx) @ s["root"].T
                        dys.append(_sym(s["root"].T @ inner @ s["root"]))
                if m:
                    defect = rd - sum((adjoint(b, dy) for b, dy in zip(bd, dys)),
                                      start=np.zeros(m))
                    lam = schur_solve(defect)
                    for k, (b, s) in enumerate(zip(bd, scal)):
                        alam, rt = apply(b, lam), s["root"]
                        dys[k] = dys[k] + (rt * rt * alam if b[0] == "orthant"
                                           else _sym(rt.T @ (rt @ alam @ rt.T) @ rt))
                return dx, dzs, dys

            def max_steps(dzs, dys):
                ap = ad = np.inf
                for b, s, z, y, dz, dy in zip(bd, scal, zs, ys, dzs, dys):
                    if b[0] == "orthant":
                        ap = min(ap, _max_step_orthant(z, dz))
                        ad = min(ad, _max_step_orthant(y, dy))
                    else:
                        ap = min(ap, _max_step_whitened(s["hz"], dz))
                        ad = min(ad, _max_step_whitened(s["hy"], dy))
                return ap, ad

            dx_a, dz_a, dy_a = directions([-z for z in zs])
            ap_a, ad_a = max_steps(dz_a, dy_a)
            ap_a, ad_a = min(1.0, tau * ap_a), min(1.0, tau * ad_a)
            gap_aff = sum(float(np.sum((z + ap_a * dz) * (y + ad_a * dy)))
                          for z, y, dz, dy in zip(zs, ys, dz_a, dy_a))
            sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 3,
                                  1e-8, 0.999)) if gap > 0 else 0.1
            tau_eff = tau
            if no_progress >= 3:
                sigma = max(sigma, 0.8)
                tau_eff = min(tau, 0.9)
            if no_progress < 3:
                rc = []
                for b, s, z, dz, dy in zip(bd, scal, zs, dz_a, dy_a):
                    if b[0] == "orthant":
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
    bx, bz, by, bpobj, bdobj, bres = best
    if status is None:
        if best_score <= config.DEFAULT_TOL:
            status = SolveStatus.OPTIMAL
        else:
            status = SolveStatus.NUMERICAL_FAILURE
            message = message or "did not reach the acceptance tolerance"
    return SolveResult(status, bx, YElement(p.blocks, by),
                       YElement(p.blocks, bz), bpobj, bdobj, bres, it, [],
                       message)


def _no_variables_program():
    """m = 0 over an orthant block beside a PSD block: b itself is the
    slack, and the (empty) objective is 0."""
    blocks = (ConeBlock("psd", 3), ConeBlock("orthant", 2))
    b = YElement(blocks, [np.diag([1.0, 2.0, 0.5]), np.array([1.0, 3.0])])
    return ConicProgram(blocks, [], b, [])


def _random_lp(seed=3, n=6, m=3):
    """An LP on one orthant block with interior points on both sides."""
    rng = np.random.default_rng(seed)
    blocks = (ConeBlock("orthant", n),)
    cols = rng.normal(size=(m, n))
    a = [YElement(blocks, [col]) for col in cols]
    b = YElement(blocks, [rng.normal(size=m) @ cols + rng.random(n) + 0.2])
    return ConicProgram(blocks, a, b, cols @ (rng.random(n) + 0.1))


def _reducing_case(seed, n):
    """The reducing primal on the full cone of random_degenerate(seed, n):
    a PSD block beside the 1-entry orthant of t <= 1, value 0."""
    from facred.faces import FaceRep, relative_interior_point
    from facred.reducing import FaceCoordinates, _reducing_primal

    p, _ = random_degenerate(seed, n=n, m=2 * n // 3)
    face = FaceRep.full_cone(p.blocks)
    coords = FaceCoordinates(p, face)
    return _reducing_primal(coords, relative_interior_point(face),
                            coords.eliminated())


def _on_face_case(seed, n):
    """The compressed program solve_restricted_to_face hands the solver on
    the minimal face of random_degenerate(seed, n).  At the bench's m the
    span equations pin x, so no variable is left and the compressed b is
    the slack."""
    from facred.reducing import FaceCoordinates

    p, _ = random_degenerate(seed, n=n, m=2 * n // 3)
    face = run_facial_reduction(p).minimal_face
    coords = FaceCoordinates(p, face)
    return ConicProgram.from_stacks(face.kept_blocks, coords.eliminated(),
                                    coords.null_basis.T @ p.c)


REFERENCE_CASES = (
    [(f"strict-n{n}-s{seed}", lambda n=n, seed=seed: (
        random_strictly_feasible(seed, n, max(3, n // 2))[0], None))
     for n in (4, 8, 16) for seed in range(10)]
    + [("mixed", lambda: (mixed_program(), None)),
       ("lp-simple", lambda: (simple_lp(), None)),
       ("lp-random", lambda: (_random_lp(), None)),
       ("no-variables", lambda: (_no_variables_program(), None)),
       ("infeasible", lambda: (infeasible_program(), SolverOptions(max_iter=100))),
       ("unbounded", lambda: (unbounded_program(), SolverOptions(max_iter=100)))]
    + [(f"{kind}-n{n}", lambda case=case, n=n: (case(0, n), None))
       for kind, case in (("reducing", _reducing_case),
                          ("on-face", _on_face_case)) for n in (4, 8)])


@pytest.mark.parametrize("make", [case for _, case in REFERENCE_CASES],
                         ids=[name for name, _ in REFERENCE_CASES])
def test_flat_kernel_matches_the_reference(make):
    """The flat kernel takes the reference loop's path: the same status
    after the same number of iterations, at the same objectives and x.  A
    caller's stop test that never passes sees each iterate's x and changes
    no bit of the result."""
    p, options = make()
    got, want = solve_conic_lp(p, options), _reference_solve(p, options)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for g, w in ((got.primal_obj, want.primal_obj),
                 (got.dual_obj, want.dual_obj)):
        assert abs(g - w) <= 1e-9 * max(1.0, abs(w))
    np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-7)
    seen = []
    same = solve_conic_lp(p, replace(options or SolverOptions(),
                                     stop=lambda x, *_: seen.append(x) or False))
    assert len(seen) in (got.iterations, got.iterations + 1)
    assert (same.status, same.iterations, same.message, same.primal_obj,
            same.dual_obj, same.residuals) == \
        (got.status, got.iterations, got.message, got.primal_obj,
         got.dual_obj, got.residuals)
    for a, b in [(same.x, got.x)] + list(zip(same.y.parts + same.z.parts,
                                             got.y.parts + got.z.parts)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [0, 1, 4, 9])
def test_stop_ends_the_solve_at_its_iterate(k):
    """A test that first passes at iteration k ends the solve there; the
    result is the best iterate so far, classified as at any other exit."""
    p = random_strictly_feasible(0, 8, 4)[0]
    assert solve_conic_lp(p).iterations > k
    calls = []
    res = solve_conic_lp(p, SolverOptions(
        keep_history=True, stop=lambda x, *_: calls.append(x) or len(calls) > k))
    assert res.iterations == k and len(res.iterates) == k + 1
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert res.message == "stopped by the caller's test"
    assert any(np.array_equal(res.x, rec.x) for rec in res.iterates)


# numpy.linalg's public functions, which linalg's LAPACK entry points
# bypass.
NUMPY_LAPACK = {"cholesky": np.linalg.cholesky, "eigh": np.linalg.eigh,
                "eigvalsh": np.linalg.eigvalsh, "solve": np.linalg.solve,
                "inv": np.linalg.inv,
                "qr_r": lambda a: np.linalg.qr(a, mode="r")}
GOLDEN = Path(__file__).parent / "golden"
IDENTITY_CASES = REFERENCE_CASES + [
    (f"golden-{path.stem}",
     lambda path=path: (parse_sdpa(path.read_text()), None))
    for path in sorted(GOLDEN.glob("*.dat-s"))] + [
    (f"degenerate-{kind}-s{seed}",
     lambda kind=kind, seed=seed: (random_degenerate(seed, 6, 3, kind)[0],
                                   None))
    for kind in ("psd", "orthant") for seed in range(3)]


@pytest.mark.parametrize("make", [case for _, case in IDENTITY_CASES],
                         ids=[name for name, _ in IDENTITY_CASES])
def test_lapack_entry_points_keep_every_iterate(make, monkeypatch):
    """The solve through linalg's LAPACK entry points and the solve with
    them replaced by numpy.linalg's public functions agree bit for bit in
    every iterate, the status, the message and the result."""
    p, options = make()
    options = replace(options or SolverOptions(), keep_history=True)
    got = solve_conic_lp(p, options)
    for name, func in NUMPY_LAPACK.items():
        monkeypatch.setattr(linalg, name, func)
    want = solve_conic_lp(p, options)
    assert (got.status, got.iterations, got.message, got.residuals) == \
        (want.status, want.iterations, want.message, want.residuals)
    assert len(got.iterates) == len(want.iterates) > 0
    for g, w in zip(got.iterates + [got], want.iterates + [want]):
        assert (g.primal_obj, g.dual_obj) == (w.primal_obj, w.dual_obj)
        for a, b in [(g.x, w.x)] + list(zip(g.y.parts + g.z.parts,
                                             w.y.parts + w.z.parts)):
            assert np.array_equal(a, b)
    for g, w in zip(got.iterates, want.iterates):
        assert (g.rel_primal, g.rel_dual, g.mu) == \
            (w.rel_primal, w.rel_dual, w.mu)

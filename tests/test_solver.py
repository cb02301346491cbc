import numpy as np
import pytest

from facred.model import ConeBlock, ConicProgram, YElement, adjoint_apply
from facred.solver import (SolverOptions, SolveStatus, solve_conic_lp,
                           standard_dual)

from conftest import random_strictly_feasible, sym


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


def test_mixed_block_program():
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
    res = solve_conic_lp(ConicProgram(blocks, a, b, c))
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
    iterates = sd.y_iterates(res)
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


def test_primal_infeasible_detected():
    blocks = (ConeBlock("psd", 2),)
    a = [YElement(blocks, [np.array([[1.0, 0.0], [0.0, 0.0]])])]
    b = YElement(blocks, [-np.eye(2)])
    res = solve_conic_lp(ConicProgram(blocks, a, b, [1.0]),
                         SolverOptions(max_iter=100))
    assert res.status in (SolveStatus.PRIMAL_INFEASIBLE,
                          SolveStatus.NUMERICAL_FAILURE)
    assert res.status is not SolveStatus.OPTIMAL


def test_unbounded_detected():
    blocks = (ConeBlock("psd", 2),)
    a = [YElement(blocks, [-np.eye(2)])]
    b = YElement(blocks, [np.eye(2)])
    res = solve_conic_lp(ConicProgram(blocks, a, b, [1.0]),
                         SolverOptions(max_iter=100))
    assert res.status in (SolveStatus.UNBOUNDED, SolveStatus.DUAL_INFEASIBLE)


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


def test_history_off_by_default(example_sdp):
    """No iterate is kept unless asked for, and the dual trajectory of a
    solve without one is an error rather than a vacuously empty list."""
    sd = standard_dual(example_sdp)
    res = solve_conic_lp(sd.program)
    assert res.iterates == []
    with pytest.raises(ValueError, match="kept no iterates"):
        sd.y_iterates(res)


def test_linear_algebra_breakdown_ends_the_solve(monkeypatch):
    """A LinAlgError inside an iteration ends the solve with the best
    iterate so far instead of escaping the solver."""
    from facred import solver

    real, calls = solver._max_step_whitened, []

    def flaky(basis, direction):
        calls.append(1)
        if len(calls) == 5:
            raise np.linalg.LinAlgError("injected")
        return real(basis, direction)

    monkeypatch.setattr(solver, "_max_step_whitened", flaky)
    p, _ = random_strictly_feasible(1)
    res = solve_conic_lp(p)
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert "injected" in res.message


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
    """The Nesterov-Todd factors the iteration reads (scaling root, Y^-1,
    step lengths, second-order term) agree with textbook formulas."""
    from facred.solver import (_max_step_whitened, _psd_scaling,
                               _second_order_psd)

    rng = np.random.default_rng(seed)
    n = 3 + seed % 4
    z, y = _spd(rng, n, 2 + seed % 3), _spd(rng, n, 1 + seed % 3)
    s = _psd_scaling(z, y)
    root, rinv, v = s["root"], s["rinv"], s["v"]
    # W = Z^1/2 (Z^1/2 Y Z^1/2)^-1/2 Z^1/2 is the NT scaling: W Y W = Z.
    zh = _sqrtm(z)
    w = zh @ _sqrtm(zh @ y @ zh, -0.5) @ zh
    assert _close(w @ y @ w, z)
    assert _close(root.T @ root, np.linalg.inv(w))
    assert _close(rinv, np.linalg.inv(root))
    assert _close(root @ z @ root.T, np.diag(v))
    assert _close(rinv.T @ y @ rinv, np.diag(v))
    assert _close(s["yinv"], np.linalg.inv(y))

    def step(mat, d):
        low = np.linalg.cholesky(mat)
        li = np.linalg.inv(low)
        lam_min = np.linalg.eigvalsh(li @ d @ li.T)[0]
        return np.inf if lam_min >= -1e-14 else -1.0 / lam_min

    for _ in range(3):
        d = sym(rng.normal(size=(n, n)))
        for mat, basis in ((z, s["hz"]), (y, s["hy"])):
            got, want = _max_step_whitened(basis, d), step(mat, d)
            assert got == want or _close(got, want), (got, want)

    # Mehrotra's term in the W^1/2 form: V = W^-1/2 Z W^-1/2, solve
    # sym(U V) = sym(W^-1/2 dZ W^-1/2 W^1/2 dY W^1/2) in the eigenbasis of
    # V and map back as W^1/2 U W^1/2.
    dz, dy = sym(rng.normal(size=(n, n))), sym(rng.normal(size=(n, n)))
    wh, wih = _sqrtm(w), _sqrtm(w, -0.5)
    lv, qv = np.linalg.eigh(wih @ z @ wih)
    rhs = qv.T @ sym((wih @ dz @ wih) @ (wh @ dy @ wh)) @ qv
    u_c = qv @ (2.0 * rhs / np.add.outer(lv, lv)) @ qv.T
    assert _close(_second_order_psd(s, dz, dy), wh @ u_c @ wh)

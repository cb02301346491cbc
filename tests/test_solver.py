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


def test_unattained_dual_iterates(example_sdp):
    """The fixture's ordinary dual has an unattained zero minimum: the
    objective drifts toward zero while the (1,1) entry stays positive on
    every cone-interior iterate."""
    sd = standard_dual(example_sdp)
    res = solve_conic_lp(sd.program, SolverOptions(max_iter=150))
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
    res = solve_conic_lp(simple_lp())
    assert len(res.iterates) == res.iterations + 1
    assert res.iterates[-1].mu <= res.iterates[0].mu


def test_linear_algebra_breakdown_ends_the_solve(monkeypatch):
    """A LinAlgError inside an iteration ends the solve with the best
    iterate so far instead of escaping the solver."""
    from facred import solver

    real, calls = solver._max_step_psd, []

    def flaky(chol_l, direction):
        calls.append(1)
        if len(calls) == 5:
            raise np.linalg.LinAlgError("injected")
        return real(chol_l, direction)

    monkeypatch.setattr(solver, "_max_step_psd", flaky)
    p, _ = random_strictly_feasible(1)
    res = solve_conic_lp(p)
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert "injected" in res.message

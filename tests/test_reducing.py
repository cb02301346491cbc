import numpy as np
import pytest

from facred.faces import FaceRep, intersect_with_hyperplane, minimal_face
from facred.model import (ConeBlock, ConicProgram, YElement, adjoint_apply,
                          primal_slack)
from facred.reducing import (AmbiguousOutcome, reduced_program,
                             solve_reducing_pair, solve_restricted_to_face)
from facred.solver import SolveStatus, solve_conic_lp

from conftest import random_degenerate


def test_sdp_first_step_finds_corner_certificate(example_sdp):
    out = solve_reducing_pair(example_sdp, FaceRep.full_cone(example_sdp.blocks))
    assert not out.minimal
    target = np.zeros((3, 3))
    target[2, 2] = 1.0
    assert np.max(np.abs(out.y.parts[0] - target)) <= 1e-6


def test_sdp_minimal_face_confirmed(example_sdp):
    face = minimal_face(YElement(example_sdp.blocks, [np.diag([1.0, 0, 0])]),
                        example_sdp.blocks)
    out = solve_reducing_pair(example_sdp, face)
    assert out.minimal
    slack = primal_slack(example_sdp, out.x_strict)
    assert slack.parts[0][0, 0] > 1e-3


def test_lp_first_step_supported_off_the_survivor(example_lp):
    out = solve_reducing_pair(example_lp, FaceRep.full_cone(example_lp.blocks))
    assert not out.minimal
    y = out.y.parts[0]
    assert np.min(y) >= -1e-9
    assert abs(y[0]) <= 1e-9
    assert np.max(y[1:]) > 1e-3
    cols = np.array([ai.parts[0] for ai in example_lp.a])
    np.testing.assert_allclose(cols @ y, 0.0, atol=1e-9)


def test_certificate_normalization_and_orthogonality(example_sdp):
    from facred.faces import relative_interior_point

    face = FaceRep.full_cone(example_sdp.blocks)
    out = solve_reducing_pair(example_sdp, face)
    f = relative_interior_point(face)
    assert f.inner(out.y) == pytest.approx(1.0, abs=1e-9)
    # orthogonal to the slack of any stored feasible point (x = 0 here)
    assert abs(primal_slack(example_sdp, [0.0, 0.0]).inner(out.y)) <= 1e-7


def test_reducing_solves_never_report_primal_infeasible():
    for seed in range(4):
        p, _ = random_degenerate(seed, n=4, m=3)
        out = solve_reducing_pair(p, FaceRep.full_cone(p.blocks))
        assert out.minimal in (True, False)  # completed without error


def test_ambiguous_outcome_surfaced():
    # a barely-interior program: the reducing value equals the margin, which
    # sits between the decision rungs
    blocks = (ConeBlock("psd", 2),)
    prog = ConicProgram(blocks, [], YElement(blocks, [np.diag([5e-6, 1.0])]),
                        [])
    with pytest.raises(AmbiguousOutcome):
        solve_reducing_pair(prog, FaceRep.full_cone(blocks))


def test_zero_face_short_circuit():
    blocks = (ConeBlock("orthant", 2),)
    prog = ConicProgram(blocks, [YElement(blocks, [np.array([1.0, 0.0])])],
                        YElement.zeros(blocks), [0.0])
    face = FaceRep(blocks, [type("R", (), {"support": ()})()])
    out = solve_reducing_pair(prog, face)
    assert out.minimal


def test_restricted_solve_preserves_value(example_sdp):
    face = minimal_face(YElement(example_sdp.blocks, [np.diag([1.0, 0, 0])]),
                        example_sdp.blocks)
    res = solve_restricted_to_face(example_sdp, face)
    assert res.status is SolveStatus.OPTIMAL
    assert res.primal_obj == pytest.approx(0.0, abs=1e-7)
    # The dual comes back in the program's own blocks, solving A* y = c.
    assert res.y.blocks == example_sdp.blocks
    assert res.z.blocks == example_sdp.blocks
    np.testing.assert_allclose(adjoint_apply(example_sdp, res.y),
                               example_sdp.c, atol=1e-7)


def test_restricted_solve_on_full_cone_matches_direct():
    from conftest import random_strictly_feasible

    p, _ = random_strictly_feasible(2)
    direct = solve_conic_lp(p)
    onface = solve_restricted_to_face(p, FaceRep.full_cone(p.blocks))
    assert onface.primal_obj == pytest.approx(direct.primal_obj, abs=1e-5)


def test_reduced_program_is_strictly_feasible(example_sdp):
    face = minimal_face(YElement(example_sdp.blocks, [np.diag([1.0, 0, 0])]),
                        example_sdp.blocks)
    red = reduced_program(example_sdp, face)
    assert red.blocks[0].size == 1
    out = solve_reducing_pair(red, FaceRep.full_cone(red.blocks))
    assert out.minimal

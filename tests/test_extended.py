import numpy as np
import pytest

from facred.extended import (VARIANTS, ExtendedDualPoint,
                             assemble_optimal_point, build_extended_dual,
                             check_extended_point, extract_dual_solution,
                             fmin_membership, lift_to_psd,
                             solve_extended_dual)
from facred.faces import tangent_membership_schur
from facred.model import ConeBlock, ConicProgram, YElement
from facred.sdpa import emit_sdpa, parse_sdpa
from facred.solver import (SolverError, SolverOptions, solve_conic_lp,
                           standard_dual)

from conftest import random_strictly_feasible


def test_lift_embeds_orthant_blocks(example_lp):
    lifted = lift_to_psd(example_lp)
    assert all(blk.kind == "psd" for blk in lifted.blocks)
    np.testing.assert_allclose(lifted.a[0].parts[0],
                               np.diag(example_lp.a[0].parts[0]))


def test_lift_is_identity_on_psd_programs(example_sdp):
    assert lift_to_psd(example_sdp) is example_sdp


def test_layout_round_trips_through_extraction(example_sdp):
    ext = build_extended_dual(example_sdp, "star", ell_override=2)
    rng = np.random.default_rng(5)
    s = rng.normal(size=ext.null_basis.shape[1])

    class Fake:
        x = s

    pt, y = extract_dual_solution(ext, Fake())
    z = ext.z_from_solution(s)
    n = example_sdp.blocks[0].size
    iu = np.triu_indices(n)
    for i in range(1, ext.ell + 2):
        np.testing.assert_array_equal(pt.us[i].parts[0][iu],
                                      z[ext.layout[("u", i, 0)]])
        if i >= 2:
            np.testing.assert_array_equal(pt.vs[i].parts[0][iu],
                                          z[ext.layout[("v", i, 0)]])
            np.testing.assert_array_equal(pt.ws[i][0].reshape(-1),
                                          z[ext.layout[("w", i, 0)]])
            assert pt.betas[i] == z[ext.layout[("beta", i)]][0]
    assert (y - pt.final_dual_point()).norm() == 0.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_encoded_slack_is_the_layered_point(example_sdp, variant):
    """At any s, the slack of the encoded program holds the u_i and the
    bordered blocks [[S_i, w_i], [w_i^T, D_i]] of the layered point z(s)."""
    ext = build_extended_dual(example_sdp, variant, ell_override=2)
    s = np.random.default_rng(3).normal(size=ext.null_basis.shape[1])

    class Fake:
        x = s

    pt, _ = extract_dual_solution(ext, Fake())
    n = example_sdp.blocks[0].size
    expected = [u.parts[0] for u in pt.us[1:]]
    for i in range(2, ext.ell + 2):
        uppers = pt.us[1:i] if variant == "star" else [pt.us[i - 1]]
        upper = sum(u.parts[0] for u in uppers)
        w = pt.ws[i][0]
        lower = pt.betas[i] * np.eye(n)
        expected.append(np.block([[upper, w], [w.T, lower]]))
    slack = ext.program.b - ext.program.apply(s)
    assert len(slack.parts) == len(expected)
    for got, want in zip(slack.parts, expected):
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_depth_zero_collapses_to_standard_dual():
    p, _ = random_strictly_feasible(4, n=3, m=2)
    ext = build_extended_dual(p, "star", ell_override=0)
    val, _ = solve_extended_dual(ext)
    sd = standard_dual(p)
    ref = sd.value_of(solve_conic_lp(sd.program))
    assert val == pytest.approx(ref, abs=1e-5)


@pytest.mark.parametrize("variant", VARIANTS)
def test_raw_route_builds_the_program(example_sdp, variant):
    """The fixture's one-step chain does not fit in ell = 0 layers, so the
    encoded program is built on that solve and solved directly."""
    ext = build_extended_dual(example_sdp, variant, ell_override=0)
    assert "program" not in vars(ext)
    val, _ = solve_extended_dual(ext)
    assert "program" in vars(ext)
    sd = standard_dual(example_sdp)
    ref = sd.value_of(solve_conic_lp(sd.program))
    assert val == pytest.approx(ref, abs=1e-3)  # both near the unattained zero


def test_variant_values_agree(example_sdp):
    """Every variant answers through the assembled point, which never needs
    the encoded program: it stays unbuilt."""
    vals = {}
    for variant in VARIANTS:
        ext = build_extended_dual(example_sdp, variant)
        vals[variant], pt = solve_extended_dual(ext)
        assert "program" not in vars(ext), variant
        assert check_extended_point(example_sdp, pt, variant).ok
    spread = max(vals.values()) - min(vals.values())
    assert spread <= 1e-5
    assert all(abs(v) <= 1e-5 for v in vals.values())


def test_extraction_exposes_minimal_cone_dual(example_sdp):
    ext = build_extended_dual(example_sdp, "star")
    _, pt = solve_extended_dual(ext)
    y = pt.final_dual_point().parts[0]
    assert abs(y[0, 0]) <= 1e-6
    assert 2 * y[0, 1] == pytest.approx(1.0, abs=1e-6)


def test_extension_matches_standard_dual_when_regular():
    p, _ = random_strictly_feasible(3, n=4, m=3)
    sd = standard_dual(p)
    ref = sd.value_of(solve_conic_lp(sd.program))
    val, pt = solve_extended_dual(build_extended_dual(p, "star"))
    assert val == pytest.approx(ref, abs=1e-5)
    assert check_extended_point(p, pt, "star").ok


def test_assembled_point_is_variant_feasible(example_sdp):
    for variant in VARIANTS:
        pt = assemble_optimal_point(example_sdp, variant)
        rep = check_extended_point(example_sdp, pt, variant)
        assert rep.ok, (variant, [c.name for c in rep.failures()])
        assert abs(rep.objective) <= 1e-6


def test_checker_flags_broken_cone_membership(example_sdp):
    pt = assemble_optimal_point(example_sdp, "star")
    bad_u = pt.us[2] - 5.0 * YElement(example_sdp.blocks,
                                      [np.diag([0.0, 1.0, 0.0])])
    pt_bad = ExtendedDualPoint([*pt.us[:2], bad_u, *pt.us[3:]], pt.vs, pt.ws,
                               pt.betas)
    rep = check_extended_point(example_sdp, pt_bad, "star")
    assert not rep.ok
    assert any("dual cone" in c.name for c in rep.failures())


def test_all_zero_point_feasible_for_homogeneous_program():
    blocks = (ConeBlock("psd", 2),)
    a = [YElement(blocks, [np.array([[0.0, 1.0], [1.0, 0.0]])])]
    p = ConicProgram(blocks, a, YElement.zeros(blocks), [0.0])
    zeros = YElement.zeros(blocks)
    zmat = [np.zeros((2, 2))]
    pt = ExtendedDualPoint([zeros] * 3, [zeros] * 3, [zmat] * 3, [0.0] * 3)
    rep = check_extended_point(p, pt, "star")
    assert rep.ok
    assert rep.objective == 0.0


def test_hand_certificate(example_sdp):
    """The decomposed two-step chain extended by the explicit final layer is
    feasible with objective exactly zero; the bordered-block witnesses come
    from the tangent certificate routine."""
    blocks = example_sdp.blocks
    z3 = np.zeros((3, 3))
    u1 = np.diag([0.0, 0.0, 1.0])
    u2 = np.diag([0.0, 2.0, 0.0])
    v2 = np.zeros((3, 3))
    v2[0, 2] = v2[2, 0] = -1.0
    v3 = np.zeros((3, 3))
    v3[0, 1] = v3[1, 0] = 0.5
    ok2, wit2 = tangent_membership_schur(u1, v2)
    ok3, wit3 = tangent_membership_schur(u1 + u2, v3)
    assert ok2 and ok3
    assert wit3[0][1, 0] == pytest.approx(0.5)
    assert wit3[1] >= 1.0 / 8.0
    pt = ExtendedDualPoint(
        [YElement.zeros(blocks), YElement(blocks, [u1]),
         YElement(blocks, [u2]), YElement.zeros(blocks)],
        [YElement.zeros(blocks), YElement.zeros(blocks),
         YElement(blocks, [v2]), YElement(blocks, [v3])],
        [[z3], [z3], [wit2[0]], [wit3[0]]],
        [0.0, 0.0, wit2[1], wit3[1]])
    rep = check_extended_point(example_sdp, pt, "star", tol=1e-9)
    assert rep.ok
    assert rep.objective == 0.0
    assert rep.adjoint_residual <= 1e-12


def test_extended_dual_emits_valid_sdpa(example_sdp):
    ext = build_extended_dual(example_sdp, "primed", ell_override=2)
    text = emit_sdpa(ext.program)
    back = parse_sdpa(text)
    assert back.m == ext.program.m
    assert (back.b - ext.program.b).norm() <= 1e-12
    assert back.name == ext.program.name == "sdp3 extended-primed"


def test_build_rejects_bad_input(example_sdp):
    with pytest.raises(ValueError):
        build_extended_dual(example_sdp, "unknown")
    with pytest.raises(ValueError):
        build_extended_dual(example_sdp, "star", ell_override=-1)


def test_fmin_membership_fixtures(example_sdp):
    blocks = example_sdp.blocks
    assert fmin_membership(example_sdp, YElement(blocks, [np.diag([1.0, 0, 0])]))
    assert not fmin_membership(example_sdp,
                               YElement(blocks, [np.diag([0.0, 1, 0])]))
    assert fmin_membership(example_sdp, YElement.zeros(blocks))


def test_fmin_membership_rejects_points_outside_cone(example_sdp):
    assert not fmin_membership(example_sdp,
                               YElement(example_sdp.blocks, [-np.eye(3)]))


def test_fmin_membership_lets_bugs_through(example_sdp, monkeypatch):
    """Only solver and reduction failures fall back; a programming error in
    the facial-reduction fallback propagates."""
    import facred.reduction

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(facred.reduction, "run_facial_reduction", broken)
    with pytest.raises(TypeError, match="injected"):
        fmin_membership(example_sdp,
                        YElement(example_sdp.blocks, [np.diag([0.0, 1, 0])]))


def _congruence(p, seed):
    """The program with every data matrix rotated by one seeded random
    orthogonal Q (a_i -> Q a_i Q^T, b -> Q b Q^T); its value is unchanged."""
    n = p.blocks[0].size
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))

    def rotate(y):
        return YElement(p.blocks, [q @ y.parts[0] @ q.T])

    return ConicProgram(p.blocks, [rotate(ai) for ai in p.a], rotate(p.b),
                        p.c, name=p.name + " rotated")


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_extended_value_is_right_or_raises(seed, rotated):
    """On a regular program the star extended dual either reports the
    standard dual value or raises SolverError, in any orthonormal basis."""
    p, _ = random_strictly_feasible(seed, n=4, m=3)
    sd = standard_dual(p)
    ref = sd.value_of(solve_conic_lp(sd.program))
    if rotated:
        p = _congruence(p, 100 + seed)
    try:
        val, _ = solve_extended_dual(build_extended_dual(p, "star"))
    except SolverError:
        return
    assert abs(val - ref) <= 1e-5 * (1.0 + abs(ref)), (val, ref)

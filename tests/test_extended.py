from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from facred.extended import (VARIANTS, ExtendedDualPoint,
                             assemble_optimal_point, build_extended_dual,
                             check_extended_point, fmin_membership,
                             lift_to_psd, solve_extended_dual)
from facred.faces import tangent_membership_schur
from facred.model import (ConeBlock, ConicProgram, YElement, adjoint_apply,
                          primal_slack)
from facred.reducing import AmbiguousOutcome, solve_restricted_to_face
from facred.reduction import ReductionError, run_facial_reduction
from facred.sdpa import emit_sdpa, parse_sdpa
from facred.solver import (SolverError, SolverOptions, SolveStatus,
                           solve_conic_lp, standard_dual)

from conftest import (congruence, gap_sdp, random_degenerate,
                      random_strictly_feasible, sym)

GOLDEN = Path(__file__).parent / "golden"


def test_lift_embeds_orthant_blocks(example_lp):
    lifted = lift_to_psd(example_lp)
    assert all(blk.kind == "psd" for blk in lifted.blocks)
    np.testing.assert_allclose(lifted.a[0].parts[0],
                               np.diag(example_lp.a[0].parts[0]))


def test_lift_is_identity_on_psd_programs(example_sdp):
    assert lift_to_psd(example_sdp) is example_sdp


def test_layout_round_trips_through_extraction(example_sdp):
    """The layout tiles the stacked vector, and an assembled point packed
    into z by it satisfies the layered equalities with objective q . z."""
    ext = build_extended_dual(example_sdp, "star", ell_override=2)
    spans = sorted((sl.start, sl.stop) for sl in ext.layout.values())
    assert spans[0][0] == 0 and spans[-1][1] == ext.nz
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    value, pt, _ = solve_extended_dual(ext)
    z, blk = np.zeros(ext.nz), ext.source.blocks[0]
    for i in range(1, ext.ell + 2):
        z[ext.layout[("u", i, 0)]] = blk.svec(pt.us[i].parts[0])
        if i >= 2:
            z[ext.layout[("v", i, 0)]] = blk.svec(pt.vs[i].parts[0])
            z[ext.layout[("w", i, 0)]] = pt.ws[i][0].reshape(-1)
            z[ext.layout[("beta", i)]] = pt.betas[i]
    eq, rhs, q, *_ = ext._encoding()
    np.testing.assert_allclose(eq @ z, rhs, atol=1e-7)
    assert q @ z == pytest.approx(value, abs=1e-7)
    assert (pt.us[-1] + pt.vs[-1]).inner(example_sdp.b) == pytest.approx(
        value, abs=1e-7)


def _in_span_program(scale=1.0):
    """Two blocks with b = 2 a_1 - a_2, so the dual objective <b, y> is the
    constant 2 c_1 - c_2 = 1.5 on the final layer's affine set; the data
    a_i are multiplied by ``scale``, which leaves that value."""
    rng = np.random.default_rng(11)
    blocks = (ConeBlock("psd", 2), ConeBlock("orthant", 2))
    a = [scale * YElement(blocks, [sym(rng.normal(size=(2, 2))),
                                   rng.normal(size=2)])
         for _ in range(2)]
    return ConicProgram(blocks, a, 2.0 * a[0] - a[1], [1.0, 0.5], name="span")


@pytest.mark.parametrize("dual", VARIANTS + ("standard",))
@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
def test_span_offset_is_scale_free(scale, dual):
    """Whether b lies in the span of the a_i is decided relative to the
    size of b, and the objective shift relative to the size of the
    objective, so the two agree at every scale, for each extended variant
    and for the ordinary dual: the offset is 1.5, and the encoded program,
    solved directly, answers 1.5 or fails loudly.  With absolute 1e-12
    tests the offset read 0 at 1e3 beside an optimal solve of value 0, and
    at 1e6 the shift divided by rounding noise and the solve failed."""
    p = _in_span_program(scale)
    if dual == "standard":
        sd = standard_dual(p)
        offset, program = sd.offset, sd.program
    else:
        ext = build_extended_dual(p, dual, ell_override=2)
        offset, program = ext.offset, ext.program
    assert offset == pytest.approx(1.5, rel=1e-9)
    try:
        res = solve_conic_lp(program)
    except SolverError:
        return
    if res.optimal:
        assert offset - res.primal_obj == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("variant", VARIANTS)
def test_encoded_slack_is_the_layered_point(example_sdp, variant):
    """At any s, the slack of the encoded program holds the u_i and the
    bordered blocks [[S_i, w_i], [w_i^T, D_i]] of a point of the layered
    system, whose objective is offset - <c, s>."""
    for p, offset in ((example_sdp, 0.0), (_in_span_program(), 1.5)):
        ext = build_extended_dual(p, variant, ell_override=2)
        assert ext.offset == pytest.approx(offset, abs=1e-12)
        lifted, ell = ext.source, ext.ell
        sizes = [blk.size for blk in lifted.blocks]
        prog = ext.program
        s = np.random.default_rng(3).normal(size=prog.m)
        parts = iter((prog.b - prog.apply(s)).parts)

        def element(mats):
            return YElement(lifted.blocks, mats)

        us = [element([np.zeros((n, n)) for n in sizes])]
        us += [element([next(parts) for _ in sizes]) for _ in range(ell + 1)]
        vs = [us[0], us[0]]
        for i in range(2, ell + 2):
            uppers = us[1:i] if variant == "star" else [us[i - 1]]
            v_parts = []
            for bi, n in enumerate(sizes):
                block = next(parts)
                upper = sum(u.parts[bi] for u in uppers)
                np.testing.assert_allclose(block[:n, :n], upper, atol=1e-9)
                beta = block[n, n] if variant in ("star", "simple") else 1.0
                np.testing.assert_allclose(block[n:, n:], beta * np.eye(n),
                                           atol=1e-9)
                w = block[:n, n:]
                v_parts.append(w + w.T)
            vs.append(element(v_parts))
        assert next(parts, None) is None

        ys = [u + v for u, v in zip(us, vs)]
        for i in range(1, ell + 1):
            np.testing.assert_allclose(adjoint_apply(lifted, ys[i]), 0.0,
                                       atol=1e-9)
            assert abs(lifted.b.inner(ys[i])) <= 1e-9
        np.testing.assert_allclose(adjoint_apply(lifted, ys[-1]), lifted.c,
                                   atol=1e-9)
        assert lifted.b.inner(ys[-1]) == pytest.approx(
            ext.offset - prog.c @ s, abs=1e-9)


def test_depth_zero_collapses_to_standard_dual():
    p, _ = random_strictly_feasible(4, n=3, m=2)
    ext = build_extended_dual(p, "star", ell_override=0)
    val, _, _ = solve_extended_dual(ext)
    sd = standard_dual(p)
    ref = sd.value_of(solve_conic_lp(sd.program))
    assert val == pytest.approx(ref, abs=1e-5)


@pytest.mark.parametrize("variant", VARIANTS)
def test_raw_route_builds_the_program(variant):
    """A one-step chain does not fit in ell = 0 layers: the solve refuses
    without building the encoded program, which is still built on request
    (as for --out) and, solved directly, reaches the default-depth value."""
    p, _ = random_degenerate(1, n=4, m=3)
    ref, _, _ = solve_extended_dual(build_extended_dual(p, variant))
    ext = build_extended_dual(p, variant, ell_override=0)
    with pytest.raises(ValueError, match="chain of length 1 does not fit "
                                         "in 0 layers"):
        solve_extended_dual(ext)
    assert "program" not in vars(ext)
    res = solve_conic_lp(ext.program)
    assert "program" in vars(ext)
    assert res.optimal
    assert ext.offset - res.primal_obj == pytest.approx(ref, abs=1e-5)


@pytest.mark.parametrize("variant", VARIANTS)
def test_raw_route_refuses_an_unconverged_solve(example_sdp, variant):
    """Below the chain length the extended dual need not be strong (a direct
    solve of these programs at ell = 0 does not end optimal), so no value is
    answered: the solve raises ValueError, naming the chain length, and the
    encoded program stays unbuilt."""
    for p, steps in ((example_sdp, 2), (random_degenerate(1, n=4, m=3)[0], 1),
                     (random_degenerate(3, n=4, m=3)[0], 1)):
        for ell in range(steps):
            ext = build_extended_dual(p, variant, ell_override=ell)
            with pytest.raises(ValueError, match=f"chain of length {steps} "
                                                 f"does not fit in {ell} layers"):
                solve_extended_dual(ext)
            assert "program" not in vars(ext)


@pytest.mark.parametrize("ell", [None, 0, 1, 2, 3])
def test_inconsistent_dual_equalities_raise(ell):
    """With a_2 = a_1 but c_1 != c_2, A* y = c has no solution: the
    ordinary dual, and every extended dual, is infeasible."""
    p, _ = random_strictly_feasible(3)
    p = ConicProgram(p.blocks, [p.a[0], p.a[0], p.a[2]], p.b, [1.0, 0.0, 0.5])
    for variant in VARIANTS:
        with pytest.raises(SolverError, match="ordinary dual is infeasible"):
            build_extended_dual(p, variant, ell_override=ell)


def test_variant_values_agree(example_sdp):
    """Every variant answers through the assembled point, which never needs
    the encoded program: it stays unbuilt."""
    vals = {}
    for variant in VARIANTS:
        ext = build_extended_dual(example_sdp, variant)
        vals[variant], pt, _ = solve_extended_dual(ext)
        assert "program" not in vars(ext), variant
        assert check_extended_point(example_sdp, pt, variant).ok
    spread = max(vals.values()) - min(vals.values())
    assert spread <= 1e-5
    assert all(abs(v) <= 1e-5 for v in vals.values())


@pytest.mark.parametrize("seed", [0, 4])
def test_padded_depth_keeps_the_identity_block_value(seed):
    """Layers past the chain length are zero layers in front of the chain:
    the identity-block variants answer the same value at every depth up to
    the bound (padding behind the chain squared their rescale and failed
    the point's check at depth 3 or 4 here)."""
    p, _ = random_degenerate(seed)
    lifted = lift_to_psd(p)
    chain = run_facial_reduction(lifted)
    assert chain.steps < chain.ell
    for variant in ("primed", "ramana"):
        ref, _, _ = solve_extended_dual(
            build_extended_dual(p, variant, chain.steps, chain))
        for ell in range(chain.steps + 1, chain.ell + 1):
            val, _, _ = solve_extended_dual(
                build_extended_dual(p, variant, ell, chain))
            assert val == pytest.approx(ref, abs=1e-6), (variant, ell)


def test_extraction_exposes_minimal_cone_dual(example_sdp):
    ext = build_extended_dual(example_sdp, "star")
    _, pt, _ = solve_extended_dual(ext)
    y = (pt.us[-1] + pt.vs[-1]).parts[0]
    assert abs(y[0, 0]) <= 1e-6
    assert 2 * y[0, 1] == pytest.approx(1.0, abs=1e-6)


def test_extension_matches_standard_dual_when_regular():
    p, _ = random_strictly_feasible(3, n=4, m=3)
    sd = standard_dual(p)
    ref = sd.value_of(solve_conic_lp(sd.program))
    val, pt, _ = solve_extended_dual(build_extended_dual(p, "star"))
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


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fixture", ["lp5x3", "mixed0", "sdp3", "staircase3"])
def test_extended_dual_emits_valid_sdpa(fixture, variant):
    p = parse_sdpa((GOLDEN / f"{fixture}.dat-s").read_text())
    ext = build_extended_dual(p, variant, ell_override=2)
    text = emit_sdpa(ext.program)
    back = parse_sdpa(text)
    assert back.m == ext.program.m
    assert back.blocks == ext.program.blocks
    assert (back.b - ext.program.b).norm() <= 1e-12
    assert all((x - y).norm() <= 1e-12 for x, y in zip(back.a, ext.program.a))
    np.testing.assert_array_equal(back.c, ext.program.c)
    assert back.name == ext.program.name == f"{fixture} extended-{variant}"


_SELF_CHECK = {
    "gap": gap_sdp,
    "lp5x3": lambda: parse_sdpa((GOLDEN / "lp5x3.dat-s").read_text()),
    "sdp3": lambda: parse_sdpa((GOLDEN / "sdp3.dat-s").read_text()),
    "degen0": lambda: random_degenerate(0)[0],
    "degen1": lambda: random_degenerate(1)[0],
    "rand0": lambda: random_strictly_feasible(0)[0],
    "rand1": lambda: random_strictly_feasible(1)[0],
}


@pytest.mark.parametrize("variant", ["star", "ramana"])
@pytest.mark.parametrize("name", list(_SELF_CHECK))
def test_emitted_dual_value_is_right_or_loud(name, variant):
    """facred checks the dual it emits: the encoded program, reduced by
    facred and solved on its own minimal face, has the value of the
    assembled point at the chain's depth.  An extended dual rarely has a
    Slater point, so a direct solve will not do.  The contract is that the
    value is right, or the solve is not OPTIMAL or raises; on sdp3 the
    solve of its emitted dual ends numerical_failure, so only there a loud
    failure passes."""
    p = _SELF_CHECK[name]()
    ext = build_extended_dual(p, variant,
                              chain=run_facial_reduction(lift_to_psd(p)))
    ref, _, _ = solve_extended_dual(ext)
    prog = ext.program
    try:
        res = solve_restricted_to_face(
            prog, run_facial_reduction(prog).minimal_face)
    except (SolverError, ReductionError, AmbiguousOutcome):
        assert name == "sdp3"
        return
    if res.status is not SolveStatus.OPTIMAL:
        assert name == "sdp3", res.status
        return
    value = ext.offset - res.primal_obj
    assert abs(value - ref) <= 1e-7 * (1.0 + abs(ref)), (value, ref)


def test_build_rejects_bad_input(example_sdp, example_lp):
    with pytest.raises(ValueError):
        build_extended_dual(example_sdp, "unknown")
    with pytest.raises(ValueError):
        build_extended_dual(example_sdp, "star", ell_override=-1)
    # The chain must reduce the PSD lift, not the orthant program itself.
    with pytest.raises(ValueError):
        build_extended_dual(example_lp, "star",
                            chain=run_facial_reduction(example_lp))


def test_fmin_membership_fixtures(example_sdp):
    blocks = example_sdp.blocks
    assert fmin_membership(example_sdp, YElement(blocks, [np.diag([1.0, 0, 0])]))
    assert not fmin_membership(example_sdp,
                               YElement(blocks, [np.diag([0.0, 1, 0])]))
    assert fmin_membership(example_sdp, YElement.zeros(blocks))


def test_fmin_membership_rejects_points_outside_cone(example_sdp):
    assert not fmin_membership(example_sdp,
                               YElement(example_sdp.blocks, [-np.eye(3)]))


@pytest.mark.parametrize("seed", range(4))
def test_fmin_membership_keeps_scaled_points_of_the_minimal_cone(seed):
    """A feasible slack scaled by 1e9 to 1e12 stays in the minimal cone:
    the cone test before the solve is relative to |s|, as the witness test
    is.  Its negative and a scaled identity stay outside."""
    p, xbar = random_degenerate(seed)
    s = primal_slack(p, xbar)
    for scale in (1e9, 1e10, 1e12):
        assert fmin_membership(p, scale * s), scale
    assert not fmin_membership(p, -1.0 * s)
    assert not fmin_membership(p, 1e10 * YElement.identity(p.blocks))


def test_fmin_membership_lets_bugs_through(example_sdp, monkeypatch):
    """A failed reduction behind an undecided squeeze solve raises
    SolverError; a programming error in it propagates."""
    import facred.extended

    def broken(*args, **kwargs):
        raise TypeError("injected")

    def unconverged(prog, options=None):
        # A one-iteration membership solve is unusable, so the decision
        # always goes to the facial-reduction fallback.
        return solve_conic_lp(prog, SolverOptions(max_iter=1))

    monkeypatch.setattr(facred.extended, "solve_conic_lp", unconverged)
    monkeypatch.setattr(facred.extended, "run_facial_reduction", broken)
    with pytest.raises(TypeError, match="injected"):
        fmin_membership(example_sdp,
                        YElement(example_sdp.blocks, [np.diag([0.0, 1, 0])]))


def test_fmin_membership_decides_an_unwitnessed_in_point_by_reduction(
        monkeypatch):
    """With the early stop disabled, the squeeze solve of a feasible slack
    ends optimal at t* near 1 with no witness taken.  Neither "yes" by
    witness nor "no" applies, so exactly one reduction decides, and the
    answer is "yes"; when that reduction fails, SolverError."""
    import facred.extended
    from facred.reduction import ReductionError

    real_solve = facred.extended.solve_conic_lp
    real_reduce = facred.extended.run_facial_reduction
    t_stars, reductions = [], []

    def no_stop(prog, options):
        res = real_solve(prog, replace(options, stop=None))
        t_stars.append(res.primal_obj)
        return res

    def counting(*args, **kwargs):
        reductions.append(1)
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(facred.extended, "solve_conic_lp", no_stop)
    monkeypatch.setattr(facred.extended, "run_facial_reduction", counting)
    p, xbar = random_degenerate(0)
    assert fmin_membership(p, primal_slack(p, xbar))
    assert t_stars[0] >= 0.5 and len(reductions) == 1

    def failing(*args, **kwargs):
        raise ReductionError("injected", None)

    monkeypatch.setattr(facred.extended, "run_facial_reduction", failing)
    with pytest.raises(SolverError, match="injected"):
        fmin_membership(p, primal_slack(p, xbar))


def _relabelled(p, seed):
    """The program under a seeded signed permutation q (a cone automorphism
    that keeps every entry exact), and the map y -> q y q^T it applies."""
    rng = np.random.default_rng(seed)
    n = p.blocks[0].size
    q = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)

    def move(y):
        return YElement(p.blocks, [q @ y.parts[0] @ q.T])

    return ConicProgram(p.blocks, [move(ai) for ai in p.a], move(p.b),
                        p.c), move


def _planted_points(p, xbar, rng):
    """A point inside the minimal face, spanned by the slack at the planted
    feasible xbar, and a unit rank-one bump outside that face."""
    lam, vec = np.linalg.eigh(primal_slack(p, xbar).parts[0])
    r = int(np.sum(lam > 1e-9 * lam[-1]))
    face, dead = vec[:, -r:], vec[:, :-r]
    g = rng.normal(size=(r, r))
    inside = face @ (g @ g.T + 0.5 * np.eye(r)) @ face.T
    u = dead @ rng.normal(size=dead.shape[1])
    return inside, np.outer(u, u) / float(u @ u)


@pytest.mark.parametrize("fallback", ["as needed", "always"])
def test_fmin_membership_matches_the_planted_face(monkeypatch, fallback):
    """Planted points inside and outside the minimal face of degenerate
    programs, n = 4..12, under three relabellings each: every verdict is
    the planted one.  With the squeeze solve reported unconverged, every
    decision comes from the program's own reduction."""
    import facred.extended

    real_solve = facred.extended.solve_conic_lp
    real_reduce = facred.extended.run_facial_reduction
    reductions = []

    def unconverged(prog, options):
        res = real_solve(prog, replace(options, stop=None))
        res.residuals = dict(res.residuals, primal=1.0)
        return res

    def counting(p, *args, **kwargs):
        reductions.append(p.name)
        return real_reduce(p, *args, **kwargs)

    if fallback == "always":
        monkeypatch.setattr(facred.extended, "solve_conic_lp", unconverged)
    monkeypatch.setattr(facred.extended, "run_facial_reduction", counting)
    decisions = 0
    for n in range(4, 13):
        p, xbar = random_degenerate(n, n=n, m=2 * n // 3)
        inside, bump = _planted_points(p, xbar, np.random.default_rng(n))
        outside = inside + 0.5 * bump
        for k in range(3):
            moved, move = _relabelled(p, 100 * n + k)
            for point, planted in ((inside, True), (outside, False)):
                s = move(YElement(p.blocks, [point]))
                assert fmin_membership(moved, s) is planted, (n, k, planted)
                decisions += 1
    assert decisions == 54
    if fallback == "always":
        assert len(reductions) == decisions


def test_fmin_membership_sees_small_outside_mass():
    """Planted points with outside mass delta = 1e-3, 1e-4, 1e-5 answer
    "no" and the points inside the face "yes", n = 4..12 under three
    relabellings.  The squeeze solve stops early only on a witness in the
    cone to tol (1 + |s|); at 1e2 tol an early iterate of the degenerate
    squeeze program would pass most of these points."""
    for n in range(4, 13):
        p, xbar = random_degenerate(n, n=n, m=2 * n // 3)
        inside, bump = _planted_points(p, xbar, np.random.default_rng(n))
        for k in range(3):
            moved, move = _relabelled(p, 100 * n + k)
            assert fmin_membership(moved, move(YElement(p.blocks, [inside])))
            for delta in (1e-3, 1e-4, 1e-5):
                s = move(YElement(p.blocks, [inside + delta * bump]))
                assert not fmin_membership(moved, s), (n, k, delta)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_extended_value_is_right_or_raises(seed, rotated):
    """On a regular program the star extended dual reports the standard
    dual value, in any orthonormal basis."""
    p, _ = random_strictly_feasible(seed, n=4, m=3)
    sd = standard_dual(p)
    ref = sd.value_of(solve_conic_lp(sd.program))
    if rotated:
        p = congruence(p, 100 + seed)
    val, _, _ = solve_extended_dual(build_extended_dual(p, "star"))
    assert abs(val - ref) <= 1e-5 * (1.0 + abs(ref)), (val, ref)

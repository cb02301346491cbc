import numpy as np
import pytest

from facred.faces import FaceRep, intersect_with_hyperplane, minimal_face
from facred.model import (ConeBlock, ConicProgram, YElement, adjoint_apply,
                          primal_slack)
from facred.reducing import (AmbiguousOutcome, reduced_program,
                             solve_reducing_pair, solve_restricted_to_face)
from facred.reduction import ReductionError
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


def _purify_reference(p, face, f, y, rounds=80):
    """The certificate cleanup as first written, one YElement round trip per
    half-step; kept to pin the faster loop to the same bits."""
    from facred.linalg import flatten_element, unflatten_element
    from facred.solver import SolverError

    rows = np.vstack([flatten_element(ai) for ai in p.a]
                     + [flatten_element(p.b)])
    _, svals, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(svals > 1e-12 * (svals[0] if svals.size else 1.0)))
    null_vt = vt[rank:]
    cutoff = 1e-4
    vec = flatten_element(y)
    for _ in range(rounds):
        vec = null_vt.T @ (null_vt @ vec)
        cur = unflatten_element(vec, p.blocks)
        parts = [np.array(part) for part in cur.parts]
        change = 0.0
        for bi, (blk, rep) in enumerate(zip(p.blocks, face.reps)):
            if blk.kind == "orthant":
                sup = list(rep.support)
                if not sup:
                    continue
                vals = parts[bi][sup]
                clipped = np.where(vals > cutoff * max(1.0, np.max(vals, initial=0.0)),
                                   vals, 0.0)
                change = max(change, float(np.max(np.abs(vals - clipped),
                                                  initial=0.0)))
                parts[bi][sup] = clipped
            else:
                q = rep.basis
                if q.shape[1] == 0:
                    continue
                compressed = q.T @ parts[bi] @ q
                lam, u = np.linalg.eigh(0.5 * (compressed + compressed.T))
                lam_clip = np.where(lam > cutoff * max(1.0, lam[-1] if lam.size else 1.0),
                                    lam, 0.0)
                fixed = (u * lam_clip) @ u.T
                change = max(change, float(np.max(np.abs(fixed - compressed),
                                                  initial=0.0)))
                parts[bi] = parts[bi] + q @ (fixed - compressed) @ q.T
        cur = YElement(p.blocks, parts)
        vec_new = flatten_element(cur)
        null_resid = float(np.linalg.norm(vec_new - null_vt.T @ (null_vt @ vec_new)))
        vec = vec_new
        if max(change, null_resid) <= 1e-13 * (1.0 + float(np.linalg.norm(vec))):
            break
    refined = unflatten_element(null_vt.T @ (null_vt @ vec), p.blocks)
    scale = f.inner(refined)
    if abs(scale) < 1e-6:
        raise SolverError("certificate cleanup collapsed the normalization")
    return (1.0 / scale) * refined


def test_purify_matches_the_reference_bit_for_bit(monkeypatch, example_sdp,
                                                   example_lp):
    """Every certificate cleanup of seeded reductions gives exactly the
    bits of the round-trip formulation."""
    import facred.reducing
    from facred.reduction import run_facial_reduction

    fast = facred.reducing._purify_certificate
    seen = []

    def both(p, face, f, y, *args):
        got = fast(p, face, f, y, *args)
        want = _purify_reference(p, face, f, y, *args)
        seen.append(all(np.array_equal(a, b)
                        for a, b in zip(got.parts, want.parts)))
        return got

    monkeypatch.setattr(facred.reducing, "_purify_certificate", both)
    programs = [example_sdp, example_lp] + [
        random_degenerate(seed, n, m, kind)[0]
        for seed in range(4) for n, m in [(4, 3), (6, 4)]
        for kind in ("psd", "orthant")]
    for p in programs:
        try:
            run_facial_reduction(p)
        except (AmbiguousOutcome, ReductionError):
            pass
    assert len(seen) >= 15
    assert all(seen)

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from facred import reducing
from facred.extended import lift_to_psd
from facred.faces import (FaceRep, OrthantFace, intersect_with_hyperplane,
                          minimal_face, relative_interior_point)
from facred.model import (ConeBlock, ConicProgram, YElement, adjoint_apply,
                          primal_slack)
from facred.reducing import (AmbiguousOutcome, FaceCoordinates,
                             polish_certificate, solve_reducing_pair,
                             solve_restricted_to_face)
from facred.reduction import ReductionError, run_facial_reduction
from facred.sdpa import parse_sdpa
from facred.solver import SolverError, SolveStatus, solve_conic_lp

from conftest import (face_case, random_degenerate, random_element,
                      random_strictly_feasible, reduced_program, sym)


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
    p, _ = random_strictly_feasible(2)
    direct = solve_conic_lp(p)
    onface = solve_restricted_to_face(p, FaceRep.full_cone(p.blocks))
    assert onface.primal_obj == pytest.approx(direct.primal_obj, abs=1e-5)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [4, 6, 8])
def test_pinned_face_solve_is_closed_form(seed, n):
    """On the minimal face of a degenerate program the span equations pin
    x at an interior slack: the face-restricted solve answers without an
    iteration, as the interior-point solve of the eliminated program
    (no variables) does, with a dual that solves A* y = c."""
    from facred.reducing import FaceCoordinates
    from facred.reduction import run_facial_reduction

    p, xbar = random_degenerate(seed, n=n, m=2 * n // 3)
    face = run_facial_reduction(p).minimal_face
    res = solve_restricted_to_face(p, face)
    assert res.status is SolveStatus.OPTIMAL
    assert res.iterations == 0

    coords = FaceCoordinates(p, face)
    assert not coords.null_basis.shape[1]
    ipm = solve_conic_lp(ConicProgram.from_stacks(
        face.kept_blocks, coords.eliminated(), np.zeros(0)))
    assert ipm.status is SolveStatus.OPTIMAL and ipm.iterations > 0
    value = float(np.dot(p.c, coords.x_particular)) + ipm.primal_obj
    np.testing.assert_allclose(res.x, coords.x_particular, atol=1e-7)
    np.testing.assert_allclose(res.x, xbar, atol=1e-7)
    for obj in (res.primal_obj, res.dual_obj, p.b.inner(res.y)):
        assert abs(obj - value) <= 1e-8 * (1.0 + abs(value))
    c = np.asarray(p.c)
    assert np.max(np.abs(adjoint_apply(p, res.y) - c)) \
        <= 1e-9 * (1.0 + np.max(np.abs(c)))


def test_pinned_slack_on_the_boundary_still_solves():
    """With no variables, a slack on the boundary of the face fails the
    margin test and goes to the interior-point solve; an interior one is
    answered in closed form."""
    blocks = (ConeBlock("psd", 2),)
    face = FaceRep.full_cone(blocks)
    edge = ConicProgram(blocks, [], YElement(blocks, [np.diag([1.0, 0.0])]),
                        [])
    res = solve_restricted_to_face(edge, face)
    assert res.status is SolveStatus.OPTIMAL
    assert res.iterations > 0
    inner = ConicProgram(blocks, [], YElement(blocks, [np.diag([1.0, 0.5])]),
                         [])
    res = solve_restricted_to_face(inner, face)
    assert res.status is SolveStatus.OPTIMAL
    assert res.iterations == 0
    assert res.message == "the span equations pin x"
    np.testing.assert_allclose(res.z.parts[0], np.diag([1.0, 0.5]))
    assert np.all(res.y.parts[0] == 0.0)


def test_reduced_program_is_strictly_feasible(example_sdp):
    face = minimal_face(YElement(example_sdp.blocks, [np.diag([1.0, 0, 0])]),
                        example_sdp.blocks)
    red = reduced_program(example_sdp, face)
    assert red.blocks[0].size == 1
    out = solve_reducing_pair(red, FaceRep.full_cone(red.blocks))
    assert out.minimal


def _purify_reference(p, face, f, y, rounds=80):
    """The certificate cleanup as first written, one YElement round trip per
    half-step, with the stall stop (a round whose violation is above half
    the violation three rounds earlier ends the loop); kept to pin the
    faster loop to the same bits."""
    from facred.linalg import flatten_element, unflatten_element
    from facred.solver import SolverError

    rows = np.vstack([flatten_element(ai) for ai in p.a]
                     + [flatten_element(p.b)])
    _, svals, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(svals > 1e-12 * (svals[0] if svals.size else 1.0)))
    row_vt = vt[:rank]

    def project(v):  # onto the nullspace, through the thin SVD's row space
        return v - row_vt.T @ (row_vt @ v)

    cutoff = 1e-4
    vec = flatten_element(y)
    history = []
    for _ in range(rounds):
        vec = project(vec)
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
        null_resid = float(np.linalg.norm(vec_new - project(vec_new)))
        vec = vec_new
        history.append(max(change, null_resid))
        if history[-1] <= 1e-13 * (1.0 + float(np.linalg.norm(vec))):
            break
        if len(history) > 3 and history[-1] > 0.5 * history[-4]:
            break
    refined = unflatten_element(project(vec), p.blocks)
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


def _purify_rounds(monkeypatch, programs):
    """Rounds of each purify call over the reductions of ``programs``: one
    eigendecomposition per round on single-PSD-block programs."""
    import facred.reducing
    from facred.reduction import run_facial_reduction

    inner = facred.reducing._purify_certificate
    eigh = facred.linalg.eigh
    rounds, inside = [], []

    def counted_eigh(*args, **kwargs):
        if inside:
            rounds[-1] += 1
        return eigh(*args, **kwargs)

    def purify(*args):
        rounds.append(0)
        inside.append(True)
        try:
            return inner(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(facred.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(facred.reducing, "_purify_certificate", purify)
    for p in programs:
        run_facial_reduction(p)
    return rounds


def test_purify_stops_when_it_stalls(monkeypatch, example_sdp):
    """The fixture's first cleanup converges geometrically and still exits
    through the 1e-13 test; on the degenerate programs the violation
    settles within a few rounds and the stall stop ends the loop (each ran
    all 80 rounds before the stop: 320 in all, 20 with it)."""
    assert _purify_rounds(monkeypatch, [example_sdp]) == [19, 1]
    rounds = _purify_rounds(monkeypatch, [random_degenerate(seed)[0]
                                          for seed in range(4)])
    assert len(rounds) == 4
    assert sum(rounds) <= 1.1 * 20


def _unit_images_reference(coords):
    """Compressed images of the ambient unit elements, one unit element at
    a time: the construction the closed form replaced."""
    from facred.linalg import unflatten_element

    p = coords.program
    return [coords.face.compress(unflatten_element(e_j, p.blocks))
            for e_j in np.eye(p.ambient_dim)]


def _mixed_program(monkeypatch):
    """The benchmark's orthant-beside-PSD family and its planted face, at
    a seed whose PSD face has rank 3 of 6."""
    import importlib.util
    import sys
    from pathlib import Path

    from facred.faces import OrthantFace, PsdFace

    path = Path(__file__).resolve().parent.parent / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    inst = module.mixed(3)
    blocks = tuple(ConeBlock(kind, size) for kind, size in inst.blocks)
    p = ConicProgram(blocks, [YElement(blocks, list(a)) for a in inst.a],
                     YElement(blocks, list(inst.b)), inst.c)
    support, basis = inst.face
    return p, FaceRep(blocks, [OrthantFace(support), PsdFace(basis)])


def _closed_form_case(case, monkeypatch):
    from facred.faces import OrthantFace

    if case == "mixed":
        return _mixed_program(monkeypatch)
    full, _ = random_degenerate(2, n=5, m=3)
    cut, xbar = random_degenerate(1, n=5, m=3)
    cut_face = minimal_face(primal_slack(cut, xbar), cut.blocks)
    assert 0 < cut_face.ranks[0] < 5
    blocks = (ConeBlock("orthant", 4), ConeBlock("orthant", 3))
    rng = np.random.default_rng(0)
    a = [YElement(blocks, [rng.normal(size=4), rng.normal(size=3)])
         for _ in range(2)]
    orth = ConicProgram(blocks, a, YElement(blocks, [np.array([1.0, 0, 2, 0]),
                                                     np.zeros(3)]), [0.0, 0.0])
    orth_face = FaceRep(blocks, [OrthantFace((0, 2)), OrthantFace(())])
    return {"full psd": (full, FaceRep.full_cone(full.blocks)),
            "cut psd": (cut, cut_face), "orthant": (orth, orth_face)}[case]


@pytest.mark.parametrize("case", ["full psd", "cut psd", "orthant", "mixed"])
def test_closed_form_jacobian_matches_unit_elements(case, monkeypatch):
    """Polish's closed-form images of the unit elements equal the
    compressed unit elements, block by block, within 1e-15."""
    from facred.reducing import FaceCoordinates, _compressed_units

    p, face = _closed_form_case(case, monkeypatch)
    coords = FaceCoordinates(p, face)
    want = _unit_images_reference(coords)
    got = _compressed_units(coords)
    assert len(got) == len(coords.face.kept_blocks)
    for k, (first, images) in enumerate(got):
        for j, parts in enumerate(want):
            inside = first <= j < first + len(images)
            expect = images[j - first] if inside else 0.0
            assert np.max(np.abs(parts[k] - expect)) <= 1e-15, (k, j)


@pytest.mark.parametrize("case", ["orthant", "psd", "mixed"])
def test_outside_element_pairs_with_the_span_rows(case):
    """<outside_element(lam), b - Ax> = lam . (eq_rhs - eq_matrix x): the
    span rows and outside_element describe the same coordinates, and those
    are orthogonal to the face's span."""
    from facred.reducing import FaceCoordinates

    face = face_case(case)
    rng = np.random.default_rng(3)
    a = [random_element(face.blocks, rng) for _ in range(3)]
    inside = face.embed([rng.normal(size=blk.size) if blk.kind == "orthant"
                         else sym(rng.normal(size=(blk.size, blk.size)))
                         for blk in face.kept_blocks])
    p = ConicProgram(face.blocks, a, inside + sum(
        (xi * ai for xi, ai in zip(rng.normal(size=3), a)),
        YElement.zeros(face.blocks)), np.zeros(3))
    coords = FaceCoordinates(p, face)
    assert coords.eq_matrix.shape == (len(coords.eq_rhs), 3)
    for _ in range(3):
        x = rng.normal(size=3)
        lam = rng.normal(size=len(coords.eq_rhs))
        outside = coords.outside_element(lam)
        want = float(lam @ (coords.eq_rhs - coords.eq_matrix @ x))
        assert outside.inner(p.b - p.apply(x)) == pytest.approx(
            want, rel=1e-10, abs=1e-10)
        assert abs(outside.inner(inside)) <= 1e-10


@pytest.mark.parametrize("rank, m", [(1, 3), (3, 6), (3, 12)])
def test_face_coordinates_null_basis_spans_the_kernel(rank, m):
    """The span equations' null basis is an orthonormal basis of their
    kernel.  A PSD block of order 4 below full rank gives 10 rows, the
    svec packing of its part outside the face: more rows than variables
    at m = 3 and 6 (with two equal columns), fewer at m = 12."""
    from facred.faces import PsdFace
    from facred.reducing import FaceCoordinates

    rng = np.random.default_rng(rank)
    blocks = (ConeBlock("psd", 4),)
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0][:, :rank]
    face = FaceRep(blocks, [PsdFace(q)])
    a = [random_element(blocks, rng) for _ in range(m - 1)]
    p = ConicProgram(blocks, a + [a[0]], YElement(blocks, [q @ q.T]),
                     np.zeros(m))
    coords = FaceCoordinates(p, face)
    assert coords.eq_matrix.shape == (10, m)
    null = coords.null_basis
    assert null.shape == (m, m - np.linalg.matrix_rank(coords.eq_matrix))
    assert np.allclose(null.T @ null, np.eye(null.shape[1]), atol=1e-12)
    assert np.max(np.abs(coords.eq_matrix @ null)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", ["psd", "mixed"])
def test_span_equations_are_basis_free(case, seed):
    """A face given by its basis Q and by Q R, R a random orthogonal
    matrix, gives the same span equations and outside elements (1e-12
    relative), the same particular solution and null projector (1e-10) and
    the same face-restricted value (1e-8 (1 + |v|))."""
    from facred.faces import PsdFace, relative_interior_point
    from facred.linalg import flatten_element
    from facred.reducing import FaceCoordinates

    face = face_case(case)
    rng = np.random.default_rng(seed)
    turned = FaceRep(face.blocks, [
        PsdFace(rep.basis @ np.linalg.qr(rng.normal(size=(rep.rank,) * 2))[0])
        if blk.kind == "psd" and rep.rank else rep
        for blk, rep in zip(face.blocks, face.reps)])

    def inside():
        return face.embed([rng.normal(size=blk.size) if blk.kind == "orthant"
                           else sym(rng.normal(size=(blk.size, blk.size)))
                           for blk in face.kept_blocks])

    # One variable pinned by the span equations, two left to the solve.
    a = [random_element(face.blocks, rng), inside(), inside()]
    b = relative_interior_point(face) + sum(
        (xi * ai for xi, ai in zip(rng.normal(size=3), a)),
        YElement.zeros(face.blocks))
    # c = A* I: the identity is dual feasible, so the value is finite.
    unit = YElement.identity(face.blocks)
    p = ConicProgram(face.blocks, a, b, [ai.inner(unit) for ai in a])
    one, two = FaceCoordinates(p, face), FaceCoordinates(p, turned)

    def relative(u, v):
        return np.linalg.norm(u - v) / np.linalg.norm(u)

    assert relative(one.eq_matrix, two.eq_matrix) <= 1e-12
    assert relative(one.eq_rhs, two.eq_rhs) <= 1e-12
    lam = rng.normal(size=len(one.eq_rhs))
    assert relative(flatten_element(one.outside_element(lam)),
                    flatten_element(two.outside_element(lam))) <= 1e-12
    assert np.max(np.abs(one.x_particular - two.x_particular)) <= 1e-10
    assert one.null_basis.shape == (3, 2)
    assert np.max(np.abs(one.null_basis @ one.null_basis.T
                         - two.null_basis @ two.null_basis.T)) <= 1e-10
    res = [solve_restricted_to_face(p, f) for f in (face, turned)]
    assert all(r.status is SolveStatus.OPTIMAL for r in res)
    for v, w in ((res[0].primal_obj, res[1].primal_obj),
                 (res[0].dual_obj, res[1].dual_obj)):
        assert abs(v - w) <= 1e-8 * (1.0 + abs(v))


def _chain_with_spy(monkeypatch, p, candidate_on=True):
    """run_facial_reduction of ``p`` and what the checked-point candidate
    returned at each reducing step (True: it confirmed the face).  With
    ``candidate_on`` false the candidate is patched off, so every step runs
    the reducing solve.  Returns (summary, certificate, candidate log); the
    summary is the chain length, flags and face ranks, or the exception."""
    from facred import reducing
    from facred.reduction import run_facial_reduction

    original = reducing._strict_candidate
    log = []

    def spy(*args):
        found = original(*args) if candidate_on else None
        log.append(found is not None)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(reducing, "_strict_candidate", spy)
        try:
            cert = run_facial_reduction(p)
        except (AmbiguousOutcome, ReductionError) as exc:
            return type(exc).__name__, None, log    # both must fail alike
    ranks = tuple(tuple(face.ranks) for face in cert.faces)
    return (len(cert.ys) - 1, tuple(cert.reducing_flags), ranks), cert, log


def _golden_fixtures():
    from pathlib import Path

    from facred.sdpa import parse_sdpa

    golden = Path(__file__).parent / "golden"
    return [parse_sdpa((golden / f"{name}.dat-s").read_text())
            for name in ("sdp3", "lp5x3", "mixed0", "staircase3")]


@pytest.mark.parametrize("family, n", [("fixtures", None)] + [
    (family, n) for family in ("degenerate psd", "degenerate orthant",
                               "strict") for n in range(4, 9)])
def test_checked_point_decides_as_the_solve_does(monkeypatch, family, n):
    """The checked-point confirmation changes no decision: with it patched
    off (every step solved), the chains agree in length, flags and face
    ranks; each chain it ends passes verification; and it never confirms
    the full cone of a degenerate program, which can still be reduced."""
    from facred.reduction import verify_certificate_chain

    if family == "fixtures":
        programs = _golden_fixtures()
    elif family == "strict":
        programs = [random_strictly_feasible(seed, n=n)[0]
                    for seed in range(6)]
    else:
        kind = family.split()[1]
        programs = [random_degenerate(seed, n=n, kind=kind)[0]
                    for seed in range(6)]
    for p in programs:
        solved, _, _ = _chain_with_spy(monkeypatch, p, candidate_on=False)
        summary, cert, log = _chain_with_spy(monkeypatch, p)
        assert summary == solved, p.name
        if any(log):
            assert verify_certificate_chain(p, cert).ok, p.name
        if family.startswith("degenerate"):
            assert log and not log[0], p.name


@pytest.mark.parametrize("seed, n, m", [(5, 4, 3), (8, 4, 3), (5, 5, 3),
                                        (1, 6, 4), (2, 6, 4)])
def test_missed_candidate_falls_back_to_the_solve(monkeypatch, seed, n, m):
    """Strictly feasible programs whose checked point misses the interior
    (the bench's strict5_n4m3, strict8_n4m3, strict5_n5m3, strict1_n6m4
    and strict2_n6m4): the reducing solve still confirms the full cone, and
    stops within 2 iterations, at the first iterate whose point checks."""
    from facred import reducing
    from facred.reduction import verify_certificate_chain

    p, _ = random_strictly_feasible(seed, n=n, m=m)
    solves = []
    original = reducing.solve_conic_lp

    def counted(*args):
        solves.append(original(*args))
        return solves[-1]

    monkeypatch.setattr(reducing, "solve_conic_lp", counted)
    summary, cert, log = _chain_with_spy(monkeypatch, p)
    assert log == [False]
    assert len(solves) == 1
    assert solves[0].iterations <= 2
    assert solves[0].message == "stopped by the caller's test"
    assert summary == (0, (), ((n,),))
    assert verify_certificate_chain(p, cert).ok


@pytest.mark.parametrize("a", [[], [np.diag([1.0, 0.0])]], ids=["m0", "m1"])
def test_a_small_reducing_value_confirms_at_the_minimality_rung(
        tmp_path, monkeypatch, capsys, a):
    """b = diag(10, 5e-5), with no variable or with a_1 = diag(1, 0): the
    checked point and every iterate miss the margin bar, 5e-5 below
    100 tol (1 + 10), and the reducing value t* = 5e-5 clears the
    minimality rung 100 tol, which confirms the full cone."""
    from dataclasses import replace

    from facred import cli, reducing
    from facred.reduction import run_facial_reduction
    from facred.sdpa import emit_sdpa

    blocks = (ConeBlock("psd", 2),)
    p = ConicProgram(blocks, [YElement(blocks, [ai]) for ai in a],
                     YElement(blocks, [np.diag([10.0, 5e-5])]),
                     np.zeros(len(a)))
    candidates, stops, solves = [], [], []
    strict, solve = reducing._strict_candidate, reducing.solve_conic_lp

    def candidate(*args):
        candidates.append(strict(*args))
        return candidates[-1]

    def solved(prog, options):
        def stop(*iterate):
            stops.append(options.stop(*iterate))
            return stops[-1]

        solves.append(solve(prog, replace(options, stop=stop)))
        return solves[-1]

    monkeypatch.setattr(reducing, "_strict_candidate", candidate)
    monkeypatch.setattr(reducing, "solve_conic_lp", solved)
    cert = run_facial_reduction(p)
    assert cert.steps == 0
    assert cert.minimal_face.describe() == "block 1: psd rank 2 of 2"
    assert candidates == [None]
    assert stops and not any(stops)
    assert len(solves) == 1
    assert solves[0].primal_obj >= 100 * 1e-7
    assert solves[0].primal_obj == pytest.approx(5e-5, rel=1e-3)

    path, cert_path = tmp_path / "p.dat-s", str(tmp_path / "p.cert")
    path.write_text(emit_sdpa(p))
    assert cli.main(["reduce", str(path), "--cert", cert_path]) == 0
    assert "F_min: block 1: psd rank 2 of 2" in capsys.readouterr().out
    assert cli.main(["verify", str(path), cert_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "result: pass" in out
    if not a:
        assert "pass  slack of x_strict is strictly interior  " \
            "(margin 5.00e-05)" in out


GOLDEN = Path(__file__).parent / "golden"


def _frame_programs():
    """The golden problems and generated PSD and orthant programs, degenerate
    and strictly feasible, at several seeds; those with orthant blocks also
    lifted to PSD, as dualize reduces them."""
    progs = [parse_sdpa((GOLDEN / f"{name}.dat-s").read_text())
             for name in ("lp5x3", "mixed0", "sdp3", "staircase3")]
    for seed in range(3):
        progs += [random_degenerate(seed)[0],
                  random_degenerate(seed, n=6, m=4)[0],
                  random_degenerate(seed, n=6, m=3, kind="orthant")[0],
                  random_strictly_feasible(seed)[0]]
    return progs + [lift_to_psd(p) for p in progs
                    if any(blk.kind == "orthant" for blk in p.blocks)]


def _bits(res):
    return (res.status, res.iterations, res.message,
            [a.tobytes() for a in (res.x,) + res.y.parts + res.z.parts])


def test_the_chain_frame_solves_as_a_fresh_frame():
    """The frame a reduction run keeps for its minimal face gives the
    face-restricted solve the status, x, y and z a frame built afresh
    gives, bit for bit."""
    for p in _frame_programs():
        chain = run_facial_reduction(p)
        assert isinstance(chain.frame, FaceCoordinates)
        assert chain.frame.face is chain.minimal_face
        assert _bits(solve_restricted_to_face(p, chain.frame)) == \
            _bits(solve_restricted_to_face(p, chain.minimal_face)), p.name


def test_a_frame_serves_only_programs_with_its_data(example_sdp):
    """A frame reads a_1, ..., a_m, b and not c: a program with the same
    data and another objective takes it, and solves as with a fresh frame;
    a program with other data is refused."""
    chain = run_facial_reduction(example_sdp)
    twin = ConicProgram(example_sdp.blocks, example_sdp.a, example_sdp.b,
                        [0.0, 1.0])
    assert _bits(solve_restricted_to_face(twin, chain.frame)) == \
        _bits(solve_restricted_to_face(twin, chain.minimal_face))
    other = ConicProgram(example_sdp.blocks, example_sdp.a,
                         2.0 * example_sdp.b, example_sdp.c)
    with pytest.raises(ValueError, match="other data"):
        solve_restricted_to_face(other, chain.frame)


def test_the_dual_bound_skips_only_iterates_that_fail_the_margin(
        monkeypatch):
    """Every iterate of a reducing solve whose margin test the dual bound
    skips fails that test when it is made anyway, so the skip changes no
    outcome."""
    frames, skipped = [], []
    margin, solve = reducing._has_margin, reducing.solve_conic_lp

    def has_margin(coords, x, tol):
        frames.append((coords, tol))
        return margin(coords, x, tol)

    def solved(prog, options):
        def stop(x, *rest):
            made = len(frames)
            verdict = options.stop(x, *rest)
            if len(frames) == made:
                coords, tol = frames[-1]
                point = coords.x_particular + coords.null_basis @ x[:-1]
                skipped.append(margin(coords, point, tol))
            return verdict

        return solve(prog, replace(options, stop=stop))

    monkeypatch.setattr(reducing, "_has_margin", has_margin)
    monkeypatch.setattr(reducing, "solve_conic_lp", solved)
    for p in _frame_programs():
        run_facial_reduction(p)
    assert skipped and not any(skipped)


def test_polish_caps_its_steps(example_sdp, monkeypatch):
    """From x0 = (50, -30), far from sdp3's feasible set {0}, one full
    Gauss-Newton step would land on it.  The cap 1 + 0.1 |y| = 1.1 holds
    every step to that length, so the step norms fall by 1.1 a step, all
    12 steps are taken, and the certificate, exact from the start, comes
    back unchanged."""
    face = FaceRep.full_cone(example_sdp.blocks)
    coords = FaceCoordinates(example_sdp, face)
    y0 = YElement(example_sdp.blocks, [np.diag([0.0, 0.0, 1.0])])
    norms, lstsq = [], np.linalg.lstsq

    def spy(*args, **kwargs):
        out = lstsq(*args, **kwargs)
        norms.append(np.linalg.norm(out[0]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    y = polish_certificate(coords, relative_interior_point(face), y0,
                           np.array([50.0, -30.0]))
    assert len(norms) == 12 and norms[0] > 1.1
    np.testing.assert_allclose(np.diff(norms), -1.1, rtol=1e-9)
    np.testing.assert_allclose(y.parts[0], y0.parts[0], rtol=0, atol=1e-12)


def test_a_face_off_the_span_equations_is_refused():
    """b = (1, 1) with no variable has its second entry off the face with
    support {1}: the span equation b_2 = 0 has no solution, so the face's
    frame, and with it the face-restricted solve, is refused."""
    blocks = (ConeBlock("orthant", 2),)
    p = ConicProgram(blocks, [], YElement(blocks, [np.ones(2)]), np.zeros(0))
    face = FaceRep(blocks, [OrthantFace((0,))])
    with pytest.raises(SolverError, match="span equations are inconsistent"):
        solve_restricted_to_face(p, face)

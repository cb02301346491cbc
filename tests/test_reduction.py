from pathlib import Path

import numpy as np
import pytest

from facred.certfile import (CertFormatError, read_certificate,
                             write_certificate)
from facred.extended import lift_to_psd
from facred.faces import (FaceRep, faces_equal, intersect_with_hyperplane,
                          relative_interior_point, subspace_distance)
from facred.model import ConeBlock, ConicProgram, YElement, primal_slack
from facred import reduction
from facred.reducing import AmbiguousOutcome, _check_certificate, step_test
from facred.reduction import (ReductionCertificate, ReductionError,
                              compute_ell, decompose_certificates,
                              run_facial_reduction, verify_certificate_chain)
from facred.sdpa import parse_sdpa
from facred.solver import SolverError

from conftest import (congruence, is_full, paper_chain_long,
                      paper_chain_short, random_degenerate,
                      random_strictly_feasible, reduced_program, sdp_chain)

GOLDEN = Path(__file__).parent / "golden"


def test_compute_ell_lp(example_lp):
    assert compute_ell(example_lp) == 2


def test_compute_ell_sdp(example_sdp):
    # chain bound is 3 and the data nullspace is 3-dimensional
    assert compute_ell(example_sdp) == 3


def test_compute_ell_zero_nullspace():
    blocks = (ConeBlock("orthant", 2),)
    a = [YElement(blocks, [np.array([1.0, 0.0])]),
         YElement(blocks, [np.array([0.0, 1.0])])]
    b = YElement(blocks, [np.array([1.0, 1.0])])
    p = ConicProgram(blocks, a, b, [0.0, 0.0])
    assert compute_ell(p) == 0


def _generated_programs():
    for seed in range(4):
        for n, m in ((4, 3), (6, 4)):
            yield random_strictly_feasible(seed, n, m)[0]
            yield random_degenerate(seed, n, m)[0]
            yield random_degenerate(seed, n, m, kind="orthant")[0]


def test_compute_ell_counts_the_nullspace_basis(example_lp, example_sdp,
                                                monkeypatch):
    """The singular-value count of compute_ell is the width of
    nullspace_basis of the stacked data, on the fixtures, the generators
    and their PSD lifts."""
    from facred.extended import lift_to_psd
    from facred.linalg import flatten_element, nullspace_basis

    programs = [example_lp, example_sdp, *_generated_programs()]
    programs += [lift_to_psd(p) for p in programs]
    bounds = [compute_ell(p) for p in programs]
    # Without the face-chain cap, compute_ell is the nullspace dimension.
    monkeypatch.setattr(reduction, "longest_chain_length", lambda blocks: 10**9)
    for p, bound in zip(programs, bounds):
        rows = np.vstack([flatten_element(y) for y in list(p.a) + [p.b]])
        dim_l = nullspace_basis(rows)[0].shape[1]
        assert compute_ell(p) == dim_l
        assert bound == min(p.blocks[0].size, dim_l)


def hand_cert(p, ys, x_strict):
    faces = [FaceRep.full_cone(p.blocks)]
    for y in ys:
        faces.append(intersect_with_hyperplane(faces[-1], y))
    chain = [YElement.zeros(p.blocks)] + list(ys)
    flags = [True] * len(ys)
    return ReductionCertificate(chain, faces, flags, np.asarray(x_strict))


def test_fra_lp(example_lp):
    cert = run_facial_reduction(example_lp)
    assert cert.minimal_face.reps[0].support == (0,)
    assert cert.reducing_count <= cert.ell == 2
    assert verify_certificate_chain(example_lp, cert).ok


def test_fra_sdp(example_sdp):
    cert = run_facial_reduction(example_sdp)
    assert cert.reducing_count <= 2
    face = cert.minimal_face.reps[0]
    assert face.rank == 1
    assert subspace_distance(face.basis, np.eye(3)[:, :1]) <= 1e-6
    assert verify_certificate_chain(example_sdp, cert).ok


def test_a_chain_longer_than_the_bound_is_refused(example_sdp, monkeypatch):
    """No input is known to outrun compute_ell's bound.  With the bound set
    to 1, sdp3's two reducing steps take both of the ell + 1 solves, and
    the run fails with both steps on its partial chain."""
    monkeypatch.setattr(reduction, "compute_ell", lambda p: 1)
    with pytest.raises(ReductionError, match="exceeded the bound of 1 "
                       "reducing iterations") as exc:
        run_facial_reduction(example_sdp)
    assert exc.value.partial_chain.steps == 2


def test_fra_strictly_feasible_is_a_no_op():
    p, _ = random_strictly_feasible(0)
    cert = run_facial_reduction(p)
    assert cert.reducing_count == 0
    assert is_full(cert.minimal_face)


def test_paper_chains_verify(example_lp):
    long = hand_cert(example_lp, paper_chain_long(example_lp.blocks),
                     [-1.0, 0, 0])
    assert verify_certificate_chain(example_lp, long).ok
    short = hand_cert(example_lp, paper_chain_short(example_lp.blocks),
                      [-1.0, 0, 0])
    assert verify_certificate_chain(example_lp, short).ok
    assert faces_equal(short.faces[-1], long.faces[-1])


def test_sdp_paper_chain_verifies(example_sdp):
    cert = hand_cert(example_sdp, sdp_chain(example_sdp.blocks), [0.0, 0.0])
    assert verify_certificate_chain(example_sdp, cert).ok


def test_corrupted_chain_fails_dual_membership(example_lp):
    ys = paper_chain_long(example_lp.blocks)
    faces = [FaceRep.full_cone(example_lp.blocks)]
    faces.append(intersect_with_hyperplane(faces[-1], ys[0]))
    bad = YElement(example_lp.blocks, [np.array([0.0, -1, 1, 0, -1])])
    faces.append(faces[-1])  # placeholder; verification recomputes anyway
    cert = ReductionCertificate(
        [YElement.zeros(example_lp.blocks), ys[0], bad],
        faces, [True, True], np.array([-1.0, 0, 0]))
    report = verify_certificate_chain(example_lp, cert)
    assert not report.ok
    names = [c.name for c in report.failures()]
    assert any("dual of face" in n or "nullspace" in n for n in names)


def test_verification_recomputes_the_faces_a_chain_omits(example_sdp):
    """Without faces the check reports each recomputed face; with faces it
    compares them against the recomputation."""
    cert = run_facial_reduction(example_sdp)
    bare = ReductionCertificate(cert.ys, None, cert.reducing_flags,
                                cert.x_strict)
    report = verify_certificate_chain(example_sdp, bare)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "face 0 is the full cone" not in names
    assert [n for n in names if "recomputation" in n] == [
        f"face {i} recomputation" for i in range(1, len(cert.ys))]
    assert [c.detail for c in report.checks if "recomputation" in c.name] \
        == [face.describe() for face in cert.faces[1:]]
    full = verify_certificate_chain(example_sdp, cert)
    assert full.ok
    names = [c.name for c in full.checks]
    assert "face 0 is the full cone" in names
    assert "face 1 matches the recomputed intersection" in names
    wrong = ReductionCertificate(cert.ys, [cert.faces[0]] * len(cert.ys),
                                 cert.reducing_flags, cert.x_strict)
    failed = verify_certificate_chain(example_sdp, wrong).failures()
    assert failed[0].name == "face 1 matches the recomputed intersection"


def _perturbed_lp_certificate(example_lp, bars):
    """A certificate of the LP fixture's first step, normalized and in the
    cone, moved off the data nullspace to ``bars`` times tol (1 + |y|)."""
    face = FaceRep.full_cone(example_lp.blocks)
    f = relative_interior_point(face)
    exact = np.array([0.0, 1.0, 1.0, 1.0, 0.0]) / 3.0    # (A, b)* y = 0
    eps = bars * 1e-7 * (1.0 + np.linalg.norm(exact))
    y = YElement(example_lp.blocks,
                 [(exact + eps * np.eye(5)[0]) / (1.0 + eps)])
    return face, f, y


@pytest.mark.parametrize("bars", [0.5, 10.0])
def test_run_and_verify_accept_a_step_at_one_bar(example_lp, bars):
    """The run's step test and verify's agree: a residual below
    tol (1 + |y|) passes both, one between that bar and 100 times it (which
    the run once accepted) fails both."""
    face, f, y = _perturbed_lp_certificate(example_lp, bars)
    resid, in_l, in_dual = step_test(example_lp, face, y, 1e-7)
    assert in_dual and f.inner(y) == pytest.approx(1.0, abs=1e-12)
    assert resid > 0.4 * 1e-7 * (1.0 + y.norm())
    assert resid < 1e2 * 1e-7 * (1.0 + y.norm())
    assert in_l == (bars < 1.0)
    cert = ReductionCertificate([YElement.zeros(example_lp.blocks), y], None,
                                [True], None)
    checks = {c.name: c.ok
              for c in verify_certificate_chain(example_lp, cert).checks}
    assert checks["y_1 in the data nullspace"] == in_l
    assert checks["y_1 in the dual of face 0"]
    if in_l:
        _check_certificate(example_lp, face, f, y, 1e-7)
    else:
        with pytest.raises(AmbiguousOutcome, match="leaves the nullspace"):
            _check_certificate(example_lp, face, f, y, 1e-7)


def test_certificate_payload_errors(example_sdp):
    text = write_certificate(run_facial_reduction(example_sdp))
    lines = text.splitlines()
    short = "\n".join(lines[:4] + [" ".join(lines[4].split()[:-1])] + lines[5:])
    with pytest.raises(CertFormatError, match="^psd payload length mismatch$"):
        read_certificate(short)
    with pytest.raises(CertFormatError, match="could not parse numbers"):
        read_certificate(text.replace("x_strict: ", "x_strict: 1 x "))


def test_chain_monotone_on_fixture(example_sdp):
    cert = run_facial_reduction(example_sdp)
    ranks = [face.reps[0].rank for face in cert.faces]
    assert ranks == sorted(ranks, reverse=True)
    assert all(r1 > r2 for r1, r2 in zip(ranks, ranks[1:]))


def test_idempotence_on_fixture(example_sdp):
    cert = run_facial_reduction(example_sdp)
    red = reduced_program(example_sdp, cert.minimal_face)
    again = run_facial_reduction(red)
    assert again.reducing_count == 0


def test_decompose_paper_chain(example_sdp):
    cert = hand_cert(example_sdp, sdp_chain(example_sdp.blocks), [0.0, 0.0])
    dec = decompose_certificates(example_sdp, cert)
    u1 = np.zeros((3, 3))
    u1[2, 2] = 1.0
    np.testing.assert_allclose(dec.us[1].parts[0], u1, atol=1e-12)
    np.testing.assert_allclose(dec.vs[1].parts[0], 0.0 * u1, atol=1e-12)
    np.testing.assert_allclose(dec.us[2].parts[0], np.diag([0.0, 2.0, 0.0]),
                               atol=1e-12)
    v2 = np.zeros((3, 3))
    v2[0, 2] = v2[2, 0] = -1.0
    np.testing.assert_allclose(dec.vs[2].parts[0], v2, atol=1e-12)


def test_decompose_zero_chain(example_sdp):
    cert = ReductionCertificate([YElement.zeros(example_sdp.blocks)],
                                [FaceRep.full_cone(example_sdp.blocks)],
                                [], np.zeros(2))
    dec = decompose_certificates(example_sdp, cert)
    assert dec.us[0].norm() == 0.0 and dec.vs[0].norm() == 0.0


def test_decompose_random_chains_recompose():
    for seed in (1, 3, 5):
        p, _ = random_degenerate(seed, n=4, m=3)
        cert = run_facial_reduction(p)
        dec = decompose_certificates(p, cert)
        for i in range(len(cert.ys)):
            resid = (dec.us[i] + dec.vs[i] - cert.ys[i]).norm()
            assert resid <= 1e-10 * (1 + cert.ys[i].norm())


def _orthant_programs(sizes=(4, 6), seeds=range(5)):
    """The golden programs with orthant blocks, then generated degenerate
    LPs at m = 3, 2n/3 and n - 1."""
    progs = [parse_sdpa((GOLDEN / f"{name}.dat-s").read_text())
             for name in ("mixed0", "lp5x3")]
    return progs + [random_degenerate(seed, n=n, m=m, kind="orthant")[0]
                    for n in sizes for m in sorted({3, 2 * n // 3, n - 1})
                    for seed in seeds]


def test_decompose_orthant_chains(example_lp):
    """On orthant blocks each split is exact, u_i + v_i = y_i.  A tangent
    part may only live where the running sum of the u_j is positive: the
    LP's long paper chain has v_2 = -e_5 on u_1's support, and one more
    unit of v_2 on the first entry, which u_1 leaves dead, is refused."""
    for p in _orthant_programs(sizes=(6,), seeds=range(2)):
        cert = run_facial_reduction(p)
        dec = decompose_certificates(p, cert)
        for y, u, v in zip(cert.ys, dec.us, dec.vs):
            for blk, *parts in zip(p.blocks, y.parts, u.parts, v.parts):
                if blk.kind == "orthant":
                    assert np.array_equal(parts[1] + parts[2], parts[0])
    cert = hand_cert(example_lp, paper_chain_long(example_lp.blocks),
                     [-1.0, 0, 0])
    dec = decompose_certificates(example_lp, cert)
    assert np.array_equal(dec.vs[2].parts[0], [0.0, 0, 0, 0, -1])
    vs = dec.vs[:2] + [dec.vs[2] + YElement(example_lp.blocks, [np.eye(5)[0]])]
    with pytest.raises(ValueError, match="step 2 leaves the tangent space"):
        reduction._verify_tangency(example_lp, dec.us, vs, 1e-8)


def test_an_orthant_block_reduces_as_the_diagonal_of_a_psd_block():
    """An orthant block is the diagonal of a PSD block (lift_to_psd).  The
    program and its lift reduce to faces of equal ranks, and the lifted
    face's projector Q Q^T is the 0/1 diagonal of the native support (on a
    PSD block, the native projector)."""
    for p in _orthant_programs():
        native = run_facial_reduction(p).minimal_face
        lifted = run_facial_reduction(lift_to_psd(p)).minimal_face
        assert native.ranks == lifted.ranks, p.name
        for blk, rep, lrep in zip(p.blocks, native.reps, lifted.reps):
            if blk.kind == "orthant":
                want = np.diag(np.isin(np.arange(blk.size), rep.support)
                               .astype(float))
            else:
                want = rep.basis @ rep.basis.T
            np.testing.assert_allclose(lrep.basis @ lrep.basis.T, want,
                                       atol=1e-8, err_msg=p.name)


def test_certificate_file_round_trip(example_sdp):
    cert = run_facial_reduction(example_sdp)
    text = write_certificate(cert)
    assert text.startswith("facred-cert v1\n")
    blocks, ys, flags, x_strict = read_certificate(text)
    assert tuple(blocks) == example_sdp.blocks
    assert len(ys) == len(cert.ys)
    for left, right in zip(ys, cert.ys):
        assert (left - right).norm() == 0.0
    assert flags == cert.reducing_flags
    np.testing.assert_array_equal(x_strict, cert.x_strict)


def test_fra_bound_respected_on_random_instances():
    for seed in range(6):
        p, _ = random_degenerate(seed, n=4, m=3,
                                 kind="psd" if seed % 2 else "orthant")
        cert = run_facial_reduction(p)
        assert cert.reducing_count <= compute_ell(p)


def _rank_corpus(family):
    if family == "golden":
        golden = Path(__file__).parent / "golden"
        return [parse_sdpa(path.read_text())
                for path in sorted(golden.glob("*.dat-s"))]
    return [random_strictly_feasible(seed, n=n)[0] if family == "strict"
            else random_degenerate(seed, n=n, kind=family)[0]
            for n in range(4, 9) for seed in range(6)]


@pytest.mark.parametrize("family", ["golden", "psd", "orthant", "strict"])
def test_every_step_lowers_the_total_face_rank(family):
    """A certificate y with <f, y> = 1 for the face's interior point f cuts
    the face strictly, so every step of a chain drops the summed face
    ranks by at least one."""
    for p in _rank_corpus(family):
        totals = [sum(face.ranks) for face in run_facial_reduction(p).faces]
        assert all(before - after >= 1
                   for before, after in zip(totals, totals[1:])), totals


@pytest.mark.parametrize("failure, expected", [
    (SolverError("subsolver gave up"), ReductionError),
    (AmbiguousOutcome("between the rungs"), AmbiguousOutcome)])
def test_failed_retry_keeps_the_partial_chain(example_sdp, monkeypatch,
                                              failure, expected):
    # The first reducing solve fails; the error carries the empty chain and
    # the run's bound, and nothing is solved again.
    calls = []

    def fake_solve(p, face, tol, options):
        calls.append(face)
        raise failure

    monkeypatch.setattr(reduction, "solve_reducing_pair", fake_solve)
    with pytest.raises(expected) as info:
        run_facial_reduction(example_sdp)
    assert len(calls) == 1
    chain = info.value.partial_chain
    assert chain is not None
    assert chain.steps == 0
    assert chain.ell == compute_ell(example_sdp)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("seed", range(5))
def test_face_ranks_survive_a_congruence(seed, n):
    """Rotating every data matrix by one orthogonal Q maps the minimal cone
    to its congruent face: the reduction either reports the face ranks of
    the program as generated or fails loudly, never other ranks."""
    p, _ = random_degenerate(seed, n=n, m=2 * n // 3)
    ranks = [face.ranks for face in run_facial_reduction(p).faces]
    assert ranks[-1][0] < n
    try:
        cert = run_facial_reduction(congruence(p, 200 + seed))
    except (ReductionError, AmbiguousOutcome):
        return
    assert [face.ranks for face in cert.faces] == ranks

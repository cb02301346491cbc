"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line once its assertions hold (visible with
pytest -s), so a full run doubles as a checklist.  Everything is seeded and
runs at desk scale.
"""

import contextlib
import io
import time
from pathlib import Path

import numpy as np
import pytest

from facred import cli
from facred.certfile import write_certificate
from facred.extended import (VARIANTS, ExtendedDualPoint, build_extended_dual,
                             check_extended_point, fmin_membership,
                             solve_extended_dual)
from facred.faces import (FaceRep, face_contains, in_tangent_space,
                          intersect_with_hyperplane, subspace_distance,
                          tangent_membership_schur)
from facred.model import ConeBlock, YElement, primal_slack
from facred.reduction import (ReductionCertificate, compute_ell,
                              decompose_certificates, reduced_program,
                              run_facial_reduction, verify_certificate_chain)
from facred.sdpa import emit_sdpa
from facred.solver import SolverOptions, solve_conic_lp, standard_dual

from conftest import (paper_chain_long, paper_chain_short, random_degenerate,
                      random_strictly_feasible, sdp_chain, sym)


def run_cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def hand_cert(p, ys, x_strict):
    faces = [FaceRep.full_cone(p.blocks)]
    for y in ys:
        faces.append(intersect_with_hyperplane(faces[-1], y))
    return ReductionCertificate([YElement.zeros(p.blocks)] + list(ys), faces,
                                [True] * len(ys), np.asarray(x_strict))


def test_criterion_1_lp_reduction_and_paper_chains(tmp_path, example_lp):
    start = time.perf_counter()
    problem = tmp_path / "lp.dat-s"
    problem.write_text(emit_sdpa(example_lp))
    code, out = run_cli(["reduce", str(problem), "--cert",
                         str(tmp_path / "lp.cert")])
    assert code == 0
    assert "F_min: block 1: orthant support {1}" in out
    iters = int(next(l for l in out.splitlines()
                     if l.startswith("reducing_iterations:")).split(":")[1])
    assert iters <= 2 == compute_ell(example_lp)

    for chain in (paper_chain_long(example_lp.blocks),
                  paper_chain_short(example_lp.blocks)):
        cert = hand_cert(example_lp, chain, [-1.0, 0.0, 0.0])
        path = tmp_path / "paper.cert"
        path.write_text(write_certificate(cert))
        code, out = run_cli(["verify", str(problem), str(path)])
        assert code == 0 and "result: pass" in out
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1 (LP minimal cone + paper chains): pass "
          f"({elapsed:.2f}s)")


def test_criterion_2_sdp_reduction(tmp_path, example_sdp):
    start = time.perf_counter()
    problem = tmp_path / "sdp.dat-s"
    problem.write_text(emit_sdpa(example_sdp))
    code, out = run_cli(["reduce", str(problem)])
    assert code == 0
    assert "F_min: block 1: psd rank 1 of 3" in out
    iters = int(next(l for l in out.splitlines()
                     if l.startswith("reducing_iterations:")).split(":")[1])
    assert iters <= 2

    cert = run_facial_reduction(example_sdp)
    basis = cert.minimal_face.reps[0].basis
    assert subspace_distance(basis, np.eye(3)[:, :1]) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 2 (SDP minimal cone): pass ({elapsed:.2f}s)")


def test_criterion_3_unattained_dual(example_sdp):
    sd = standard_dual(example_sdp)
    res = solve_conic_lp(sd.program,
                         SolverOptions(max_iter=150, keep_history=True))
    iterates = sd.y_iterates(res)
    assert all(y.parts[0][0, 0] > 0 for y in iterates)
    final = iterates[-1].parts[0]
    assert final[0, 0] <= 1e-3  # objective has drifted toward zero
    assert final[0, 0] * final[1, 1] >= 0.25 - 1e-8
    print("criterion 3 (unattained dual witness): pass "
          f"(final y11 = {final[0, 0]:.1e}, minor = {final[0, 0] * final[1, 1]:.6f})")


def test_criterion_4_strong_duality_restored(example_sdp):
    start = time.perf_counter()
    for variant in VARIANTS:
        ext = build_extended_dual(example_sdp, variant)
        value, point = solve_extended_dual(ext)
        assert abs(value) <= 1e-5, (variant, value)
        report = check_extended_point(example_sdp, point, variant)
        assert report.ok, (variant, [c.name for c in report.failures()])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4 (four variants attain zero): pass ({elapsed:.1f}s)")


def test_criterion_5_hand_certificate(example_sdp):
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
    point = ExtendedDualPoint(
        [YElement.zeros(blocks), YElement(blocks, [u1]),
         YElement(blocks, [u2]), YElement.zeros(blocks)],
        [YElement.zeros(blocks), YElement.zeros(blocks),
         YElement(blocks, [v2]), YElement(blocks, [v3])],
        [[z3], [z3], [wit2[0]], [wit3[0]]],
        [0.0, 0.0, wit2[1], wit3[1]])
    report = check_extended_point(example_sdp, point, "star", tol=1e-9)
    assert report.ok
    assert report.objective == 0.0
    assert report.adjoint_residual <= 1e-12
    print("criterion 5 (hand-built optimal certificate): pass")


def test_criterion_6_tangent_route_equivalence():
    rng = np.random.default_rng(2024)
    agree = 0
    total = 200
    for _ in range(total):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        x = q[:, :r] @ np.diag(rng.random(r) + 0.5) @ q[:, :r].T
        style = rng.random()
        if style < 0.4:
            v = sym(rng.normal(size=(n, n)))
        elif style < 0.8:
            raw = q.T @ sym(rng.normal(size=(n, n))) @ q
            raw[r:, r:] = 0.0
            v = q @ raw @ q.T
        else:
            raw = q.T @ sym(rng.normal(size=(n, n))) @ q
            raw[r:, r:] = 1e-12 * raw[r:, r:]
            v = q @ raw @ q.T
        ok_schur, witness = tangent_membership_schur(x, v, tol=1e-8)
        ok_pattern = in_tangent_space(x, v, tol=1e-8)
        if ok_schur:
            w, beta = witness
            bordered = np.block([[x, w], [w.T, beta * np.eye(n)]])
            assert np.linalg.eigvalsh(bordered)[0] >= -1e-9
            assert np.max(np.abs(w + w.T - v)) <= 1e-9 * (1 + np.max(np.abs(v)))
        agree += int(ok_schur == ok_pattern)
    assert agree == total
    print(f"criterion 6 (tangent test equivalence): pass ({agree}/{total})")


def test_criterion_7_reduction_property_suite():
    start = time.perf_counter()
    checked = 0
    for seed in range(100):
        if seed % 2:
            p, xbar = random_degenerate(seed, n=3 + seed % 4, m=2 + seed % 7,
                                        kind="psd" if seed % 4 == 1
                                        else "orthant")
        else:
            p, xbar = random_strictly_feasible(seed, n=3 + seed % 4,
                                               m=2 + seed % 7)
        cert = run_facial_reduction(p)

        # (a) monotone chain with strict drops exactly at reducing steps
        for prev, cur, flag in zip(cert.faces, cert.faces[1:],
                                   cert.reducing_flags):
            drops = [r1 - r2 for r1, r2 in zip(prev.ranks, cur.ranks)]
            assert all(d >= 0 for d in drops)
            assert (sum(drops) > 0) == flag

        # (b) reducing count within the bound
        assert cert.reducing_count <= compute_ell(p)

        # (c) re-running on the reduced program performs no reducing steps
        again = run_facial_reduction(reduced_program(p, cert.minimal_face))
        assert again.reducing_count == 0

        # (d) sampled feasible slacks lie in every face of the chain
        samples = [np.asarray(xbar), cert.x_strict,
                   0.5 * (np.asarray(xbar) + cert.x_strict)]
        for x in samples:
            slack = primal_slack(p, x)
            for face in cert.faces:
                assert face_contains(face, slack, 1e-7)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 100
    print(f"criterion 7 (reduction property suite): pass "
          f"(100 instances, {elapsed:.1f}s)")


def test_criterion_8_membership_consistency(example_lp, example_sdp):
    rng = np.random.default_rng(77)
    cases = 0
    for p in (example_lp, example_sdp):
        cert = run_facial_reduction(p)
        for s in _membership_samples(p, cert, rng):
            assert fmin_membership(p, s, 1e-6) == \
                face_contains(cert.minimal_face, s, 1e-6)
            cases += 1
    for seed in range(20):
        p, _ = random_degenerate(seed + 300, n=3 + seed % 3, m=2 + seed % 4,
                                 kind="psd" if seed % 2 else "orthant")
        cert = run_facial_reduction(p)
        for s in _membership_samples(p, cert, rng):
            assert fmin_membership(p, s, 1e-6) == \
                face_contains(cert.minimal_face, s, 1e-6)
            cases += 1
    print(f"criterion 8 (minimal-cone membership consistency): pass "
          f"({cases} membership queries)")


def _membership_samples(p, cert, rng):
    """A few points inside the computed face and a few outside it."""
    from facred.faces import relative_interior_point

    samples = [relative_interior_point(cert.minimal_face),
               YElement.zeros(p.blocks)]
    parts = []
    for blk, rep in zip(p.blocks, cert.minimal_face.reps):
        if blk.kind == "orthant":
            vec = np.zeros(blk.size)
            sup = list(rep.support)
            if sup:
                vec[sup] = rng.random(len(sup))
            parts.append(vec)
        else:
            q = rep.basis
            r = q.shape[1]
            core = rng.normal(size=(r, r))
            parts.append(q @ (core @ core.T) @ q.T if r else
                         np.zeros((blk.size, blk.size)))
    samples.append(YElement(p.blocks, parts))          # inside
    samples.append(YElement.identity(p.blocks))        # outside unless full
    return samples


def test_criterion_9_depth_padding_invariance(example_sdp):
    values = []
    for ell in (2, 3, 4):
        ext = build_extended_dual(example_sdp, "star", ell_override=ell)
        value, _ = solve_extended_dual(ext)
        values.append(value)
    assert max(values) - min(values) <= 1e-5
    print(f"criterion 9 (depth padding invariance): pass "
          f"(values {['%.2e' % v for v in values]})")

import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from facred import cli
from facred.model import ConeBlock, ConicProgram, YElement
from facred.reducing import AmbiguousOutcome
from facred.reduction import ReductionError
from facred.sdpa import emit_sdpa
from facred.solver import SolverError, SolveStatus

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


@pytest.fixture
def lp_path(tmp_path, example_lp):
    path = tmp_path / "lp.dat-s"
    path.write_text(emit_sdpa(example_lp))
    return str(path)


@pytest.fixture
def sdp_path(tmp_path, example_sdp):
    path = tmp_path / "sdp.dat-s"
    path.write_text(emit_sdpa(example_sdp))
    return str(path)


def test_reduce_reports_are_stable_across_runs():
    """The goldens: an orthant LP, the two-step SDP fixture, the bench's
    orthant-beside-PSD instance (mixed0) and the order-3 staircase (the
    SDP fixture's program) under a signed permutation, which takes the
    two-step chain through other coordinates."""
    for name in ("lp5x3", "sdp3", "mixed0", "staircase3"):
        problem = str(GOLDEN / f"{name}.dat-s")
        code1, out1 = run_cli(["reduce", problem])
        code2, out2 = run_cli(["reduce", problem])
        assert code1 == code2 == 0
        assert out1 == out2
        golden = (GOLDEN / f"reduce_{name}.txt").read_text()
        assert out1 == golden


def test_reduce_lp_report(lp_path):
    code, out = run_cli(["reduce", lp_path])
    assert code == 0
    assert "F_min: block 1: orthant support {1}" in out
    assert "reducing_iterations: 1" in out


def test_reduce_sdp_report_and_certificate(tmp_path, sdp_path):
    cert = str(tmp_path / "chain.cert")
    code, out = run_cli(["reduce", sdp_path, "--cert", cert])
    assert code == 0
    assert "F_min: block 1: psd rank 1 of 3" in out
    assert Path(cert).read_text().startswith("facred-cert v1")
    code, out = run_cli(["verify", sdp_path, cert])
    assert code == 0
    assert "result: pass" in out


def test_verify_rejects_tampered_certificate(tmp_path, sdp_path):
    from facred.certfile import read_certificate, write_certificate
    from facred.reduction import ReductionCertificate

    cert = str(tmp_path / "chain.cert")
    assert run_cli(["reduce", sdp_path, "--cert", cert])[0] == 0
    blocks, ys, flags, x_strict = read_certificate(Path(cert).read_text())
    ys[-1] = -1.0 * ys[-1]  # compressed part turns negative definite
    tampered = ReductionCertificate(ys, [None] * len(ys), flags, x_strict)
    Path(cert).write_text(write_certificate(tampered))
    code, out = run_cli(["verify", sdp_path, cert])
    assert code == 1
    assert "fail" in out.lower()


def test_verify_paper_chain_files(tmp_path, example_lp, lp_path):
    from facred.certfile import write_certificate
    from facred.faces import FaceRep, intersect_with_hyperplane
    from facred.model import YElement
    from facred.reduction import ReductionCertificate

    from conftest import paper_chain_short

    ys = paper_chain_short(example_lp.blocks)
    faces = [FaceRep.full_cone(example_lp.blocks)]
    faces.append(intersect_with_hyperplane(faces[-1], ys[0]))
    cert = ReductionCertificate([YElement.zeros(example_lp.blocks)] + ys,
                                faces, [True], np.array([-1.0, 0.0, 0.0]))
    path = tmp_path / "paper.cert"
    path.write_text(write_certificate(cert))
    code, out = run_cli(["verify", lp_path, str(path)])
    assert code == 0
    assert "result: pass" in out


def test_dualize_solve_reports_attained_zero(tmp_path, sdp_path):
    out_path = str(tmp_path / "ext.dat-s")
    code, out = run_cli(["dualize", sdp_path, "--variant", "star", "--solve",
                         "--out", out_path])
    assert code == 0
    assert "extended_dual_value: 0.000000" in out
    assert "attained: yes" in out
    assert "point_verified: yes" in out
    assert Path(out_path).exists()


def test_dualize_all_variants_agree(tmp_path, sdp_path):
    values = []
    for variant in ("star", "simple", "primed", "ramana"):
        code, out = run_cli(["dualize", sdp_path, "--variant", variant,
                             "--solve"])
        assert code == 0
        line = next(l for l in out.splitlines()
                    if l.startswith("extended_dual_value:"))
        values.append(float(line.split(":")[1]))
    assert max(values) - min(values) <= 1e-5


def _dualize_value(out):
    line = next(l for l in out.splitlines()
                if l.startswith("extended_dual_value:"))
    return float(line.split(":")[1])


def test_dualize_ell_zero_matches_standard_dual(tmp_path):
    """At --ell 0 (the ordinary dual) a regular program, whose chain has no
    step, answers the ordinary dual's value through the assembled point."""
    from conftest import random_strictly_feasible

    path = tmp_path / "strict.dat-s"
    path.write_text(emit_sdpa(random_strictly_feasible(4, n=3, m=2)[0]))
    code, out = run_cli(["dualize", str(path), "--ell", "0", "--solve"])
    assert code == 0
    lines = out.splitlines()
    assert "ell: 0" in lines and "point_verified: yes" in lines
    ref = next(l for l in lines if l.startswith("standard_dual_value:"))
    assert abs(_dualize_value(out) - float(ref.split(":")[1])) <= 1e-5


def test_dualize_below_the_chain_length_is_refused(tmp_path, sdp_path,
                                                   capsys):
    """Below the chain length the extended dual need not be strong: --solve
    exits 1 naming the chain length and prints no report."""
    from conftest import random_degenerate

    cases = [(sdp_path, 2)]
    for seed in (1, 3):
        path = tmp_path / f"degen{seed}.dat-s"
        path.write_text(emit_sdpa(random_degenerate(seed, n=4, m=3)[0]))
        cases.append((str(path), 1))
    for prob, steps in cases:
        for ell in range(steps):
            for variant in ("star", "ramana"):
                code, out = run_cli(["dualize", prob, "--ell", str(ell),
                                     "--variant", variant, "--solve"])
                assert code == 1, (prob, ell, variant)
                assert out == ""
                assert capsys.readouterr().err.startswith(
                    f"error: chain of length {steps} does not fit in {ell} "
                    f"layers")


@pytest.mark.parametrize("variant", ["star", "ramana"])
def test_dualize_reports_the_duality_gap(tmp_path, variant):
    """The gap SDP (conftest.gap_sdp): primal value 0, ordinary dual value
    1, which its encoded solve reports, since every dual-feasible point has
    y_22 = 0 and no Slater point certifies the ordinary dual.  The extended
    dual closes the gap with one layer."""
    from conftest import gap_sdp

    path = tmp_path / "gap.dat-s"
    path.write_text(emit_sdpa(gap_sdp()))
    code, out = run_cli(["dualize", str(path), "--variant", variant,
                         "--solve"])
    assert code == 0
    lines = out.splitlines()
    ref = next(l for l in lines if l.startswith("standard_dual_value:"))
    assert float(ref.split(":")[1]) == pytest.approx(1.0, abs=1e-4)
    assert "extended_dual_value: 0.000000" in lines
    assert "point_verified: yes" in lines
    assert "ell: 1" in lines


@pytest.mark.parametrize("variant", ["star", "ramana"])
@pytest.mark.parametrize("lam", [1e-5, 1e-6, 1e-7, 1e-8])
def test_scaled_gap_reports_the_ordinary_dual_or_fails(tmp_path, variant,
                                                       lam):
    """With every a_i of the gap SDP multiplied by lam, the ordinary dual
    has value 1/lam.  Its encoding keeps both equations at every scale (a
    null basis of 4 in the 6 dimensions), so the report prints 1/lam, or
    exits 1, or says why it has no value.  A rank cutoff that is absolute
    on small data dropped both equations from lam = 1e-6 on, and the report
    printed 0 beside status: ok."""
    from conftest import gap_sdp, scaled
    from facred.solver import standard_dual

    p = scaled(gap_sdp(), a=lam)
    assert len(standard_dual(p).basis) == 4
    path = tmp_path / "gap.dat-s"
    path.write_text(emit_sdpa(p))
    code, out = run_cli(["dualize", str(path), "--variant", variant,
                         "--solve"])
    if code == 1:
        return
    assert code == 0
    fields = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
    if "standard_dual" not in fields:
        assert float(fields["standard_dual_value"]) == pytest.approx(
            1.0 / lam, rel=1e-6)


def _count_standard_dual(monkeypatch, fail=False):
    """Calls of the encoded ordinary dual through cli, which binds it; with
    ``fail`` a call raises instead."""
    from facred import solver

    calls = []
    original = solver.standard_dual

    def counting(problem):
        calls.append(problem.name)
        if fail:
            raise AssertionError("the encoded ordinary dual was built")
        return original(problem)

    monkeypatch.setattr(cli, "standard_dual", counting)
    monkeypatch.setattr(solver, "standard_dual", counting)
    return calls


@pytest.mark.parametrize("ell", [[], ["--ell", "0"], ["--ell", "2"]])
def test_a_slater_program_reads_the_ordinary_dual_off_the_point(
        tmp_path, monkeypatch, ell):
    """An empty chain proves Slater, so the ordinary dual is strong and
    attained and the verified final layer solves it: its value is the
    extended value, at every depth and variant, and the encoded ordinary
    dual is never built."""
    from conftest import random_strictly_feasible

    path = tmp_path / "strict.dat-s"
    path.write_text(emit_sdpa(random_strictly_feasible(4, n=4, m=3)[0]))
    _count_standard_dual(monkeypatch, fail=True)
    for variant in ("star", "simple", "primed", "ramana"):
        code, out = run_cli(["dualize", str(path), "--variant", variant,
                             "--solve"] + ell)
        assert code == 0
        lines = out.splitlines()
        assert f"ell: {ell[1] if ell else 0}" in lines
        assert "point_verified: yes" in lines
        fields = dict(l.split(": ", 1) for l in lines if ": " in l)
        assert fields["standard_dual_value"] == fields["extended_dual_value"]


@pytest.mark.parametrize("variant", ["star", "ramana"])
def test_one_step_chains_keep_the_encoded_ordinary_dual(tmp_path,
                                                        monkeypatch, variant):
    """When no Slater point of the ordinary dual is certified, as on the
    gap SDP (whose ordinary dual is weaker than the primal) and on the LP
    fixture (whose dual pins y_1 = 0), the ordinary dual is still solved
    through its encoding, once per run."""
    calls = _count_standard_dual(monkeypatch)
    test_dualize_reports_the_duality_gap(tmp_path, variant)
    assert calls == ["gap"]
    code, out = run_cli(["dualize", str(GOLDEN / "lp5x3.dat-s"),
                         "--variant", variant, "--solve"])
    assert code == 0
    assert "ell: 1" in out.splitlines()
    assert out == (GOLDEN / f"dualize_lp5x3_{variant}.txt").read_text()
    assert len(calls) == 2


def test_dualize_infeasible_dual_exits_one(tmp_path, capsys):
    """With a_2 = a_1 but c_1 != c_2 no y solves A* y = c."""
    from conftest import random_strictly_feasible

    p, _ = random_strictly_feasible(3)
    p = ConicProgram(p.blocks, [p.a[0], p.a[0], p.a[2]], p.b, [1.0, 0.0, 0.5])
    path = tmp_path / "infeasible.dat-s"
    path.write_text(emit_sdpa(p))
    for flags in ([], ["--solve"], ["--ell", "0", "--solve"]):
        code, out = run_cli(["dualize", str(path)] + flags)
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["sdp3", "lp5x3"])
@pytest.mark.parametrize("variant", ["star", "ramana"])
def test_dualize_reports_match_the_goldens(name, variant):
    code, out = run_cli(["dualize", str(GOLDEN / f"{name}.dat-s"),
                         "--variant", variant, "--solve"])
    assert code == 0
    assert out == (GOLDEN / f"dualize_{name}_{variant}.txt").read_text()


def test_dualize_prints_no_report_for_a_failing_point(monkeypatch, capsys,
                                                    sdp_path):
    """``attained: yes`` and ``point_verified: yes`` rest on the solve's
    contract that a point failing its check raises: then the run exits 1
    with an error and no report."""
    from facred import extended

    real = extended.check_extended_point

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        report.add("injected failure", False)
        return report

    monkeypatch.setattr(extended, "check_extended_point", failing)
    code, out = run_cli(["dualize", sdp_path, "--solve"])
    assert (code, out) == (1, "")
    assert "injected failure" in capsys.readouterr().err


def test_member_command(tmp_path, sdp_path):
    inside = tmp_path / "inside.pt"
    inside.write_text("1 0 0 0 0 0 0 0 0\n")
    outside = tmp_path / "outside.pt"
    outside.write_text("0 0 0 0 1 0 0 0 0\n")
    code, out = run_cli(["member", sdp_path, "--point", str(inside)])
    assert code == 0 and "member_of_minimal_cone: yes" in out
    code, out = run_cli(["member", sdp_path, "--point", str(outside)])
    assert code == 0 and "member_of_minimal_cone: no" in out


def test_ambiguous_reduction_exits_two(tmp_path):
    # margin sits between the decision rungs, so reduction must refuse
    text = "1\n1\n2\n0.0\n0 1 1 1 5e-06\n0 1 2 2 1.0\n1 1 1 2 0.0\n"
    path = tmp_path / "thin.dat-s"
    path.write_text(text)
    code, out = run_cli(["reduce", str(path)])
    assert code == 2
    assert "ambiguous" in out
    assert "ell: 2" in out.splitlines()


def test_reduce_computes_the_bound_once(sdp_path, monkeypatch):
    from facred import reduction

    calls = []
    original = reduction.compute_ell

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction, "compute_ell", counting)
    code, out = run_cli(["reduce", sdp_path])
    assert code == 0
    assert "ell: 3" in out.splitlines()
    assert len(calls) == 1


def test_dualize_computes_the_bound_once(sdp_path, monkeypatch):
    """--solve reduces once, builds the dual at the chain's depth (2 for
    the fixture, whose bound is 3) and assembles its point from that same
    chain, and the verified assembled point is not checked again."""
    from facred import extended, reduction

    calls = {"reduce": 0, "bound": 0, "check": 0}

    def count(name, key, *modules):
        """Count calls of ``name`` through every module that binds it."""
        original = getattr(modules[0], name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    count("run_facial_reduction", "reduce", reduction, extended, cli)
    count("compute_ell", "bound", reduction, extended)
    count("check_extended_point", "check", extended, cli)
    code, out = run_cli(["dualize", sdp_path, "--solve"])
    assert code == 0
    assert "ell: 2" in out.splitlines()
    assert "point_verified: yes" in out.splitlines()
    assert calls == {"reduce": 1, "bound": 1, "check": 1}


@pytest.mark.parametrize("flags", [["--out", "ext.dat-s"],
                                   ["--ell", "3", "--solve"]])
def test_dualize_depth_without_the_chain(tmp_path, sdp_path, monkeypatch,
                                         flags):
    """Without --solve, and with an explicit --ell, the dual keeps the
    computed bound (3 for the fixture) or the given depth."""
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(["dualize", sdp_path] + flags)
    assert code == 0
    assert "ell: 3" in out.splitlines()


@pytest.mark.parametrize("seed, n, m", [(0, 4, 3), (4, 4, 3), (3, 5, 3),
                                        (7, 5, 3), (0, 6, 4)])
def test_degenerate_ramana_solves_at_the_chain_depth(tmp_path, seed, n, m):
    """The identity-block rescale squares once per layer; at the one-step
    chain's depth the ramana point verifies and matches the star value."""
    from conftest import random_degenerate

    path = tmp_path / "degen.dat-s"
    path.write_text(emit_sdpa(random_degenerate(seed, n, m)[0]))
    values = {}
    for variant in ("ramana", "star"):
        code, out = run_cli(["dualize", str(path), "--variant", variant,
                             "--solve"])
        assert code == 0
        lines = out.splitlines()
        assert "ell: 1" in lines
        assert "point_verified: yes" in lines
        values[variant] = next(l for l in lines
                               if l.startswith("extended_dual_value:"))
    assert values["ramana"] == values["star"]


@pytest.mark.parametrize("variant", ["star", "ramana"])
def test_dualize_solves_a_regular_program(tmp_path, variant):
    """The face-restricted solve of this strictly feasible program stalled
    in the interior-point endgame before the NT-metric re-projection."""
    from conftest import random_strictly_feasible

    path = tmp_path / "strict.dat-s"
    path.write_text(emit_sdpa(random_strictly_feasible(7, n=4, m=3)[0]))
    code, out = run_cli(["dualize", str(path), "--variant", variant,
                         "--solve"])
    assert code == 0
    assert "point_verified: yes" in out.splitlines()


def test_dualize_reads_an_unattained_ordinary_dual_off_its_certificate():
    """The golden SDP's ordinary dual has the unattained infimum 0, which no
    solve of it reaches; it has a Slater point, so its value is the primal
    value, and the report prints it without solving the encoded dual."""
    code, out = run_cli(["dualize", str(GOLDEN / "sdp3.dat-s"), "--solve"])
    assert code == 0
    lines = out.splitlines()
    assert "standard_dual_value: 0.000000" in lines
    assert "extended_dual_value: 0.000000" in lines
    assert not any(l.startswith("standard_dual:") for l in lines)


def test_dualize_flags_an_unconverged_standard_dual(tmp_path, monkeypatch):
    """The gap SDP's ordinary dual has a one-step chain; a solve of it on
    its minimal face that does not end optimal prints its status and no
    value."""
    from dataclasses import replace

    from conftest import gap_sdp
    from facred.reducing import solve_restricted_to_face

    def stalled(program, face, options=None):
        return replace(solve_restricted_to_face(program, face, options),
                       status=SolveStatus.NUMERICAL_FAILURE,
                       message="progress stalled")

    monkeypatch.setattr(cli, "solve_restricted_to_face", stalled)
    path = tmp_path / "gap.dat-s"
    path.write_text(emit_sdpa(gap_sdp()))
    code, out = run_cli(["dualize", str(path), "--solve"])
    assert code == 0
    lines = out.splitlines()
    assert not any(l.startswith("standard_dual_value:") for l in lines)
    assert "standard_dual: numerical_failure (progress stalled)" in lines
    assert "extended_dual_value: 0.000000" in lines


def test_dualize_does_not_print_an_unverified_standard_dual(tmp_path,
                                                           monkeypatch):
    """The gap SDP's ordinary dual, solved on its minimal face: a result
    that ends optimal but whose y misses D's adjoint equation prints why,
    and no value."""
    from dataclasses import replace

    from conftest import gap_sdp
    from facred.reducing import solve_restricted_to_face

    def perturbed(program, face, options=None):
        res = solve_restricted_to_face(program, face, options)
        return replace(res, y=res.y + 1e-3 * YElement.identity(res.y.blocks))

    monkeypatch.setattr(cli, "solve_restricted_to_face", perturbed)
    path = tmp_path / "gap.dat-s"
    path.write_text(emit_sdpa(gap_sdp()))
    code, out = run_cli(["dualize", str(path), "--solve"])
    assert code == 0
    lines = out.splitlines()
    assert not any(l.startswith("standard_dual_value:") for l in lines)
    assert any(l.startswith("standard_dual: unverified (adjoint residual ")
               for l in lines)
    assert "extended_dual_value: 0.000000" in lines


@pytest.mark.parametrize("c", [0.0, 1.0])
@pytest.mark.parametrize("variant", ["star", "ramana"])
def test_dualize_on_the_zero_cone(tmp_path, variant, c):
    """slack = x diag(1, -1) pins x = 0, so the minimal cone is {0} and the
    value is 0 for every c; the regularized dual must still solve
    A* y = c, with the span multipliers alone."""
    blocks = (ConeBlock("psd", 2),)
    p = ConicProgram(blocks, [YElement(blocks, [np.diag([-1.0, 1.0])])],
                     YElement.zeros(blocks), [c])
    path = tmp_path / "zero.dat-s"
    path.write_text(emit_sdpa(p))
    code, out = run_cli(["reduce", str(path)])
    assert code == 0
    assert "F_min: block 1: psd rank 0 of 2" in out.splitlines()
    code, out = run_cli(["dualize", str(path), "--variant", variant,
                         "--solve"])
    assert code == 0
    lines = out.splitlines()
    assert "extended_dual_value: 0.000000" in lines
    assert "standard_dual_value: 0.000000" in lines
    assert "point_verified: yes" in lines


def test_route_c_never_prints_the_ill_posed_value(tmp_path, monkeypatch):
    """With the Slater test of the ordinary dual patched off, this program's
    ordinary dual goes to its own reduction: D has a Slater point (an empty
    chain), so the report prints the verified extended value.  A solve of
    the encoded D, which has no interior margin here, ends optimal 1.2e-4
    above that value."""
    from conftest import random_degenerate

    monkeypatch.setattr(cli, "dual_interior_direction", lambda *args: None)
    path = tmp_path / "degen8.dat-s"
    path.write_text(emit_sdpa(random_degenerate(8, n=5, m=3)[0]))
    code, out = run_cli(["dualize", str(path), "--solve"])
    assert code == 0
    fields = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
    assert fields["extended_dual_value"] == "0.402226"
    assert fields.get("standard_dual_value", "0.402226") == "0.402226"


def test_dualize_prints_an_optimal_standard_dual(lp_path):
    code, out = run_cli(["dualize", lp_path, "--solve"])
    assert code == 0
    assert "standard_dual_value: 0.000000" in out.splitlines()
    assert "standard_dual:" not in out


def test_reduce_without_variables(tmp_path):
    """A program with m = 0 survives the SDPA round trip and reduces to
    the face its right-hand side spans."""
    blocks = (ConeBlock("psd", 2), ConeBlock("orthant", 2))
    p = ConicProgram(blocks, [], YElement(blocks, [np.eye(2), [0.0, 1.0]]),
                     [])
    path = tmp_path / "m0.dat-s"
    path.write_text(emit_sdpa(p))
    code, out = run_cli(["reduce", str(path)])
    assert code == 0
    assert ("F_min: block 1: psd rank 2 of 2; block 2: orthant support {2}"
            in out.splitlines())


@pytest.mark.parametrize("command, flag", [("reduce", "--cert"),
                                           ("dualize", "--out")])
def test_unwritable_output_exits_one(tmp_path, sdp_path, capsys, command, flag):
    target = str(tmp_path / "missing" / "file")
    code, out = run_cli([command, sdp_path, flag, target])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_failure_exits_one(tmp_path):
    path = tmp_path / "broken.dat-s"
    path.write_text("not a header\n")
    assert run_cli(["reduce", str(path)])[0] == 1


def test_tol_precedence(tmp_path, sdp_path, monkeypatch):
    monkeypatch.setenv("FACRED_TOL", "1e-6")
    code, out = run_cli(["reduce", sdp_path])
    assert "tol: 1e-06" in out
    code, out = run_cli(["reduce", sdp_path, "--tol", "1e-8"])
    assert "tol: 1e-08" in out


def test_a_tolerance_that_is_not_positive_and_finite_exits_one(
        sdp_path, monkeypatch, capsys):
    """At --tol -1 the reduction took every step as minimal and printed the
    full cone with ``status: ok``; such a tolerance, from the flag or from
    FACRED_TOL, is refused with one error line."""
    for tol in ("-1", "0", "nan", "inf"):
        assert run_cli(["reduce", sdp_path, "--tol", tol]) == (1, ""), tol
        monkeypatch.setenv("FACRED_TOL", tol)
        assert run_cli(["reduce", sdp_path]) == (1, ""), tol
        monkeypatch.delenv("FACRED_TOL")
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: tolerance must be positive and finite, "
                       f"got {tol}"] * 2, tol


def test_seed_printed_in_report(sdp_path):
    code, out = run_cli(["reduce", sdp_path, "--seed", "7"])
    assert code == 0
    assert "seed: 7" in out


def staircase(n):
    """b = E11, a_1 = E12 + E21, a_k = E1,k+1 + Ek+1,1 + Ekk, c = e_1: the
    minimal face is rank 1 at e_1, n - 1 reducing steps down."""
    blocks = (ConeBlock("psd", n),)
    unit = np.eye(n)
    mats = []
    for k in range(1, n):
        mat = np.outer(unit[0], unit[k]) + np.outer(unit[k], unit[0])
        if k >= 2:
            mat[k - 1, k - 1] = 1.0
        mats.append(YElement(blocks, [mat]))
    return ConicProgram(blocks, mats, YElement(blocks, [np.outer(unit[0],
                                                                 unit[0])]),
                        unit[0, :n - 1], name=f"staircase{n}")


def test_loose_tol_reduction_fails_with_an_error_line(tmp_path, capsys):
    """At --tol 1e-4 a certificate of the order-5 staircase passes its own
    check but not the face cut's fixed bound: exit 1 with an error line."""
    path = tmp_path / "staircase5.dat-s"
    path.write_text(emit_sdpa(staircase(5)))
    code, out = run_cli(["reduce", str(path), "--tol", "1e-4"])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_dualize_solve_reduces_at_the_given_tol(tmp_path, capsys):
    """dualize --solve reduces at --tol, as reduce does: at 1e-3 the
    order-5 staircase fails the face cut in both, exit 1 with an error
    line."""
    path = tmp_path / "staircase5.dat-s"
    path.write_text(emit_sdpa(staircase(5)))
    for command in (["reduce"], ["dualize", "--solve"]):
        args = command[:1] + [str(path)] + command[1:] + ["--tol", "1e-3"]
        assert run_cli(args) == (1, ""), command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, command


def test_member_honours_max_iter(tmp_path, capsys):
    """--max-iter bounds the squeeze solve and the fallback reduction: at
    one iteration neither decides, so member exits 1 with an error line and
    prints no verdict, for a point inside the minimal cone and one
    outside it."""
    from conftest import random_degenerate

    p, xbar = random_degenerate(0)
    prob = tmp_path / "degen0.dat-s"
    prob.write_text(emit_sdpa(p))
    for side, point in (("in", (p.b - p.apply(xbar)).parts[0]),
                        ("out", np.eye(p.blocks[0].size))):
        path = tmp_path / f"{side}.pt"
        path.write_text(" ".join(f"{v:.17g}" for v in point.ravel()) + "\n")
        args = ["member", str(prob), "--point", str(path)]
        assert run_cli(args)[0] == 0, side
        capsys.readouterr()
        assert run_cli(args + ["--max-iter", "1"]) == (1, ""), side
        assert capsys.readouterr().err.startswith("error: "), side


def test_cli_sweep_never_escapes(tmp_path, capsys):
    """Every golden input and the order-5 staircase, under reduce,
    dualize --solve and member at three tolerances: each run ends with
    exit 0, 1 or 2 and no escaping exception, and only exit 0 prints
    ``status: ok``.  Malformed numbers are refused where they enter, with
    exit 1 and one ``error:`` line: a non-finite SDPA entry, certificate
    entry or point entry, and an x_strict of the wrong length."""
    inputs = sorted(GOLDEN.glob("*.dat-s"))
    inputs.append(tmp_path / "staircase5.dat-s")
    inputs[-1].write_text(emit_sdpa(staircase(5)))
    for problem in inputs:
        point = tmp_path / (problem.stem + ".pt")
        unit = YElement.identity(cli._read_problem(problem)[0].blocks)
        point.write_text("".join(" ".join(map(str, part.ravel())) + "\n"
                                 for part in unit.parts))
        for command in (["reduce"], ["dualize", "--solve"],
                        ["member", "--point", str(point)]):
            for tol in ("1e-7", "1e-5", "1e-3"):
                args = command[:1] + [str(problem)] + command[1:]
                code, out = run_cli(args + ["--tol", tol])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (args, tol)
                assert "Traceback" not in err, (args, tol)
                assert code == 0 or "status: ok" not in out, (args, tol)

    sdp3 = str(GOLDEN / "sdp3.dat-s")
    cert = tmp_path / "sdp3.cert"
    assert run_cli(["reduce", sdp3, "--cert", str(cert)])[0] == 0
    text = cert.read_text()
    first = text.index("step 1 reducing=1\n") + len("step 1 reducing=1\n")
    (tmp_path / "nan.cert").write_text(
        text[:first] + "nan" + text[text.index(" ", first):])
    (tmp_path / "long.cert").write_text(text.rstrip("\n") + " 0\n")
    (tmp_path / "nan.dat-s").write_text("1\n1\n2\n1.0\n0 1 1 1 nan\n1 1 1 2 1.0\n")
    (tmp_path / "nan.pt").write_text("1 0 0 0 nan 0 0 0 0\n")
    capsys.readouterr()
    at = {name: str(tmp_path / name)
          for name in ("nan.dat-s", "nan.cert", "long.cert", "nan.pt")}
    for args, message in (
            (["reduce", at["nan.dat-s"]], "could not parse entry: '0 1 1 1 nan'"),
            (["verify", sdp3, at["nan.cert"]], "non-finite number"),
            (["verify", sdp3, at["long.cert"]],
             "x_strict has 3 entries, problem has 2 variables"),
            (["member", sdp3, "--point", at["nan.pt"]], "non-finite number")):
        assert run_cli(args) == (1, ""), args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, args
        assert len(err.splitlines()) == 1, args


EXIT_CODES = [(AmbiguousOutcome("rungs"), 2), (ReductionError("bound", None), 1),
              (ValueError("tangent"), 1), (SolverError("stalled"), 1)]


@pytest.mark.parametrize("error, code", EXIT_CODES)
def test_dualize_solve_failure_exit_codes(sdp_path, monkeypatch, error, code):
    """A reduction or solve failure behind the extended dual ends the run
    with its exit code, not with an escaping exception."""
    def failing(ext, options):
        raise error

    monkeypatch.setattr(cli, "solve_extended_dual", failing)
    got, out = run_cli(["dualize", sdp_path, "--solve"])
    assert got == code
    assert "status: ok" not in out


@pytest.mark.parametrize("error, code", EXIT_CODES)
def test_dualize_depth_reduction_failure_exit_codes(sdp_path, monkeypatch,
                                                    error, code):
    """The reduction that sets the depth of --solve fails with the same
    exit codes, before anything is built."""
    def failing(program, tol, options):
        raise error

    monkeypatch.setattr(cli, "run_facial_reduction", failing)
    got, out = run_cli(["dualize", sdp_path, "--solve"])
    assert got == code
    assert out == ""


def test_calls_in_one_process_share_no_state(sdp_path, monkeypatch):
    """The parser is built once; flags of one call do not carry into the
    next, and each call runs the command function bound at call time."""
    monkeypatch.delenv("FACRED_TOL", raising=False)
    assert cli.build_parser() is cli.build_parser()
    code, out = run_cli(["reduce", sdp_path, "--seed", "5", "--tol", "1e-6"])
    assert code == 0 and "seed: 5" in out and "tol: 1e-06" in out
    code, plain = run_cli(["reduce", sdp_path])
    assert code == 0 and "seed: 0" in plain and "tol: 1e-07" in plain
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_reduce",
                      lambda args: seen.append(args) or (cli.RunReport("x"), 7))
        assert cli.main(["reduce", sdp_path, "--max-iter", "3"]) == 7
    assert seen[0].max_iter == 3 and seen[0].cert is None
    assert run_cli(["reduce", sdp_path])[1] == plain


def test_verify_reports_each_recomputed_face(tmp_path, sdp_path):
    cert = str(tmp_path / "chain.cert")
    assert run_cli(["reduce", sdp_path, "--cert", cert])[0] == 0
    code, out = run_cli(["verify", sdp_path, cert])
    assert code == 0
    faces = [line for line in out.splitlines() if " face " in line
             and "dual of face" not in line]
    assert faces == ["pass  face 1 recomputation  (block 1: psd rank 2 of 3)",
                     "pass  face 2 recomputation  (block 1: psd rank 1 of 3)"]


def test_reduce_of_a_strongly_infeasible_orthant_program_exits_one(
        tmp_path, capsys):
    """diag(-1 - x, -1 + x) >= 0 has no solution, and (1, 1) certifies
    it.  No nonzero y >= 0 is orthogonal to both a_1 and b, so cleaning the
    reducing solve's certificate collapses <f, y>: one error line and
    exit 1."""
    blocks = (ConeBlock("orthant", 2),)
    p = ConicProgram(blocks, [YElement(blocks, [np.array([1.0, -1.0])])],
                     YElement(blocks, [np.array([-1.0, -1.0])]), [0.0])
    path = tmp_path / "infeasible.dat-s"
    path.write_text(emit_sdpa(p))
    assert run_cli(["reduce", str(path)]) == (1, "")
    assert capsys.readouterr().err == \
        "error: certificate cleanup collapsed the normalization\n"


def test_unreadable_certificate_number_exits_one(tmp_path, sdp_path, capsys):
    cert = tmp_path / "chain.cert"
    assert run_cli(["reduce", sdp_path, "--cert", str(cert)])[0] == 0
    text = cert.read_text()
    cert.write_text(text.replace("x_strict: ", "x_strict: oops "))
    assert run_cli(["verify", sdp_path, str(cert)])[0] == 1
    assert "could not parse numbers" in capsys.readouterr().err


CERT_REWRITES = [  # (pattern, replacement, the error verify must print)
    ("steps: 2", "steps: two", "bad steps line: 'steps: two'"),
    # A negative count with no steps after it, once read as zero steps.
    ("(?s)steps: 2\n.*(x_strict: )", r"steps: -1\n\1",
     "bad steps line: 'steps: -1'"),
    ("blocks: psd 3", "blocks: psd three",
     "bad block descriptor 'psd three': invalid literal for int() with "
     "base 10: 'three'"),
    ("blocks: psd 3", "blocks: cone 3",
     "bad block descriptor 'cone 3': unknown block kind 'cone'"),
    ("blocks: psd 3", "blocks: psd 0",
     "bad block descriptor 'psd 0': block size must be >= 1"),
    ("facred-cert v1\n", "", "missing header line 'facred-cert v1'"),
    ("blocks: psd 3\n", "", "missing blocks line"),
    ("blocks: psd 3", "blocks: psd 3 3",
     "bad block descriptor 'psd 3 3': expected a kind and a size"),
    ("steps: 2\n", "", "missing steps line"),
    ("step 1 reducing=1\n", "", "missing step 1 marker"),
    ("reducing=1", "reducing=2", "bad step marker: 'step 1 reducing=2'"),
    # Everything after the second step's marker cut off.
    ("(step 2 reducing=1\n).*", r"\1",
     "unexpected end of file inside an element"),
    ("x_strict: ", "", "missing x_strict line"),
    # The payload length fits, so the structure is checked against the
    # problem's.
    ("blocks: psd 3", "blocks: orthant 9",
     "certificate block structure differs from problem")]


@pytest.mark.parametrize("old, new, message", CERT_REWRITES,
                         ids=[f"{old}-{new}" for old, new, _ in CERT_REWRITES])
def test_bad_certificate_header_exits_one(tmp_path, sdp_path, capsys, old,
                                          new, message):
    """Each rewrite of a certificate (a regular expression, replaced once)
    is refused with one error line naming what is wrong."""
    import re

    cert = tmp_path / "chain.cert"
    assert run_cli(["reduce", sdp_path, "--cert", str(cert)])[0] == 0
    text = cert.read_text()
    assert re.search(old, text)
    cert.write_text(re.sub(old, new, text, count=1, flags=re.DOTALL))
    capsys.readouterr()
    code, out = run_cli(["verify", sdp_path, str(cert)])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_lines_after_a_certificate_exit_one(tmp_path, sdp_path, capsys):
    """verify printed ``result: pass`` for a certificate with a further
    step after its x_strict line; a line left over after the data is
    refused."""
    cert = tmp_path / "chain.cert"
    assert run_cli(["reduce", sdp_path, "--cert", str(cert)])[0] == 0
    cert.write_text(cert.read_text() + "step 9 reducing=1\n")
    capsys.readouterr()
    assert run_cli(["verify", sdp_path, str(cert)]) == (1, "")
    assert capsys.readouterr().err == \
        "error: unexpected line after x_strict: 'step 9 reducing=1'\n"


def test_lines_after_a_point_exit_one(tmp_path, sdp_path, capsys):
    """member read the first line per block and ignored the rest."""
    point = tmp_path / "inside.pt"
    point.write_text("1 0 0 0 0 0 0 0 0\n\n0 0 0 0 1 0 0 0 0\n")
    assert run_cli(["member", sdp_path, "--point", str(point)]) == (1, "")
    assert capsys.readouterr().err == \
        "error: unexpected line after the point: '0 0 0 0 1 0 0 0 0'\n"


def test_a_negative_iteration_limit_exits_one(tmp_path, sdp_path, capsys):
    """--max-iter -3 ended with ``error: no iterate recorded``; the limit
    is refused by name."""
    point = tmp_path / "inside.pt"
    point.write_text("1 0 0 0 0 0 0 0 0\n")
    for args in (["reduce"], ["dualize", "--solve"],
                 ["member", "--point", str(point)]):
        args = args[:1] + [sdp_path] + args[1:] + ["--max-iter", "-3"]
        command = args[0]
        assert run_cli(args) == (1, ""), command
        assert capsys.readouterr().err == \
            "error: --max-iter must be at least 0, got -3\n", command


def test_the_dual_of_an_emitted_dual_is_solved_or_refused(tmp_path,
                                                          capsys):
    """The ramana dual of sdp3, written out, then dualized and solved: the
    subsolver's best iterate carried an asymmetry of 3e-10, which the
    element constructor refused (exit 1) before any decision.  Its parts
    are now symmetrized, so the run ends in a decision or a loud solver
    failure."""
    emitted = tmp_path / "D.dat-s"
    code, _ = run_cli(["dualize", str(GOLDEN / "sdp3.dat-s"), "--variant",
                       "ramana", "--solve", "--out", str(emitted)])
    assert code == 0
    capsys.readouterr()
    code, out = run_cli(["dualize", str(emitted), "--solve"])
    err = capsys.readouterr().err
    assert "asymmetry" not in err
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert "status: ok" in out


@pytest.mark.parametrize("tol, failed", [
    ("1e-4", "FAIL  face 1 recomputation  (certificate lies outside the "
             "face dual beyond tolerance)"),
    ("1e-7", "FAIL  y_1 in the dual of face 0")])
def test_verify_refuses_a_certificate_below_the_cut_bar(tmp_path, tol,
                                                        failed):
    """On lp5x3, y_1 = (0, 1, 1, 1, 0)/3 - 1e-5 (0, 0, 0, 1, 1) is in the
    data nullspace and 1e-5 outside the orthant: at tol 1e-4 it passes the
    step test and the cut refuses it at its bar, the rank cutoff 1e-6; at
    tol 1e-7 the step test refuses it.  Verify stops at the failed check."""
    from facred.certfile import write_certificate
    from facred.reduction import ReductionCertificate

    blocks = (ConeBlock("orthant", 5),)
    y = YElement(blocks, [np.array([0.0, 1.0, 1.0, 1.0, 0.0]) / 3.0
                          - 1e-5 * np.array([0.0, 0.0, 0.0, 1.0, 1.0])])
    cert = tmp_path / "below.cert"
    cert.write_text(write_certificate(ReductionCertificate(
        [YElement.zeros(blocks), y], None, [True], np.zeros(3))))
    code, out = run_cli(["verify", str(GOLDEN / "lp5x3.dat-s"), str(cert),
                         "--tol", tol])
    assert code == 1
    lines = out.splitlines()
    assert lines[-2:] == [failed, "result: fail"]
    assert [l for l in lines if l.startswith("FAIL")] == [failed]
    assert any(l.startswith("pass  y_1 in the data nullspace") for l in lines)


def test_dualize_exits_one_when_the_final_layer_solve_is_not_optimal(
        monkeypatch, capsys):
    """The face-restricted solve that gives the extended dual's final layer
    ends short of optimal: no point, so one error line and no report."""
    from dataclasses import replace

    from facred import extended

    real = extended.solve_restricted_to_face

    def stalled(*args):
        return replace(real(*args), status=SolveStatus.NUMERICAL_FAILURE)

    monkeypatch.setattr(extended, "solve_restricted_to_face", stalled)
    code, out = run_cli(["dualize", str(GOLDEN / "sdp3.dat-s"), "--solve"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.splitlines() == [
        "error: face-restricted solve did not reach optimality: "
        "numerical_failure (the span equations pin x)"]


def test_dualize_refuses_a_final_layer_whose_value_is_not_attained(
        tmp_path, monkeypatch, capsys):
    """The final layer's y shifted by w, I projected onto ker A*, stays
    dual feasible with the solve still OPTIMAL, but <b, w> > 0 lifts its
    value above the primal value.  The check on the program's own data
    finds the gap, so no value is printed."""
    from dataclasses import replace

    from conftest import random_strictly_feasible
    from facred import extended
    from facred.linalg import flatten_element, unflatten_element

    p = random_strictly_feasible(0, n=4, m=2)[0]
    path = tmp_path / "strict.dat-s"
    path.write_text(emit_sdpa(p))
    rows = np.array([flatten_element(ai) for ai in p.a])
    eye = flatten_element(YElement.identity(p.blocks))
    w = unflatten_element(eye - rows.T @ np.linalg.solve(rows @ rows.T,
                                                         rows @ eye), p.blocks)
    assert w.min_eigenvalue() > 0 and p.b.inner(w) > 1.0
    real = extended.solve_restricted_to_face

    def shifted(*args):
        res = real(*args)
        return replace(res, y=res.y + w)

    monkeypatch.setattr(extended, "solve_restricted_to_face", shifted)
    code, out = run_cli(["dualize", str(path), "--solve"])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: face-restricted solve unverified (gap ")


@pytest.mark.parametrize("failure, line", [
    ("raises", "standard_dual: reduction failed (injected)"),
    ("empty chain", "standard_dual: its Slater point fails verification")])
def test_dualize_says_why_the_reduced_ordinary_dual_has_no_value(
        tmp_path, monkeypatch, failure, line):
    """The gap SDP's ordinary dual D is reduced for its value.  A reduction
    of D that raises, and an empty chain of D whose x_strict (0) has no
    interior slack, since D has no Slater point, each print why on a
    standard_dual: line and no value; the extended dual still answers."""
    from conftest import gap_sdp
    from facred.faces import FaceRep
    from facred.reduction import ReductionCertificate

    real = cli.run_facial_reduction

    def patched(program, *args):
        if not program.name.endswith(" dual"):
            return real(program, *args)
        if failure == "raises":
            raise ReductionError("injected")
        return ReductionCertificate([YElement.zeros(program.blocks)],
                                    [FaceRep.full_cone(program.blocks)], [],
                                    np.zeros(program.m))

    monkeypatch.setattr(cli, "run_facial_reduction", patched)
    path = tmp_path / "gap.dat-s"
    path.write_text(emit_sdpa(gap_sdp()))
    code, out = run_cli(["dualize", str(path), "--solve"])
    assert code == 0
    lines = out.splitlines()
    assert not any(l.startswith("standard_dual_value:") for l in lines)
    assert line in lines
    assert "extended_dual_value: 0.000000" in lines
    assert lines[-1] == "status: ok"

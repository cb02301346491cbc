import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from facred import cli
from facred.reducing import AmbiguousOutcome
from facred.reduction import ReductionError
from facred.sdpa import emit_sdpa
from facred.solver import SolverError

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
    for name in ("lp5x3", "sdp3"):
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


def test_dualize_ell_zero_matches_standard_dual(sdp_path, example_sdp):
    from facred.solver import solve_conic_lp, standard_dual

    code, out = run_cli(["dualize", sdp_path, "--ell", "0", "--solve"])
    assert code == 0
    line = next(l for l in out.splitlines()
                if l.startswith("extended_dual_value:"))
    val = float(line.split(":")[1])
    sd = standard_dual(example_sdp)
    ref = sd.value_of(solve_conic_lp(sd.program))
    assert abs(val - ref) <= 1e-3  # both approach the unattained zero


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
    original = reduction.nullspace_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction, "nullspace_basis", counting)
    code, out = run_cli(["reduce", sdp_path])
    assert code == 0
    assert "ell: 3" in out.splitlines()
    assert len(calls) == 1


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


def test_seed_printed_in_report(sdp_path):
    code, out = run_cli(["reduce", sdp_path, "--seed", "7"])
    assert code == 0
    assert "seed: 7" in out


@pytest.mark.parametrize("error, code", [
    (AmbiguousOutcome("rungs"), 2), (ReductionError("bound", None), 1),
    (ValueError("tangent"), 1), (SolverError("stalled"), 1)])
def test_dualize_solve_failure_exit_codes(sdp_path, monkeypatch, error, code):
    """A reduction or solve failure behind the extended dual ends the run
    with its exit code, not with an escaping exception."""
    def failing(ext, options):
        raise error

    monkeypatch.setattr(cli, "solve_extended_dual", failing)
    got, out = run_cli(["dualize", sdp_path, "--solve"])
    assert got == code
    assert "status: ok" not in out

"""The benchmark's layer trace binds every function it names.

``bench/tracer.py`` wraps a fixed list of facred functions at every module
that holds them; a renamed or no longer imported function makes a traced
benchmark run fail.  This test installs the tracer (and removes it again)
so such a change fails here first.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import facred.cli  # noqa: F401  (the tracer patches every facred module)
from facred.sdpa import emit_sdpa

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_function():
    tracer = _load_tracer()
    trace = tracer.Tracer().install()
    try:
        assert sorted(trace.sites) == sorted(tracer.NAMES)
    finally:
        trace.uninstall()


def test_commands_traced_after_an_untraced_call(tmp_path, example_sdp):
    """The benchmark runs a warm-up op before it installs the tracer; the
    traced call that follows must still run through the wrapped cmd_*
    (a dispatch that kept the functions of its first call would not)."""
    path = tmp_path / "sdp.dat-s"
    path.write_text(emit_sdpa(example_sdp))
    argv = ["reduce", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert facred.cli.main(argv) == 0
        tracer = _load_tracer()
        trace = tracer.Tracer().install()
        try:
            trace.enabled = True
            assert facred.cli.main(argv) == 0
        finally:
            trace.uninstall()
    names = [span[0] for span in trace.spans]
    assert names.count("cli.cmd_reduce") == 1
    assert "sdpa.parse_sdpa" in names


def _traced(argv):
    """The bench tracer's record of one CLI call, which must exit 0."""
    tracer = _load_tracer()
    trace = tracer.Tracer().install()
    try:
        trace.enabled = True
        with contextlib.redirect_stdout(io.StringIO()):
            assert facred.cli.main(argv) == 0
    finally:
        trace.uninstall()
    return trace


def test_dualize_solve_counts(tmp_path):
    """The IPM solves of one ``dualize --solve``, as the benchmark traces
    them.  The reducing pair that confirms the minimal face is settled by a
    checked interior point, without a solve, on all three programs.  A
    strictly feasible program: only the full-face solve; its ordinary dual
    is read off the verified point.  A one-step degenerate program: only
    the reducing pair that cuts the face; the span equations of the minimal
    face pin x at an interior slack, so the face-restricted solve is closed
    form, and its ordinary dual has a certified Slater point, so it is read
    off the point too.  The gap SDP, whose ordinary dual D has no Slater
    point, adds the encoded D, its reduction (one reducing pair that cuts
    D's face) and its solve on D's minimal face."""
    from conftest import gap_sdp, random_degenerate, random_strictly_feasible

    for name, program, solves, encoded, reductions in (
            ("strict", random_strictly_feasible(0)[0], 1, 0, 1),
            ("degenerate", random_degenerate(0)[0], 1, 0, 1),
            ("gap", gap_sdp(), 4, 1, 2)):
        path = tmp_path / f"{name}.dat-s"
        path.write_text(emit_sdpa(program))
        trace = _traced(["dualize", str(path), "--solve"])
        names = [span[0] for span in trace.spans]
        assert names.count("solver.solve_conic_lp") == solves, name
        assert names.count("solver.standard_dual") == encoded, name
        assert names.count("reduction.run_facial_reduction") == reductions, \
            name


def test_solve_and_iteration_counts(tmp_path):
    """IPM calls, their total iterations and the facial reductions for one
    ``member`` call, on a point inside the minimal cone and one outside it,
    and for one ``reduce``, all on ``random_degenerate(0)``.  The counts
    repeat exactly, so a kernel change that moves them fails here, not only
    in the bench.  Each member call stops its squeeze solve at the first
    iterate that decides (a witness that checks, or a converged t <= 0.1),
    without the fallback reduction."""
    import numpy as np
    from conftest import random_degenerate

    p, xbar = random_degenerate(0)
    prob, cert = tmp_path / "degen0.dat-s", tmp_path / "degen0.cert"
    prob.write_text(emit_sdpa(p))
    points = {"in": (p.b - p.apply(xbar)).parts[0],   # a feasible slack
              "out": np.eye(p.blocks[0].size)}
    runs = {"reduce": ["reduce", str(prob), "--cert", str(cert)]}
    for side, point in points.items():
        path = tmp_path / f"{side}.pt"
        path.write_text(" ".join(f"{v:.17g}" for v in point.ravel()) + "\n")
        runs["member-" + side] = ["member", str(prob), "--point", str(path)]
    counts = {}
    for name, argv in runs.items():
        trace = _traced(argv)
        names = [span[0] for span in trace.spans]
        counts[name] = (names.count("solver.solve_conic_lp"),
                        trace.counts["solver.solve_conic_lp.iters"],
                        names.count("reduction.run_facial_reduction"))
    assert counts == {"reduce": (1, 9, 1), "member-in": (1, 5, 0),
                      "member-out": (1, 8, 0)}

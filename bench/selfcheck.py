"""Self-checks of the benchmark itself.  Run from the checkout root:

    python3 bench/selfcheck.py

1. The frozen dualize references still certify (plain numpy).
2. A one-second smoke run of each workload, untraced and traced, prints
   every metric BENCHMARK.json names, with its unit.
3. The answer checks flag an injected wrong ``extended_dual_value`` and an
   accepted corrupted certificate as wrong answers, and facred's verify
   rejects every corrupted planted certificate (``result: fail``).
4. The tracer misses no call: its per-layer call counts equal a profiler's
   count of the wrapped functions' code objects over a few ops.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(ROOT, ".bench_work")


def smoke(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "0", "--seconds", "1", "--trace",
                 str(trace)], capture_output=True, text=True, cwd=ROOT,
                timeout=600, check=False)
            if proc.returncode != 0:
                raise AssertionError(f"{workload} trace {trace}: exit "
                                     f"{proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            got = result["metrics"]
            for metric in spec[key]:
                assert got[metric["name"]]["unit"] == metric["unit"], metric
            assert len(got) == len(spec[key])
            print(f"ok  smoke {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")


def answer_checks(cli):
    import run
    import workloads

    wrong = workloads._dualize_check(0.855853)(
        [(0, "extended_dual_value: -2154.433994\npoint_verified: yes\n"
             "status: ok\n")])
    assert wrong.wrong and not wrong.passed
    right = workloads._dualize_check(0.855853)(
        [(0, "extended_dual_value: 0.855853\npoint_verified: yes\n"
             "status: ok\n")])
    assert right.passed
    ops = [workloads.Op(f"dualize:x{k}", "s", [], None) for k in range(2)]
    records = [run.Record(op, 0.0, 0.1, outcome)
               for op, outcome in zip(ops, (wrong, right))]
    for r in records:
        r.ref_s = r.wall
    _, extra = run.end_to_end(records, ops, 1.0)
    assert extra["wrong_share"] == 0.5 and extra["fail_share"] == 0.5
    print("ok  injected wrong extended_dual_value counts as wrong")

    accepted = workloads._verdict_check("result", "fail", 1)(
        [(0, "result: pass\n")])
    assert accepted.wrong
    client = run.Client(cli)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        ops, _ = workloads.build("query", 0, workdir)
        corrupt = [op for op in ops if op.name.startswith("verify-corrupt:")]
        for op in corrupt:
            outcome = client.run(op).outcome
            assert outcome.passed, (op.name, outcome)
    print(f"ok  {len(corrupt)} corrupted certificates get result: fail")


def trace_counts():
    """Count calls of the original code objects with a profiler while the
    tracer is installed; both counts must agree for every layer."""
    import tracer as tracing
    import run
    import workloads

    tr = tracing.Tracer()
    codes = {}
    for name in tracing.NAMES:
        mod, fn = name.split(".")
        codes[getattr(sys.modules[f"facred.{mod}"], fn).__code__] = name
    tr.install()
    seen = dict.fromkeys(tracing.NAMES, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    from facred import cli
    client = run.Client(cli)
    ops_run = {}
    try:
        with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
            for workload, picks in (("reduce", ("reduce:sdp3",
                                                "reduce:degen0_n6m4")),
                                    ("dualize", ("dualize:strict0_n4m3:star",
                                                 "dualize:degen1_n4m3:ramana")),
                                    ("query", ("member-in:degen0_n4m2",
                                               "verify:degen1_n4m2"))):
                ops, _ = workloads.build(workload, 0, workdir)
                by_name = {op.name: op for op in ops}
                tr.enabled = True
                sys.setprofile(profile)
                try:
                    for pick in picks:
                        client.run(by_name[pick])
                finally:
                    sys.setprofile(None)
                    tr.enabled = False
                ops_run[workload] = len(picks)
    finally:
        tr.uninstall()
    summary = tr.summary()
    for name in tracing.NAMES:
        assert summary[name + ".calls"] == seen[name], (
            name, summary[name + ".calls"], seen[name])
    print(f"ok  tracer call counts match the profiler on "
          f"{sum(ops_run.values())} ops "
          f"({len(tr.sites)} functions, "
          f"{sum(len(s) for s in tr.sites.values())} bindings)")


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.makedirs(WORKDIR, exist_ok=True)
    import reference
    from facred import cli

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    count = reference.recertify(reference.load_refs())
    print(f"ok  {count} dualize references certify")
    answer_checks(cli)
    trace_counts()
    smoke(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

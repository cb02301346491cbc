"""facred benchmark: one closed-loop client drives ``facred.cli.main``.

Run from the root of a facred checkout:

    python3 bench/run.py --workload reduce --seed 1 --seconds 35 --trace 0

The seed draws the inputs (a relabelling of the instances) and the op
order; the program only sees the files written for it.  Each op's answer is
checked against the planted face or a frozen reference value, and the run
is correct only when every op passed.  ``--workload defects`` runs the ops
the program gets wrong at the seed state, which the timed workloads leave
out (see workloads.py).

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` every op runs twice, traced and untraced in alternating
order, and the run reports the per-layer metrics and the tracing overhead.
The metric names and units come from BENCHMARK.json at the checkout root.  The
last line of standard output is one JSON object; the lines before it are a
readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOADS = ("reduce", "dualize", "query")
# For the printed summary only: a failed op charged this much on top of its
# measured time stands in for an infinite time.
FAILED_OP_S = 1000.0
SETUP_REPEATS = 7
OUT_DIR = ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("defects", "all"),
                        help="one workload, all of them one after another, "
                             "or the untimed probe of known defects")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "git_commit": git_commit(root)}


def import_cli(src):
    """A fresh interpreter importing the CLI: the start-up every facred
    invocation pays.  Runs to completion before returning.  No timeout: a
    wait with one polls the child in steps of up to 50 ms, which would
    quantise a 0.3 s start-up."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import facred.cli"], env=env,
                   check=True)


class Client:
    """Runs ops in-process through the CLI entry point and grades them."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                # An escaping exception is the op's answer: a loud failure.
                code = "raised: " + traceback.format_exc().splitlines()[-1]
        return code, out.getvalue()

    def run(self, op):
        """Record of one op; later command lines run only after a zero
        exit."""
        from workloads import Outcome

        results = []
        start = time.perf_counter()
        for argv in op.argvs:
            results.append(self.call(argv))
            if results[-1][0] != 0:
                break
        wall = time.perf_counter() - start
        try:
            outcome = op.check(results)
        except (ValueError, TypeError, IndexError, OSError) as exc:
            outcome = Outcome(False, detail=f"unreadable answer: {exc}")
        return Record(op, start, wall, outcome)


@dataclass
class Record:
    op: object
    start: float
    wall: float            # seconds as measured
    outcome: object
    ref_s: float = None    # seconds on the reference machine (speed.py)


def weights(records, ops):
    """Weight per record so that the graded ops stand for one full pass:
    each stratum gets its share of the pass, split evenly over the records
    seen from it.  A run cut by the clock mid-pass then estimates the same
    mix as a run that ends on a pass boundary."""
    size, seen = {}, {}
    for op in ops:
        size[op.stratum] = size.get(op.stratum, 0) + 1
    for r in records:
        seen[r.op.stratum] = seen.get(r.op.stratum, 0) + 1
    total = sum(size[s] for s in seen)
    return [size[r.op.stratum] / seen[r.op.stratum] / total for r in records]


def weighted_percentile(values, wts, q):
    """Smallest value whose cumulative weight reaches q percent."""
    acc = 0.0
    pairs = sorted(zip(values, wts))
    for value, w in pairs:
        acc += w
        if acc >= q / 100.0 * (1.0 - 1e-12):
            return value
    return pairs[-1][0]


def end_to_end(records, ops, setup_s):
    """End-to-end metrics over graded records with reference times, as
    estimates for one pass over the workload's ops."""
    wts = weights(records, ops)
    total = sum(wts)
    ok = sum(w for w, r in zip(wts, records) if r.outcome.passed) / total
    wrong = sum(w for w, r in zip(wts, records) if r.outcome.wrong) / total
    answered = [(r.ref_s, w) for w, r in zip(wts, records) if r.outcome.passed]
    times, answered_wts = zip(*answered) if answered else ((0.0,), (1.0,))
    charged = [r.ref_s if r.outcome.passed else r.ref_s + FAILED_OP_S
               for r in records]
    busy = sum(w * r.ref_s for w, r in zip(wts, records)) / total
    return {
        "setup_s": setup_s,
        "ok_per_min": 60.0 * ok / busy,
        "op_s.p50": weighted_percentile(times, answered_wts, 50),
        "op_s.p75": weighted_percentile(times, answered_wts, 75),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"charged_op_s": [weighted_percentile(charged, wts, q)
                         for q in (50, 75, 90)],
        "op_s.p90": weighted_percentile(times, answered_wts, 90),
        "fail_share": max(0.0, 1.0 - ok), "wrong_share": wrong,
        "ops": len(records), "answered": len(answered)}


def run_all(args):
    """Each workload in its own process, one after another; their reports
    are printed in turn."""
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "facred", "cli.py")):
        print("error: run from the root of a facred checkout "
              "(src/facred/cli.py not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    # numpy reads the thread settings when it loads, so these come last.
    import workloads
    from facred import cli
    from speed import Speedometer
    from tracer import Tracer

    speed = Speedometer()
    speed.tick(force=True)
    client = Client(cli)
    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tracer = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            speed.tick(force=True)
            begin = time.perf_counter()
            import_cli(src)
            ops, warm = workloads.build(args.workload, args.seed, workdir)
            client.run(warm)
            setups.append((begin, time.perf_counter()))
            speed.tick(force=True)

        tracer = Tracer().install() if args.trace else None
        records, pairs = [], []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while time.perf_counter() < deadline:
            speed.tick()
            op = ops[k % len(ops)]
            if tracer is None:
                records.append(client.run(op))
            else:
                pair = {}
                for on in ((True, False) if k % 2 == 0 else (False, True)):
                    tracer.enabled, tracer.op = on, k
                    pair[on] = client.run(op)
                tracer.enabled = False
                pairs.append((pair[True], pair[False]))
                records += [pair[True], pair[False]]
            k += 1
        speed.tick(force=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for r in records:
        r.ref_s = r.wall * speed.scale(r.start, r.start + r.wall)
    setup_s = statistics.median((end - begin) * speed.scale(begin, end)
                                for begin, end in setups)
    e2e, extra = end_to_end(records, ops, setup_s)
    env = environment(root)
    failures = sorted({(r.op.name, r.outcome.detail, r.outcome.wrong)
                       for r in records if not r.outcome.passed})
    stem = os.path.join(root, OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is None:
        metrics = e2e
        wanted = spec["end_to_end"]
    else:
        # Per-layer times are scaled like their op, then averaged per op.
        scales = [on.ref_s / on.wall for on, _ in pairs]
        metrics = {name: value / k for name, value in
                   tracer.summary(scales).items()}
        metrics["trace.overhead_s"] = (
            statistics.median(on.ref_s for on, _ in pairs)
            - statistics.median(off.ref_s for _, off in pairs))
        wanted = spec["per_layer"]
        tracer.dump(stem + "-spans.json")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{extra['ops']} ops graded, {extra['answered']} passed; "
          f"fail_share {extra['fail_share']:.4f}, "
          f"wrong_share {extra['wrong_share']:.4f}; answered op_s.p90 "
          f"{extra['op_s.p90']:.4f}; op_s p50/p75/p90 with each failed op "
          f"charged +{FAILED_OP_S:g} s: "
          + " ".join(f"{v:.4f}" for v in extra["charged_op_s"])
          + f"; speed scale median "
          f"{statistics.median(r.ref_s / r.wall for r in records):.3f}")
    for name, detail, wrong in failures:
        print(f"  {'WRONG' if wrong else 'failed'} {name}: {detail}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "metrics": metrics,
                   "summary": extra, "failures": failures,
                   "records": [[r.op.name, r.op.stratum, r.start, r.wall,
                                r.outcome.passed, r.outcome.wrong]
                               for r in records],
                   "kernel": list(zip(speed.times, speed.durations))}, fh)
    result = {"correct": all(r.outcome.passed for r in records),
              "attempted": len(records),
              "failed": sum(1 for r in records if not r.outcome.passed),
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

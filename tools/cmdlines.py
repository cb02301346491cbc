"""Record, and compare, what every benchmark command line prints.

Run from the root of a facred checkout:

    python3 tools/cmdlines.py run --seeds 0 1 2 --out lines.json
    python3 tools/cmdlines.py diff before.json after.json

``run`` builds the ``reduce``, ``dualize``, ``query`` and ``defects`` ops of
``bench/workloads.py`` at each seed and runs every command line in this
process through ``facred.cli.main``, in op order; a line after a non-zero
exit is not run, as in the benchmark.  Per line it records the exit code,
stdout, stderr without its ``wall_time_s`` line, and the bytes of each file
the line writes (``--cert``, ``--out``), with the work directory replaced
by ``<work>``.  ``diff`` prints every line whose record differs between two
such files and exits 1 when any does, 0 when none does.  Nothing is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

WORKLOADS = ("reduce", "dualize", "query", "defects")
WRITES = ("--cert", "--out")


def _run_line(cli, argv, workdir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is the line's answer
            code = f"raised: {type(exc).__name__}: {exc}"
    files = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in WRITES and os.path.exists(value):
            with open(value, encoding="utf-8") as handle:
                files[flag] = handle.read()

    def clean(text):
        return text.replace(workdir, "<work>")

    stderr = "".join(line for line in err.getvalue().splitlines(True)
                     if not line.startswith("wall_time_s:"))
    return {"argv": [clean(arg) for arg in argv], "code": code,
            "stdout": clean(out.getvalue()), "stderr": clean(stderr),
            "files": {flag: clean(text) for flag, text in files.items()}}


def record(seeds, workloads_run):
    """{key: record} for every command line, key workload:seed:op:line."""
    import workloads
    from facred import cli

    lines = {}
    for workload in workloads_run:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                ops, _ = workloads.build(workload, seed, workdir)
                for op in ops:
                    for k, argv in enumerate(op.argvs):
                        rec = _run_line(cli, argv, workdir)
                        lines[f"{workload}:{seed}:{op.name}:{k}"] = rec
                        if rec["code"] != 0:
                            break
    return lines


def diff(before, after):
    """Lines of a report of every key whose record differs."""
    report = []
    for key in sorted(set(before) | set(after)):
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        if old is None or new is None:
            report.append(f"{key}: only in {'after' if old is None else 'before'}")
            continue
        fields = [name for name in old if old[name] != new.get(name)]
        report.append(f"{key}: {', '.join(fields)} differ")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="record every command line")
    p_run.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_run.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                       default=list(WORKLOADS))
    p_run.add_argument("--out", required=True, help="JSON file to write")
    p_diff = sub.add_parser("diff", help="compare two recordings")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    args = parser.parse_args(argv)

    if args.command == "diff":
        with open(args.before, encoding="utf-8") as fh:
            before = json.load(fh)
        with open(args.after, encoding="utf-8") as fh:
            after = json.load(fh)
        report = diff(before, after)
        print("\n".join(report) if report else
              f"{len(before)} command lines, all identical")
        return 1 if report else 0

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "facred", "cli.py")):
        print("error: run from the root of a facred checkout", file=sys.stderr)
        return 2
    # One BLAS thread, as the benchmark runs: numpy reads it when it loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    lines = record(args.seeds, args.workloads)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(lines, fh, indent=0, sort_keys=True)
    print(f"{len(lines)} command lines written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

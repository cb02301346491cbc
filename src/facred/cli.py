"""Command-line front end.

Subcommands:

    reduce    run facial reduction on an SDPA problem, write a certificate
    dualize   build an extended dual (star/simple/primed/ramana) as SDPA
    verify    recheck a certificate file against a problem
    member    decide membership of a point in the problem's minimal cone

Reports are line-oriented and deterministic for a fixed seed; wall-clock
timing goes to stderr so stdout is stable across runs.  Exit codes: 0 on
success, 2 when a reduction ends ambiguously, 1 on parse or solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import certfile, config, sdpa
from .extended import (VARIANTS, build_extended_dual, check_extended_point,
                       fmin_membership, solve_extended_dual)
from .model import YElement
from .reducing import AmbiguousOutcome
from .reduction import (ReductionCertificate, ReductionError,
                        run_facial_reduction, verify_certificate_chain)
from .solver import SolverError, SolverOptions


@dataclass
class RunReport:
    """Summary of one command run; every numeric field comes straight from
    an operation's output."""

    command: str
    input_digest: str = ""
    seed: int = 0
    tol: float = config.DEFAULT_TOL
    ell: int = None
    reducing_iterations: int = None
    f_min: str = None
    standard_dual_value: float = None
    extended_dual_value: float = None
    attained: bool = None
    wall_time: float = 0.0
    extra: list = field(default_factory=list)

    def lines(self):
        out = [f"facred {self.command} report",
               f"input_sha256: {self.input_digest}",
               f"seed: {self.seed}",
               f"tol: {self.tol:g}"]
        if self.ell is not None:
            out.append(f"ell: {self.ell}")
        if self.reducing_iterations is not None:
            out.append(f"reducing_iterations: {self.reducing_iterations}")
        if self.f_min is not None:
            out.append(f"F_min: {self.f_min}")
        if self.standard_dual_value is not None:
            out.append(f"standard_dual_value: {_fmt(self.standard_dual_value)}")
        if self.extended_dual_value is not None:
            out.append(f"extended_dual_value: {_fmt(self.extended_dual_value)}")
        if self.attained is not None:
            out.append(f"attained: {'yes' if self.attained else 'no'}")
        out.extend(self.extra)
        return out


def _fmt(value: float) -> str:
    # Snap numerical dust to a clean zero so reports stay byte-stable.
    if abs(value) < 5e-7:
        value = 0.0
    return f"{value:.6f}"


def _digest(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def _read_problem(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return sdpa.parse_sdpa(text), _digest(text)


def _emit(report: RunReport, stream=None):
    stream = stream or sys.stdout
    for line in report.lines():
        print(line, file=stream)
    print(f"wall_time_s: {report.wall_time:.3f}", file=sys.stderr)


def cmd_reduce(args) -> int:
    start = time.perf_counter()
    try:
        problem, digest = _read_problem(args.input)
    except (OSError, sdpa.SdpaFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tol = config.resolve_tol(args.tol)
    options = SolverOptions(max_iter=args.max_iter, seed=args.seed)
    report = RunReport("reduce", digest, args.seed, tol)
    try:
        cert = run_facial_reduction(problem, tol, options)
    except AmbiguousOutcome as exc:
        report.ell = exc.partial_chain.ell
        report.extra.append(f"status: ambiguous ({exc})")
        report.wall_time = time.perf_counter() - start
        _emit(report)
        return 2
    except (ReductionError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.ell = cert.ell
    report.reducing_iterations = cert.reducing_count
    report.f_min = cert.minimal_face.describe()
    if args.cert:
        try:
            with open(args.cert, "w", encoding="utf-8") as handle:
                handle.write(certfile.write_certificate(cert))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report.extra.append(f"certificate: {args.cert}")
    report.extra.append("status: ok")
    report.wall_time = time.perf_counter() - start
    _emit(report)
    return 0


def cmd_dualize(args) -> int:
    start = time.perf_counter()
    try:
        problem, digest = _read_problem(args.input)
    except (OSError, sdpa.SdpaFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = RunReport("dualize", digest, args.seed, config.resolve_tol(args.tol))
    try:
        ext = build_extended_dual(problem, args.variant, args.ell)
    except (ValueError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.ell = ext.ell
    report.extra.append(f"variant: {ext.variant}")
    report.extra.append(f"objective_offset: {_fmt(ext.offset)}")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(sdpa.emit_sdpa(ext.program))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report.extra.append(f"output: {args.out}")
    if args.solve:
        options = SolverOptions(max_iter=args.max_iter, seed=args.seed)
        try:
            value, point = solve_extended_dual(ext, options)
        except AmbiguousOutcome as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, ReductionError, SolverError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        check = check_extended_point(problem, point, ext.variant)
        report.extended_dual_value = value
        report.attained = check.ok
        report.extra.append(f"point_verified: {'yes' if check.ok else 'no'}")
        try:
            from .solver import solve_conic_lp, standard_dual

            sd = standard_dual(problem)
            report.standard_dual_value = sd.value_of(
                solve_conic_lp(sd.program, options))
        except ValueError:
            report.extra.append("standard_dual: infeasible")
    report.extra.append("status: ok")
    report.wall_time = time.perf_counter() - start
    _emit(report)
    return 0


def cmd_verify(args) -> int:
    start = time.perf_counter()
    try:
        problem, digest = _read_problem(args.problem)
        with open(args.certificate, "r", encoding="utf-8") as handle:
            blocks, ys, flags, x_strict = certfile.read_certificate(handle.read())
    except (OSError, sdpa.SdpaFormatError, certfile.CertFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tol = config.resolve_tol(args.tol)
    report = RunReport("verify", digest, args.seed, tol)
    if tuple(blocks) != problem.blocks:
        print("error: certificate block structure differs from problem",
              file=sys.stderr)
        return 1
    try:
        faces = _replay_faces(problem, ys)
    except ValueError as exc:
        report.extra.append("result: fail")
        report.extra.append(f"failed: face recomputation ({exc})")
        report.wall_time = time.perf_counter() - start
        _emit(report)
        return 1
    cert = ReductionCertificate(ys, faces, flags, x_strict)
    outcome = verify_certificate_chain(problem, cert, tol)
    report.extra.extend(outcome.lines())
    report.extra.append(f"result: {'pass' if outcome.ok else 'fail'}")
    report.wall_time = time.perf_counter() - start
    _emit(report)
    return 0 if outcome.ok else 1


def _replay_faces(problem, ys):
    from .faces import FaceRep, intersect_with_hyperplane

    faces = [FaceRep.full_cone(problem.blocks)]
    for y in ys[1:]:
        faces.append(intersect_with_hyperplane(faces[-1], y))
    return faces


def cmd_member(args) -> int:
    start = time.perf_counter()
    try:
        problem, digest = _read_problem(args.problem)
        with open(args.point, "r", encoding="utf-8") as handle:
            point = _read_point(handle.read(), problem.blocks)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tol = config.resolve_tol(args.tol)
    report = RunReport("member", digest, args.seed, tol)
    try:
        inside = fmin_membership(problem, point, tol)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.extra.append(f"member_of_minimal_cone: {'yes' if inside else 'no'}")
    report.wall_time = time.perf_counter() - start
    _emit(report)
    return 0


def _read_point(text, blocks) -> YElement:
    """Point files reuse the certificate element layout: one line per block."""
    lines = [ln for ln in text.splitlines() if ln.strip()
             and not ln.lstrip().startswith("#")]
    element, _ = certfile._read_element(tuple(blocks), lines, 0)
    return element


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facred",
        description="Facial reduction and extended strong duals for conic "
                    "programs over orthant and PSD blocks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default: FACRED_TOL env or 1e-7)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for perturbation retries (default 0)")
        p.add_argument("--max-iter", type=int, default=200,
                       help="interior-point iteration limit")

    p_red = sub.add_parser("reduce", help="compute the minimal cone")
    p_red.add_argument("input", help="problem file (SDPA sparse)")
    p_red.add_argument("--cert", help="write the certificate chain here")
    common(p_red)
    p_red.set_defaults(func=cmd_reduce)

    p_dual = sub.add_parser("dualize", help="emit an extended dual")
    p_dual.add_argument("input", help="problem file (SDPA sparse)")
    p_dual.add_argument("--variant", choices=VARIANTS, default="star")
    p_dual.add_argument("--ell", type=int, default=None,
                        help="layer count (default: computed bound)")
    p_dual.add_argument("--out", help="write the dual as SDPA here")
    p_dual.add_argument("--solve", action="store_true",
                        help="solve the dual and verify the optimal point")
    common(p_dual)
    p_dual.set_defaults(func=cmd_dualize)

    p_ver = sub.add_parser("verify", help="recheck a reduction certificate")
    p_ver.add_argument("problem", help="problem file (SDPA sparse)")
    p_ver.add_argument("certificate", help="facred-cert v1 file")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_mem = sub.add_parser("member", help="minimal-cone membership of a point")
    p_mem.add_argument("problem", help="problem file (SDPA sparse)")
    p_mem.add_argument("--point", required=True,
                       help="point file (one line per block)")
    common(p_mem)
    p_mem.set_defaults(func=cmd_member)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

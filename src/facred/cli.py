"""Command-line front end.

Subcommands:

    reduce    run facial reduction on an SDPA problem, write a certificate
    dualize   build an extended dual (star/simple/primed/ramana) as SDPA;
              --solve reduces first, one layer per step unless --ell is given
    verify    recheck a certificate file against a problem
    member    decide membership of a point in the problem's minimal cone

Reports are line-oriented and deterministic: no step of a run is random,
and --seed is only echoed on the report's ``seed:`` line.  Wall-clock
timing goes to stderr so stdout is stable across runs.  Each command
returns its report and exit code: 0 on success, 1 when ``verify`` fails, 2
with ``status: ambiguous`` when ``reduce`` ends between the decision rungs.
Whatever a command raises, ``main`` turns into one ``error:`` line and no
report: exit 2 for an ambiguous reduction, 1 for an unreadable or malformed
input, a failed reduction or a failed solve; never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from dataclasses import dataclass, field

from . import certfile, config, sdpa
from .extended import (VARIANTS, build_extended_dual, fmin_membership,
                       lift_to_psd, solve_extended_dual)
from .model import StructureMismatchError, YElement
from .reducing import (AmbiguousOutcome, restricted_solve_failure,
                       solve_restricted_to_face)
from .reduction import (ReductionCertificate, ReductionError,
                        run_facial_reduction, verify_certificate_chain)
from .solver import (SolverError, SolverOptions, dual_interior_direction,
                     standard_dual)


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


def _read_problem(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return sdpa.parse_sdpa(text), hashlib.sha256(text.encode()).hexdigest()[:16]


def _start(args, command, path):
    """The problem at ``path``, the report (with the tol) and the options."""
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be at least 0, got {args.max_iter}")
    problem, digest = _read_problem(path)
    report = RunReport(command, digest, args.seed, config.resolve_tol(args.tol))
    return problem, report, SolverOptions(max_iter=args.max_iter)


def cmd_reduce(args):
    problem, report, options = _start(args, "reduce", args.input)
    try:
        cert = run_facial_reduction(problem, report.tol, options)
    except AmbiguousOutcome as exc:
        report.ell = exc.partial_chain.ell
        report.extra.append(f"status: ambiguous ({exc})")
        return report, 2
    report.ell = cert.ell
    report.reducing_iterations = cert.reducing_count
    report.f_min = cert.minimal_face.describe()
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as handle:
            handle.write(certfile.write_certificate(cert))
        report.extra.append(f"certificate: {args.cert}")
    report.extra.append("status: ok")
    return report, 0


def cmd_dualize(args):
    problem, report, options = _start(args, "dualize", args.input)
    lifted = lift_to_psd(problem)
    chain = run_facial_reduction(lifted, report.tol, options) \
        if args.solve else None
    ext = build_extended_dual(problem, args.variant, args.ell, chain, lifted)
    report.ell = ext.ell
    report.extra.append(f"variant: {ext.variant}")
    report.extra.append(f"objective_offset: {_fmt(ext.offset)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(sdpa.emit_sdpa(ext.program))
        report.extra.append(f"output: {args.out}")
    if args.solve:
        value, _, _ = solve_extended_dual(ext, options)
        # A value comes only from an assembled point that passed its check,
        # so the optimum is attained at a verified point.
        report.extended_dual_value = value
        report.attained = True
        report.extra.append("point_verified: yes")
        if chain.steps == 0 or dual_interior_direction(
                lifted, chain.ys[1]) is not None:
            # x_strict is a Slater point of P, or the ordinary dual has one
            # (see dual_interior_direction): either way it is strong, and its
            # value is the primal value, the verified point's objective.
            report.standard_dual_value = value
        else:
            report.standard_dual_value, reason = _reduced_standard_dual(
                problem, value, report.tol, options)
            if reason:
                report.extra.append(f"standard_dual: {reason}")
    report.extra.append("status: ok")
    return report, 0


def _reduced_standard_dual(problem, value, tol, options):
    """(value or None, reason or None) of the ordinary dual D, by facial
    reduction of D itself.  A verified empty chain is a Slater point of D,
    so D is strong and has the primal ``value``; otherwise D is solved on
    its minimal face, where it has one, and its value printed only when
    that solve passes restricted_solve_failure's checks on D's own data.
    build_extended_dual has already refused an inconsistent A* y = c, so
    standard_dual does not raise."""
    sd = standard_dual(problem)
    try:
        d_chain = run_facial_reduction(sd.program, tol, options)
        if d_chain.steps == 0:
            if verify_certificate_chain(sd.program, d_chain, tol).ok:
                return value, None
            return None, "its Slater point fails verification"
        res = solve_restricted_to_face(sd.program, d_chain.frame, options)
    except (AmbiguousOutcome, ReductionError, SolverError) as exc:
        return None, f"reduction failed ({exc})"
    if not res.optimal:
        return None, f"{res.status.value} ({res.message})"
    failure = restricted_solve_failure(sd.program, d_chain.minimal_face, res)
    if failure:
        return None, f"unverified ({failure})"
    return sd.value_of(res), None


def cmd_verify(args):
    problem, report, _ = _start(args, "verify", args.problem)
    with open(args.certificate, "r", encoding="utf-8") as handle:
        blocks, ys, flags, x_strict = certfile.read_certificate(handle.read())
    if tuple(blocks) != problem.blocks:
        raise StructureMismatchError(
            "certificate block structure differs from problem")
    if len(x_strict) != problem.m:
        raise StructureMismatchError(f"x_strict has {len(x_strict)} entries, "
                                     f"problem has {problem.m} variables")
    cert = ReductionCertificate(ys, None, flags, x_strict)
    outcome = verify_certificate_chain(problem, cert, report.tol)
    report.extra.extend(outcome.lines())
    report.extra.append(f"result: {'pass' if outcome.ok else 'fail'}")
    return report, 0 if outcome.ok else 1


def cmd_member(args):
    problem, report, options = _start(args, "member", args.problem)
    with open(args.point, "r", encoding="utf-8") as handle:
        point = _read_point(handle.read(), problem.blocks)
    inside = fmin_membership(problem, point, report.tol, options)
    report.extra.append(f"member_of_minimal_cone: {'yes' if inside else 'no'}")
    return report, 0


def _read_point(text, blocks) -> YElement:
    """Point files reuse the certificate element layout: one line per block."""
    lines = [ln for ln in text.splitlines() if ln.strip()
             and not ln.lstrip().startswith("#")]
    element, at = certfile._read_element(tuple(blocks), lines, 0)
    if at < len(lines):
        raise certfile.CertFormatError(
            f"unexpected line after the point: {lines[at]!r}")
    return element


@functools.cache
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
                       help="recorded in the report only; nothing in a "
                            "run is random (default 0)")
        p.add_argument("--max-iter", type=int, default=200,
                       help="interior-point iteration limit")

    p_red = sub.add_parser("reduce", help="compute the minimal cone")
    p_red.add_argument("input", help="problem file (SDPA sparse)")
    p_red.add_argument("--cert", help="write the certificate chain here")
    common(p_red)

    p_dual = sub.add_parser("dualize", help="emit an extended dual")
    p_dual.add_argument("input", help="problem file (SDPA sparse)")
    p_dual.add_argument("--variant", choices=VARIANTS, default="star")
    p_dual.add_argument("--ell", type=int, default=None,
                        help="layer count (default: chain length with "
                             "--solve, computed bound otherwise); --solve "
                             "refuses fewer layers than the chain has")
    p_dual.add_argument("--out", help="write the dual as SDPA here")
    p_dual.add_argument("--solve", action="store_true",
                        help="solve the dual and verify the optimal point")
    common(p_dual)

    p_ver = sub.add_parser("verify", help="recheck a reduction certificate")
    p_ver.add_argument("problem", help="problem file (SDPA sparse)")
    p_ver.add_argument("certificate", help="facred-cert v1 file")
    common(p_ver)

    p_mem = sub.add_parser("member", help="minimal-cone membership of a point")
    p_mem.add_argument("problem", help="problem file (SDPA sparse)")
    p_mem.add_argument("--point", required=True,
                       help="point file (one line per block)")
    common(p_mem)
    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code.  The parser is built once
    per process; ``cmd_<name>`` is looked up at call time, so a rebinding
    runs.  What a command raises ends the run with one ``error:`` line."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = globals()[f"cmd_{args.command}"](args)
    except (AmbiguousOutcome, OSError, ValueError, ReductionError,
            SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, AmbiguousOutcome) else 1
    for line in report.lines():
        print(line)
    print(f"wall_time_s: {time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

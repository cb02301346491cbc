"""Outside-in layer trace: spans around facred's public functions.

The tracer replaces each listed function at every module binding inside the
``facred`` package (``from .x import f`` copies the function into the
importing module, so patching only the defining module would miss those
calls).  Function-local imports resolve at call time and see the patched
defining module.  After install, no facred module may still hold an
original; the benchmark's self-check also compares the wrapper call counts
with a profiler's count of the functions' code objects.

Spans are kept in memory as [name, start, end, parent, op] and summarised
or written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> public functions timed as layers.
LAYERS = {
    "cli": ("cmd_reduce", "cmd_dualize", "cmd_verify", "cmd_member"),
    "sdpa": ("parse_sdpa",),
    "certfile": ("read_certificate", "write_certificate"),
    "linalg": ("sym_eig", "nullspace_basis"),
    "faces": ("intersect_with_hyperplane", "minimal_face",
              "face_dual_membership", "in_tangent_space",
              "tangent_membership_schur"),
    "solver": ("solve_conic_lp", "standard_dual"),
    "reducing": ("solve_reducing_pair", "polish_certificate",
                 "solve_restricted_to_face"),
    "reduction": ("compute_ell", "run_facial_reduction",
                  "verify_certificate_chain"),
    "extended": ("build_extended_dual", "assemble_optimal_point",
                 "solve_extended_dual", "check_extended_point",
                 "fmin_membership"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Counters read from arguments and results (see ``_count``) and from the
# span tree (see ``summary``).
COUNTERS = ("solver.solve_conic_lp.iters", "solver.solve_conic_lp.not_optimal",
            "solver.solve_conic_lp.schur_flops",
            "solver.solve_conic_lp.history_bytes", "linalg.sym_eig.n3",
            "reduction.run_facial_reduction.steps",
            "reduction.run_facial_reduction.raised",
            "reducing.solve_reducing_pair.raised",
            "extended.build_extended_dual.nz",
            "extended.solve_extended_dual.raw_route",
            "extended.fmin_membership.fr_fallback",
            "sdpa.parse_sdpa.bytes", "certfile.read_certificate.bytes",
            "certfile.write_certificate.bytes")


def _schur_flops(program, iterations):
    """Computed cost of the IPM's Schur complements: per iteration, the
    scaled data R a_i R^T (4 m n^3 per PSD block), their Gram matrix
    (2 m^2 n^2, or 2 m^2 d per orthant block) and one Cholesky (m^3 / 3)."""
    m = program.m
    per_iter = m ** 3 / 3.0
    for blk in program.blocks:
        if blk.kind == "psd":
            per_iter += 4.0 * m * blk.size ** 3 + 2.0 * m * m * blk.size ** 2
        else:
            per_iter += 2.0 * m * m * blk.size
    return per_iter * iterations


def _history_bytes(result):
    total = 0
    for it in result.iterates:
        total += it.x.nbytes
        total += sum(part.nbytes for part in it.z.parts + it.y.parts)
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.enabled = False
        self.op = None
        self.sites = {}       # name -> [module names holding it]
        self._patched = []    # (module, attribute, original)

    # -- install / uninstall ---------------------------------------------
    def install(self):
        package = [mod for name, mod in sorted(sys.modules.items())
                   if name == "facred" or name.startswith("facred.")]
        originals = {}
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"facred.{mod_name}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{mod_name}.{fn}"
        wrappers = {}
        for module in package:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                setattr(module, attr, wrappers[name])
                self._patched.append((module, attr, value))
                self.sites.setdefault(name, []).append(module.__name__)
        missing = [name for name in NAMES if name not in wrappers]
        left = [f"{m.__name__}.{a}" for m in package
                for a, v in vars(m).items() if id(v) in originals]
        if missing or left:
            self.uninstall()
            raise RuntimeError(f"trace install incomplete: missing {missing}, "
                               f"unpatched {left}")
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- recording -----------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name in ("reduction.run_facial_reduction",
                            "reducing.solve_reducing_pair"):
                    tracer.counts[name + ".raised"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result):
        counts = self.counts
        if name == "solver.solve_conic_lp":
            counts[name + ".iters"] += result.iterations
            counts[name + ".not_optimal"] += not result.optimal
            counts[name + ".schur_flops"] += _schur_flops(args[0],
                                                          result.iterations)
            counts[name + ".history_bytes"] += _history_bytes(result)
        elif name == "linalg.sym_eig":
            counts[name + ".n3"] += len(args[0]) ** 3
        elif name == "reduction.run_facial_reduction":
            counts[name + ".steps"] += result.steps
        elif name == "extended.build_extended_dual":
            counts[name + ".nz"] += result.nz
        elif name in ("sdpa.parse_sdpa", "certfile.read_certificate"):
            counts[name + ".bytes"] += len(args[0])
        elif name == "certfile.write_certificate":
            counts[name + ".bytes"] += len(result)

    # -- summaries -------------------------------------------------------------
    def summary(self, scales=None):
        """Totals per layer: calls, inclusive seconds, self seconds, plus
        the counters.  ``scales[op]`` multiplies the times of op's spans."""
        out = {f"{name}.{key}": 0.0 for name in NAMES
               for key in ("calls", "s", "self_s")}
        out.update({name: 0.0 for name in COUNTERS})
        out.update(self.counts)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                parent_name = self.spans[parent][0]
                if (parent_name == "extended.solve_extended_dual"
                        and name == "solver.solve_conic_lp"):
                    out["extended.solve_extended_dual.raw_route"] += 1
                if (parent_name == "extended.fmin_membership"
                        and name == "reduction.run_facial_reduction"):
                    out["extended.fmin_membership.fr_fallback"] += 1
        for (name, start, end, _, op), inner in zip(self.spans, child_time):
            scale = 1.0 if scales is None else scales[op]
            out[name + ".calls"] += 1
            out[name + ".s"] += (end - start) * scale
            out[name + ".self_s"] += (end - start - inner) * scale
        # The command layer as a whole: every workload runs some cmd_*.
        for key in ("s", "self_s"):
            out["cli." + key] = sum(out[f"cli.{fn}.{key}"]
                                    for fn in LAYERS["cli"])
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)

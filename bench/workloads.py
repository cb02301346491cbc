"""The three workloads: their inputs, their ops and each op's answer check.

An op is one or two ``facred`` command lines run back to back by one client;
its check grades the exit codes and report lines against the planted face
or the frozen reference value and returns an ``Outcome``.  ``passed`` means
the answer is right; ``wrong`` means the program claimed success (exit 0,
``status: ok`` or a definite verdict) with an answer that disagrees with the
reference.  A loud failure (non-zero exit, ambiguous status) is neither.

Why these workloads:
* reduce  - the certify-a-cone path: reduce, then verify the certificate.
            Stresses compute_ell, the reducing IPM solves, purify/polish
            and the face cuts; deep staircase chains probe long chains.
* dualize - extended-dual build and solve at the default depth on small
            strictly feasible and degenerate SDPs, two encodings each.
            Stresses the extended builder, assemble_optimal_point (which
            reruns facial reduction) and face-restricted and raw solves.
* query   - many short read-type calls (verify a planted certificate,
            reject a corrupted one, decide membership in and out of the
            planted face).  Its median is fixed per-call cost; its tail is
            member's facial-reduction fallback.

The three timed workloads hold only ops the program answers correctly at
the seed state.  The ops it gets wrong (deep staircase chains, dualize
values that are wrong as generated or under a relabelling) form the
``defects`` probe, which is not timed; it shows those defects until a later
change fixes them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

import instances
import reference

# Generator seeds per PSD rung of ``reduce``.  The op times of a ladder are
# far apart, so a percentile is only steady inside a cluster of similar
# ops: five n = 8 instances hold op_s.p50 and six n = 10 instances hold
# op_s.p75, two ranks either way.
REDUCE_PSD = tuple((n, 2 * n // 3, seed)
                   for n, seeds in ((4, 2), (6, 2), (8, 5), (10, 6), (12, 1),
                                    (14, 1))
                   for seed in range(seeds))
REDUCE_ORTHANT = ((12, 4, 0), (40, 13, 0))
# Staircase orders: n = 3 is timed; the deeper chains exit 2 (ambiguous
# reduction) at the seed state, so only the ``defects`` probe runs them.
STAIRCASE = (3,)
DEEP_STAIRCASE = (4, 5, 6, 8)
# Dualize ops that print a wrong value with exit 0 and ``status: ok`` on the
# ladder as generated.  The timed workload leaves them out, because the
# benchmark's workloads must be ones the program answers correctly; the
# ``defects`` probe runs them.  Remove a name once the program gets it right.
DUALIZE_WRONG = frozenset(
    f"dualize:{name}" for name in (
        "degen0_n4m3:ramana", "degen4_n4m3:ramana", "degen3_n5m3:ramana",
        "degen7_n5m3:ramana", "degen0_n6m4:ramana", "degen1_n6m4:ramana",
        "strict7_n4m3:star", "strict7_n4m3:ramana", "strict5_n5m3:star"))
QUERY_PSD = tuple((n, seed) for n in range(4, 13) for seed in range(8))
# ``member`` of a point inside the face takes 5-50x the other query calls
# (facial-reduction fallback).  Asked on half the instances, it fills the
# top seventh of a pass: op_s.p75 then sits inside the cluster of the other
# calls, not on the edge between the two, and p90 stays in its tail.
QUERY_MEMBER_IN_SEEDS = range(4)
VALUE_TOL = 1e-5       # dualize: |value - ref| <= VALUE_TOL * (1 + |ref|)
FACE_TOL = 1e-6        # reduce: slack of x_strict outside the planted face


@dataclass
class Outcome:
    passed: bool
    wrong: bool = False
    detail: str = ""


@dataclass
class Op:
    name: str
    stratum: str
    argvs: list                      # command lines, run in order
    check: Callable                  # [(exit code, stdout)] -> Outcome


def _field(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


# --- reduce -------------------------------------------------------------------

def _slack_in_face(inst, x):
    """Independent check of the reported face: the certificate's strictly
    feasible point must put its slack in the planted face's relative
    interior."""
    for (kind, _), rep, z in zip(inst.blocks, inst.face, inst.slack(x)):
        scale = 1.0 + float(np.max(np.abs(z)))
        if kind == "orthant":
            outside = np.delete(z, list(rep))
            if outside.size and np.max(np.abs(outside)) > FACE_TOL * scale:
                return False
            if rep and np.min(z[list(rep)]) <= 0:
                return False
        else:
            off = z - rep @ (rep.T @ z @ rep) @ rep.T
            if np.max(np.abs(off)) > FACE_TOL * scale:
                return False
            if rep.shape[1] and np.linalg.eigvalsh(rep.T @ z @ rep)[0] <= 0:
                return False
    return True


def _reduce_check(inst, cert_path):
    def check(results):
        (code, out), rest = results[0], results[1:]
        if code != 0 or _field(out, "status") != "ok":
            return Outcome(False, detail=f"reduce exit {code}")
        with open(cert_path, encoding="utf-8") as handle:
            x_strict = instances.read_x_strict(handle.read())
        face_ok = (_field(out, "F_min") == inst.face_text()
                   and _slack_in_face(inst, x_strict))
        if not face_ok:
            return Outcome(False, wrong=True, detail="F_min differs")
        vcode, vout = rest[0]
        if vcode != 0 or _field(vout, "result") != "pass":
            return Outcome(False, detail=f"verify exit {vcode}")
        return Outcome(True)
    return check


def _reduce_inputs():
    out = [instances.random_degenerate(seed, n=n, m=m)
           for n, m, seed in REDUCE_PSD]
    out += [instances.random_degenerate(seed, n=n, m=m, kind="orthant")
            for n, m, seed in REDUCE_ORTHANT]
    out += [instances.mixed(0), instances.lp5x3(), instances.sdp3()]
    out += [instances.staircase(n) for n in STAIRCASE]
    return out


def _stratum(inst):
    if inst.family == "degen":
        return f"psd{inst.blocks[0][1]}"
    return inst.family


# --- dualize ------------------------------------------------------------------

def _dualize_check(ref):
    def check(results):
        code, out = results[0]
        if code != 0 or _field(out, "status") != "ok":
            return Outcome(False, detail=f"exit {code}")
        value = float(_field(out, "extended_dual_value"))
        if abs(value - ref) > VALUE_TOL * (1.0 + abs(ref)):
            return Outcome(False, wrong=True,
                           detail=f"value {value:.6f}, reference {ref:.6f}")
        if _field(out, "point_verified") != "yes":
            return Outcome(False, detail="point not verified")
        return Outcome(True)
    return check


# --- query --------------------------------------------------------------------

def _verdict_check(key, want, want_code):
    def check(results):
        code, out = results[0]
        got = _field(out, key)
        if got is None:
            return Outcome(False, detail=f"exit {code}, no {key}")
        if got != want:
            return Outcome(False, wrong=True, detail=f"{key}: {got}")
        return Outcome(code == want_code, detail=f"exit {code}")
    return check


def _write_certificate(path, inst, y1, x_strict):
    from facred import certfile
    from facred.model import ConeBlock, YElement

    blocks = tuple(ConeBlock(kind, size) for kind, size in inst.blocks)
    chain = SimpleNamespace(ys=[YElement.zeros(blocks), YElement(blocks, y1)],
                            reducing_flags=[True], x_strict=x_strict)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(certfile.write_certificate(chain))


def _write_point(path, parts):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(instances.element_lines(parts)) + "\n")


def _query_points(inst, rng):
    """A point inside the planted face and one with mass outside it."""
    (_, n), = inst.blocks
    q = inst.face[0]
    g = rng.normal(size=(q.shape[1], q.shape[1]))
    inside = q @ (g @ g.T + 0.5 * np.eye(q.shape[1])) @ q.T
    dead = np.linalg.svd(np.eye(n) - q @ q.T)[0][:, :n - q.shape[1]]
    u = dead @ rng.normal(size=dead.shape[1])
    outside = inside + 0.5 * np.outer(u, u) / float(u @ u)
    return inside, outside


# --- assembly -----------------------------------------------------------------

def _reduce_ops(inst, path):
    prob, cert = path(inst), path(inst, ".cert")
    return [Op(f"reduce:{inst.name}", _stratum(inst),
               [["reduce", prob, "--cert", cert], ["verify", prob, cert]],
               _reduce_check(inst, cert))]


def _dualize_ops(inst, ref, path):
    prob = path(inst)
    return [Op(f"dualize:{inst.name}:{variant}",
               f"{inst.family}{inst.blocks[0][1]}-{variant}",
               [["dualize", prob, "--variant", variant, "--solve"]],
               _dualize_check(ref))
            for variant in ("star", "ramana")]


def _query_ops(inst, corrupt_sign, member_in, path, rng):
    prob = path(inst)
    good, bad = path(inst, ".cert"), path(inst, ".bad.cert")
    _write_certificate(good, inst, inst.y1, inst.xbar)
    if corrupt_sign:
        # Wrong sign: y1 leaves the dual cone of the full cone.
        _write_certificate(bad, inst, [-y for y in inst.y1], inst.xbar)
    else:
        # Shifted point: its slack leaves the planted face.
        _write_certificate(bad, inst, inst.y1,
                           inst.xbar + 0.1 * rng.normal(size=inst.m))
    pin, pout = path(inst, ".in"), path(inst, ".out")
    inside, outside = _query_points(inst, rng)
    _write_point(pin, [inside])
    _write_point(pout, [outside])
    n = f"n{inst.blocks[0][1]}"
    ops = [Op(f"verify:{inst.name}", "verify-" + n, [["verify", prob, good]],
              _verdict_check("result", "pass", 0)),
           Op(f"verify-corrupt:{inst.name}", "corrupt-" + n,
              [["verify", prob, bad]], _verdict_check("result", "fail", 1)),
           Op(f"member-out:{inst.name}", "out-" + n,
              [["member", prob, "--point", pout]],
              _verdict_check("member_of_minimal_cone", "no", 0))]
    if member_in:
        ops.append(Op(f"member-in:{inst.name}", "in-" + n,
                      [["member", prob, "--point", pin]],
                      _verdict_check("member_of_minimal_cone", "yes", 0)))
    return ops


def _dualize_ladder(relabel, path):
    """Both variants on every dualize instance, each checked against its
    frozen reference."""
    refs = reference.load_refs()
    ops = []
    for inst in reference.dualize_instances():
        ref = refs[inst.name]
        if reference.digest(inst) != ref["sdpa_sha256"]:
            raise RuntimeError(f"{inst.name}: reference is stale")
        ops += _dualize_ops(relabel(inst), ref["value"], path)
    return ops


def build(workload, seed, workdir):
    """Write the workload's inputs for ``seed`` under ``workdir``; returns
    (ops in run order, warm-up op).

    Every instance except the timed dualize ladder is relabelled by a cone
    automorphism drawn from the seed (seed 0 keeps the instances as
    generated).  ``defects`` runs the deep staircase chains and the whole
    dualize ladder relabelled by the seed.  The warm-up op is run once,
    untimed, on the first small instance as generated, so set-up does the
    same work for every seed."""
    rng = np.random.default_rng([seed, *workload.encode()])

    def relabel(inst):
        return inst if seed == 0 else instances.relabel(inst, rng)

    def path(inst, suffix=".dat-s"):
        name = os.path.join(workdir, inst.name + suffix)
        if suffix == ".dat-s":
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(instances.sdpa_text(inst))
        return name

    def warm_path(inst, suffix=".dat-s"):
        return path(replace(inst, name="warm-" + inst.name), suffix)

    ops = []
    if workload == "reduce":
        for inst in _reduce_inputs():
            ops += _reduce_ops(relabel(inst), path)
        warm = _reduce_ops(instances.sdp3(), warm_path)[0]
    elif workload == "dualize":
        # As generated: a relabelling turns some right answers wrong from
        # seed to seed (the defects probe shows it), so here the seed only
        # draws the op order.
        ops = [op for op in _dualize_ladder(lambda inst: inst, path)
               if op.name not in DUALIZE_WRONG]
        first = reference.dualize_instances()[0]
        warm = _dualize_ops(first, reference.load_refs()[first.name]["value"],
                            warm_path)[0]
    elif workload == "defects":
        for n in DEEP_STAIRCASE:
            ops += _reduce_ops(relabel(instances.staircase(n)), path)
        ops += _dualize_ladder(relabel, path)
        warm = _reduce_ops(instances.sdp3(), warm_path)[0]
    elif workload == "query":
        for k, (n, gen_seed) in enumerate(QUERY_PSD):
            inst = instances.random_degenerate(gen_seed, n=n, m=2 * n // 3)
            ops += _query_ops(relabel(inst), k % 2,
                              gen_seed in QUERY_MEMBER_IN_SEEDS, path, rng)
        warm = _query_ops(instances.random_degenerate(0, n=4, m=2), 0, True,
                          warm_path, np.random.default_rng(0))[-1]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(ops, rng), warm


def interleave(ops, rng):
    """Shuffle each stratum, then merge the strata proportionally: every
    stratum appears within the first round and then at its own even
    spacing, so a run cut by the clock still sees the full mix."""
    strata = {}
    for op in ops:
        strata.setdefault(op.stratum, []).append(op)
    widest = max(len(members) for members in strata.values())
    keyed = []
    for rank, members in enumerate(strata.values()):
        order = rng.permutation(len(members))
        phase = rng.random() / widest
        for k, idx in enumerate(order):
            keyed.append((k / len(members) + phase, rank, members[idx]))
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]

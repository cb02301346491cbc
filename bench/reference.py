"""Frozen, certified optimal values for the ``dualize`` workload.

The values are computed and certified here with plain numpy, never with
facred, and stored in ``refs.json`` beside this file.  Regenerate with

    python3 bench/reference.py

Two cases cover the ladder.  A strictly feasible instance is solved by a
log-det barrier from its interior point, then Newton's method on the
complementarity system  Z(x) V = 0,  A*(V V^T) = c  (y = V V^T) closes the
pair to rounding.  A degenerate instance's planted face pins x to the
generator's xbar, and y is the combination of the data's parts orthogonal
to the face that solves A* y = c.  ``certify`` then checks the pair with
eigvalsh alone: the slack lies in the planted face and is psd, y lies in the
face's dual, A* y = c, and <c, x> = <b, y>.  Every feasible slack lies in
the planted face, so weak duality makes <c, x> the optimal value.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

import instances

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# (n, m, generator seeds) of the dualize ladder; both families at each rung.
DUALIZE_LADDER = ((4, 3, range(10)), (5, 3, range(8)), (6, 4, range(3)))


def dualize_instances():
    out = []
    for n, m, seeds in DUALIZE_LADDER:
        for seed in seeds:
            out.append(instances.random_strictly_feasible(seed, n=n, m=m))
            out.append(instances.random_degenerate(seed, n=n, m=m))
    return out


def digest(inst) -> str:
    return hashlib.sha256(instances.sdpa_text(inst).encode()).hexdigest()[:16]


def _ip(u, v):
    return float(np.sum(u * v))


def solve_on_face(inst):
    """Optimal primal-dual pair (x, y) of a program with one PSD block,
    either strictly feasible (face = the full cone) or with x pinned by
    the face (the slack must stay in span(F), which fixes x = xbar)."""
    (kind, n), = inst.blocks
    if kind != "psd":
        raise ValueError("reference solver handles one PSD block")
    q = inst.face[0]
    a = [ai[0] for ai in inst.a]
    if q.shape[1] == n:
        return _solve_interior(inst.b[0], a, inst.c, np.asarray(inst.xbar))
    off = np.eye(n) - q @ q.T
    pins = np.column_stack([(off @ ai).reshape(-1) for ai in a])
    sv = np.linalg.svd(pins, compute_uv=False)
    if sv[-1] <= 1e-9 * sv[0]:
        raise ValueError(f"{inst.name}: face leaves x free; not supported")
    # y in F* with <Z, y> = 0 for the planted slack Z: Q^T y Q = 0, so y
    # is a combination of the data's parts orthogonal to F.
    perp = [ai - q @ (q.T @ ai @ q) @ q.T for ai in a]
    gram = np.array([[_ip(ai, pj) for pj in perp] for ai in a])
    coeff = np.linalg.solve(gram, inst.c)
    y = sum(ct * pj for ct, pj in zip(coeff, perp))
    return np.asarray(inst.xbar, dtype=float), 0.5 * (y + y.T)


def _solve_interior(b, a, c, x):
    """Log-det barrier from the interior point x, then Newton on the
    complementarity system Z(x) V = 0, A*(V V^T) = c with y = V V^T."""
    n, m = b.shape[0], len(a)

    def slack(x):
        return b - sum(xi * ai for xi, ai in zip(x, a))

    scale = 1.0 + float(np.max(np.abs(slack(x))))
    mu = scale
    while mu > 1e-9 * scale:
        for _ in range(100):
            zi = np.linalg.inv(slack(x))
            g = c - mu * np.array([_ip(zi, ai) for ai in a])
            h = mu * np.array([[_ip(zi @ ai, aj @ zi) for aj in a] for ai in a])
            step = np.linalg.solve(h, g)
            # Damped Newton on the self-concordant f / mu stays feasible.
            lam = np.sqrt(max(float(g @ step), 0.0) / mu)
            x = x + (step / (1.0 + lam) if lam > 0.25 else step)
            if lam < 1e-9:
                break
        mu *= 0.1
    lam_z = np.linalg.eigvalsh(slack(x))
    d = int(np.sum(lam_z < 1e-5 * scale))
    y_mu = mu * 10.0 * np.linalg.inv(slack(x))
    lam_y, vec_y = np.linalg.eigh(y_mu)
    v = vec_y[:, n - d:] * np.sqrt(np.maximum(lam_y[n - d:], 0.0))
    for _ in range(30):
        z = slack(x)
        resid = np.concatenate([(z @ v).reshape(-1),
                                [_ip(ai, v @ v.T) for ai in a] - c])
        if np.max(np.abs(resid)) < 1e-14 * scale:
            break
        jac = np.zeros((n * d + m, m + n * d))
        for i, ai in enumerate(a):
            jac[:n * d, i] = -(ai @ v).reshape(-1)
            jac[n * d + i, m:] = 2.0 * (ai @ v).reshape(-1)
        jac[:n * d, m:] = np.kron(z, np.eye(d))
        step = np.linalg.lstsq(jac, -resid, rcond=None)[0]
        x = x + step[:m]
        v = v + step[m:].reshape(n, d)
    return x, v @ v.T


def certify(inst, x, y):
    """Check (x, y) with plain numpy; returns the certified value or raises."""
    q = inst.face[0]
    z = inst.slack(np.asarray(x))[0]
    zn = 1.0 + float(np.linalg.norm(z))
    off = np.eye(q.shape[0]) - q @ q.T
    if np.linalg.norm(off @ z) > 1e-9 * zn:
        raise ValueError(f"{inst.name}: primal slack leaves the planted face")
    if np.linalg.eigvalsh(q.T @ z @ q)[0] < -1e-9 * zn:
        raise ValueError(f"{inst.name}: primal slack not psd")
    yn = 1.0 + float(np.linalg.norm(y))
    if np.linalg.eigvalsh(q.T @ y @ q)[0] < -1e-9 * yn:
        raise ValueError(f"{inst.name}: dual point outside the face's dual")
    adj = np.array([_ip(ai[0], y) for ai in inst.a])
    if np.max(np.abs(adj - inst.c)) > 1e-9 * (1.0 + np.max(np.abs(inst.c))):
        raise ValueError(f"{inst.name}: dual point misses A* y = c")
    primal, dual = float(inst.c @ x), _ip(inst.b[0], y)
    if abs(primal - dual) > 1e-7 * (1.0 + abs(primal)):
        raise ValueError(f"{inst.name}: objectives differ, {primal} vs {dual}")
    return primal


def load_refs(path=REFS_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def recertify(refs):
    """Re-run ``certify`` on every stored pair; returns the checked count."""
    by_name = {inst.name: inst for inst in dualize_instances()}
    for name, ref in refs.items():
        inst = by_name[name]
        if digest(inst) != ref["sdpa_sha256"]:
            raise ValueError(f"{name}: generator output changed")
        value = certify(inst, np.array(ref["x"]), np.array(ref["y"]))
        if abs(value - ref["value"]) > 1e-9 * (1.0 + abs(value)):
            raise ValueError(f"{name}: stored value disagrees with its pair")
    return len(refs)


def main():
    refs = {}
    for inst in dualize_instances():
        x, y = solve_on_face(inst)
        refs[inst.name] = {"value": certify(inst, x, y),
                           "sdpa_sha256": digest(inst),
                           "x": x.tolist(), "y": y.tolist()}
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(ref)}"
                                          for name, ref in refs.items())
                     + "\n}\n")
    print(f"certified {len(refs)} references -> {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded instance families with a planted minimal face, and their files.

Everything here is plain numpy and never imports facred: the program under
test only ever sees files written from these instances.

An instance encodes  sup <c, x>  s.t.  b - sum_i x_i a_i  in  K  with K a
product of orthant and PSD blocks.  Each instance carries its planted
minimal face (an orthant support or an orthonormal PSD basis per block), a
feasible point ``xbar`` whose slack lies in the face's relative interior,
and, for degenerate families, the reducing certificate ``y1`` that exposes
the face.  ``relabel`` applies a cone automorphism drawn from a seed (a
signed permutation congruence per PSD block, a coordinate permutation per
orthant block): the relabelled program has the same value and the
transported face, so frozen references stay valid while the files the
program reads change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Instance:
    name: str
    blocks: tuple            # ((kind, size), ...), kind "orthant" | "psd"
    a: tuple                 # per variable: tuple of block parts
    b: tuple                 # block parts
    c: np.ndarray
    face: tuple              # per block: sorted support tuple | n x r basis
    xbar: np.ndarray         # feasible; slack in the relative interior of face
    y1: tuple = None         # reducing certificate exposing face, if any
    family: str = ""

    @property
    def m(self):
        return len(self.a)

    def slack(self, x):
        return tuple(bp - sum(xi * ai[k] for xi, ai in zip(x, self.a))
                     for k, bp in enumerate(self.b))

    def face_text(self):
        """The face in the wording of the ``F_min:`` report line."""
        bits = []
        for k, ((kind, size), rep) in enumerate(zip(self.blocks, self.face)):
            if kind == "orthant":
                inside = ",".join(str(i + 1) for i in rep)
                bits.append(f"block {k + 1}: orthant support {{{inside}}}")
            else:
                bits.append(f"block {k + 1}: psd rank {rep.shape[1]} of {size}")
        return "; ".join(bits)


def _sym(mat):
    return 0.5 * (mat + mat.T)


def _unit(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = e[j, i] = 1.0
    return e


# --- families ---------------------------------------------------------------

def random_strictly_feasible(seed, n=4, m=3):
    """Random SDP with interior points on both sides (face: the full cone)."""
    rng = np.random.default_rng(seed)
    a = [_sym(rng.normal(size=(n, n))) for _ in range(m)]
    xbar = rng.normal(size=m)
    root = rng.normal(size=(n, n))
    b = sum(xbar[i] * a[i] for i in range(m)) + root @ root.T + 0.1 * np.eye(n)
    ybar = rng.normal(size=(n, n))
    ybar = ybar @ ybar.T + 0.1 * np.eye(n)
    c = np.array([float(np.sum(ai * ybar)) for ai in a])
    return Instance(f"strict{seed}_n{n}m{m}", (("psd", n),),
                    tuple((ai,) for ai in a), (b,), c, (np.eye(n),), xbar,
                    family="strict")


def random_degenerate(seed, n=4, m=3, kind="psd"):
    """Random program without a strictly feasible point: the data is
    orthogonal to a boundary certificate y1 and every slack lies in the face
    y1 exposes."""
    rng = np.random.default_rng(seed)
    if kind == "orthant":
        dead = rng.choice(n, size=max(1, n // 2), replace=False)
        y1 = np.zeros(n)
        y1[dead] = 1.0 + rng.random(len(dead))
        cols = []
        for _ in range(m):
            col = rng.normal(size=n)
            col -= (col @ y1) / (y1 @ y1) * y1
            cols.append(col)
        xbar = rng.normal(size=m)
        alive = tuple(i for i in range(n) if i not in set(dead.tolist()))
        zbar = np.zeros(n)
        zbar[list(alive)] = rng.random(len(alive)) + 0.5
        b = sum(xbar[i] * cols[i] for i in range(m)) + zbar
        c = rng.normal(size=m)
        return Instance(f"degen_orthant{seed}_n{n}m{m}", (("orthant", n),),
                        tuple((col,) for col in cols), (b,), c, (alive,), xbar,
                        (y1,), family="degen_orthant")
    r = rng.integers(1, n)
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    qface, qdead = basis[:, :r], basis[:, r:]
    y1m = _sym(qdead @ (np.eye(n - r) + np.diag(rng.random(n - r))) @ qdead.T)
    mats = []
    for _ in range(m):
        mat = _sym(rng.normal(size=(n, n)))
        mat -= np.sum(mat * y1m) / np.sum(y1m * y1m) * y1m
        mats.append(mat)
    xbar = rng.normal(size=m)
    core = rng.normal(size=(r, r))
    zbar = qface @ (core @ core.T + 0.2 * np.eye(r)) @ qface.T
    b = sum(xbar[i] * mats[i] for i in range(m)) + zbar
    c = rng.normal(size=m)
    return Instance(f"degen{seed}_n{n}m{m}", (("psd", n),),
                    tuple((mat,) for mat in mats), (b,), c, (qface,), xbar,
                    (y1m,), family="degen")


def mixed(seed, n_orth=8, n_psd=6, m=6):
    """An orthant block beside a PSD block, cut by one certificate that is
    positive on both blocks, with one planted point shared by both."""
    rng = np.random.default_rng(seed)
    dead = rng.choice(n_orth, size=n_orth // 2, replace=False)
    alive = tuple(i for i in range(n_orth) if i not in set(dead.tolist()))
    y1o = np.zeros(n_orth)
    y1o[dead] = 1.0 + rng.random(len(dead))
    r = int(rng.integers(1, n_psd))
    basis = np.linalg.qr(rng.normal(size=(n_psd, n_psd)))[0]
    qface, qdead = basis[:, :r], basis[:, r:]
    y1p = _sym(qdead @ (np.eye(n_psd - r) + np.diag(rng.random(n_psd - r)))
               @ qdead.T)
    norm2 = float(y1o @ y1o + np.sum(y1p * y1p))
    a = []
    for _ in range(m):
        ao, ap = rng.normal(size=n_orth), _sym(rng.normal(size=(n_psd, n_psd)))
        t = (float(ao @ y1o) + float(np.sum(ap * y1p))) / norm2
        a.append((ao - t * y1o, ap - t * y1p))
    xbar = rng.normal(size=m)
    zo = np.zeros(n_orth)
    zo[list(alive)] = rng.random(len(alive)) + 0.5
    core = rng.normal(size=(r, r))
    zp = qface @ (core @ core.T + 0.2 * np.eye(r)) @ qface.T
    b = (sum(xbar[i] * a[i][0] for i in range(m)) + zo,
         sum(xbar[i] * a[i][1] for i in range(m)) + zp)
    c = rng.normal(size=m)
    return Instance(f"mixed{seed}", (("orthant", n_orth), ("psd", n_psd)),
                    tuple(a), b, c, (alive, qface), xbar, (y1o, y1p),
                    family="mixed")


def staircase(n):
    """Deep chain: b = E11, a_1 = E12 + E21, a_k = E1,k+1 + Ek+1,1 + Ekk,
    c = e_1.  The minimal face is rank 1 at e_1 and facial reduction needs
    n - 1 steps to reach it; n = 3 is the ``sdp3`` fixture."""
    a = [_unit(n, 0, 1)]
    for k in range(2, n):
        mat = _unit(n, 0, k)
        mat[k - 1, k - 1] = 1.0
        a.append(mat)
    b = np.zeros((n, n))
    b[0, 0] = 1.0
    c = np.zeros(n - 1)
    c[0] = 1.0
    e1 = np.zeros((n, 1))
    e1[0, 0] = 1.0
    return Instance(f"staircase{n}", (("psd", n),), tuple((ai,) for ai in a),
                    (b,), c, (e1,), np.zeros(n - 1), family="staircase")


def lp5x3():
    """Five-row linear system whose minimal cone keeps only coordinate 1."""
    cols = [np.array([1.0, 0, 0, 0, 0]), np.array([0.0, -1, 1, 0, 0]),
            np.array([0.0, 1, 0, -1, 1])]
    return Instance("lp5x3", (("orthant", 5),), tuple((col,) for col in cols),
                    (np.zeros(5),), np.zeros(3), ((0,),),
                    np.array([-1.0, 0, 0]), family="fixture")


def sdp3():
    return replace(staircase(3), name="sdp3", family="fixture")


# --- automorphisms ----------------------------------------------------------

def relabel(inst: Instance, rng) -> Instance:
    """Transport an instance by a random relabelling automorphism of its
    cone.  Signed permutations keep every entry exact; a generic orthogonal
    congruence would also be an automorphism, but changes the outcome of
    the deep-chain and raw-route solves from seed to seed (see the
    benchmark's README)."""
    maps = []
    for kind, size in inst.blocks:
        if kind == "orthant":
            maps.append(rng.permutation(size))
        else:
            signs = rng.choice((-1.0, 1.0), size=size)
            maps.append(np.eye(size)[rng.permutation(size)] * signs)

    def move(parts):
        out = []
        for (kind, _), g, part in zip(inst.blocks, maps, parts):
            out.append(part[g] if kind == "orthant" else _sym(g @ part @ g.T))
        return tuple(out)

    face = []
    for (kind, _), g, rep in zip(inst.blocks, maps, inst.face):
        if kind == "orthant":
            # new[j] = old[g[j]]: coordinate j is alive when g[j] was.
            face.append(tuple(j for j in range(len(g)) if g[j] in set(rep)))
        else:
            face.append(g @ rep)
    return replace(inst, a=tuple(move(ai) for ai in inst.a), b=move(inst.b),
                   face=tuple(face),
                   y1=None if inst.y1 is None else move(inst.y1))


# --- files ------------------------------------------------------------------

def sdpa_text(inst: Instance) -> str:
    """SDPA sparse text: matrix 0 holds b, matrix k holds a_k."""
    out = [f"* {inst.name}", str(inst.m), str(len(inst.blocks)),
           " ".join(str(-size if kind == "orthant" else size)
                    for kind, size in inst.blocks),
           " ".join(f"{v:.17g}" for v in inst.c)]
    for matno, parts in enumerate((inst.b,) + tuple(inst.a)):
        for bi, ((kind, size), part) in enumerate(zip(inst.blocks, parts)):
            for i in range(size):
                row = ([(i, part[i])] if kind == "orthant"
                       else [(j, part[i, j]) for j in range(i, size)])
                for j, v in row:
                    if v != 0.0:
                        out.append(f"{matno} {bi + 1} {i + 1} {j + 1} {v:.17g}")
    return "\n".join(out) + "\n"


def element_lines(parts):
    """One line per block, row-major: the certificate / point file layout."""
    return [" ".join(f"{v:.17g}" for v in np.asarray(part).reshape(-1))
            for part in parts]


def read_x_strict(cert_text):
    """The ``x_strict:`` vector of a certificate file."""
    for line in cert_text.splitlines():
        if line.startswith("x_strict:"):
            return np.array([float(t) for t in line.split(":", 1)[1].split()])
    raise ValueError("certificate has no x_strict line")

"""Shared fixtures: the two reference instances and seeded generators."""

import numpy as np
import pytest

from facred.model import ConeBlock, ConicProgram, YElement


def sym(mat):
    return 0.5 * (mat + mat.T)


def reconstruct(dec):
    """The matrix Q diag(lambda) Q^T of an EigenDecomposition."""
    q, lam = dec.eigenvectors, dec.eigenvalues
    return (q * lam) @ q.T


def is_full(face):
    """Whether a FaceRep keeps every block whole."""
    return all(rep.rank == blk.size
               for rep, blk in zip(face.reps, face.blocks))


def y_iterates(res):
    """The cone-feasible dual iterates of a solve of a standard dual's
    program (the solver's slack trajectory).  Raises ValueError when the
    solve kept no iterates (solve with SolverOptions(keep_history=True))."""
    if not res.iterates:
        raise ValueError("the solve kept no iterates; "
                         "pass SolverOptions(keep_history=True)")
    return [rec.z for rec in res.iterates]


def reduced_program(p, face):
    """The program with its cone replaced by the face, in the face's
    compressed coordinates (span equalities dropped)."""
    from facred.reducing import FaceCoordinates

    FaceCoordinates(p, face)    # raises when the span equations fail
    blocks = face.kept_blocks
    if not blocks:
        raise ValueError("face is the zero cone; nothing to compress")
    a_hat = [YElement(blocks, face.compress(ai)) for ai in p.a]
    b_hat = YElement(blocks, face.compress(p.b))
    return ConicProgram(blocks, a_hat, b_hat, p.c,
                        name=(p.name + " reduced").strip())


@pytest.fixture
def example_lp():
    """Five-row linear system A x <= 0 whose minimal cone keeps only the
    first coordinate: rows 2..5 bind at every feasible point."""
    blocks = (ConeBlock("orthant", 5),)
    cols = [np.array([1.0, 0, 0, 0, 0]),
            np.array([0.0, -1, 1, 0, 0]),
            np.array([0.0, 1, 0, -1, 1])]
    a = [YElement(blocks, [col]) for col in cols]
    b = YElement(blocks, [np.zeros(5)])
    return ConicProgram(blocks, a, b, [0.0, 0.0, 0.0], name="lp5x3")


@pytest.fixture
def example_sdp():
    """Order-3 SDP, sup x1, whose feasible set is the origin: the slack is
    pinned to the (1,1) entry, the ordinary dual has an unattained zero
    minimum, and the minimal cone is the rank-1 face at e1."""
    blocks = (ConeBlock("psd", 3),)
    a1 = YElement(blocks, [np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]])])
    a2 = YElement(blocks, [np.array([[0.0, 0, 1], [0, 1, 0], [1, 0, 0]])])
    b = YElement(blocks, [np.diag([1.0, 0, 0])])
    return ConicProgram(blocks, [a1, a2], b, [1.0, 0.0], name="sdp3")


def gap_sdp():
    """The duality-gap SDP: sup -x_1 with slack E33 + x_1 (E12 + E21 + E33)
    + x_2 E22 pins x_1 = 0, so the primal value is 0, while the ordinary
    dual, inf y_33 with y_22 = 0 and 2 y_12 + y_33 = 1, has value 1.  E11
    is its first reducing certificate."""
    blocks = (ConeBlock("psd", 3),)
    unit = np.eye(3)

    def e(i, j):
        return np.outer(unit[i], unit[j])

    a = [YElement(blocks, [-(e(0, 1) + e(1, 0) + e(2, 2))]),
         YElement(blocks, [-e(1, 1)])]
    return ConicProgram(blocks, a, YElement(blocks, [e(2, 2)]), [-1.0, 0.0],
                        name="gap")


def scaled(p, a=1.0, b=1.0, c=1.0):
    """``p`` with every a_i multiplied by ``a``, b by ``b`` and c by ``c``."""
    return ConicProgram(p.blocks, [a * ai for ai in p.a], b * p.b, c * p.c,
                        name=p.name)


def paper_chain_long(blocks):
    """The two-step reducing chain for the LP fixture."""
    return [YElement(blocks, [np.array([0.0, 0, 0, 1, 1])]),
            YElement(blocks, [np.array([0.0, 1, 1, 0, -1])])]


def paper_chain_short(blocks):
    """The one-step reducing certificate for the LP fixture."""
    return [YElement(blocks, [np.array([0.0, 1, 1, 2, 1])])]


def sdp_chain(blocks):
    """The two-step reducing chain for the SDP fixture."""
    y1 = np.zeros((3, 3))
    y1[2, 2] = 1.0
    y2 = np.array([[0.0, 0, -1], [0, 2, 0], [-1, 0, 0]])
    return [YElement(blocks, [y1]), YElement(blocks, [y2])]


def random_element(blocks, rng):
    """A YElement with standard normal entries (symmetrized on PSD blocks)."""
    return YElement(blocks, [rng.normal(size=blk.size) if blk.kind == "orthant"
                             else sym(rng.normal(size=(blk.size, blk.size)))
                             for blk in blocks])


def face_case(case):
    """A face of an orthant, PSD or mixed product cone; each holds a block
    of rank 0 beside blocks of partial rank."""
    from facred.faces import FaceRep, OrthantFace, PsdFace

    rng = np.random.default_rng(7)

    def basis(n, r):
        return np.linalg.qr(rng.normal(size=(n, n)))[0][:, :r]

    blocks, reps = {
        "orthant": ([("orthant", 5), ("orthant", 3)],
                    [OrthantFace((0, 2, 3)), OrthantFace(())]),
        "psd": ([("psd", 4), ("psd", 3)], [PsdFace(basis(4, 2)),
                                           PsdFace(basis(3, 0))]),
        "mixed": ([("orthant", 4), ("psd", 3), ("psd", 2), ("orthant", 2)],
                  [OrthantFace((1, 3)), PsdFace(basis(3, 2)),
                   PsdFace(basis(2, 0)), OrthantFace((0, 1))]),
    }[case]
    return FaceRep([ConeBlock(kind, n) for kind, n in blocks], reps)


def random_strictly_feasible(seed, n=4, m=3):
    """Random SDP with interior points on both sides."""
    rng = np.random.default_rng(seed)
    blocks = (ConeBlock("psd", n),)
    a = [YElement(blocks, [sym(rng.normal(size=(n, n)))]) for _ in range(m)]
    xbar = rng.normal(size=m)
    root = rng.normal(size=(n, n))
    b = YElement(blocks, [sum(xbar[i] * a[i].parts[0] for i in range(m))
                          + root @ root.T + 0.1 * np.eye(n)])
    ybar = rng.normal(size=(n, n))
    ybar = ybar @ ybar.T + 0.1 * np.eye(n)
    c = np.array([a[i].inner(YElement(blocks, [ybar])) for i in range(m)])
    return ConicProgram(blocks, a, b, c, name=f"rand{seed}"), xbar


def congruence(p, seed):
    """The program with every data matrix rotated by one seeded random
    orthogonal Q (a_i -> Q a_i Q^T, b -> Q b Q^T); its value is unchanged."""
    n = p.blocks[0].size
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))

    def rotate(y):
        return YElement(p.blocks, [q @ y.parts[0] @ q.T])

    return ConicProgram(p.blocks, [rotate(ai) for ai in p.a], rotate(p.b),
                        p.c, name=p.name + " rotated")


def random_degenerate(seed, n=4, m=3, kind="psd"):
    """Random program without a strictly feasible point: the data is made
    orthogonal to a boundary certificate y1 and the right-hand side places
    every slack inside the face cut out by y1.

    Returns (program, xbar) with xbar feasible.
    """
    rng = np.random.default_rng(seed)
    if kind == "orthant":
        blocks = (ConeBlock("orthant", n),)
        dead = rng.choice(n, size=max(1, n // 2), replace=False)
        y1 = np.zeros(n)
        y1[dead] = 1.0 + rng.random(len(dead))
        cols = []
        for _ in range(m):
            col = rng.normal(size=n)
            col -= (col @ y1) / (y1 @ y1) * y1
            cols.append(col)
        xbar = rng.normal(size=m)
        zbar = np.zeros(n)
        alive = [i for i in range(n) if i not in set(dead.tolist())]
        zbar[alive] = rng.random(len(alive)) + 0.5
        b = YElement(blocks, [sum(xbar[i] * cols[i] for i in range(m)) + zbar])
        a = [YElement(blocks, [col]) for col in cols]
    else:
        blocks = (ConeBlock("psd", n),)
        r = rng.integers(1, n)  # rank of the surviving face
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
        qface, qdead = basis[:, :r], basis[:, r:]
        y1m = sym(qdead @ (np.eye(n - r) + np.diag(rng.random(n - r)))
                  @ qdead.T)
        mats = []
        for _ in range(m):
            mat = sym(rng.normal(size=(n, n)))
            mat -= np.sum(mat * y1m) / np.sum(y1m * y1m) * y1m
            mats.append(mat)
        xbar = rng.normal(size=m)
        core = rng.normal(size=(r, r))
        zbar = qface @ (core @ core.T + 0.2 * np.eye(r)) @ qface.T
        b = YElement(blocks, [sum(xbar[i] * mats[i] for i in range(m)) + zbar])
        a = [YElement(blocks, [mat]) for mat in mats]
    c = rng.normal(size=m)
    return ConicProgram(blocks, a, b, c, name=f"degen{seed}"), xbar

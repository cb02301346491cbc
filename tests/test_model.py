import numpy as np
import pytest

from facred.model import (ConeBlock, ConicProgram, StructureMismatchError,
                          YElement, adjoint_apply, primal_slack)

from conftest import sym


def test_inner_product_trace_on_psd_block():
    blocks = (ConeBlock("psd", 3),)
    d = YElement(blocks, [np.diag([1.0, 0, 0])])
    assert d.inner(d) == pytest.approx(1.0)


def test_inner_product_constraint_orthogonal_to_certificate(example_sdp):
    y1 = YElement(example_sdp.blocks, [np.diag([0.0, 0, 1])])
    assert example_sdp.a[0].inner(y1) == pytest.approx(0.0)


def test_inner_product_matches_entrywise_sum():
    rng = np.random.default_rng(7)
    blocks = (ConeBlock("psd", 3),)
    x = sym(rng.normal(size=(3, 3)))
    z = sym(rng.normal(size=(3, 3)))
    expected = sum(x[i, j] * z[i, j] for i in range(3) for j in range(3))
    got = YElement(blocks, [x]).inner(YElement(blocks, [z]))
    assert got == pytest.approx(expected, abs=1e-12)


def test_inner_product_structure_mismatch():
    a = YElement((ConeBlock("orthant", 2),), [np.ones(2)])
    b = YElement((ConeBlock("orthant", 3),), [np.ones(3)])
    with pytest.raises(StructureMismatchError):
        a.inner(b)


def test_adjoint_kills_second_certificate(example_sdp):
    y2 = YElement(example_sdp.blocks,
                  [np.array([[0.0, 0, -1], [0, 2, 0], [-1, 0, 0]])])
    np.testing.assert_allclose(adjoint_apply(example_sdp, y2), [0.0, 0.0],
                               atol=1e-14)


def test_adjoint_of_zero(example_sdp):
    zero = YElement.zeros(example_sdp.blocks)
    np.testing.assert_allclose(adjoint_apply(example_sdp, zero), [0.0, 0.0])


def test_adjoint_matches_dense_matricization():
    from facred.linalg import flatten_element

    rng = np.random.default_rng(11)
    p, _ = _random_program(rng)
    rows = np.vstack([flatten_element(ai) for ai in p.a])
    y = YElement(p.blocks, [sym(rng.normal(size=(4, 4))), rng.normal(size=3)])
    np.testing.assert_allclose(adjoint_apply(p, y), rows @ flatten_element(y),
                               atol=1e-12)


def _random_program(rng, m=3):
    blocks = (ConeBlock("psd", 4), ConeBlock("orthant", 3))
    a = [YElement(blocks, [sym(rng.normal(size=(4, 4))), rng.normal(size=3)])
         for _ in range(m)]
    b = YElement(blocks, [sym(rng.normal(size=(4, 4))), rng.normal(size=3)])
    return ConicProgram(blocks, a, b, rng.normal(size=m)), blocks


def test_adjoint_identity_random():
    rng = np.random.default_rng(3)
    p, blocks = _random_program(rng)
    for _ in range(20):
        x = rng.normal(size=p.m)
        y = YElement(blocks, [sym(rng.normal(size=(4, 4))),
                              rng.normal(size=3)])
        lhs = p.apply(x).inner(y)
        rhs = float(np.dot(x, adjoint_apply(p, y)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_primal_slack_lp_fixture(example_lp):
    slack = primal_slack(example_lp, [-1.0, 0.0, 0.0])
    np.testing.assert_allclose(slack.parts[0], [1, 0, 0, 0, 0], atol=1e-15)


def test_primal_slack_at_zero_is_rhs(example_sdp):
    slack = primal_slack(example_sdp, [0.0, 0.0])
    np.testing.assert_allclose(slack.parts[0], np.diag([1.0, 0, 0]))


def test_primal_slack_length_mismatch(example_sdp):
    with pytest.raises(ValueError):
        primal_slack(example_sdp, [1.0])


def test_primal_slack_is_affine(example_sdp):
    rng = np.random.default_rng(5)
    x1, x2 = rng.normal(size=2), rng.normal(size=2)
    for alpha in (0.0, 0.3, 1.0):
        mix = primal_slack(example_sdp, alpha * x1 + (1 - alpha) * x2)
        combo = alpha * primal_slack(example_sdp, x1) \
            + (1 - alpha) * primal_slack(example_sdp, x2)
        assert (mix - combo).norm() < 1e-12


def _gap(p, x, y):
    """Weak duality gap <b, y> - <c, x> of a primal and a dual candidate."""
    return p.b.inner(y) - float(np.dot(p.c, x))


def test_weak_duality_gap_is_dual_matrix_corner(example_sdp):
    # any feasible dual point has gap equal to its (1,1) entry
    y = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.0], [-0.5, 0.0, 10.0]])
    gap = _gap(example_sdp, [0.0, 0.0], YElement(example_sdp.blocks, [y]))
    assert gap == pytest.approx(y[0, 0])
    assert gap >= -1e-7


def test_weak_duality_gap_on_solved_lp():
    from facred.solver import SolverOptions, solve_conic_lp

    blocks = (ConeBlock("orthant", 3),)
    a = [YElement(blocks, [np.array([1.0, -1.0, 0.0])]),
         YElement(blocks, [np.array([0.0, 0.0, -1.0])])]
    b = YElement(blocks, [np.array([1.0, 0.0, 0.0])])
    p = ConicProgram(blocks, a, b, [1.0, 0.0])
    res = solve_conic_lp(p, SolverOptions())
    assert res.optimal
    # both candidates feasible to 1e-7, as the gap's bounds presume
    assert min(primal_slack(p, res.x).min_eigenvalue(),
               res.y.min_eigenvalue()) >= -1e-7
    assert np.max(np.abs(adjoint_apply(p, res.y) - p.c)) <= 2e-7
    gap = _gap(p, res.x, res.y)
    assert -1e-7 <= gap <= 1e-8 + 2e-8


def test_yelement_immutable():
    blocks = (ConeBlock("orthant", 2),)
    y = YElement(blocks, [np.ones(2)])
    with pytest.raises((ValueError, AttributeError)):
        y.parts[0][0] = 3.0


def test_psd_payload_symmetrized_and_checked():
    blocks = (ConeBlock("psd", 2),)
    near = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    y = YElement(blocks, [near])
    assert y.parts[0][0, 1] == y.parts[0][1, 0]
    with pytest.raises(ValueError):
        YElement(blocks, [np.array([[1.0, 2.0], [0.5, 3.0]])])


def test_arithmetic_results_equal_the_validated_ones():
    """Sums, differences, multiples and A x skip the constructor's
    symmetry check: each payload is bit-identical to what the validating
    constructor makes of the same arithmetic, and read-only.  The public
    constructor still rejects asymmetric input."""
    from conftest import random_element

    rng = np.random.default_rng(5)
    blocks = (ConeBlock("psd", 4), ConeBlock("orthant", 3), ConeBlock("psd", 2))
    u, v = random_element(blocks, rng), random_element(blocks, rng)
    x = rng.normal(size=2)
    prog = ConicProgram(blocks, [u, v], u, [1.0, 2.0])
    cases = [(u + v, [a + b for a, b in zip(u.parts, v.parts)]),
             (u - v, [a - b for a, b in zip(u.parts, v.parts)]),
             (-0.3 * u, [-0.3 * a for a in u.parts]),
             (prog.apply(x), [(blk.zero() + x[0] * a) + x[1] * b
                              for blk, a, b in zip(blocks, u.parts, v.parts)])]
    for got, raw in cases:
        want = YElement(blocks, raw)
        for g, w in zip(got.parts, want.parts):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert not g.flags.writeable
    with pytest.raises(ValueError, match="asymmetry"):
        YElement(blocks, [np.triu(np.ones((4, 4))), np.ones(3), np.eye(2)])


def _stack_programs():
    """Parsed programs (the golden files) and constructed ones, with and
    without variables, over PSD and orthant blocks of sizes 1 up."""
    from pathlib import Path

    from conftest import random_element
    from facred.sdpa import parse_sdpa

    golden = Path(__file__).parent / "golden"
    progs = [parse_sdpa(path.read_text())
             for path in sorted(golden.glob("*.dat-s"))]
    rng = np.random.default_rng(11)
    blocks = (ConeBlock("psd", 4), ConeBlock("orthant", 3),
              ConeBlock("psd", 1), ConeBlock("orthant", 1))
    for m in (0, 1, 9):
        progs.append(ConicProgram(
            blocks, [random_element(blocks, rng) for _ in range(m)],
            random_element(blocks, rng), rng.normal(size=m)))
    return progs, rng


def test_the_data_stacks_hold_the_elements():
    """Per block, stacks[k] holds a_1, ..., a_m, b in that order, equal to
    the elements' parts and read-only; a parsed program's elements are
    views of its stacks."""
    progs, _ = _stack_programs()
    for p in progs:
        assert len(p.stacks) == len(p.blocks)
        for k, stack in enumerate(p.stacks):
            assert stack.shape == (p.m + 1,) + p.blocks[k].zero().shape
            for row, y in zip(stack, p.a + (p.b,)):
                assert np.array_equal(row, y.parts[k])
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0][...] = 0.0
    for p in progs[:4]:
        assert all(np.shares_memory(y.parts[k], p.stacks[k])
                   for y in p.a + (p.b,) for k in range(len(p.blocks)))


def test_stacked_maps_agree_with_the_element_loops():
    """A x and A* y read off the stacks agree with sums over the elements
    to 1e-15 relative to the sizes of the summed terms."""
    from conftest import random_element

    progs, rng = _stack_programs()
    for p in progs:
        for _ in range(5):
            x = rng.normal(size=p.m) * 10.0 ** rng.integers(-3, 4)
            got = p.apply(x)
            for k, part in enumerate(got.parts):
                terms = [xi * ai.parts[k] for xi, ai in zip(x, p.a)]
                want = sum(terms, p.blocks[k].zero())
                size = sum((np.abs(t) for t in terms), p.blocks[k].zero())
                assert np.all(np.abs(part - want) <= 1e-15 * size)
            y = random_element(p.blocks, rng)
            loop = np.array([ai.inner(y) for ai in p.a])
            size = np.array([sum(float(np.sum(np.abs(a * b)))
                                 for a, b in zip(ai.parts, y.parts))
                             for ai in p.a])
            assert adjoint_apply(p, y).shape == (p.m,)
            assert np.all(np.abs(adjoint_apply(p, y) - loop) <= 1e-15 * size)
            slack = primal_slack(p, x)
            assert all(np.array_equal(s, b - a) for s, b, a
                       in zip(slack.parts, p.b.parts, got.parts))


# The element-list construction of the programs facred builds for itself,
# as it was before they were built from stacks: the reference for
# test_own_programs_match_the_element_construction.

def _eliminated_elements(coords):
    k = coords.null_basis.shape[1]
    images = coords.combine(np.hstack([coords.null_basis.T, np.zeros((k, 1))]))
    return ([[image[j] for image in images] for j in range(k)],
            coords.combine(np.append(-coords.x_particular, 1.0)))


def _on_face_reference(p, face):
    from facred.reducing import FaceCoordinates

    coords = FaceCoordinates(p, face)
    blocks = face.kept_blocks
    cols, slack0 = _eliminated_elements(coords)
    return ConicProgram(blocks, [YElement(blocks, col) for col in cols],
                        YElement(blocks, slack0), coords.null_basis.T @ p.c,
                        name=(p.name + " on-face").strip())


def _reducing_reference(p, face):
    from facred.faces import relative_interior_point
    from facred.reducing import FaceCoordinates

    cols, slack0 = _eliminated_elements(FaceCoordinates(p, face))
    blocks = face.kept_blocks + (ConeBlock("orthant", 1),)

    def lift(parts_hat, cap_val):
        return YElement(blocks, list(parts_hat) + [np.array([cap_val])])

    a_cols = [lift(col, 0.0) for col in cols]
    a_cols.append(lift(face.compress(relative_interior_point(face)), 1.0))
    c = np.append(np.zeros(len(cols)), 1.0)
    return ConicProgram(blocks, a_cols, lift(slack0, 1.0), c, name="reducing")


def _membership_reference(p, s):
    blocks = p.blocks + (ConeBlock("orthant", 2),)

    def widen(y, tail):
        return YElement(blocks, list(y.parts) + [np.asarray(tail, dtype=float)])

    a_cols = [widen(ai, [0.0, 0.0]) for ai in p.a]
    a_cols.append(widen(-1.0 * p.b, [-1.0, 0.0]))
    a_cols.append(widen(s, [0.0, 1.0]))
    c = np.zeros(p.m + 2)
    c[-1] = 1.0
    return ConicProgram(blocks, a_cols,
                        widen(YElement.zeros(p.blocks), [0.0, 1.0]), c,
                        name="membership")


def _lift_reference(p):
    blocks = tuple(ConeBlock("psd", blk.size) for blk in p.blocks)

    def lift(y):
        return YElement(blocks, [np.diag(part) if blk.kind == "orthant"
                                 else part
                                 for blk, part in zip(p.blocks, y.parts)])

    return ConicProgram(blocks, [lift(ai) for ai in p.a], lift(p.b), p.c,
                        name=(p.name + " lifted").strip())


class _Built(Exception):
    def __init__(self, program):
        super().__init__(program.name)
        self.program = program


def _built(monkeypatch, module, call):
    """The program ``call`` hands to ``module.solve_conic_lp``, stopped
    before it is solved; None when ``call`` asks for no solve."""
    def capture(program, options=None):
        raise _Built(program)

    with monkeypatch.context() as patch:
        patch.setattr(module, "solve_conic_lp", capture)
        try:
            call()
        except _Built as built:
            return built.program
    return None


def _assert_same_program(got, want):
    assert got.blocks == want.blocks and got.name == want.name
    assert len(got.stacks) == len(want.stacks)
    for g, w in zip((got.c,) + got.stacks, (want.c,) + want.stacks):
        assert g.dtype == np.float64
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))
    for stack in got.stacks:
        assert stack.flags.c_contiguous and not stack.flags.writeable


def test_own_programs_match_the_element_construction(monkeypatch):
    """The on-face program, the reducing primal, the squeeze program of a
    member point and the PSD lift, built from stacks, equal the
    element-list construction bit for bit, signs of zeros included, on
    every face of the chains of the golden files and of degenerate
    programs, at the slack of each chain's x_strict."""
    from pathlib import Path

    from conftest import random_degenerate
    from facred import extended, reducing
    from facred.extended import fmin_membership, lift_to_psd
    from facred.reduction import run_facial_reduction
    from facred.sdpa import parse_sdpa

    golden = Path(__file__).parent / "golden"
    progs = [parse_sdpa(path.read_text())
             for path in sorted(golden.glob("*.dat-s"))]
    progs += [random_degenerate(seed, n=n, m=2 * n // 3, kind=kind)[0]
              for seed in range(3) for n in (4, 6)
              for kind in ("psd", "orthant")]
    built = {"on-face": 0, "reducing": 0, "membership": 0, "lifted": 0}
    for p in progs:
        cert = run_facial_reduction(p)
        for face in cert.faces:
            for name, call, reference in (
                    ("on-face", reducing.solve_restricted_to_face,
                     _on_face_reference),
                    ("reducing", reducing.solve_reducing_pair,
                     _reducing_reference)):
                got = _built(monkeypatch, reducing, lambda: call(p, face))
                if got is not None:
                    _assert_same_program(got, reference(p, face))
                    built[name] += 1
        s = primal_slack(p, cert.x_strict)
        _assert_same_program(
            _built(monkeypatch, extended, lambda: fmin_membership(p, s)),
            _membership_reference(p, s))
        built["membership"] += 1
        if any(blk.kind == "orthant" for blk in p.blocks):
            _assert_same_program(lift_to_psd(p), _lift_reference(p))
            built["lifted"] += 1
    assert min(built.values()) >= 5, built

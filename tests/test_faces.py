import numpy as np
import pytest

from facred.faces import (FaceRep, face_contains, face_dual_membership,
                          faces_equal, in_tangent_space,
                          intersect_with_hyperplane, longest_chain_length,
                          minimal_face, relative_interior_point,
                          subspace_distance, tangent_membership_schur)
from facred.model import ConeBlock, YElement

from conftest import face_case, is_full, random_element, sym

ORTH5 = (ConeBlock("orthant", 5),)
PSD3 = (ConeBlock("psd", 3),)


def test_minimal_face_orthant_support():
    x = YElement(ORTH5, [np.array([1.0, 0, 0, 0, 0])])
    face = minimal_face(x, ORTH5)
    assert face.reps[0].support == (0,)


def test_minimal_face_psd_rank_one():
    x = YElement(PSD3, [np.diag([1.0, 0, 0])])
    face = minimal_face(x, PSD3)
    q = face.reps[0].basis
    assert q.shape == (3, 1)
    assert subspace_distance(q, np.eye(3)[:, :1]) <= 1e-8


def test_minimal_face_interior_gives_full_cone():
    x = YElement(PSD3, [np.eye(3) + 0.1 * np.ones((3, 3))])
    assert is_full(minimal_face(x, PSD3))


def test_minimal_face_rejects_outside_point():
    with pytest.raises(ValueError):
        minimal_face(YElement(PSD3, [-np.eye(3)]), PSD3)


def test_face_dual_membership_fixture():
    face1 = minimal_face(YElement(PSD3, [np.diag([1.0, 1, 0])]), PSD3)
    y2 = YElement(PSD3, [np.array([[0.0, 0, -1], [0, 2, 0], [-1, 0, 0]])])
    assert face_dual_membership(face1, y2)
    # compressed part is diag(0, 2), psd


def test_face_dual_membership_rejects_negative():
    assert not face_dual_membership(FaceRep.full_cone(PSD3),
                                    YElement(PSD3, [-np.eye(3)]))


def test_face_dual_membership_constructive_split():
    rng = np.random.default_rng(8)
    face = minimal_face(YElement(PSD3, [np.diag([1.0, 1, 0])]), PSD3)
    for _ in range(10):
        u = sym(rng.normal(size=(3, 3)))
        u = u @ u.T                                  # in the cone
        w = rng.normal(size=(3, 3))
        w[:2, :2] = 0.0                              # in the face complement
        y = YElement(PSD3, [u + sym(w)])
        assert face_dual_membership(face, y, tol=1e-7)


def test_intersect_orthant_drops_positive_support(example_lp):
    face0 = FaceRep.full_cone(ORTH5)
    y1 = YElement(ORTH5, [np.array([0.0, 0, 0, 1, 1])])
    face1 = intersect_with_hyperplane(face0, y1)
    assert face1.reps[0].support == (0, 1, 2)


def test_intersect_psd_keeps_kernel():
    face1 = minimal_face(YElement(PSD3, [np.diag([1.0, 1, 0])]), PSD3)
    y2 = YElement(PSD3, [np.array([[0.0, 0, -1], [0, 2, 0], [-1, 0, 0]])])
    face2 = intersect_with_hyperplane(face1, y2)
    assert face2.reps[0].rank == 1
    assert subspace_distance(face2.reps[0].basis, np.eye(3)[:, :1]) <= 1e-9


def test_intersect_with_zero_keeps_face():
    face = minimal_face(YElement(PSD3, [np.diag([1.0, 1, 0])]), PSD3)
    same = intersect_with_hyperplane(face, YElement.zeros(PSD3))
    assert faces_equal(face, same)


def test_intersect_requires_dual_membership():
    with pytest.raises(ValueError):
        intersect_with_hyperplane(FaceRep.full_cone(PSD3),
                                  YElement(PSD3, [-np.eye(3)]))


def test_intersection_result_contained_in_face():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = sym(rng.normal(size=(4, 4)))
        x = x @ x.T
        face = minimal_face(YElement((ConeBlock("psd", 4),), [x]),
                            (ConeBlock("psd", 4),))
        u = sym(rng.normal(size=(4, 4)))
        y = YElement((ConeBlock("psd", 4),), [u @ u.T])
        if not face_dual_membership(face, y):
            continue
        cut = intersect_with_hyperplane(face, y)
        point = relative_interior_point(cut)
        assert face_contains(face, point, 1e-9)


def _tangent_units(u):
    """The symmetric unit elements, in the eigenbasis of u, that both
    tangent-space routines accept at u."""
    n = u.shape[0]
    q = np.linalg.eigh(u)[1][:, ::-1]
    accepted = []
    for k in range(n):
        for l in range(k, n):
            unit = np.zeros((n, n))
            unit[k, l] = unit[l, k] = 1.0
            v = q @ unit @ q.T
            ok = in_tangent_space(u, v)
            assert ok == tangent_membership_schur(u, v)[0]
            if ok:
                accepted.append(unit)
    return accepted


def test_tangent_basis_dimension_formula():
    for n in range(1, 7):
        for r in range(0, n + 1):
            u = np.diag([1.0] * r + [0.0] * (n - r))
            dim = len(_tangent_units(u))
            expected = n * (n + 1) // 2 - (n - r) * (n - r + 1) // 2
            assert dim == expected


def test_tangent_basis_at_zero_is_trivial():
    assert _tangent_units(np.zeros((3, 3))) == []


def test_tangent_basis_pattern_for_running_sum():
    units = _tangent_units(np.diag([0.0, 2.0, 1.0]))
    assert len(units) == 5
    # Eigenbasis ordered by descending eigenvalue: the kernel e_1 comes last.
    for unit in units:
        assert unit[2, 2] == 0.0


def test_tangent_membership_schur_fixture():
    v2 = np.zeros((3, 3))
    v2[0, 2] = v2[2, 0] = -1.0
    ok, witness = tangent_membership_schur(np.diag([0.0, 2.0, 1.0]), v2)
    assert ok
    w, beta = witness
    n = 3
    bordered = np.block([[np.diag([0.0, 2.0, 1.0]), w], [w.T, beta * np.eye(n)]])
    assert np.linalg.eigvalsh(bordered)[0] >= -1e-10
    np.testing.assert_allclose(w + w.T, v2, atol=1e-12)


def test_tangent_membership_schur_zero_base():
    ok, _ = tangent_membership_schur(np.zeros((3, 3)), np.eye(3))
    assert not ok
    ok, witness = tangent_membership_schur(np.zeros((3, 3)), np.zeros((3, 3)))
    assert ok


def test_schur_and_pattern_routes_agree_sample():
    rng = np.random.default_rng(21)
    agree = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(0, n + 1))
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        x = q[:, :r] @ np.diag(rng.random(r) + 0.5) @ q[:, :r].T
        if rng.random() < 0.5:
            v = sym(rng.normal(size=(n, n)))
        else:
            raw = sym(rng.normal(size=(n, n)))
            full = q.T @ raw @ q
            full[r:, r:] = 0.0
            v = q @ full @ q.T
        ok_schur, _ = tangent_membership_schur(x, v, tol=1e-8)
        ok_pattern = in_tangent_space(x, v, tol=1e-8)
        agree += int(ok_schur == ok_pattern)
    assert agree == 50


def test_relative_interior_points():
    assert np.allclose(relative_interior_point(FaceRep.full_cone(PSD3)).parts[0],
                       np.eye(3))
    face_lp = minimal_face(YElement(ORTH5, [np.array([2.0, 1, 3, 0, 0])]), ORTH5)
    np.testing.assert_allclose(relative_interior_point(face_lp).parts[0],
                               [1, 1, 1, 0, 0])
    face1 = minimal_face(YElement(PSD3, [np.diag([1.0, 1, 0])]), PSD3)
    np.testing.assert_allclose(relative_interior_point(face1).parts[0],
                               np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def _random_payloads(face, rng):
    return [rng.normal(size=blk.size) if blk.kind == "orthant"
            else sym(rng.normal(size=(blk.size, blk.size)))
            for blk in face.kept_blocks]


@pytest.mark.parametrize("case", ["orthant", "psd", "mixed"])
def test_compress_inverts_embed_on_the_span(case):
    face = face_case(case)
    assert [blk.size for blk in face.kept_blocks] == \
        [r for r in face.ranks if r]
    payloads = _random_payloads(face, np.random.default_rng(1))
    y = face.embed(payloads)
    for blk, rep, part in zip(face.blocks, face.reps, y.parts):
        if not rep.rank:
            assert not np.any(part), blk
    compressed = face.compress(y)
    assert len(compressed) == len(face.kept_blocks)
    for got, want in zip(compressed, payloads):
        np.testing.assert_allclose(got, want, atol=1e-12)
    assert (face.embed(compressed) - y).norm() <= 1e-12


@pytest.mark.parametrize("case", ["orthant", "psd", "mixed"])
def test_compress_is_the_adjoint_of_embed(case):
    face = face_case(case)
    rng = np.random.default_rng(2)
    for _ in range(3):
        y = random_element(face.blocks, rng)
        payloads = _random_payloads(face, rng)
        lhs = sum(float(np.sum(a * b))
                  for a, b in zip(face.compress(y), payloads))
        assert lhs == pytest.approx(y.inner(face.embed(payloads)),
                                    rel=1e-12, abs=1e-12)


def test_margin_is_the_smallest_compressed_coordinate():
    """FaceRep.margin: (smallest compressed eigenvalue or entry, largest
    |compressed entry|) over the kept blocks; (+inf, 0.0) on the zero face."""
    from facred.faces import OrthantFace, PsdFace

    rank_one = FaceRep(PSD3, [PsdFace(np.eye(3)[:, :1])])
    y_psd = YElement(PSD3, [np.diag([-0.5, -9.0, 7.0])])
    assert rank_one.margin(y_psd) == (-0.5, 0.5)
    support = FaceRep(ORTH5, [OrthantFace((1, 3))])
    y_orth = YElement(ORTH5, [np.array([9.0, -2.0, 9.0, 0.5, -9.0])])
    assert support.margin(y_orth) == (-2.0, 2.0)
    both = FaceRep(PSD3 + ORTH5, rank_one.reps + support.reps)
    assert both.margin(YElement(PSD3 + ORTH5, y_psd.parts + y_orth.parts)) \
        == (-2.0, 2.0)
    zero = FaceRep(PSD3, [PsdFace(np.zeros((3, 0)))])
    assert zero.margin(y_psd) == (np.inf, 0.0)
    assert not face_dual_membership(rank_one, y_psd, tol=0.4)
    assert face_dual_membership(rank_one, y_psd, tol=0.5)
    assert face_dual_membership(zero, y_psd)


def test_longest_chain_length():
    assert longest_chain_length(ORTH5) == 6
    assert longest_chain_length(PSD3) == 4
    assert longest_chain_length((ConeBlock("orthant", 5),
                                 ConeBlock("psd", 3))) == 9

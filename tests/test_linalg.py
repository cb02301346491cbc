import warnings

import numpy as np
import pytest

from facred import linalg
from facred.linalg import (_fix_signs, flatten_element, numeric_rank,
                           nullspace_basis, sym_eig, unflatten_element)
from facred.model import ConeBlock, YElement

from conftest import paper_chain_long, reconstruct, sym


def test_sym_eig_diagonal():
    dec = sym_eig(np.diag([3.0, 1.0, 0.0]))
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0, 0.0], atol=1e-12)
    for k, axis in enumerate(np.eye(3)):
        assert abs(abs(dec.eigenvectors[:, k] @ axis) - 1.0) < 1e-12


def test_sym_eig_certificate_matrix():
    # eigenvalues of [[0,0,-1],[0,2,0],[-1,0,0]] are 2, 1, -1
    y2 = np.array([[0.0, 0, -1], [0, 2, 0], [-1, 0, 0]])
    dec = sym_eig(y2)
    np.testing.assert_allclose(dec.eigenvalues, [2.0, 1.0, -1.0], atol=1e-12)
    assert np.linalg.norm(reconstruct(dec) - y2) <= 1e-9 * (1 + np.linalg.norm(y2))


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = sym(rng.normal(size=(5, 5)))
        dec = sym_eig(x)
        assert np.linalg.norm(reconstruct(dec) - x) <= 1e-9 * (1 + np.linalg.norm(x))
        q = dec.eigenvectors
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_sym_eig_sign_convention_deterministic():
    rng = np.random.default_rng(1)
    x = sym(rng.normal(size=(4, 4)))
    q1 = sym_eig(x).eigenvectors
    q2 = sym_eig(x.copy()).eigenvectors
    np.testing.assert_array_equal(q1, q2)
    for k in range(4):
        col = q1[:, k]
        first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
        assert first > 0


def _fix_signs_loop(q):
    """The sign fix one column at a time, as first written."""
    q = q.copy()
    for k in range(q.shape[1]):
        col = q[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.max(np.abs(col))))[0]
        if nz.size and col[nz[0]] < 0:
            q[:, k] = -col
    return q


def _sign_fix_cases():
    rng = np.random.default_rng(7)
    cases = [np.zeros((0, 0)), np.zeros((3, 3)), -np.eye(4)]
    for n in range(1, 9):
        x = sym(rng.normal(size=(n, n)))
        low = rng.normal(size=(n, max(n // 2, 1)))
        ties = np.diag(np.repeat([2.0, -1.0], n)[:n])
        turn = np.linalg.qr(rng.normal(size=(n, n)))[0]
        for mat in (x, low @ low.T, turn @ ties @ turn.T, np.eye(n)):
            cases.append(np.linalg.eigh(mat)[1])
    # Leading entries at the cutoff 1e-12 max(1, max |col|): below, at and
    # just above it, of both signs, on columns below and above norm 1, and
    # a zero column beside them.
    for top in (0.5, 1.0, 3.0, 1e6):
        cut = 1e-12 * max(1.0, top)
        for lead in (cut / 2, cut, np.nextafter(cut, np.inf)):
            col = np.array([0.0, -lead, top])
            cases.append(np.column_stack([col, -col, np.zeros(3), col[::-1]]))
    return cases


def test_the_sign_fix_matches_the_column_loop():
    """The one-pass sign fix returns the column loop's matrix bit for bit
    (signed zeros included) on eigenvector matrices of random,
    rank-deficient and tied-eigenvalue matrices, on entries at the cutoff,
    on zero columns and on a 0 x 0 input."""
    for q in _sign_fix_cases():
        got, want = _fix_signs(q), _fix_signs_loop(q)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got is not q


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_numeric_rank_basic():
    assert numeric_rank(np.array([3.0, 1.0, 0.0]), 1e-6) == 2
    assert numeric_rank(np.array([1.0, 1e-9, 0.0]), 1e-6) == 1
    assert numeric_rank(np.zeros(4), 1e-6) == 0


def test_numeric_rank_requires_descending():
    with pytest.raises(ValueError):
        numeric_rank(np.array([0.0, 1.0]), 1e-6)


def test_unsvec_undoes_svec():
    """unsvec(svec(X)) is X bit for bit on orthant payloads and on the
    diagonal; off it, undoing the sqrt 2 scaling in floating point is exact
    only to one unit in the last place.  A batch of PSD payloads unpacks bit
    for bit as its payloads do one at a time."""
    rng = np.random.default_rng(4)
    gens = rng.normal(size=(3, 5, 5))
    batch = gens @ np.swapaxes(gens, -1, -2)
    psd, orthant = ConeBlock("psd", 5), ConeBlock("orthant", 4)
    back = psd.unsvec(psd.svec(batch))
    assert back.shape == batch.shape
    for got, x in zip(back, batch):
        single = psd.unsvec(psd.svec(x))
        assert np.array_equal(got, single) and np.array_equal(single, single.T)
        assert np.array_equal(np.diag(single), np.diag(x))
        assert np.all(np.abs(single - x) <= np.spacing(np.abs(x)))
    vec = rng.normal(size=4)
    assert np.array_equal(orthant.unsvec(orthant.svec(vec)), vec)


def _stacked(elements):
    return np.vstack([flatten_element(y) for y in elements])


def test_nullspace_of_lp_fixture(example_lp):
    null, _ = nullspace_basis(_stacked(list(example_lp.a) + [example_lp.b]))
    assert null.shape[1] == 2
    for y in paper_chain_long(example_lp.blocks):
        vec = flatten_element(y)
        resid = vec - null @ (null.T @ vec)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(vec)


def test_nullspace_empty_when_rows_span():
    blocks = (ConeBlock("orthant", 2),)
    rows = [YElement(blocks, [np.array([1.0, 0.0])]),
            YElement(blocks, [np.array([0.0, 1.0])])]
    null, _ = nullspace_basis(_stacked(rows))
    assert null.shape == (2, 0)


def test_nullspace_orthogonality_random():
    rng = np.random.default_rng(4)
    blocks = (ConeBlock("psd", 3), ConeBlock("orthant", 2))
    rows = [YElement(blocks, [sym(rng.normal(size=(3, 3))),
                              rng.normal(size=2)]) for _ in range(3)]
    null, _ = nullspace_basis(_stacked(rows))
    assert null.shape[1] == 8 - 3
    assert np.linalg.norm(null.T @ null - np.eye(null.shape[1])) <= 1e-10
    for row in rows:
        for v in null.T:
            assert abs(row.inner(unflatten_element(v, blocks))) \
                <= 1e-9 * (1 + row.norm())


def test_flatten_is_isometric():
    rng = np.random.default_rng(9)
    blocks = (ConeBlock("psd", 4), ConeBlock("orthant", 3))
    y = YElement(blocks, [sym(rng.normal(size=(4, 4))), rng.normal(size=3)])
    z = YElement(blocks, [sym(rng.normal(size=(4, 4))), rng.normal(size=3)])
    assert y.inner(z) == pytest.approx(
        float(flatten_element(y) @ flatten_element(z)), abs=1e-12)
    back = unflatten_element(flatten_element(y), blocks)
    assert (back - y).norm() <= 1e-12


def _lapack_inputs():
    """Random symmetric, SPD, upper triangular and tall inputs of orders 1
    to 16, each also as a transposed (non-contiguous) view and as a
    Fortran-ordered copy."""
    rng = np.random.default_rng(11)
    for n in range(1, 17):
        g = rng.normal(size=(n, n))
        tall = rng.normal(size=(n + 3, n))
        for mat in (sym(g), g @ g.T + np.eye(n), np.triu(g) + n * np.eye(n),
                    tall):
            yield mat
            yield mat.T
            yield np.asfortranarray(mat)


def test_lapack_entry_points_match_numpy_bit_for_bit():
    """Each LAPACK entry point returns numpy.linalg's answer bit for bit,
    on C-ordered inputs and on transposed views as the Schur solver passes
    them."""
    rng = np.random.default_rng(12)
    for mat in _lapack_inputs():
        rows, cols = mat.shape
        got, want = linalg.qr_r(mat), np.linalg.qr(mat, mode="r")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if rows != cols:
            continue
        pairs = [(linalg.inv(mat), np.linalg.inv(mat)),
                 (linalg.eigvalsh(mat), np.linalg.eigvalsh(mat)),
                 *zip(linalg.eigh(mat), np.linalg.eigh(mat))]
        rhs = rng.normal(size=(3, rows)).T
        pairs.append((linalg.solve(mat, rhs), np.linalg.solve(mat, rhs)))
        if np.all(np.linalg.eigvalsh(sym(mat)) > 0) and np.array_equal(
                mat, mat.T):
            pairs.append((linalg.cholesky(mat), np.linalg.cholesky(mat)))
        for got, want in pairs:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name, args", [
    ("cholesky", (np.array([[1.0, 2.0], [2.0, 1.0]]),)),
    ("cholesky", (-np.eye(3),)),
    ("eigvalsh", (np.full((3, 3), np.nan),)),
    ("eigh", (np.full((3, 3), np.nan),)),
    ("inv", (np.zeros((3, 3)),)),
    ("inv", (np.array([[1.0, 2.0], [2.0, 4.0]]),)),
    ("solve", (np.zeros((3, 3)), np.ones((3, 2))))])
def test_lapack_failures_raise_numpys_error_without_a_warning(name, args):
    """A failed factorization raises LinAlgError with numpy.linalg's own
    message and lets no floating-point warning out (the warnings filter
    turns any warning into an error)."""
    with pytest.raises(np.linalg.LinAlgError) as want:
        getattr(np.linalg, name)(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError) as got:
            getattr(linalg, name)(*args)
    assert str(got.value) == str(want.value)

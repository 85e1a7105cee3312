import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurpow import linalg
from schurpow.fields import GF


def test_rref_identity():
    F = GF(2)
    m = np.eye(3, dtype=np.int64)
    r, piv = linalg.rref(F, m)
    assert np.array_equal(r, m)
    assert piv == (0, 1, 2)


def test_rref_zero():
    F = GF(3)
    m = np.zeros((2, 4), dtype=np.int64)
    r, piv = linalg.rref(F, m)
    assert np.array_equal(r, m)
    assert piv == ()


def test_rref_dependent_rows():
    F = GF(2)
    r, piv = linalg.rref(F, [[1, 1], [1, 1]])
    assert np.array_equal(r, [[1, 1], [0, 0]])
    assert piv == (0,)


def test_rref_scaling():
    F = GF(5)
    r, piv = linalg.rref(F, [[2, 4], [0, 3]])
    assert np.array_equal(r, [[1, 0], [0, 1]])


def test_kernel_identity():
    F = GF(2)
    k = linalg.kernel(F, np.eye(3, dtype=np.int64))
    assert k.shape == (0, 3)


def test_kernel_parity():
    F = GF(2)
    k = linalg.kernel(F, [[1, 1, 1]])
    # oracle: the even-weight vectors of length 3
    span = set()
    for coefs in itertools.product([0, 1], repeat=k.shape[0]):
        v = np.zeros(3, dtype=np.int64)
        for c, row in zip(coefs, k):
            if c:
                v = F.add(v, row)
        span.add(tuple(v))
    evens = {v for v in itertools.product([0, 1], repeat=3) if sum(v) % 2 == 0}
    assert span == evens


def test_kernel_zero_map():
    F = GF(3)
    k = linalg.kernel(F, np.zeros((1, 4), dtype=np.int64))
    assert k.shape == (4, 4)
    assert linalg.rank(F, k) == 4


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_nullity(q):
    F = GF(2, 2) if q == 4 else GF(q)
    rng = np.random.default_rng(41 + q)
    for _ in range(25):
        rows = rng.integers(1, 13)
        cols = rng.integers(1, 13)
        m = rng.integers(0, F.q, (rows, cols))
        k = linalg.kernel(F, m)
        assert linalg.rank(F, m) + k.shape[0] == cols
        if k.shape[0]:
            prod = linalg.matmul(F, linalg.as_matrix(m), k.T)
            assert not prod.any()


def _all_rowspaces(F, dim, n):
    """Enumerate every subspace of F^n spanned by dim generators, as frozensets."""
    seen = {}
    vecs = list(itertools.product(range(F.q), repeat=n))
    for gens in itertools.product(vecs, repeat=dim):
        words = set()
        for coefs in itertools.product(range(F.q), repeat=dim):
            v = np.zeros(n, dtype=np.int64)
            for c, g in zip(coefs, gens):
                if c:
                    v = F.add(v, F.mul(c, np.array(g, dtype=np.int64)))
            words.add(tuple(int(x) for x in v))
        key = frozenset(words)
        canon = linalg.rref_basis(F, np.array(gens, dtype=np.int64))
        seen.setdefault(key, set()).add(canon.tobytes())
    return seen


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
def test_rref_canonical_vs_enumeration(q, n):
    F = GF(q)
    for key, canon_forms in _all_rowspaces(F, 2, n).items():
        assert len(canon_forms) == 1  # same row space -> same rref


def test_rref_idempotent():
    F = GF(3, 2)
    rng = np.random.default_rng(3)
    m = rng.integers(0, 9, (4, 6))
    r1, p1 = linalg.rref(F, m)
    r2, p2 = linalg.rref(F, r1)
    assert np.array_equal(r1, r2) and p1 == p2


def test_solve_zero_rhs():
    F = GF(2)
    x = linalg.solve_left(F, [[1, 0, 1], [0, 1, 1]], [0, 0, 0])
    assert x is not None and not x.any()


def test_solve_row_selector():
    F = GF(5)
    m = np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64)
    x = linalg.solve_left(F, m, m[1])
    assert x is not None
    assert np.array_equal(linalg.matmul(F, x.reshape(1, -1), m)[0], m[1])


def test_solve_outside_rowspace():
    F = GF(2)
    m = np.array([[1, 1, 0]], dtype=np.int64)
    # e_2 reduces to itself against the single pivot at column 0
    assert linalg.solve_left(F, m, [0, 0, 1]) is None
    assert linalg.solve_left(F, m, [0, 1, 0]) is None


def test_rowspace_ops_examples():
    F = GF(2)
    a = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    b = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    inter = linalg.rowspace_intersect(F, a, b)
    assert np.array_equal(inter, [[0, 1, 0]])
    s = linalg.rowspace_sum(F, a, b)
    assert linalg.rank(F, s) == 3
    assert np.array_equal(linalg.rowspace_intersect(F, a, a), linalg.rref_basis(F, a))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dim_formula_random(q):
    F = GF(2, 2) if q == 4 else GF(q)
    rng = np.random.default_rng(17 * q)
    for _ in range(30):
        n = rng.integers(2, 9)
        a = rng.integers(0, F.q, (rng.integers(1, 5), n))
        b = rng.integers(0, F.q, (rng.integers(1, 5), n))
        da, db = linalg.rank(F, a), linalg.rank(F, b)
        ds = linalg.rank(F, linalg.rowspace_sum(F, a, b))
        di = linalg.rowspace_intersect(F, a, b).shape[0]
        assert da + db == ds + di


# ---------------------------------------------------------------------------
# Property tests: derandomized, so every run draws the same examples.
# ---------------------------------------------------------------------------

PROPERTY_FIELDS = [GF(2), GF(3), GF(3, 2), GF(2, 4), GF(3, 3), GF(7, 2)]
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def _matrix(draw, F, rows, cols):
    """A rows x cols matrix, with some columns zeroed and optionally low rank."""
    m = np.array(
        draw(st.lists(st.integers(0, F.q - 1), min_size=rows * cols, max_size=rows * cols)),
        dtype=np.int64,
    ).reshape(rows, cols)
    if rows and cols and draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        m = linalg.matmul(F, m[:, :inner], m[:inner, :])
    m[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols, unique=True))] = 0
    return m


@st.composite
def field_and_matrix(draw):
    """Wide, square and tall shapes (up to 16 rows over 8 columns)."""
    F = draw(st.sampled_from(PROPERTY_FIELDS))
    rows, cols = draw(st.integers(0, 16)), draw(st.integers(1, 8))
    return F, draw(_matrix(F, rows, cols))


@st.composite
def field_and_two_spaces(draw):
    """Two row spaces of F^n built around a shared part, so they can meet."""
    F = draw(st.sampled_from(PROPERTY_FIELDS))
    n = draw(st.integers(1, 7))
    shared = draw(_matrix(F, draw(st.integers(0, 3)), n))
    a = np.concatenate([shared, draw(_matrix(F, draw(st.integers(0, 4)), n))])
    b = np.concatenate([shared, draw(_matrix(F, draw(st.integers(0, 4)), n))])
    return F, a, b


@PROPERTY_SETTINGS
@given(field_and_matrix())
def test_property_rank_nullity_and_kernel(fm):
    F, m = fm
    k = linalg.kernel(F, m)
    assert linalg.rank(F, m) + linalg.rank(F, k) == m.shape[1]
    assert not linalg.matmul(F, m, k.T).any()


@PROPERTY_SETTINGS
@given(field_and_matrix())
def test_property_rref_shape(fm):
    F, m = fm
    r, piv = linalg.rref(F, m)
    assert r.shape == m.shape and r.dtype == np.int64
    assert all(a < b for a, b in zip(piv, piv[1:]))
    for i, c in enumerate(piv):
        assert r[i, c] == 1
        assert np.count_nonzero(r[:, c]) == 1
    assert not r[len(piv):].any()
    # same row space: every input row reduces to zero against the result
    assert not linalg.reduce_rows(F, r, piv, m).any()
    assert linalg.rref(F, r)[1] == piv
    assert np.array_equal(linalg.rref(F, r)[0], r)


@PROPERTY_SETTINGS
@given(field_and_two_spaces())
def test_property_sum_intersection_dimensions(fab):
    F, a, b = fab
    ds = linalg.rank(F, linalg.rowspace_sum(F, a, b))
    di = linalg.rowspace_intersect(F, a, b).shape[0]
    assert ds + di == linalg.rank(F, a) + linalg.rank(F, b)

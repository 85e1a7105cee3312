import numpy as np
import pytest

from schurpow.errors import NotABasisError, SpecMismatchError
from schurpow.fields import (
    GF,
    FieldElem,
    SubfieldEmbedding,
    dual_basis,
    from_header,
    is_irreducible,
    normal_basis,
    trace,
)


def test_gf2_add():
    F = GF(2)
    assert F.add(1, 1) == 0


def test_gf4_alpha_squared():
    # GF(4) = GF(2)[a]/(a^2+a+1): a*a = a+1, packed 2*2 -> 3
    F = GF(2, 2)
    assert F.modulus == (1, 1, 1)
    assert F.mul(2, 2) == 3


def test_gf5_inverse():
    F = GF(5)
    assert F.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_spec_mismatch():
    a = GF(2, 2).elem(1)
    b = GF(2, 3).elem(1)
    with pytest.raises(SpecMismatchError):
        a + b


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4), (2, 8), (3, 4), (5, 2), (7, 2), (251, 1)])
def test_mult_group_order(p, e):
    F = GF(p, e)
    xs = np.arange(1, F.q, dtype=np.int64)
    assert np.all(F.pow(xs, F.q - 1) == 1)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_field_axioms_exhaustive(p, e):
    F = GF(p, e)
    xs = np.arange(F.q)
    grid_a, grid_b = np.meshgrid(xs, xs)
    # commutativity and distributivity on the full multiplication table
    assert np.array_equal(F.mul(grid_a, grid_b), F.mul(grid_b, grid_a))
    c = 3 % F.q
    lhs = F.mul(c, F.add(grid_a, grid_b))
    rhs = F.add(F.mul(c, grid_a), F.mul(c, grid_b))
    assert np.array_equal(lhs, rhs)
    # inverses
    nz = np.arange(1, F.q)
    assert np.all(F.mul(nz, F.inv(nz)) == 1)


def test_frobenius_gf4():
    F = GF(2, 2)
    # a^2 = a+1 from the modulus
    assert F.frobenius(2, 1) == 3
    xs = np.arange(F.q)
    assert np.array_equal(F.frobenius(xs, 2), xs)  # r-fold is identity


def test_frobenius_additive_and_linear():
    F = GF(3, 3)
    rng = np.random.default_rng(7)
    a = rng.integers(0, F.q, 50)
    b = rng.integers(0, F.q, 50)
    assert np.array_equal(F.frobenius(F.add(a, b), 1), F.add(F.frobenius(a, 1), F.frobenius(b, 1)))
    for lam in range(F.p):
        assert np.array_equal(
            F.frobenius(F.mul(lam, a), 1), F.mul(lam, F.frobenius(a, 1))
        )
    out = a
    for _ in range(F.e):
        out = F.frobenius(out, 1)
    assert np.array_equal(out, a)


def test_trace_gf4_over_gf2():
    emb = SubfieldEmbedding(GF(2), GF(2, 2))
    F4 = GF(2, 2)
    assert trace(F4.elem(2), emb).value == 1  # tr(a) = a + a^2 = 1
    assert trace(F4.elem(0), emb).value == 0
    assert trace(F4.elem(1), emb).value == 0  # 1 + 1 = 0


@pytest.mark.parametrize(
    "small,big",
    [((2, 1), (2, 2)), ((2, 1), (2, 3)), ((2, 2), (2, 4)), ((3, 1), (3, 2)), ((2, 2), (2, 6))],
)
def test_trace_linear_surjective(small, big):
    S, B = GF(*small), GF(*big)
    emb = SubfieldEmbedding(S, B)
    traces = {emb.trace_value(y) for y in B.elements()}
    assert traces == set(S.elements())  # surjective
    for y1 in B.elements():
        for y2 in B.elements():
            lhs = emb.trace_value(B.add(y1, y2))
            rhs = S.add(emb.trace_value(y1), emb.trace_value(y2))
            assert lhs == rhs
    # GF(q)-linearity over the embedded scalars
    for lam in S.elements():
        lam_big = emb.embed(lam)
        for y in B.elements():
            assert emb.trace_value(B.mul(lam_big, y)) == S.mul(lam, emb.trace_value(y))


@pytest.mark.parametrize(
    "small,big", [((2, 1), (2, 2)), ((2, 1), (2, 3)), ((2, 2), (2, 4)), ((3, 1), (3, 2))]
)
def test_embedding_is_ring_hom(small, big):
    S, B = GF(*small), GF(*big)
    emb = SubfieldEmbedding(S, B)
    for x in S.elements():
        assert emb.restrict(emb.embed(x)) == x
        for y in S.elements():
            assert emb.embed(S.add(x, y)) == B.add(emb.embed(x), emb.embed(y))
            assert emb.embed(S.mul(x, y)) == B.mul(emb.embed(x), emb.embed(y))


def test_dual_basis_trivial():
    emb = SubfieldEmbedding(GF(5), GF(5))
    db = dual_basis([GF(5).elem(1)], emb)
    assert [b.value for b in db] == [1]


def test_dual_basis_gf4():
    F4 = GF(2, 2)
    emb = SubfieldEmbedding(GF(2), F4)
    basis = [F4.elem(1), F4.elem(2)]
    db = dual_basis(basis, emb)
    # oracle: exhaustive search for the dual pair
    found = []
    for u in F4.elements():
        for v in F4.elements():
            if (
                emb.trace_value(F4.mul(u, basis[0].value)) == 1
                and emb.trace_value(F4.mul(u, basis[1].value)) == 0
                and emb.trace_value(F4.mul(v, basis[0].value)) == 0
                and emb.trace_value(F4.mul(v, basis[1].value)) == 1
            ):
                found.append((u, v))
    assert found == [(db[0].value, db[1].value)]


def test_dual_basis_of_normal_basis():
    emb = SubfieldEmbedding(GF(2), GF(2, 3))
    g = normal_basis(emb)
    F8 = GF(2, 3)
    basis = [g, g**2, g**4]
    db = dual_basis(basis, emb)
    for i, bi in enumerate(db):
        for j, bj in enumerate(basis):
            assert emb.trace_value(F8.mul(bi.value, bj.value)) == (1 if i == j else 0)


def test_dual_basis_rejects_dependent():
    F4 = GF(2, 2)
    emb = SubfieldEmbedding(GF(2), F4)
    with pytest.raises(NotABasisError):
        dual_basis([F4.elem(1), F4.elem(1)], emb)


def test_normal_basis_gf4():
    emb = SubfieldEmbedding(GF(2), GF(2, 2))
    g = normal_basis(emb)
    assert g.value == 2  # {a, a+1} is independent, and a is the first hit


def test_normal_basis_prime():
    emb = SubfieldEmbedding(GF(7), GF(7))
    assert normal_basis(emb).value == 1


def test_normal_basis_gf8():
    emb = SubfieldEmbedding(GF(2), GF(2, 3))
    g = normal_basis(emb).value
    F8 = GF(2, 3)
    orbit = {g, F8.pow(g, 2), F8.pow(g, 4)}
    assert len(orbit) == 3


def test_header_roundtrip():
    F = GF(2, 2)
    assert F.header() == "2^2/7"
    assert from_header("2^2/7") is F
    assert from_header("5^1/5") is GF(5)


def test_elem_encoding():
    F = GF(3, 2)
    e = F.elem(5)
    assert e.coeffs == (2, 1)  # 2 + 1*x
    assert F.from_coeffs((2, 1)) == 5


def test_default_modulus_is_irreducible():
    for p, e in [(2, 2), (2, 3), (2, 8), (3, 2), (3, 3), (5, 3), (7, 2)]:
        F = GF(p, e)
        assert is_irreducible(F.modulus, p)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(0, 0, 1))  # x^2 = x*x


def test_schoolbook_path_beyond_table_range():
    # GF(2^17) has no lookup tables; arithmetic falls back to schoolbook
    F = GF(2, 17)
    assert not F._has_tables
    a, b = 3, 70001
    ab = F.mul(a, b)
    assert ab != 0 and F.mul(ab, F.inv(a)) == b
    assert F.pow(a, F.q - 1) == 1
    arr = np.array([1, 2, 3, 70001], dtype=np.int64)
    assert np.array_equal(F.mul(arr, F.inv(arr)), np.ones(4, dtype=np.int64))
    assert np.array_equal(F.add(arr, arr), np.zeros(4, dtype=np.int64))


def test_schoolbook_path_odd_characteristic():
    F = GF(3, 11)  # 177147 elements, beyond the table limit
    assert not F._has_tables
    arr = np.array([1, 5, 2024], dtype=np.int64)
    assert np.array_equal(F.mul(arr, F.inv(arr)), np.ones(3, dtype=np.int64))
    assert np.array_equal(F.add(arr, F.neg(arr)), np.zeros(3, dtype=np.int64))


def test_neg_does_not_alias_input():
    F = GF(2)
    v = np.array([1, 0, 1], dtype=np.int64)
    w = F.neg(v)
    w[0] = 0
    assert v[0] == 1


# Every field small enough for q x q pair tables: each extension field under
# its default modulus, GF(8) under its other modulus x^3 + x^2 + 1, and a few
# prime fields up to the largest prime below the 256 limit.
PAIR_TABLE_FIELDS = (
    [(p, e, None) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 9) if p**e <= 256]
    + [(2, 3, (1, 0, 1, 1))]
    + [(p, 1, None) for p in (2, 3, 5, 7, 251)]
)


@pytest.mark.parametrize("p,e,modulus", PAIR_TABLE_FIELDS)
def test_pair_tables_match_polynomial_arithmetic(p, e, modulus):
    # References: schoolbook _mul_raw for mul, and digit-wise arithmetic on
    # coeffs / from_coeffs for add, sub and neg; never the tables themselves.
    F = GF(p, e, modulus)
    q = F.q
    digits = [F.coeffs(x) for x in range(q)]
    ref_add = np.array(
        [[F.from_coeffs([x + y for x, y in zip(ca, cb)]) for cb in digits] for ca in digits]
    )
    ref_sub = np.array(
        [[F.from_coeffs([x - y for x, y in zip(ca, cb)]) for cb in digits] for ca in digits]
    )
    ref_neg = np.array([F.from_coeffs([-x for x in ca]) for ca in digits])
    ref_mul = np.array([[F._mul_raw(a, b) for b in range(q)] for a in range(q)])

    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    for got, want in (
        (F.add(a, b), ref_add),
        (F.sub(a, b), ref_sub),
        (F.mul(a, b), ref_mul),
        (F.neg(np.arange(q)), ref_neg),
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    rng = np.random.default_rng(q)
    for x, y in rng.integers(0, q, (64, 2)).tolist():
        for op, ref in ((F.add, ref_add), (F.sub, ref_sub), (F.mul, ref_mul)):
            v = op(x, y)
            assert type(v) is int and v == ref[x, y]
        v = F.neg(x)
        assert type(v) is int and v == ref_neg[x]

    # An operand equal to q must raise, never alias another table entry.
    # In characteristic 2, add, sub and neg are XOR and need no table.
    for op in [F.mul] if p == 2 else [F.mul, F.add, F.sub]:
        for x, y in ((q, 0), (0, q), (1, q)):
            with pytest.raises(IndexError):
                op(x, y)
            with pytest.raises(IndexError):
                op(np.array([x]), np.array([y]))
    if p != 2:
        with pytest.raises(IndexError):
            F.neg(q)
        with pytest.raises(IndexError):
            F.neg(np.array([0, q]))

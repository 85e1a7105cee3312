import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import schurpow
from schurpow import linalg
from schurpow.codes import LinearCode, message_blocks, word_blocks
from schurpow.errors import TooLargeError, ZeroCodeError
from schurpow.families import full_space, parity, random_code, reed_solomon, repetition
from schurpow.fields import GF, SubfieldEmbedding
from schurpow.metrics import (
    RankedProductStructure,
    ddual,
    dmin,
    dmin_rank,
    generalized_weights,
    _direct_distribution,
    _macwilliams,
    intersection_number,
    weight_distribution,
)

F2 = GF(2)
F3 = GF(3)


def brute_dmin(C):
    """Oracle: smallest weight over the fully materialized codeword list."""
    best = None
    for w in C.words():
        wt = int(np.count_nonzero(w))
        if wt and (best is None or wt < best):
            best = wt
    return best


def _example_pair():
    C = LinearCode(F2, 7, [[1, 0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 0, 0]])
    Cp = LinearCode(F2, 7, [[1, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1]])
    return C, Cp


def test_dmin_rs():
    assert dmin(reed_solomon(5, 5, 3)) == 3


def test_dmin_repetition():
    assert dmin(repetition(3, 6)) == 6


def test_dmin_product_example():
    C, Cp = _example_pair()
    assert dmin(C.star(Cp)) == 1


def test_dmin_zero_code():
    with pytest.raises(ZeroCodeError):
        dmin(LinearCode.zero(F2, 4))


def test_dmin_matches_bruteforce():
    rng = np.random.default_rng(101)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        C = random_code(3, n, int(rng.integers(1, n + 1)), rng)
        assert dmin(C) == brute_dmin(C)


def test_weight_distribution_parity():
    hist = weight_distribution(parity(2, 4))
    # even-weight words of length 4: 1 + 6 + 1
    assert list(hist) == [1, 0, 6, 0, 1]
    assert hist.sum() == 2**3


def test_macwilliams_transform_matches_direct():
    rng = np.random.default_rng(131)
    for _ in range(25):
        q = int(rng.choice([2, 3, 4]))
        F = GF(2, 2) if q == 4 else GF(q)
        n = int(rng.integers(2, 9))
        C = random_code(F, n, int(rng.integers(0, n + 1)), rng)
        direct = _direct_distribution(C, 1 << 20)
        via_dual = _macwilliams(_direct_distribution(C.dual(), 1 << 20), n, F.q)
        assert np.array_equal(direct, via_dual)


def test_ddual_full_space():
    assert ddual(full_space(2, 3)) == 4


def test_ddual_mds():
    C = reed_solomon(7, 6, 2)
    assert ddual(C) == C.k + 1


def test_ddual_repeated_columns():
    C = LinearCode(F2, 3, [[1, 1, 0], [0, 0, 1]])
    assert ddual(C) == 2


def test_generalized_weights_rs():
    C = reed_solomon(5, 5, 3)
    assert generalized_weights(C) == [3, 4, 5]


def test_generalized_weights_support_length():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        C = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        ws = generalized_weights(C)
        assert ws[0] == dmin(C)
        assert ws[-1] == len(C.support())
        assert all(a < b for a, b in zip(ws, ws[1:]))


def test_generalized_weights_scalar_extension():
    emb = SubfieldEmbedding(GF(2), GF(2, 2))
    rng = np.random.default_rng(107)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        C = random_code(2, n, int(rng.integers(1, n + 1)), rng)
        assert generalized_weights(C) == generalized_weights(C.extend_scalars(emb))


def test_dmin_rank_example_pair():
    C, Cp = _example_pair()
    ps = RankedProductStructure([C, Cp])
    assert dmin_rank(ps, 1) == 2
    assert dmin(ps.ambient) == 1
    assert dmin_rank(ps, ps.ambient.k) == 1


def test_dmin_rank_single_factor():
    C = reed_solomon(5, 5, 3)
    ps = RankedProductStructure([C])
    assert dmin_rank(ps, 1) == dmin(C)


def test_dmin_rank_monotone():
    rng = np.random.default_rng(109)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        A = random_code(2, n, int(rng.integers(1, min(n, 3) + 1)), rng)
        B = random_code(2, n, int(rng.integers(1, min(n, 3) + 1)), rng)
        if A.star(B).k == 0:
            continue
        ps = RankedProductStructure([A, B])
        d1 = dmin_rank(ps, 1)
        d2 = dmin_rank(ps, 2)
        assert d1 >= d2 >= dmin(ps.ambient)


def test_intersection_number_repetition():
    C = repetition(2, 5)
    assert intersection_number(C, C) == 5


def test_intersection_number_zero_product():
    A = LinearCode(F2, 4, [[1, 1, 0, 0]])
    B = LinearCode(F2, 4, [[0, 0, 1, 1], [1, 1, 1, 1]])
    assert intersection_number(A, B) == 0


def test_intersection_number_vs_dmin():
    rng = np.random.default_rng(113)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        A = random_code(2, n, int(rng.integers(1, n)), rng)
        B = random_code(2, n, int(rng.integers(1, n)), rng)
        i = intersection_number(A, B)
        if i > 0:
            assert i >= dmin(A.star(B))


@pytest.mark.parametrize("q,n", [(11, 7), (11, 11), (13, 11)])
def test_rs_distance_sequence_closed_form(q, n):
    for k in range(2, n + 1):
        C = reed_solomon(q, n, k)
        r = C.regularity()
        powers = C.power_sequence(r + 1)
        for t, P in enumerate(powers):
            if t == 0:
                assert dmin(P) == n
            else:
                assert dmin(P) == max(n - t * (k - 1), 1)


def test_weight_hierarchy_monotone_under_powers():
    rng = np.random.default_rng(127)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        C = random_code(2, n, int(rng.integers(1, 4)), rng)
        r = C.regularity()
        powers = C.power_sequence(min(r + 1, 4))
        for P, Q in zip(powers[1:], powers[2:]):
            wp, wq = generalized_weights(P), generalized_weights(Q)
            for i in range(min(len(wp), len(wq))):
                assert wq[i] <= wp[i]
            dp = P.dual()
            dq = Q.dual()
            if dp.k and dq.k:
                wdp, wdq = generalized_weights(dp), generalized_weights(dq)
                for i in range(min(len(wdp), len(wdq))):
                    assert wdq[i] >= wdp[i]


def test_generalized_weights_too_large():
    with pytest.raises(TooLargeError):
        generalized_weights(repetition(2, 21))


# ---------------------------------------------------------------------------
# The enumeration engine against the enumeration it replaced: every message
# block times G, one field multiply and add per generator row and word.
# ---------------------------------------------------------------------------


def _reference_words(C):
    msgs = np.concatenate(list(message_blocks(C.field.q, C.k)))
    return msgs, linalg.matmul(C.field, msgs, C.G)


def _reference_projective(msgs, words):
    lead = np.full(len(msgs), -1)
    for i in range(msgs.shape[1] - 1, -1, -1):
        lead = np.where(msgs[:, i] != 0, i, lead)
    mask = np.zeros(len(msgs), dtype=bool)
    for i in range(msgs.shape[1]):
        mask |= (lead == i) & (msgs[:, i] == 1)
    return words[mask]


def _check_engine(C):
    msgs, words = _reference_words(C)
    got = C.words()
    assert got.dtype == np.int64 and np.array_equal(got, words)
    proj = C.projective_words()
    assert proj.dtype == np.int64 and np.array_equal(proj, _reference_projective(msgs, words))
    weights = np.count_nonzero(words, axis=1)
    hist = np.bincount(weights, minlength=C.n + 1)
    assert np.array_equal(_direct_distribution(C, 1 << 24), hist)
    assert np.array_equal(weight_distribution(C), hist)
    if C.field.q ** (C.n - C.k) <= 1 << 16:
        via_dual = _macwilliams(_direct_distribution(C.dual(), 1 << 24), C.n, C.field.q)
        assert np.array_equal(via_dual, hist)
    if C.k:
        assert dmin(C) == int(weights[1:].min())


ENGINE_FIELDS = [GF(2), GF(3), GF(2, 2), GF(3, 2)]


@pytest.mark.parametrize("F", ENGINE_FIELDS, ids=str)
def test_engine_matches_reference_enumeration(F):
    rng = np.random.default_rng([20261018, F.q])
    # lo = the number of rows whose combinations fit one 2^14-word block;
    # k = lo + 1 makes the engine yield several blocks
    lo = max(i for i in range(1, 15) if F.q**i <= 1 << 14)
    shapes = [(1, 0), (1, 1), (6, 0), (6, 3), (5, 4), (9, 3), (lo + 3, lo + 1)]
    shapes += [(int(n), int(rng.integers(0, min(n, 5) + 1))) for n in rng.integers(2, 11, size=6)]
    for n, k in shapes:
        _check_engine(random_code(F, n, k, rng))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_engine_gf2_packing_edges(n):
    rng = np.random.default_rng([20261018, n])
    for k in sorted({0, 1, min(n, 7), min(n, 15)}):
        _check_engine(random_code(F2, n, k, rng))


def test_word_blocks_bounded_by_chunk():
    # small chunks force the recursion on the high rows and, once q > chunk,
    # the split of one row's multiples
    rng = np.random.default_rng(20261019)
    for F in ENGINE_FIELDS + [GF(5), GF(2, 8)]:
        C = random_code(F, 5, 3 if F.q <= 9 else 2, rng)
        _, words = _reference_words(C)
        for chunk in (1, 2, 4, 9, 10, 100, 1 << 14):
            blocks = list(word_blocks(F, C.G, chunk=chunk))
            assert max(len(b) for b in blocks) <= chunk
            assert np.array_equal(np.concatenate(blocks), words)


def test_word_blocks_gf256_blocks_stay_small():
    F = GF(2, 8)
    C = random_code(F, 4, 3, 20261020)
    sizes = set()
    for i, block in enumerate(word_blocks(F, C.G)):
        sizes.add(len(block))
        if i == 300:
            break
    assert sizes == {256}


def test_enumeration_budget_checked_before_allocation():
    C = random_code(F3, 20, 4, 20261021)
    with pytest.raises(TooLargeError):
        next(word_blocks(F3, C.G, budget=10))
    with pytest.raises(TooLargeError):
        next(word_blocks(F3, C.G, budget=80))
    assert len(C.words(budget=81)) == 81
    for call in (lambda: dmin(C, budget=10), lambda: C.words(budget=10), lambda: weight_distribution(C, budget=10)):
        with pytest.raises(TooLargeError):
            call()
    big = random_code(F2, 100, 40, 20261022)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            dmin(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # one block of 2^14 words, two uint64 each, is 256 KiB


def test_macwilliams_guard_survives_optimize_flag():
    src = os.path.dirname(os.path.dirname(os.path.abspath(schurpow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # no binary code of length 3 has four words of weight 3
    script = (
        "try:\n    assert False\nexcept AssertionError:\n    raise SystemExit('asserts are on')\n"
        "from schurpow.metrics import _macwilliams\n"
        "try:\n    _macwilliams([1, 0, 0, 3], 3, 2)\n"
        "except AssertionError as exc:\n    print('raised', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised")

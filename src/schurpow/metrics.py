"""Exhaustive-but-bounded weight metrics for linear codes.

Everything here is exact: minimum distances and weight distributions come
from full codeword enumeration with an explicit budget, the weight
hierarchy from support-subset search, and rank-constrained distances from
enumeration of low-rank elements of a product structure.

Codewords are enumerated by :func:`codes.word_blocks`, a meet-in-the-middle
enumerator: it tabulates the combinations of the first generator rows once,
up to one block of words, and builds every block from that table with one
field addition per entry.  Over GF(2) :func:`codes.weight_blocks` runs the
same enumeration on rows bit-packed into uint64 words, where the addition
is an XOR and a weight is a popcount.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg
from .codes import DEFAULT_WORD_BUDGET, LinearCode, weight_blocks
from .errors import MismatchError, TooLargeError, ZeroCodeError


def _direct_distribution(C: LinearCode, budget: int) -> np.ndarray:
    hist = np.zeros(C.n + 1, dtype=np.int64)
    for w in weight_blocks(C.field, C.G, budget):
        hist += np.bincount(w, minlength=C.n + 1)
    return hist


def _macwilliams(dual_hist, n: int, q: int) -> np.ndarray:
    """Exact MacWilliams transform of a dual weight distribution."""
    B = [int(x) for x in dual_hist]
    size = sum(B)
    A = []
    for w in range(n + 1):
        s = 0
        for u in range(n + 1):
            if not B[u]:
                continue
            kw = 0
            for j in range(min(u, w) + 1):
                if w - j <= n - u:
                    kw += (-1) ** j * (q - 1) ** (w - j) * math.comb(u, j) * math.comb(n - u, w - j)
            s += B[u] * kw
        # explicit, not an assert: this guards exactness under python -O too
        if s % size != 0 or s < 0:
            raise AssertionError(f"MacWilliams gives A_{w} = {s}/{size}: not the distribution of a dual code")
        A.append(s // size)
    return np.array(A, dtype=np.int64)


def weight_distribution(C: LinearCode, budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
    """Histogram of codeword weights, entry w counting words of weight w.

    Enumerates whichever of the code and its dual is smaller, with the
    meet-in-the-middle :func:`codes.weight_blocks` (popcounts of bit-packed
    words over GF(2)); the high-rate side is recovered exactly through the
    MacWilliams identity.
    """
    q = C.field.q
    if C.k <= C.n - C.k or q ** (C.n - C.k) > budget:
        return _direct_distribution(C, budget)
    return _macwilliams(_direct_distribution(C.dual(), budget), C.n, q)


def dmin(C: LinearCode, budget: int = DEFAULT_WORD_BUDGET) -> int:
    """Exact minimum nonzero weight.

    Low-rate codes are enumerated directly with the meet-in-the-middle
    :func:`codes.weight_blocks` (popcounts of bit-packed words over GF(2));
    the rref generator makes the messages information-set encodings, and
    enumeration early-exits on a weight-1 word.  High-rate codes go through
    the dual distribution.
    """
    if C.k == 0:
        raise ZeroCodeError("minimum distance of the zero code")
    q = C.field.q
    if C.k > C.n - C.k and q ** (C.n - C.k) <= budget:
        hist = weight_distribution(C, budget)
        return int(np.nonzero(hist[1:])[0][0]) + 1
    best = C.n + 1
    for i, w in enumerate(weight_blocks(C.field, C.G, budget)):
        if i == 0:
            w = w[1:]  # message 0, the zero word, is the first word of the first block
        if w.size:
            best = min(best, int(w.min()))
        if best == 1:
            return 1
    return best


def ddual(C: LinearCode, budget: int = DEFAULT_WORD_BUDGET) -> int:
    """Minimum distance of the dual; the full space gets the value n + 1."""
    D = C.dual()
    if D.k == 0:
        return C.n + 1
    return dmin(D, budget)


def generalized_weights(C: LinearCode, limit: int = 20):
    """The weight hierarchy w_1..w_k, by support-subset enumeration."""
    if C.n > limit:
        raise TooLargeError(f"n = {C.n} exceeds the subset-search limit {limit}")
    if C.k == 0:
        return []
    F = C.field
    out = [None] * C.k
    found = 0
    for s in range(1, C.n + 1):
        for S in itertools.combinations(range(C.n), s):
            rest = [j for j in range(C.n) if j not in S]
            dim_cs = C.k - linalg.rank(F, C.G[:, rest])
            for i in range(found, min(dim_cs, C.k)):
                out[i] = s
            found = max(found, min(dim_cs, C.k))
        if found == C.k:
            break
    if None in out:
        raise AssertionError("support search ended before the whole hierarchy was found")
    return out


class RankedProductStructure:
    """A product code remembering its factors, which grade elements by rank.

    Rank-1 elements are the nonzero elementary products of one codeword
    per factor; rank <= i elements are sums of at most i of those.
    """

    def __init__(self, factors):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        amb = self.factors[0]
        for f in self.factors[1:]:
            amb = amb.star(f)
        self.ambient = amb

    def rank_one_elements(self, budget: int = 1 << 16) -> np.ndarray:
        """All nonzero elementary products, deduplicated, one per row."""
        total = 1
        for f in self.factors:
            total *= max((f.field.q**f.k - 1) // (f.field.q - 1), 1)
        if total > budget:
            raise TooLargeError(f"{total} elementary products exceed budget {budget}")
        F = self.ambient.field
        cur = self.factors[0].projective_words()
        for f in self.factors[1:]:
            nxt = f.projective_words()
            a = np.repeat(cur, len(nxt), axis=0)
            b = np.tile(nxt, (len(cur), 1))
            cur = np.unique(F.mul(a, b), axis=0)
        return cur[np.any(cur != 0, axis=1)]


def dmin_rank(ps: RankedProductStructure, i: int, budget: int = 1 << 16) -> int:
    """Minimum weight of a nonzero element of rank at most i."""
    if i < 1:
        raise ValueError("rank bound must be >= 1")
    F = ps.ambient.field
    r1 = ps.rank_one_elements(budget)
    if r1.shape[0] == 0:
        raise ZeroCodeError("no nonzero elementary products")
    level = np.unique(r1, axis=0)
    best = int(np.count_nonzero(level, axis=1).min())
    scalars = np.arange(1, F.q, dtype=np.int64)
    for _ in range(1, i):
        if best == 1:
            break
        if level.shape[0] * r1.shape[0] * (F.q - 1) > budget * 8:
            raise TooLargeError("rank-level enumeration exceeds budget")
        pieces = [level]
        for lam in scalars:
            scaled = F.mul(lam, r1)
            a = np.repeat(level, scaled.shape[0], axis=0)
            b = np.tile(scaled, (level.shape[0], 1))
            pieces.append(F.add(a, b))
        level = np.unique(np.concatenate(pieces, axis=0), axis=0)
        w = np.count_nonzero(level, axis=1)
        nz = w[w > 0]
        if nz.size:
            best = min(best, int(nz.min()))
    return best


def intersection_number(C1: LinearCode, C2: LinearCode, budget: int = 1 << 16) -> int:
    """min over nonzero codeword pairs of w(c1 * c2); zero products count."""
    if C1.field != C2.field or C1.n != C2.n:
        raise MismatchError("codes live in different spaces")
    if C1.k == 0 or C2.k == 0:
        raise ZeroCodeError("intersection number needs nonzero codes")
    p1 = C1.projective_words()
    p2 = C2.projective_words()
    if p1.shape[0] * p2.shape[0] > budget:
        raise TooLargeError("pair enumeration exceeds budget")
    F = C1.field
    a = np.repeat(p1, p2.shape[0], axis=0)
    b = np.tile(p2, (p1.shape[0], 1))
    return int(np.count_nonzero(F.mul(a, b), axis=1).min())

"""Independent reference arithmetic that the benchmark checks answers with.

Nothing here calls into ``schurpow``.  A :class:`RefField` rebuilds GF(p^e)
from its modulus polynomial as full q x q addition and multiplication
tables, so a defect in the program's field layer cannot hide itself in the
check.  On top of the tables sit a plain Gaussian elimination, a weight
enumerator that builds all codewords by doubling (one table addition per
word), and a MacWilliams transform written from the Krawtchouk polynomials.
The helpers also generate inputs: generalized Reed-Solomon matrices,
Reed-Muller matrices and full-rank random matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class RefField:
    """GF(p^e) as lookup tables; elements are packed base-p integers."""

    def __init__(self, p: int, modulus):
        modulus = [int(c) % p for c in modulus]
        e = len(modulus) - 1
        if e < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p, self.e, self.q = p, e, p**e
        q = self.q
        digits = [[(a // p**i) % p for i in range(e)] for a in range(q)]
        pack = [p**i for i in range(e)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                add[a, b] = sum(((x + y) % p) * w for x, y, w in zip(digits[a], digits[b], pack))
                mul[a, b] = self._polymul(digits[a], digits[b], modulus)
        self.add, self.mul = add, mul
        self.neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)], dtype=np.int64)
        self.inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            hits = np.nonzero(mul[a] == 1)[0]
            if len(hits) != 1:
                raise ValueError("modulus is reducible")
            self.inv[a] = hits[0]

    def _polymul(self, da, db, modulus) -> int:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                for j in range(e + 1):
                    prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
        return sum(prod[i] * p**i for i in range(e))

    def power(self, a: int, m: int) -> int:
        out = 1
        for _ in range(m):
            out = int(self.mul[out, a])
        return out


def rref(F: RefField, m) -> np.ndarray:
    """Reduced row echelon basis (zero rows dropped) of a matrix over F."""
    r = np.array(m, dtype=np.int64).reshape(-1, np.shape(m)[-1]).copy()
    nrows, ncols = r.shape
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if not len(nz):
            continue
        pr = row + int(nz[0])
        r[[row, pr]] = r[[pr, row]]
        r[row] = F.mul[F.inv[r[row, col]], r[row]]
        coefs = r[:, col].copy()
        coefs[row] = 0
        hit = np.nonzero(coefs)[0]
        if len(hit):
            r[hit] = F.add[r[hit], F.mul[F.neg[coefs[hit]][:, None], r[row][None, :]]]
        row += 1
    return r[:row]


def rank(F: RefField, m) -> int:
    return rref(F, m).shape[0]


def kernel(F: RefField, g) -> np.ndarray:
    """rref basis of the right null space of ``g``."""
    g = np.asarray(g, dtype=np.int64)
    n = g.shape[1]
    r = rref(F, g) if g.shape[0] else np.zeros((0, n), dtype=np.int64)
    pivots = [int(np.nonzero(row)[0][0]) for row in r]
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, j in enumerate(free):
        basis[bi, j] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = F.neg[r[ri, j]]
    return rref(F, basis) if len(free) else basis


def products(F: RefField, a, b) -> np.ndarray:
    """All componentwise products of a row of ``a`` with a row of ``b``."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return F.mul[a[:, None, :], b[None, :, :]].reshape(-1, a.shape[1])


def star(F: RefField, a, b) -> np.ndarray:
    n = np.shape(a)[-1]
    if not len(a) or not len(b):
        return np.zeros((0, n), dtype=np.int64)
    return rref(F, products(F, a, b))


def power_dims(F: RefField, g, t_max: int):
    """Dimensions of the powers 0..t_max of the row space of ``g``."""
    g = np.asarray(g, dtype=np.int64)
    cur = np.ones((1, g.shape[1]), dtype=np.int64)
    dims = [1]
    for _ in range(t_max):
        cur = star(F, cur, g)
        dims.append(cur.shape[0])
    return dims


def contains(F: RefField, basis, rows) -> bool:
    """Whether every row of ``rows`` lies in the row space of ``basis``."""
    basis = np.asarray(basis, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, basis.shape[1])
    return rank(F, np.concatenate([basis, rows])) == rank(F, basis)


def all_words(F: RefField, g) -> np.ndarray:
    """Every codeword of the row space of ``g``, built by doubling.

    Words are uint8 (every benchmarked field has q < 256), which keeps the
    checks' memory well below the enumeration being checked.
    """
    g = np.asarray(g, dtype=np.int64)
    add = F.add.astype(np.uint8)
    words = np.zeros((1, g.shape[1]), dtype=np.uint8)
    for row in g:
        multiples = F.mul[np.arange(F.q)[:, None], row[None, :]].astype(np.uint8)
        words = add[words[None, :, :], multiples[:, None, :]].reshape(-1, g.shape[1])
    return words


def distribution(F: RefField, g, head_words: int = 1 << 12) -> list:
    """Weight distribution of the row space of a full-rank ``g``.

    The words of the first rows (at most ``head_words`` of them) are built
    once; each word of the remaining rows is added to all of them in turn,
    so memory stays small whatever the code size.
    """
    g = np.asarray(g, dtype=np.int64)
    k, n = g.shape
    split = 0
    while split < k and F.q ** (split + 1) <= head_words:
        split += 1
    head, rest = all_words(F, g[:split]), all_words(F, g[split:])
    add = F.add.astype(np.uint8)
    counts = np.zeros(n + 1, dtype=np.int64)
    for word in rest:
        counts += np.bincount(np.count_nonzero(add[head, word[None, :]], axis=1), minlength=n + 1)
    return [int(x) for x in counts]


def macwilliams(hist, q: int) -> list:
    """Dual weight distribution from a weight distribution (Krawtchouk sums)."""
    n = len(hist) - 1
    size = sum(hist)
    out = []
    for j in range(n + 1):
        total = 0
        for i, a in enumerate(hist):
            if a:
                kj = sum(
                    (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
                    for s in range(j + 1)
                )
                total += a * kj
        if total % size:
            raise ArithmeticError("MacWilliams transform is not integral")
        out.append(total // size)
    return out


def both_distributions(F: RefField, g, budget: int = 1 << 18):
    """(weight distribution, dual weight distribution) of a full-rank ``g``.

    The smaller side is enumerated and the other follows by MacWilliams; when
    both sides fit in ``budget`` both are enumerated, and the transform is
    checked against the direct count.
    """
    g = np.asarray(g, dtype=np.int64)
    k, n = g.shape
    h = kernel(F, g)
    small_primal = F.q**k <= F.q ** (n - k)
    if small_primal:
        primal = distribution(F, g)
        dual = macwilliams(primal, F.q)
    else:
        dual = distribution(F, h)
        primal = macwilliams(dual, F.q)
    if max(F.q**k, F.q ** (n - k)) <= budget:
        direct = distribution(F, h) if small_primal else distribution(F, g)
        if direct != (dual if small_primal else primal):
            raise ArithmeticError("direct enumeration disagrees with MacWilliams")
    return primal, dual


def min_weight(hist) -> int:
    """Least nonzero weight of a distribution; n + 1 for the zero code."""
    return next((w for w in range(1, len(hist)) if hist[w]), len(hist))


def full_rank(rng, F: RefField, k: int, n: int, accept=None) -> np.ndarray:
    """A random k x n matrix of rank k, optionally satisfying ``accept``."""
    while True:
        g = rng.integers(0, F.q, (k, n))
        if rank(F, g) == k and (accept is None or accept(g)):
            return g


def full_support(g) -> bool:
    return bool(np.all(np.any(np.asarray(g) != 0, axis=0)))


def grs(F: RefField, rng, n: int, k: int) -> np.ndarray:
    """Generalized Reed-Solomon generator: random distinct points and multipliers."""
    points = rng.permutation(F.q)[:n]
    mult = rng.integers(1, F.q, n)
    rows = np.zeros((k, n), dtype=np.int64)
    cur = mult.copy()
    for i in range(k):
        rows[i] = cur
        cur = F.mul[cur, points]
    return rows


def reed_muller_binary(r: int, m: int) -> np.ndarray:
    """Binary Reed-Muller RM(r, m) generator: monomials of degree <= r on GF(2)^m."""
    pts = (np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1
    rows = []
    for deg in range(r + 1):
        for subset in itertools.combinations(range(m), deg):
            rows.append(np.prod(pts[:, list(subset)], axis=1) if subset else np.ones(2**m, dtype=np.int64))
    return np.array(rows, dtype=np.int64)


def gaussian_binomial(q: int, n: int, k: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den

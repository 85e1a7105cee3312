"""Linear codes under componentwise (Schur) multiplication.

A :class:`LinearCode` is a subspace of GF(q)^n held in canonical reduced
row echelon form, so equality and hashing are structural.  The operations
here cover products and powers, dimension sequences and regularity,
support and repeated-column structure, stabilizing algebras and
indecomposable components, scalar extension and trace descent, and small
brute-force symmetry groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    MismatchError,
    TooLargeError,
    ZeroCodeError,
)
from .fields import GF, FieldSpec, SubfieldEmbedding

DEFAULT_WORD_BUDGET = 1 << 24


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering a ground set of coordinates."""

    ground: tuple
    blocks: tuple

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & set(b):
                raise ValueError("blocks overlap")
            seen |= set(b)
        if seen != set(self.ground):
            raise ValueError("blocks do not cover the ground set")

    @staticmethod
    def of(blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        ground = tuple(sorted(c for b in blocks for c in b))
        return Partition(ground, blocks)

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement, on the intersection of grounds."""
        out = []
        for p in self.blocks:
            for q in other.blocks:
                inter = set(p) & set(q)
                if inter:
                    out.append(tuple(sorted(inter)))
        return Partition.of(out)

    def __len__(self):
        return len(self.blocks)


@dataclass(frozen=True)
class SliceData:
    """One-dimensional slice generators with pairwise disjoint supports."""

    representatives: tuple
    generators: np.ndarray  # one row per slice
    normalized: bool = True


def message_blocks(q: int, k: int, budget: int = DEFAULT_WORD_BUDGET, chunk: int = 1 << 14):
    """Yield all q^k message vectors as (N, k) arrays, in packed order."""
    total = q**k
    if total > budget:
        raise TooLargeError(f"{total} messages exceed budget {budget}")
    pows = np.array([q**i for i in range(k)], dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] // pows[None, :]) % q


def _span_table(F: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """All F-combinations of ``rows``, in packed order (row 0 varies fastest)."""
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows:
        if F.q == 2:  # the multiples are 0 and the row: bit-packed rows never reach F.mul
            table = np.concatenate([table, F.add(table, row)])
        else:
            mults = F.mul(np.arange(F.q)[:, None], row[None, :])
            table = F.add(mults[:, None, :], table[None, :, :]).reshape(-1, rows.shape[1])
    return table


def word_blocks(F: FieldSpec, G: np.ndarray, budget: int = DEFAULT_WORD_BUDGET, chunk: int = 1 << 14):
    """Yield all q^k words m @ G as (N, n) arrays of at most ``chunk`` rows.

    Words come in packed message order, the order of :func:`message_blocks`.
    Meet in the middle: the combinations of the first ``lo`` rows, with
    q^lo <= chunk, are tabulated once, and each block adds one combination
    of the other rows to that table, one field addition per entry.  Those
    combinations are enumerated by the same generator, so no table ever
    holds more than ``chunk`` rows.  Any array whose rows ``F.add`` sums
    works as ``G``: over GF(2) that includes bit-packed rows.
    """
    q, k = F.q, G.shape[0]
    if q**k > budget:
        raise TooLargeError(f"{q**k} messages exceed budget {budget}")
    lo = 0
    while lo < k and q ** (lo + 1) <= chunk:
        lo += 1
    if lo == 0 and k:
        # q > chunk: the multiples of row 0 alone fill several blocks
        for high in word_blocks(F, G[1:], budget, chunk):
            for h in high:
                for start in range(0, q, chunk):
                    c = np.arange(start, min(start + chunk, q), dtype=np.int64)
                    yield F.add(F.mul(c[:, None], G[0][None, :]), h)
        return
    low = _span_table(F, G[:lo])
    if lo == k:
        yield low
        return
    for high in word_blocks(F, G[lo:], budget, chunk):
        for h in high:
            yield F.add(low, h)


def weight_blocks(F: FieldSpec, G: np.ndarray, budget: int = DEFAULT_WORD_BUDGET):
    """Yield the Hamming weights of the words of :func:`word_blocks`, block by block.

    Over GF(2) each row is bit-packed into uint64 words, where XOR is the
    field addition, and a weight is a popcount.
    """
    if F.q == 2:
        bits = np.zeros((G.shape[0], -(-G.shape[1] // 64) * 64), dtype=np.uint8)
        bits[:, : G.shape[1]] = G
        packed = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        for block in word_blocks(F, packed, budget):
            yield np.bitwise_count(block).sum(axis=1, dtype=np.int64)
    else:
        for block in word_blocks(F, G, budget):
            yield np.count_nonzero(block, axis=1)


class LinearCode:
    """A linear code, canonically represented by its rref generator matrix."""

    __slots__ = ("field", "n", "G", "_pivots")

    def __init__(self, field: FieldSpec, n: int, rows=None):
        self.field = field
        self.n = int(n)
        rows = linalg.as_matrix([] if rows is None else rows, self.n)
        if rows.shape[1] != self.n:
            raise MismatchError(f"rows have length {rows.shape[1]}, expected {self.n}")
        if rows.size and (rows.min() < 0 or rows.max() >= field.q):
            raise ValueError("entries out of field range")
        r, piv = linalg.rref(field, rows)
        self.G = r[: len(piv)]
        self.G.flags.writeable = False
        self._pivots = piv

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field, n):
        return LinearCode(field, n)

    @staticmethod
    def full(field, n):
        return LinearCode(field, n, np.eye(n, dtype=np.int64))

    @staticmethod
    def repetition(field, n):
        return LinearCode(field, n, np.ones((1, n), dtype=np.int64))

    # -- basics --------------------------------------------------------------

    @property
    def k(self) -> int:
        return self.G.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.G.shape == other.G.shape
            and np.array_equal(self.G, other.G)
        )

    def __hash__(self):
        return hash((self.field, self.n, self.G.tobytes()))

    def __repr__(self):
        return f"[{self.n},{self.k}] code over {self.field}"

    def _check_same_space(self, other: "LinearCode"):
        if self.field != other.field or self.n != other.n:
            raise MismatchError(f"cannot combine {self!r} and {other!r}")

    def contains_word(self, v) -> bool:
        return linalg.in_rowspace(self.field, self.G, self._pivots, np.asarray(v, dtype=np.int64))

    def contains_code(self, other: "LinearCode") -> bool:
        self._check_same_space(other)
        if other.k == 0:
            return True
        red = linalg.reduce_rows(self.field, self.G, self._pivots, other.G)
        return not red.any()

    def words(self, budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
        """All codewords, message-major; exact but budget-guarded."""
        return np.concatenate(list(word_blocks(self.field, self.G, budget)))

    def projective_words(self) -> np.ndarray:
        """One representative per 1-dimensional subspace (first nonzero msg digit 1)."""
        q, k = self.field.q, self.k
        if k == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        pows = q ** np.arange(k, dtype=np.int64)
        reps, start = [], 0
        for words in word_blocks(self.field, self.G):
            digits = (np.arange(start, start + len(words))[:, None] // pows) % q
            start += len(words)
            lead = digits[np.arange(len(words)), np.argmax(digits != 0, axis=1)]
            reps.append(words[lead == 1])
        return np.concatenate(reps)

    # -- duality and products -------------------------------------------------

    def dual(self) -> "LinearCode":
        return LinearCode(self.field, self.n, linalg.kernel(self.field, self.G))

    def star(self, other: "LinearCode") -> "LinearCode":
        """Linear span of all componentwise products of codewords."""
        self._check_same_space(other)
        if self.k == 0 or other.k == 0:
            return LinearCode.zero(self.field, self.n)
        a = np.repeat(self.G, other.k, axis=0)
        b = np.tile(other.G, (self.k, 1))
        return LinearCode(self.field, self.n, self.field.mul(a, b))

    def __mul__(self, other):
        return self.star(other)

    def power(self, t: int) -> "LinearCode":
        """t-th componentwise power; the 0-th power is the repetition code."""
        if t < 0:
            raise ValueError("power must be >= 0")
        out = LinearCode.repetition(self.field, self.n)
        for _ in range(t):
            out = out.star(self)
        return out

    def plus(self, other: "LinearCode") -> "LinearCode":
        self._check_same_space(other)
        return LinearCode(self.field, self.n, linalg.rowspace_sum(self.field, self.G, other.G))

    def intersect(self, other: "LinearCode") -> "LinearCode":
        self._check_same_space(other)
        return LinearCode(self.field, self.n, linalg.rowspace_intersect(self.field, self.G, other.G))

    # -- dimension sequence, regularity ---------------------------------------

    def dim_sequence(self, t_max: int):
        """dim of the t-th power for t = 0..t_max, computed incrementally."""
        dims = []
        cur = LinearCode.repetition(self.field, self.n)
        dims.append(cur.k)
        for _ in range(t_max):
            cur = cur.star(self)
            dims.append(cur.k)
        return dims

    def power_sequence(self, t_max: int):
        out = [LinearCode.repetition(self.field, self.n)]
        for _ in range(t_max):
            out.append(out[-1].star(self))
        return out

    def regularity(self) -> int:
        """First exponent at which the dimension sequence stabilizes."""
        if self.k == 0:
            raise ZeroCodeError("regularity of the zero code")
        n2 = len(self.repeated_columns())
        cap = n2 - self.k + 1
        cur = LinearCode.repetition(self.field, self.n)
        t = 0
        while True:
            nxt = cur.star(self)
            if nxt.k == cur.k:
                return t
            cur = nxt
            t += 1
            if t > max(cap, 1) + 1:
                raise AssertionError("regularity exceeded its theoretical cap")

    def dim_It(self, t: int) -> int:
        """Number of independent degree-t relations among monomial generators."""
        import math

        return math.comb(self.k + t - 1, t) - self.power(t).k if t >= 1 else 0

    # -- support and columns ---------------------------------------------------

    def support(self) -> tuple:
        return tuple(int(j) for j in np.nonzero(np.any(self.G != 0, axis=0))[0])

    def n_i_sequence(self, i_max: int, budget: int = 200_000):
        """n_i = dim of the orthogonal of the span of dual words of weight <= i."""
        import math

        F = self.field
        dualG = linalg.kernel(F, self.G)
        out = [self.n]
        low_weight = np.zeros((0, self.n), dtype=np.int64)
        for i in range(1, i_max + 1):
            size = min(i, self.n)
            if math.comb(self.n, size) > budget:
                raise TooLargeError(f"C({self.n},{size}) support subsets exceed budget")
            rows = [low_weight]
            for S in itertools.combinations(range(self.n), size):
                sub = self.G[:, S]
                ker = linalg.kernel(F, sub)
                if ker.shape[0]:
                    emb = np.zeros((ker.shape[0], self.n), dtype=np.int64)
                    emb[:, S] = ker
                    rows.append(emb)
            low_weight = linalg.rref_basis(F, np.concatenate(rows, axis=0))
            out.append(self.n - low_weight.shape[0])
        return out

    def repeated_columns(self) -> Partition:
        """Classes of proportional nonzero columns (a partition of the support)."""
        F = self.field
        classes: dict = {}
        for j in self.support():
            col = self.G[:, j]
            lead = int(col[np.nonzero(col)[0][0]])
            key = tuple(int(x) for x in F.mul(F.inv(lead), col))
            classes.setdefault(key, []).append(j)
        return Partition.of(classes.values())

    def slices(self, reps=None) -> SliceData:
        """Generators of the one-dimensional slices, normalized at representatives."""
        part = self.repeated_columns()
        if reps is None:
            reps = tuple(b[0] for b in part.blocks)
        else:
            reps = tuple(reps)
            for r_, b in zip(reps, part.blocks):
                if r_ not in b:
                    raise ValueError(f"representative {r_} not in block {b}")
        F = self.field
        gens = np.zeros((len(part.blocks), self.n), dtype=np.int64)
        for i, (j_i, block) in enumerate(zip(reps, part.blocks)):
            col = self.G[:, j_i]
            r_ = int(np.nonzero(col)[0][0])
            word = F.mul(F.inv(int(col[r_])), self.G[r_])
            gens[i, list(block)] = word[list(block)]
        return SliceData(reps, gens, normalized=True)

    # -- stabilizing algebra and decomposition ---------------------------------

    def stabilizing_algebra(self):
        """(extended, proper) stabilizing algebras, via the product with the dual."""
        ext = self.star(self.dual()).dual()
        mask = np.zeros(self.n, dtype=np.int64)
        mask[list(self.support())] = 1
        proper = LinearCode(self.field, self.n, self.field.mul(ext.G, mask[None, :]))
        return ext, proper

    def decompose(self):
        """Finest partition of the support under which the code splits."""
        if self.k == 0:
            raise ZeroCodeError("decomposition of the zero code")
        _, alg = self.stabilizing_algebra()
        supp = self.support()
        # block indicators have 0/1 entries, so coordinates lie in the same
        # block exactly when their columns in the rref of the algebra agree
        groups: dict = {}
        for j in supp:
            groups.setdefault(tuple(int(x) for x in alg.G[:, j]), []).append(j)
        part = Partition.of(groups.values())
        comps = []
        for block in part.blocks:
            mask = np.zeros(self.n, dtype=np.int64)
            mask[list(block)] = 1
            comps.append(LinearCode(self.field, self.n, self.field.mul(self.G, mask[None, :])))
        assert sum(c.k for c in comps) == self.k
        return part, comps

    def stable_structure(self) -> SliceData:
        """Slice generators spanning all sufficiently high powers."""
        if self.k == 0:
            raise ZeroCodeError("stable structure of the zero code")
        sd = self.slices()
        n2 = sd.generators.shape[0]
        r = self.regularity()
        assert r <= n2 - self.k + 1
        stable = self.power(max(r, 1))
        assert stable.k == n2
        powered = self.field.pow(sd.generators, max(r, 1))
        assert LinearCode(self.field, self.n, powered) == stable
        return sd

    # -- change of field --------------------------------------------------------

    def extend_scalars(self, emb: SubfieldEmbedding) -> "LinearCode":
        if emb.small != self.field:
            raise MismatchError("embedding does not start at this code's field")
        return LinearCode(emb.big, self.n, emb.embed_array(self.G))

    def full_support_word(self, budget: int = DEFAULT_WORD_BUDGET):
        """A word of full support over the smallest sufficient extension field.

        Returns ``(emb, word)`` with ``emb`` the base-field embedding into
        GF(q^d), d <= k, and ``word`` over the big field with support equal
        to the support of the code.
        """
        if self.k == 0:
            raise ZeroCodeError("the zero code has no full-support word")
        supp = self.support()
        if len(supp) > 16:
            raise TooLargeError("support too large for the inclusion-exclusion count")
        F = self.field
        # rank of every column subset, for counting full-support words
        ranks = {}
        for size in range(len(supp) + 1):
            for T in itertools.combinations(supp, size):
                ranks[T] = linalg.rank(F, self.G[:, T]) if T else 0
        for d in range(1, self.k + 1):
            Q = F.q**d
            count = 0
            for T, r_ in ranks.items():
                count += (-1) ** len(T) * Q ** (self.k - r_)
            if count <= 0:
                continue
            big = F if d == 1 else GF(F.p, F.e * d)
            emb = SubfieldEmbedding(F, big)
            word = self._find_full_support_word(emb, budget)
            if word is not None:
                return emb, word
        raise AssertionError("a full-support word exists over GF(q^k)")

    def _find_full_support_word(self, emb: SubfieldEmbedding, budget: int):
        big = emb.big
        supp = set(self.support())
        rows = emb.embed_array(self.G)
        # greedy accumulation, valid whenever enough scalars are available
        c = rows[0].copy()
        ok = True
        for i in range(1, self.k):
            row = rows[i]
            bad = {0} if (row != 0).any() else set()
            for j in np.nonzero((c != 0) & (row != 0))[0]:
                bad.add(big.neg(big.div(int(c[j]), int(row[j]))))
            lam = next((x for x in range(big.q) if x not in bad), None)
            if lam is None:
                ok = False
                break
            c = big.add(c, big.mul(lam, row))
        if ok and set(int(j) for j in np.nonzero(c)[0]) == supp:
            return c
        # exhaustive fallback; codeword supports never leave Supp(C)
        if big.q**self.k <= budget:
            for words in word_blocks(big, rows, budget):
                hits = np.nonzero(np.all(words[:, sorted(supp)] != 0, axis=1))[0]
                if len(hits):
                    return words[hits[0]]
        return None

    # -- symmetries ---------------------------------------------------------------

    def permuted(self, sigma) -> "LinearCode":
        """The code of words x^sigma with (x^sigma)_i = x_{sigma(i)}."""
        sigma = list(sigma)
        return LinearCode(self.field, self.n, self.G[:, sigma])

    def symmetry_group(self, limit: int = 8):
        """All coordinate permutations fixing the code; brute force."""
        if self.n > limit:
            raise TooLargeError(f"n = {self.n} exceeds the symmetry search limit {limit}")
        out = []
        for sigma in itertools.permutations(range(self.n)):
            if self.permuted(sigma) == self:
                out.append(sigma)
        return out


def trace_descent(code: LinearCode, emb: SubfieldEmbedding) -> LinearCode:
    """Componentwise-trace image of a code over the big field.

    The result C0 over the small field has the same support and satisfies
    C' subset (C0 extended back to the big field).
    """
    if emb.big != code.field:
        raise MismatchError("embedding does not end at this code's field")
    big, r = emb.big, emb.r
    X = big.from_coeffs([0, 1]) if big.e > 1 else 1
    rows = []
    for row in code.G:
        lam = 1
        for _ in range(r):
            scaled = big.mul(lam, row)
            rows.append(emb.trace_array(scaled))
            lam = big.mul(lam, X)
    if not rows:
        return LinearCode.zero(emb.small, code.n)
    return LinearCode(emb.small, code.n, np.array(rows, dtype=np.int64))

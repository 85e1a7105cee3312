"""Construction-D lattices from nested chains of codes over GF(p).

A chain C_0 in C_1 in ... in C_a = GF(p)^n and a lifting of GF(p) into
Z/p^a define the candidate set

    Lambda = eps(C_0) + p eps(C_1) + ... + p^(a-1) eps(C_(a-1)) + p^a Z^n.

Whether Lambda is closed under addition is governed by carry operations:
digit tables kappa_j with

    eps(x) + eps(y) = eps(x+y) + p eps(kappa_1(x,y)) + ... mod p^a.

Lambda is a lattice exactly when the componentwise carries of each level
stay inside the next codes of the chain; at tiny sizes the verdict is
cross-checked against exhaustive additive closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bounds import BoundReport
from .codes import LinearCode
from .errors import MismatchError, PreconditionError, TooLargeError
from .fields import FieldSpec, _is_prime


@dataclass(frozen=True)
class Lifting:
    """A section of reduction mod p, with its carry digit tables."""

    p: int
    a: int
    kind: str
    reps: np.ndarray  # reps[x] = eps(x) in [0, p^a)
    carries: np.ndarray  # shape (a-1, p, p), GF(p) values

    @property
    def modulus(self) -> int:
        return self.p**self.a

    def eps(self, vec) -> np.ndarray:
        return self.reps[np.asarray(vec, dtype=np.int64)]

    def kappa(self, j: int, u, v) -> np.ndarray:
        """Componentwise j-th carry of two GF(p) words (1 <= j < a)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return self.carries[j - 1][u, v]


def build_lifting(p: int, a: int, kind: str = "naive") -> Lifting:
    """Representatives and exact carry tables for the chosen lifting."""
    if not _is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if a < 1:
        raise PreconditionError("depth must be >= 1")
    if kind not in ("naive", "teichmuller"):
        raise ValueError(f"unknown lifting kind {kind!r}")
    mod = p**a
    reps = np.zeros(p, dtype=np.int64)
    if kind == "naive":
        reps[:] = np.arange(p)
    else:
        for x in range(1, p):
            y = x
            for _ in range(a + 1):
                y = pow(y, p, mod)
            assert pow(y, p, mod) == y and y % p == x
            reps[x] = y
    carries = np.zeros((max(a - 1, 0), p, p), dtype=np.int64)
    for x in range(p):
        for y in range(p):
            D = (int(reps[x]) + int(reps[y]) - int(reps[(x + y) % p])) % mod
            assert D % p == 0
            for j in range(1, a):
                digit = (D // p**j) % p
                carries[j - 1, x, y] = digit
                D = (D - p**j * int(reps[digit])) % mod
                assert D % p ** (j + 1) == 0
            assert D == 0
    lift = Lifting(p, a, kind, reps, carries)
    _check_carry_identity(lift)
    return lift


def _check_carry_identity(lift: Lifting):
    p, a, mod = lift.p, lift.a, lift.modulus
    for x in range(p):
        for y in range(p):
            rhs = int(lift.reps[(x + y) % p])
            for j in range(1, a):
                rhs += p**j * int(lift.reps[lift.carries[j - 1, x, y]])
            assert (int(lift.reps[x]) + int(lift.reps[y])) % mod == rhs % mod


@dataclass
class CodeChain:
    """Nested codes over a prime field, ending at the full space."""

    codes: list

    def __post_init__(self):
        if not self.codes:
            raise PreconditionError("empty chain")
        F = self.codes[0].field
        if F.e != 1:
            raise PreconditionError("chains live over a prime field")
        n = self.codes[0].n
        for C in self.codes:
            if C.field != F or C.n != n:
                raise MismatchError("chain codes must share field and length")
        for small, big in zip(self.codes, self.codes[1:]):
            if not big.contains_code(small):
                raise PreconditionError("chain is not nested")
        if self.codes[-1].k != n:
            raise PreconditionError("chain must end at the full space")

    @property
    def field(self) -> FieldSpec:
        return self.codes[0].field

    @property
    def n(self) -> int:
        return self.codes[0].n

    @property
    def depth(self) -> int:
        return len(self.codes) - 1


def _carry_span(chain: CodeChain, lift: Lifting, i: int, j: int, budget: int) -> LinearCode:
    """Span of the componentwise j-th carries over all codeword pairs of C_i."""
    C = chain.codes[i]
    q = C.field.q
    if q ** (2 * C.k) > budget:
        raise TooLargeError("carry pair enumeration exceeds budget")
    words = C.words()
    rows = []
    for u in words:
        k = lift.kappa(j, np.tile(u, (len(words), 1)), words)
        rows.append(k)
    return LinearCode(C.field, C.n, np.concatenate(rows, axis=0))


def is_lattice(chain: CodeChain, lift: Lifting, budget: int = 1 << 20) -> BoundReport:
    """The carry criterion: every kappa_j(C_i, C_i) inside C_(i+j)."""
    if lift.p != chain.field.p or lift.a != chain.depth:
        raise MismatchError("lifting depth or characteristic does not match the chain")
    a = chain.depth
    failures = []
    for i in range(a):
        for j in range(1, a - i):
            span = _carry_span(chain, lift, i, j, budget)
            if not chain.codes[i + j].contains_code(span):
                failures.append((i, j))
    return BoundReport(
        "lattice-criterion",
        {"p": lift.p, "a": a, "n": chain.n, "dims": [C.k for C in chain.codes], "lifting": lift.kind},
        None,
        None,
        not failures,
        {"violated": failures},
    )


def lambda_set(chain: CodeChain, lift: Lifting, budget: int = 1 << 16) -> np.ndarray:
    """All elements of Lambda modulo p^a, one vector per row, deduplicated."""
    a, mod = chain.depth, lift.modulus
    total = 1
    for C in chain.codes[:a]:
        total *= C.field.q**C.k
    if total > budget:
        raise TooLargeError("chain enumeration exceeds budget")
    acc = np.zeros((1, chain.n), dtype=np.int64)
    for i in range(a):
        words = chain.codes[i].words()
        lifted = (lift.p**i) * lift.eps(words)
        acc = (np.repeat(acc, len(lifted), axis=0) + np.tile(lifted, (len(acc), 1))) % mod
        acc = np.unique(acc, axis=0)
    return acc


def closure_is_lattice(chain: CodeChain, lift: Lifting, budget: int = 1 << 16):
    """Exhaustive additive-closure verdict, with a counterexample pair.

    Lambda (mod p^a) is a subgroup exactly when it equals the subgroup it
    generates, computed by breadth-first closure.
    """
    S = lambda_set(chain, lift, budget)
    mod = lift.modulus
    keys = {tuple(int(x) for x in v) for v in S}
    group = set(keys)
    frontier = list(keys)
    grew = False
    while frontier and not grew:
        fresh = []
        for start in range(0, len(frontier), 64):
            base = np.array(frontier[start : start + 64], dtype=np.int64)
            sums = ((base[:, None, :] + S[None, :, :]) % mod).reshape(-1, chain.n)
            for v in map(tuple, sums.tolist()):
                if v not in group:
                    group.add(v)
                    fresh.append(v)
        frontier = fresh
        grew = len(group) > len(keys)
    if not grew:
        return True, None
    for u in keys:
        for v in keys:
            s = tuple((x + y) % mod for x, y in zip(u, v))
            if s not in keys:
                return False, (u, v, s)
    raise AssertionError("closure failed but no violating pair found")


def lattice_invariants(chain: CodeChain, lift: Lifting, budget: int = 1 << 16):
    """(determinant volume, minimum squared norm) of the lattice.

    The volume is the index in Z^n; the minimum norm scans balanced
    residues of all classes mod p^a plus the p^a Z^n tail.
    """
    rep = is_lattice(chain, lift)
    if not rep.holds:
        raise PreconditionError("the chain does not define a lattice")
    a, p, mod = chain.depth, lift.p, lift.modulus
    volume = p ** sum(chain.n - C.k for C in chain.codes[:a])
    S = lambda_set(chain, lift, budget)
    balanced = np.minimum(S, mod - S)
    norms = (balanced**2).sum(axis=1)
    nonzero = norms[np.any(S != 0, axis=1)]
    min_norm = mod**2
    if nonzero.size:
        min_norm = min(min_norm, int(nonzero.min()))
    return volume, min_norm

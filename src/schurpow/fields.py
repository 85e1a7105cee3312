"""Exact arithmetic in finite fields GF(p^e).

Elements are packed integers: the element with polynomial coefficients
``c_0 + c_1 x + ... + c_{e-1} x^{e-1}`` (low to high, over GF(p)) is stored
as ``sum(c_i * p**i)``.  This packed integer is also the wire and file
representation.

A :class:`FieldSpec` carries the modulus polynomial and one of three
representations of the arithmetic, chosen by the field size q:

- q <= 256: q x q pair tables.  ``mul`` (every p) and, for odd p, ``add``
  and ``sub`` are one lookup each; ``neg`` looks up row 0 of the ``sub``
  table.  In characteristic 2, ``add``, ``sub`` and ``neg`` are XOR.
- q <= 2**16: log/antilog tables for ``mul``; for odd p with e > 1,
  ``add``, ``sub`` and ``neg`` work digit-wise on the base-p coefficients.
- q > 2**16: schoolbook polynomial arithmetic, element by element.

Every path vectorizes over numpy int64 arrays.  The pair tables return a
Python ``int`` for scalar operands, and an operand >= q raises
``IndexError`` there rather than landing on another table entry.  Specs and
tables are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import NotABasisError, SpecMismatchError

_TABLE_LIMIT = 1 << 16
_PAIR_LIMIT = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p), coefficients as python lists (low to high).
# ---------------------------------------------------------------------------

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmod(f, g, p):
    f = f[:]
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        if f[-1] == 0:
            f.pop()
            continue
        c = (f[-1] * inv_lead) % p
        shift = len(f) - 1 - dg
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
        _ptrim(f)
    return f


def _pmulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                out[i + j] = (out[i + j] + ac * bc) % p
    return _pmod(out, g, p)


def _pgcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppow(base, exp, g, p):
    result = [1]
    base = _pmod(base[:], g, p)
    while exp:
        if exp & 1:
            result = _pmulmod(result, base, g, p)
        base = _pmulmod(base, base, g, p)
        exp >>= 1
    return result


def is_irreducible(coeffs, p) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    Degree <= 3 is settled by a root scan; in general we check that
    gcd(x^(p^i) - x, f) = 1 for all i < deg f, which rules out any factor
    of degree < deg f.
    """
    f = list(coeffs)
    e = len(f) - 1
    if e < 1 or f[-1] != 1:
        return False
    if e == 1:
        return True
    if e <= 3:
        for a in range(p):
            acc = 0
            for c in reversed(f):
                acc = (acc * a + c) % p
            if acc == 0:
                return False
        return True
    h = [0, 1]
    for _ in range(1, e):
        h = _ppow(h, p, f, p)
        diff = h[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff[:]), p)
        if len(g) - 1 > 0:
            return False
    return True


_MODULUS_CACHE: dict = {}


def default_modulus(p: int, e: int):
    """Smallest irreducible monic modulus of degree e, by packed value.

    For e = 1 the placeholder is the polynomial x, and arithmetic is plain
    integers mod p.
    """
    key = (p, e)
    if key in _MODULUS_CACHE:
        return _MODULUS_CACHE[key]
    if e == 1:
        mod = (0, 1)
    else:
        mod = None
        for packed in range(p**e):
            c, low = packed, []
            for _ in range(e):
                low.append(c % p)
                c //= p
            cand = tuple(low) + (1,)
            if is_irreducible(cand, p):
                mod = cand
                break
        assert mod is not None
    _MODULUS_CACHE[key] = mod
    return mod


# ---------------------------------------------------------------------------
# Field spec
# ---------------------------------------------------------------------------

_SPEC_CACHE: dict = {}


def GF(p: int, e: int = 1, modulus=None) -> "FieldSpec":
    """Get (or build) the field GF(p^e); specs are cached and shared."""
    if modulus is None:
        modulus = default_modulus(p, e)
    modulus = tuple(int(c) % p for c in modulus)
    key = (p, e, modulus)
    if key not in _SPEC_CACHE:
        _SPEC_CACHE[key] = FieldSpec(p, e, modulus)
    return _SPEC_CACHE[key]


def field_of_order(q) -> "FieldSpec":
    """The field with q elements (default modulus), or a spec passed through."""
    if isinstance(q, FieldSpec):
        return q
    q = int(q)
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while q % p:
        p += 1
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return GF(p, e)


def from_header(s: str) -> "FieldSpec":
    """Parse a field header string "p^e/modulus-packed"."""
    pe, _, m = s.partition("/")
    ps, _, es = pe.partition("^")
    p, e, packed = int(ps), int(es), int(m)
    coeffs = []
    for _ in range(e + 1):
        coeffs.append(packed % p)
        packed //= p
    return GF(p, e, coeffs)


class FieldSpec:
    """GF(p^e) with explicit modulus polynomial and lookup tables."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = int(p)
        self.e = int(e)
        self.q = p**e
        if modulus is None:
            modulus = default_modulus(p, e)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if e > 1 and not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._has_tables = self.q <= _TABLE_LIMIT
        self._has_pairs = self.q <= _PAIR_LIMIT
        if self._has_tables:
            self._build_tables()

    # -- construction ------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Schoolbook polynomial product mod the modulus, on packed ints."""
        p, e = self.p, self.e
        da = self._digits_int(a)
        db = self._digits_int(b)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce x^(e+i) via modulus
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * self.modulus[j]) % p
        out = 0
        for i in range(e - 1, -1, -1):
            out = out * p + prod[i]
        return out

    def _digits_int(self, a: int):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _pow_raw(self, a: int, m: int) -> int:
        out, base = 1, a
        while m:
            if m & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            m >>= 1
        return out

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        self._pw = np.array([p**i for i in range(e)], dtype=np.int64)
        digs = np.zeros((q, e), dtype=np.int64)
        vals = np.arange(q)
        for i in range(e):
            digs[:, i] = (vals // (p**i)) % p
        self._dig = digs
        # multiplicative generator
        primes = _factor(q - 1) if q > 2 else []
        g = None
        for cand in range(2, q):
            if all(self._pow_raw(cand, (q - 1) // ell) != 1 for ell in primes):
                g = cand
                break
        if g is None:
            g = 1  # q = 2
        self.generator = g
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, g)
        self._exp = exp
        self._log = log
        self._exp2 = np.concatenate([exp, exp])
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[(-(log[exp])) % (q - 1)]
        self._inv = inv
        if self._has_pairs:
            mul = self._exp2[log[:, None] + log[None, :]]
            mul[0, :] = 0
            mul[:, 0] = 0
            self._mul_t = mul
            if p != 2:
                self._add_t = ((digs[:, None, :] + digs[None, :, :]) % p) @ self._pw
                self._sub_t = ((digs[:, None, :] - digs[None, :, :]) % p) @ self._pw

    # -- identity ----------------------------------------------------------

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int):
        """Polynomial coefficients of a packed element, low to high."""
        return tuple(self._digits_int(int(a)))

    def from_coeffs(self, cs) -> int:
        out = 0
        for c in reversed(list(cs)):
            out = out * self.p + (int(c) % self.p)
        return out

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    def elem(self, v) -> "FieldElem":
        return FieldElem(self, int(v))

    def header(self) -> str:
        packed = self.from_coeffs(self.modulus[:-1]) + self.p**self.e
        return f"{self.p}^{self.e}/{packed}"

    # -- arithmetic (ints or numpy arrays) ---------------------------------

    def _digits_array(self, a: np.ndarray) -> np.ndarray:
        if self._has_tables:
            return self._dig[a]
        out = np.empty(a.shape + (self.e,), dtype=np.int64)
        acc = a
        for i in range(self.e):
            out[..., i] = acc % self.p
            acc = acc // self.p
        return out

    @staticmethod
    def _lookup(table, a, b):
        """``table[a, b]`` for a q x q pair table, on scalars or arrays.

        Indexing in two dimensions makes an operand >= q raise IndexError;
        a flat ``a*q + b`` index would alias it to another entry.
        """
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            return table.item(a, b)
        return table[a, b]

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._has_pairs:
            return self._lookup(self._add_t, a, b)
        if self.e == 1:
            return (a + b) % self.p
        scalar = isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        s = (self._digits_array(a) + self._digits_array(b)) % self.p
        pw = self._pw if self._has_tables else np.array([self.p**i for i in range(self.e)], dtype=np.int64)
        out = s @ pw
        return int(out) if scalar else out

    def neg(self, a):
        if self.p == 2:
            return a ^ 0
        if self._has_pairs:
            return self._lookup(self._sub_t, 0, a)
        if self.e == 1:
            return (-a) % self.p
        scalar = isinstance(a, (int, np.integer))
        a = np.asarray(a, dtype=np.int64)
        s = (-self._digits_array(a)) % self.p
        pw = self._pw if self._has_tables else np.array([self.p**i for i in range(self.e)], dtype=np.int64)
        out = s @ pw
        return int(out) if scalar else out

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._has_pairs:
            return self._lookup(self._sub_t, a, b)
        if self.e == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._has_pairs:
            return self._lookup(self._mul_t, a, b)
        if self.e == 1:
            return (a * b) % self.p
        scalar = isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))
        if scalar:
            ia, ib = int(a), int(b)
            if ia == 0 or ib == 0:
                return 0
            if not self._has_tables:
                return self._mul_raw(ia, ib)
            return int(self._exp2[self._log[ia] + self._log[ib]])
        a = np.asarray(a)
        b = np.asarray(b)
        if not self._has_tables:
            return np.vectorize(lambda x, y: self._mul_raw(int(x), int(y)), otypes=[np.int64])(a, b)
        out = self._exp2[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        if isinstance(a, (int, np.integer)):
            ia = int(a)
            if ia == 0:
                raise ZeroDivisionError("inverse of zero")
            if self.e == 1:
                return pow(ia, self.p - 2, self.p)
            if not self._has_tables:
                return self._pow_raw(ia, self.q - 2)
            return int(self._inv[ia])
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        if not self._has_tables:
            return np.vectorize(lambda x: self._pow_raw(int(x), self.q - 2), otypes=[np.int64])(a)
        return self._inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, m: int):
        m = int(m)
        if m < 0:
            return self.pow(self.inv(a), -m)
        if isinstance(a, (int, np.integer)):
            ia = int(a)
            if ia == 0:
                return 1 if m == 0 else 0
            if not self._has_tables:
                return self._pow_raw(ia, m % (self.q - 1))
            return int(self._exp[(self._log[ia] * (m % (self.q - 1))) % (self.q - 1)])
        a = np.asarray(a)
        if m == 0:
            return np.ones_like(a)
        if not self._has_tables:
            mm = m % (self.q - 1)
            return np.vectorize(
                lambda x: self._pow_raw(int(x), mm) if x else 0, otypes=[np.int64]
            )(a)
        out = self._exp[(self._log[a] * (m % (self.q - 1))) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def frobenius(self, a, j: int = 1, base: int | None = None):
        """a^(base^j); base defaults to the characteristic p."""
        if j < 0:
            raise ValueError("frobenius exponent must be >= 0")
        b = self.p if base is None else int(base)
        return self.pow(a, pow(b, j, self.q - 1) if self.q > 2 else 1)


class FieldElem:
    """A single field element: a spec handle plus a packed value."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value: int):
        if not 0 <= value < field.q:
            raise ValueError(f"value {value} out of range for {field}")
        self.field = field
        self.value = int(value)

    @property
    def coeffs(self):
        return self.field.coeffs(self.value)

    def _check(self, other):
        if not isinstance(other, FieldElem) or other.field != self.field:
            raise SpecMismatchError(f"operands in different fields")
        return other

    def __add__(self, other):
        return FieldElem(self.field, self.field.add(self.value, self._check(other).value))

    def __sub__(self, other):
        return FieldElem(self.field, self.field.sub(self.value, self._check(other).value))

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.value))

    def __mul__(self, other):
        return FieldElem(self.field, self.field.mul(self.value, self._check(other).value))

    def __truediv__(self, other):
        return FieldElem(self.field, self.field.div(self.value, self._check(other).value))

    def __pow__(self, m: int):
        return FieldElem(self.field, self.field.pow(self.value, m))

    def inverse(self):
        return FieldElem(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"{self.field}:{self.value}"

    def __bool__(self):
        return self.value != 0


# ---------------------------------------------------------------------------
# Subfield embeddings, trace, bases
# ---------------------------------------------------------------------------


class SubfieldEmbedding:
    """The extension GF(q) inside GF(q^r), as an explicit ring embedding.

    The image of the small field's polynomial generator is the smallest
    (by packed value) root of the small modulus in the big field, so the
    embedding is reproducible across runs.
    """

    def __init__(self, small: FieldSpec, big: FieldSpec, gen_image: int | None = None):
        if small.p != big.p or big.e % small.e != 0:
            raise SpecMismatchError(f"{small} does not embed in {big}")
        self.small = small
        self.big = big
        self.r = big.e // small.e
        if small.e == 1:
            # prime subfield: packed values 0..p-1 are the scalars already
            gen_image = 1 if gen_image is None else gen_image
            self.gen_image = int(gen_image)
            table = np.arange(small.q, dtype=np.int64)
        elif small == big and gen_image is None:
            # the identity embedding, not a Frobenius twin
            self.gen_image = big.from_coeffs([0, 1])
            table = np.arange(small.q, dtype=np.int64)
        else:
            if gen_image is None:
                gen_image = self._find_root()
            self.gen_image = int(gen_image)
            self._check_generator_minpoly()
            table = np.zeros(small.q, dtype=np.int64)
            powers = [1]
            for _ in range(small.e - 1):
                powers.append(big.mul(powers[-1], self.gen_image))
            for x in range(small.q):
                acc = 0
                for c, gpow in zip(small.coeffs(x), powers):
                    if c:
                        acc = big.add(acc, big.mul(c, gpow))
                table[x] = acc
        self._embed_table = table
        self._restrict = {int(v): x for x, v in enumerate(table)}
        self._trace_table = None
        self._coord_setup = None

    def _find_root(self) -> int:
        big, small = self.big, self.small
        ys = np.arange(big.q, dtype=np.int64)
        acc = np.full(big.q, small.modulus[-1], dtype=np.int64)
        for c in reversed(small.modulus[:-1]):
            acc = big.add(big.mul(acc, ys), np.full(big.q, c, dtype=np.int64))
        roots = np.nonzero(acc == 0)[0]
        if len(roots) == 0:
            raise SpecMismatchError("no root of the small modulus in the big field")
        return int(roots[0])

    def _check_generator_minpoly(self):
        # powers 1, g, ..., g^(e_small - 1) must be independent over GF(p)
        big = self.big
        rows = []
        v = 1
        for _ in range(self.small.e):
            rows.append(big.coeffs(v))
            v = big.mul(v, self.gen_image)
        Fp = GF(big.p)
        if linalg.rank(Fp, np.array(rows, dtype=np.int64)) != self.small.e:
            raise SpecMismatchError("embedding image does not generate a copy of the small field")

    def embed(self, x: int) -> int:
        return int(self._embed_table[x])

    def embed_array(self, xs):
        return self._embed_table[np.asarray(xs, dtype=np.int64)]

    def in_image(self, y: int) -> bool:
        return int(y) in self._restrict

    def restrict(self, y: int) -> int:
        try:
            return self._restrict[int(y)]
        except KeyError:
            raise ValueError(f"{y} is not in the embedded subfield") from None

    def trace_value(self, y: int) -> int:
        """Tr(y) = sum of y^(q^j), j < r, returned as a small-field value."""
        if self._trace_table is None:
            big = self.big
            ys = np.arange(big.q, dtype=np.int64)
            acc = ys.copy()
            cur = ys.copy()
            for _ in range(self.r - 1):
                cur = big.pow(cur, self.small.q)
                acc = big.add(acc, cur)
            self._trace_table = np.array(
                [self._restrict[int(v)] for v in acc], dtype=np.int64
            )
        return int(self._trace_table[int(y)])

    def trace_array(self, ys):
        self.trace_value(0)
        return self._trace_table[np.asarray(ys, dtype=np.int64)]

    # -- coordinates of the big field over the small one -------------------

    def _coords_matrix(self):
        """Inverse change-of-basis for the basis X^m (m < r) over GF(q)."""
        if self._coord_setup is None:
            big, small, r = self.big, self.small, self.r
            p = big.p
            X = big.from_coeffs([0, 1]) if big.e > 1 else 0
            cols = []
            xpow = 1
            for _ in range(r):
                for l in range(small.e):
                    scalar = self.embed(small.from_coeffs([0] * l + [1]))
                    cols.append(big.coeffs(big.mul(scalar, xpow)))
                xpow = big.mul(xpow, X) if big.e > 1 else xpow
            A = np.array(cols, dtype=np.int64).T  # e_big x e_big over GF(p)
            Fp = GF(p)
            aug = np.concatenate([A, np.eye(big.e, dtype=np.int64)], axis=1)
            red, piv = linalg.rref(Fp, aug)
            assert piv[: big.e] == tuple(range(big.e))
            self._coord_setup = red[:, big.e :]
        return self._coord_setup

    def coords(self, y: int):
        """Coordinates of y over the small field w.r.t. the basis X^m, m < r."""
        Ainv = self._coords_matrix()
        Fp = GF(self.big.p)
        digits = np.array(self.big.coeffs(int(y)), dtype=np.int64)
        c = linalg.matmul(Fp, Ainv, digits.reshape(-1, 1)).ravel()
        small = self.small
        out = []
        for m in range(self.r):
            out.append(small.from_coeffs(c[m * small.e : (m + 1) * small.e]))
        return tuple(out)

    def coords_array(self, ys):
        return np.array([self.coords(int(y)) for y in np.asarray(ys).ravel()], dtype=np.int64)

    def __repr__(self):
        return f"Embedding({self.small} in {self.big})"


def trace(a: FieldElem, emb: SubfieldEmbedding) -> FieldElem:
    """Field trace of the extension, landing in the small field."""
    if a.field != emb.big:
        raise SpecMismatchError("element is not in the big field of the embedding")
    return FieldElem(emb.small, emb.trace_value(a.value))


def dual_basis(basis, emb: SubfieldEmbedding):
    """The basis (b_i*) with Tr(b_i* b_j) = delta_ij.

    Raises :class:`NotABasisError` when the input does not span.
    """
    big, small, r = emb.big, emb.small, emb.r
    vals = [b.value if isinstance(b, FieldElem) else int(b) for b in basis]
    if len(vals) != r:
        raise NotABasisError(f"expected {r} elements, got {len(vals)}")
    coord_rows = np.array([emb.coords(v) for v in vals], dtype=np.int64)
    if linalg.rank(small, coord_rows) != r:
        raise NotABasisError("input elements are linearly dependent")
    gram = np.array(
        [[emb.trace_value(big.mul(vi, vj)) for vj in vals] for vi in vals],
        dtype=np.int64,
    )
    aug = np.concatenate([gram, np.eye(r, dtype=np.int64)], axis=1)
    red, piv = linalg.rref(small, aug)
    if piv[:r] != tuple(range(r)):
        raise NotABasisError("trace Gram matrix is singular")
    C = red[:, r:]
    out = []
    for i in range(r):
        acc = 0
        for m in range(r):
            acc = big.add(acc, big.mul(emb.embed(int(C[i, m])), vals[m]))
        out.append(FieldElem(big, acc))
    return out


def normal_basis(emb: SubfieldEmbedding) -> FieldElem:
    """A generator of a normal basis, found by exhaustive scan."""
    big, small, r = emb.big, emb.small, emb.r
    for g in range(1, big.q):
        rows = []
        v = g
        for _ in range(r):
            rows.append(emb.coords(v))
            v = big.pow(v, small.q)
        if linalg.rank(small, np.array(rows, dtype=np.int64)) == r:
            return FieldElem(big, g)
    raise AssertionError("normal basis must exist")

"""Constructors for the standard code families used as fixtures.

All constructors are pure and deterministic: evaluation points are taken
in packed-encoding order and projective representatives are normalized to
leading coordinate 1, so the same parameters always give the same code.
"""

from __future__ import annotations

import itertools

import numpy as np

from .codes import LinearCode
from .errors import PreconditionError
from .fields import FieldSpec, field_of_order as _field


def repetition(q, n: int) -> LinearCode:
    return LinearCode.repetition(_field(q), n)


def full_space(q, n: int) -> LinearCode:
    return LinearCode.full(_field(q), n)


def parity(q, n: int) -> LinearCode:
    return repetition(q, n).dual()


def reed_solomon(q, n: int, k: int, points=None, at_infinity: bool = False) -> LinearCode:
    """Evaluations of polynomials of degree < k at n distinct points.

    Default points are 0, 1, ... in packed-encoding order; with
    ``at_infinity`` the last column evaluates the top coefficient.
    """
    F = _field(q)
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= n, got k={k}, n={n}")
    n_affine = n - 1 if at_infinity else n
    if points is None:
        points = list(range(n_affine))
    else:
        points = [int(x) for x in points]
    if len(set(points)) != len(points):
        raise PreconditionError("evaluation points must be distinct")
    if len(points) != n_affine or max(points, default=-1) >= F.q:
        raise PreconditionError(f"length {n} too large for GF({F.q})")
    pts = np.array(points, dtype=np.int64)
    rows = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        rows[i, :n_affine] = F.pow(pts, i)
    if at_infinity:
        rows[k - 1, n - 1] = 1
    return LinearCode(F, n, rows)


def _affine_points(F: FieldSpec, m: int) -> np.ndarray:
    pts = np.zeros((F.q**m, m), dtype=np.int64)
    vals = np.arange(F.q**m)
    for i in range(m):
        pts[:, i] = (vals // F.q**i) % F.q
    return pts


def reed_muller(q, r: int, m: int) -> LinearCode:
    """Evaluations on GF(q)^m of polynomials of total degree <= r.

    Exponents are reduced per variable modulo x^q - x, so the rows range
    over monomials with each exponent below q.
    """
    F = _field(q)
    if r < 0 or m < 1:
        raise PreconditionError("need r >= 0 and m >= 1")
    pts = _affine_points(F, m)
    rows = []
    for expo in itertools.product(range(F.q), repeat=m):
        if sum(expo) > r:
            continue
        row = np.ones(len(pts), dtype=np.int64)
        for i, e in enumerate(expo):
            if e:
                row = F.mul(row, F.pow(pts[:, i], e))
        rows.append(row)
    return LinearCode(F, F.q**m, np.array(rows, dtype=np.int64))


def projective_points(F: FieldSpec, nvars: int) -> np.ndarray:
    """Canonical representatives of projective points, in packed order.

    The representative of each class has its first nonzero coordinate
    equal to 1; classes are ordered by the packed integer encoding of the
    representative.
    """
    out = []
    for packed in range(1, F.q**nvars):
        v = [(packed // F.q**i) % F.q for i in range(nvars)]
        lead = next(x for x in v if x != 0)
        if lead == 1:
            out.append(v)
    return np.array(out, dtype=np.int64)


def simplex(q, nvars: int) -> LinearCode:
    """The [(q^n - 1)/(q - 1), n] code evaluating coordinates at projective points."""
    F = _field(q)
    pts = projective_points(F, nvars)
    return LinearCode(F, len(pts), pts.T.copy())


def projective_reed_muller(q, t: int, n_minus_1: int) -> LinearCode:
    """Evaluations of degree-t forms at canonical projective representatives."""
    F = _field(q)
    if t < 1:
        raise PreconditionError("degree must be >= 1")
    nvars = n_minus_1 + 1
    pts = projective_points(F, nvars)
    rows = []
    for combo in itertools.combinations_with_replacement(range(nvars), t):
        row = np.ones(len(pts), dtype=np.int64)
        for i in combo:
            row = F.mul(row, pts[:, i])
        rows.append(row)
    return LinearCode(F, len(pts), np.array(rows, dtype=np.int64))


def partition_code(q, n: int, blocks) -> LinearCode:
    """Span of the characteristic vectors of disjoint coordinate blocks."""
    F = _field(q)
    rows = np.zeros((len(list(blocks)), n), dtype=np.int64)
    seen: set = set()
    for i, b in enumerate(blocks):
        b = [int(x) for x in b]
        if not b or min(b) < 0 or max(b) >= n:
            raise PreconditionError(f"block {b} out of range")
        if seen & set(b):
            raise PreconditionError("blocks overlap")
        seen |= set(b)
        rows[i, b] = 1
    return LinearCode(F, n, rows)


def random_code(q, n: int, k: int, seed) -> LinearCode:
    """A uniformly random [n, k] code; reproducible for a fixed seed."""
    F = _field(q)
    if not 0 <= k <= n:
        raise PreconditionError(f"need 0 <= k <= n")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    while True:
        C = LinearCode(F, n, rng.integers(0, F.q, (k, n)))
        if C.k == k:
            return C


_KINDS = {
    "repetition": (repetition, ("q", "n")),
    "parity": (parity, ("q", "n")),
    "full": (full_space, ("q", "n")),
    "simplex": (simplex, ("q", "n")),
    "rs": (reed_solomon, ("q", "n", "k")),
    "rm": (reed_muller, ("q", "r", "m")),
    "prm": (projective_reed_muller, ("q", "t", "m")),
    "random": (random_code, ("q", "n", "k", "seed")),
}


def from_spec(spec: str) -> LinearCode:
    """Build a code from a compact string, e.g. "rs:q=5,n=5,k=3".

    Kinds: repetition, parity, full, simplex (q,n); rs (q,n,k);
    rm (q,r,m); prm (q,t,m); random (q,n,k,seed);
    partition (q,n,blocks=0.1|2.3 style).
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    params = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        params[key.strip()] = val.strip()
    if kind != "partition" and kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    names = ("q", "n", "blocks") if kind == "partition" else _KINDS[kind][1]
    missing = [name for name in names if name not in params]
    if missing:
        raise PreconditionError(f"family {kind!r} needs parameter {missing[0]!r}")
    if kind == "partition":
        blocks = [
            [int(x) for x in blk.split(".")] for blk in params["blocks"].split("|")
        ]
        return partition_code(int(params["q"]), int(params["n"]), blocks)
    fn, names = _KINDS[kind]
    return fn(*[int(params[name]) for name in names])

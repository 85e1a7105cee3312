"""The benchmark's three workloads, as rounds of seeded jobs.

A round is one pass over a workload's job mix.  Every job in a round is a
fresh instance drawn from ``rng``: the program receives only generated
matrices, spec strings and files, builds its own ``LinearCode`` objects
inside the job, and never sees the same instance twice in a run (the
verifiers driven by small parameters cycle through a pool instead; see
``README.md``).  Each job carries a check that runs after timing, against
the independent arithmetic in :mod:`oracle`, values stored in
``expected.json``, or a closed-form identity.

- ``structure``: elimination-heavy code operations on mid-size matrices,
  n = 26..64 over GF(2), GF(9), GF(16), GF(27) and GF(49).  No enumeration.
- ``distance``: exact minimum distances and weight distributions over
  GF(2), GF(3), GF(4) and GF(9) with 6561 to 65536 words enumerated per
  code, low rate (direct) and high rate (MacWilliams through the dual).
- ``verify``: the paper's verifiers driven through ``cli.cli_main`` in
  process, plus ``lattices.closure_is_lattice`` as a library call; many
  tiny codes and many small eliminations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle as O

WORKLOADS = ("structure", "distance", "verify")
FIELDS = {"structure": (2, 9, 16, 27, 49), "distance": (2, 3, 4, 9), "verify": (2, 3, 4, 7)}

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


class Mismatch(Exception):
    """A job's answer disagrees with its reference."""


def expect(cond, msg: str):
    if not cond:
        raise Mismatch(msg)


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class Context:
    """The program's fields and the matching reference fields, built in set-up."""

    def __init__(self, workload: str, workdir: str):
        from schurpow import cli, codes, fields, lattices, linalg, metrics

        self.cli, self.codes, self.lattices, self.linalg, self.metrics = cli, codes, lattices, linalg, metrics
        self.workdir = workdir
        self.F = {q: fields.field_of_order(q) for q in FIELDS[workload]}
        self.R = {q: O.RefField(F.p, F.modulus) for q, F in self.F.items()}
        self.files = 0

    def code(self, q, g):
        return self.codes.LinearCode(self.F[q], np.shape(g)[1], g)

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.cli_main(list(argv))
        return status, out.getvalue(), err.getvalue()

    def write_code(self, q, g) -> str:
        return self._write([(q, g)])

    def write_chain(self, p, mats) -> str:
        return self._write([(p, g) for g in mats])

    def _write(self, blocks) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}.txt")
        parts = []
        for q, g in blocks:
            F = self.F[q]
            header = f"{F.p}^{F.e}/{sum(c * F.p**i for i, c in enumerate(F.modulus))}"
            g = np.asarray(g)
            rows = [" ".join(str(int(x)) for x in row) for row in g]
            parts.append("\n".join([header, f"{g.shape[1]} {g.shape[0]}", *rows]) + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts))
        return path


def make_round(workload: str, ctx: Context, rng) -> list:
    return {"structure": structure, "distance": distance, "verify": verify}[workload](ctx, rng)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def structure(ctx: Context, rng) -> list:
    R, linalg = ctx.R, ctx.linalg
    jobs = []

    for q in (9, 16):
        m = rng.integers(0, q, (60, 60))
        jobs.append(Job(
            f"rank60_gf{q}",
            lambda m=m, q=q: linalg.rank(ctx.F[q], m),
            lambda r, m=m, q=q: expect(r == O.rank(R[q], m), f"rank {r}"),
        ))

    g = O.grs(R[49], rng, 40, 10)
    want = [min(40, 9 * t + 1) for t in range(7)]
    jobs.append(Job(
        "grs40_10_gf49_dim_sequence",
        lambda g=g: ctx.code(49, g).dim_sequence(6),
        lambda r: expect(list(r) == want, f"dims {r}"),
    ))

    g = O.grs(R[27], rng, 26, 6)
    jobs.append(Job(
        "grs26_6_gf27_power_regularity",
        lambda g=g: (lambda C: (C.power(4).k, C.regularity()))(ctx.code(27, g)),
        lambda r: expect(tuple(r) == (21, math.ceil(25 / 5)), f"power dim, regularity {r}"),
    ))

    g = O.reed_muller_binary(2, 6)[:, rng.permutation(64)]
    jobs.append(Job(
        "rm2_6_gf2_dim_sequence",
        lambda g=g: ctx.code(2, g).dim_sequence(3),
        lambda r: expect(list(r) == EXPECTED["rm2_6_dims"], f"dims {r}"),
    ))

    a, b = O.full_rank(rng, R[16], 6, 48), O.full_rank(rng, R[16], 7, 48)
    jobs.append(Job(
        "rand48_gf16_star",
        lambda a=a, b=b: ctx.code(16, a).star(ctx.code(16, b)).G,
        lambda r, a=a, b=b: expect(np.array_equal(r, O.star(R[16], a, b)), "star differs from the span of all products"),
    ))

    common = O.full_rank(rng, R[9], 3, 30)
    a = np.concatenate([common, O.full_rank(rng, R[9], 5, 30)])
    b = np.concatenate([common, O.full_rank(rng, R[9], 5, 30)])
    jobs.append(Job(
        "rand30_gf9_dual_plus_intersect",
        lambda a=a, b=b: (lambda A, B: (A.dual().G, A.plus(B).G, A.intersect(B).G))(ctx.code(9, a), ctx.code(9, b)),
        lambda r, a=a, b=b: _check_sum_intersect(R[9], a, b, *r),
    ))

    g = O.full_rank(rng, R[27], 8, 30)
    jobs.append(Job(
        "rand30_gf27_stabilizing_algebra",
        lambda g=g: tuple(C.G for C in ctx.code(27, g).stabilizing_algebra()),
        lambda r, g=g: _check_algebra(R[27], g, *r),
    ))

    sizes = ((12, 4), (10, 3), (14, 5))
    perm = rng.permutation(36)
    g = np.zeros((12, 36), dtype=np.int64)
    blocks, row, col = [], 0, 0
    for n_i, k_i in sizes:
        g[row:row + k_i, col:col + n_i] = O.grs(R[16], rng, n_i, k_i)
        blocks.append(tuple(sorted(int(j) for j in np.argsort(perm)[col:col + n_i])))
        row, col = row + k_i, col + n_i
    g = g[:, perm]
    jobs.append(Job(
        "grs_sum36_gf16_decompose",
        lambda g=g: (lambda part, comps: (part.blocks, [C.k for C in comps]))(*ctx.code(16, g).decompose()),
        lambda r, blocks=blocks: expect(
            sorted(zip(map(tuple, r[0]), r[1])) == sorted(zip(blocks, (k for _, k in sizes))),
            f"blocks {r}",
        ),
    ))

    g = O.full_rank(rng, R[49], 10, 40)
    jobs.append(Job(
        "rand40_gf49_dual",
        lambda g=g: ctx.code(49, g).dual().G,
        lambda r, g=g: expect(np.array_equal(r, O.kernel(R[49], g)), "dual differs from the null space"),
    ))

    g = O.full_rank(rng, R[2], 14, 64)
    jobs.append(Job(
        "rand64_14_gf2_dim_sequence",
        lambda g=g: ctx.code(2, g).dim_sequence(3),
        lambda r, g=g: expect(list(r) == O.power_dims(R[2], g, 3), f"dims {r}"),
    ))
    return jobs


def _check_sum_intersect(F, a, b, dual, plus, inter):
    ka, kb = O.rank(F, a), O.rank(F, b)
    expect(np.array_equal(dual, O.kernel(F, a)), "dual differs from the null space")
    expect(np.array_equal(plus, O.rref(F, np.concatenate([a, b]))), "sum differs")
    expect(inter.shape[0] == ka + kb - plus.shape[0], "dim(A+B) + dim(A&B) != dim A + dim B")
    expect(O.contains(F, a, inter) and O.contains(F, b, inter), "intersection leaves A or B")


def _check_algebra(F, g, ext, proper):
    expect(np.array_equal(ext, O.kernel(F, O.star(F, g, O.kernel(F, g)))), "extended algebra differs")
    expect(not O.full_support(g) or np.array_equal(proper, ext), "proper algebra differs")
    expect(O.contains(F, ext, np.ones((1, g.shape[1]), dtype=np.int64)), "algebra lacks the unit")


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def distance(ctx: Context, rng) -> list:
    R, metrics = ctx.R, ctx.metrics
    jobs = []

    def add(kind, q, k, n, fn, pick):
        g = O.full_rank(rng, R[q], k, n)
        jobs.append(Job(
            kind,
            lambda: getattr(metrics, fn)(ctx.code(q, g)),  # looked up per call, so tracing sees it
            lambda r: _check_distance(R[q], g, r, pick),
        ))

    for _ in range(2):
        add("dmin_gf2_40_16", 2, 16, 40, "dmin", lambda p, d: O.min_weight(p))
    add("weight_distribution_gf3_24_10", 3, 10, 24, "weight_distribution", lambda p, d: p)
    add("dmin_gf9_16_4", 9, 4, 16, "dmin", lambda p, d: O.min_weight(p))
    add("dmin_gf4_30_7", 4, 7, 30, "dmin", lambda p, d: O.min_weight(p))
    add("dmin_gf2_24_14_macwilliams", 2, 14, 24, "dmin", lambda p, d: O.min_weight(p))
    add("weight_distribution_gf4_20_13_macwilliams", 4, 13, 20, "weight_distribution", lambda p, d: p)
    add("ddual_gf3_22_8", 3, 8, 22, "ddual", lambda p, d: O.min_weight(d))

    g = O.full_rank(rng, R[9], 4, 10)
    jobs.append(Job(
        "weights_triple_gf9_10_4",
        lambda: (lambda C: (metrics.dmin(C), metrics.ddual(C), metrics.generalized_weights(C)))(ctx.code(9, g)),
        lambda r: _check_weights(R[9], g, r),
    ))
    return jobs


def _check_distance(F, g, result, pick):
    primal, dual = O.both_distributions(F, g)
    want = pick(primal, dual)
    got = [int(x) for x in result] if np.ndim(result) else int(result)
    expect(got == want, f"got {got}, want {want}")


def _check_weights(F, g, result):
    d, dd, hierarchy = result
    primal, dual = O.both_distributions(F, g)
    k, n = g.shape
    expect(d == O.min_weight(primal) and dd == O.min_weight(dual), f"dmin, ddual {d}, {dd}")
    expect(len(hierarchy) == k and hierarchy[0] == d, "w_1 != dmin")
    expect(hierarchy[-1] == int(np.count_nonzero(np.any(g != 0, axis=0))), "w_k != support size")
    for r in range(1, k + 1):
        griesmer = sum(math.ceil(d / F.q**i) for i in range(r))
        expect(griesmer <= hierarchy[r - 1] <= n - k + r, f"w_{r} outside its bounds")
        expect(r == 1 or hierarchy[r - 1] > hierarchy[r - 2], "hierarchy not increasing")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

POOLS = {
    "fundamental": [tuple(x) for x in EXPECTED["fundamental"]],
    "mu": [tuple(x) for x in EXPECTED["mu"]],
    "orbits": [tuple(x) for x in EXPECTED["orbits"]],
    "universal": [tuple(x) for x in EXPECTED["universal"]],
    "concat": [(2, 2, 2, 5, 2), (2, 3, 2, 5, 2), (3, 2, 2, 4, 2), (2, 2, 2, 6, 3)],
}


def _pool(name, rng):
    pool = POOLS[name]
    return pool[int(rng.integers(len(pool)))]


def cli_check(status, want_status, out, more):
    """The CLI contract (exit status, schema tag), then ``more`` on the JSON payload."""
    expect(status == want_status, f"exit status {status}, want {want_status}")
    payload = json.loads(out)
    expect(payload.get("schema") == 1, "schema tag missing")
    more(payload)


def verify(ctx: Context, rng) -> list:
    R = ctx.R
    jobs = []

    def cli(kind, argv, more, status=0):
        """A CLI job: its exit status and schema tag are checked, then ``more(payload)``."""
        argv = [str(x) for x in argv]
        jobs.append(Job(kind, lambda: ctx.run_cli(argv), lambda r: cli_check(r[0], status, r[1], more)))

    q, n, d, t, value = _pool("fundamental", rng)
    cli("fundamental", ["fundamental", "--q", q, "--n", n, "--d", d, "--t", t],
        lambda p: expect(p["value"] == value, f"value {p['value']}"))

    a = O.full_rank(rng, R[3], 6, 10, O.full_support)
    b = O.full_rank(rng, R[3], 5, 10, O.full_support)
    cli("bounds_ddual_product", ["bounds:ddual-product", "--in", ctx.write_code(3, a), "--in2", ctx.write_code(3, b)],
        lambda p: _check_ddual_product(R[3], a, b, p["report"]))

    a1 = O.full_rank(rng, R[4], 4, 12)
    b1 = O.full_rank(rng, R[4], 6, 12, O.full_support)
    cli("bounds_dim_product", ["bounds:dim-product", "--in", ctx.write_code(4, a1), "--in2", ctx.write_code(4, b1)],
        lambda p: _check_dim_product(R[4], a1, b1, p["report"]))

    a2 = O.full_rank(rng, R[2], 3, 10, O.full_support)
    b2 = O.full_rank(rng, R[2], 4, 10, O.full_support)
    cli("bounds_singleton", ["bounds:singleton", "--in", ctx.write_code(2, a2), "--in2", ctx.write_code(2, b2)],
        lambda p: _check_singleton(R[2], a2, b2, p["report"]))

    seed, g = _regular_random_code(ctx, rng)
    cli("bounds_regularity", ["bounds:regularity", "--family", f"random:q=4,n=12,k=4,seed={seed}"],
        lambda p: _check_regularity(R[4], g, p["report"]))

    a3 = O.full_rank(rng, R[2], 3, 8, O.full_support)
    b3 = O.full_rank(rng, R[2], 5, 8, O.full_support)
    cli("bounds_weights", ["bounds:weights", "--in", ctx.write_code(2, a3), "--in2", ctx.write_code(2, b3)],
        lambda p: expect(p["report"]["holds"], "weight inequalities fail"))

    perm = rng.permutation(7)
    rs = [ctx.write_code(7, _rs7(R[7], k)[:, perm]) for k in (1, 2, 3)]
    cli("bounds_roos", ["bounds:roos", "--inA", rs[1], "--inB", rs[2], "--inC", rs[1]],
        lambda p: _check_stored(p["report"], EXPECTED["roos"]))
    cli("bounds_ecp", ["bounds:ecp", "--inA", rs[2], "--inB", rs[2], "--inC", rs[0], "--t", 2],
        lambda p: _check_stored(p["report"], EXPECTED["ecp"]))

    a4 = O.full_rank(rng, R[3], 8, 12, O.full_support)
    b4 = O.full_rank(rng, R[3], 7, 12, O.full_support)
    cli("kashyap", ["kashyap", "--in", ctx.write_code(3, a4), "--in2", ctx.write_code(3, b4)],
        lambda p: _check_kashyap(R[3], a4, b4, p))

    cq, cr, ct, cn, ck = _pool("concat", rng)
    cli("concat_verify", ["concat-verify", "--q", cq, "--r", cr, "--t", ct, "--n", cn, "--k", ck,
                          "--seed", int(rng.integers(1 << 30))],
        lambda p: _check_concat(p["report"], cr, ck))

    uq, ur, ut, urank, udeg = _pool("universal", rng)
    cli("universal_check", ["universal-check", "--q", uq, "--r", ur, "--t", ut],
        lambda p: expect(p["report"]["bijective"] and p["report"]["rank"] == urank == math.comb(ur + ut - 1, ut)
                         and p["report"]["max_degree"] == udeg, f"report {p['report']}"))

    lp, lmats = _random_chain(rng, R, (2, 3), 4, lambda p, ks: p ** (ks[0] + ks[1]) <= 729)
    closed = _lambda_closed(R[lp], lmats)
    cli("lattice_check", ["lattice-check", "--chain", ctx.write_chain(lp, lmats)],
        lambda p: expect(p["report"]["holds"] == closed, "verdict"), status=0 if closed else 1)

    mq, mk, variant, mvalue = _pool("mu", rng)
    cli("mu", ["mu", "--q", mq, "--k", mk, "--variant", variant],
        lambda p: expect(p["value"] == mvalue, f"value {p['value']}"))

    oq, orr, ot, odeg, ocount = _pool("orbits", rng)
    cli("orbits", ["orbits", "--q", oq, "--r", orr, "--t", ot], lambda p: _check_orbits(p, orr, ot, odeg, ocount))

    cp, cmats = _random_chain(rng, R, (2,), 6, lambda p, ks: ks[0] + ks[1] == 8)
    jobs.append(Job(
        "closure_is_lattice",
        lambda: _closure_job(ctx, cp, cmats),
        lambda r: _check_closure(R[cp], cmats, *r),
    ))
    return jobs


def _rs7(F, k):
    """Reed-Solomon [7, k] over GF(7) on the points 0..6."""
    return np.array([[F.power(x, i) for x in range(7)] for i in range(k)], dtype=np.int64)


def _check_stored(report, want):
    got = {key: report[key] for key in want}
    expect(got == want, f"report {got}, want {want}")


def _check_ddual_product(F, a, b, rep):
    d1 = O.min_weight(O.both_distributions(F, a)[1])
    d2 = O.min_weight(O.both_distributions(F, b)[1])
    prod = O.star(F, a, b)
    exact = O.min_weight(O.both_distributions(F, prod)[1])
    n = a.shape[1]
    expect((rep["witness"]["ddual1"], rep["witness"]["ddual2"]) == (d1, d2), "factor dual distances")
    expect(rep["bound"] == min(n + 1, d1 + d2 - 2) and rep["exact"] == exact, f"report {rep}")
    expect(rep["holds"] == (exact >= rep["bound"]) and rep["holds"], "verdict")


def _check_dim_product(F, a, b, rep):
    d2 = O.min_weight(O.both_distributions(F, b)[1])
    n1 = int(np.count_nonzero(np.any(a != 0, axis=0)))
    exact = O.star(F, a, b).shape[0]
    expect(rep["bound"] == min(n1, a.shape[0] + d2 - 2) and rep["exact"] == exact, f"report {rep}")
    expect(rep["holds"], "verdict")


def _check_singleton(F, a, b, rep):
    prod = O.star(F, a, b)
    d = O.min_weight(O.both_distributions(F, prod)[0])
    n, k1, k2 = a.shape[1], a.shape[0], b.shape[0]
    expect(rep["witness"]["dmin"] == d, f"dmin {rep['witness']['dmin']}, want {d}")
    expect(rep["bound"] == max(1, n - k1 - k2 + 2), "bound")
    expect(d <= rep["exact"] <= rep["bound"] and rep["holds"], f"report {rep}")


def _regular_random_code(ctx, rng):
    """A seed whose random [12, 4] code over GF(4) has no zero or repeated column."""
    from schurpow import families

    while True:
        seed = int(rng.integers(1 << 30))
        g = families.random_code(4, 12, 4, seed).G
        if O.min_weight(O.both_distributions(ctx.R[4], g)[1]) >= 3:
            return seed, np.array(g)


def _check_regularity(F, g, rep):
    n = g.shape[1]
    dims = O.power_dims(F, g, n)
    exact = next(t for t in range(n) if dims[t + 1] == dims[t])
    expect(rep["exact"] == exact, f"regularity {rep['exact']}, want {exact}")
    expect(rep["holds"] and all(exact <= b for b in rep["witness"].values()), "verdict")


def _check_kashyap(F, a, b, payload):
    c1, c2 = np.array(payload["c1"]), np.array(payload["c2"])
    expect(O.contains(F, a, c1) and O.contains(F, b, c2), "witness words leave their codes")
    prod = F.mul[c1, c2]
    expect(np.count_nonzero(prod) == 1 and prod[payload["j"]] != 0, "product is not weight one at j")


def _check_concat(rep, r, k):
    expect(rep["holds"] and rep["witness"]["dim_concat"] == r * k, f"report {rep}")
    expect(rep["exact"] >= rep["bound"], "concatenated power distance below the outer bound")


def _check_orbits(payload, r, t, degree, count):
    sizes = [o["size"] for o in payload["orbits"]]
    expect(sum(sizes) == math.comb(r + t - 1, t), "orbit sizes do not add up")
    expect((payload["max_degree"], len(sizes)) == (degree, count), "orbit table differs")


def _random_chain(rng, R, primes, n, accept):
    """A random nested chain C_0 < C_1 < C_2 = GF(p)^n, as generator matrices.

    ``accept(p, dims)`` bounds |Lambda mod p^2| = p^(k_0 + k_1), which sets
    the cost of closure checks.
    """
    while True:
        p = int(primes[int(rng.integers(len(primes)))])
        k0 = int(rng.integers(1, n))
        k1 = int(rng.integers(k0, n + 1))
        if accept(p, (k0, k1)):
            base = O.full_rank(rng, R[p], k1, n)
            return p, [base[:k0], base, np.eye(n, dtype=np.int64)]


def _lambda_closed(F, mats) -> bool:
    """Whether eps(C_0) + p eps(C_1) + p^2 Z^n (naive lifting) is closed under +."""
    w0, w1 = (O.all_words(F, m).astype(np.int64) for m in mats[:2])
    p = F.p
    mod = p * p
    lam = np.unique(((w0[:, None, :] + p * w1[None, :, :]) % mod).reshape(-1, w0.shape[1]), axis=0)
    weights = mod ** np.arange(lam.shape[1])
    keys = lam @ weights
    for start in range(0, len(lam), 64):
        sums = ((lam[start:start + 64, None, :] + lam[None, :, :]) % mod).reshape(-1, lam.shape[1]) @ weights
        if not np.all(np.isin(sums, keys)):
            return False
    return True


def _closure_job(ctx, p, mats):
    lat = ctx.lattices
    chain = lat.CodeChain([ctx.codes.LinearCode(ctx.F[p], mats[0].shape[1], m) for m in mats])
    lift = lat.build_lifting(p, 2, "naive")
    return lat.closure_is_lattice(chain, lift)[0], lat.is_lattice(chain, lift).holds


def _check_closure(F, mats, closure, criterion):
    closed = _lambda_closed(F, mats)
    expect(closure == criterion == closed, f"closure {closure}, criterion {criterion}, reference {closed}")

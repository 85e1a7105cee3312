"""The measuring part of the benchmark; ``run.py`` is the entry point."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from run import THREAD_VARS
from workloads import EXPECTED, FIELDS, WORKLOADS, Context, Job, Mismatch, cli_check, expect, make_round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9
SETUP_CODE = """
import time
t0 = time.perf_counter()
import schurpow
from schurpow.fields import field_of_order
for q in {qs}:
    field_of_order(q)
print(time.perf_counter() - t0)
"""


class SetupSampler:
    """Seconds to import schurpow and build the fields, in fresh interpreters.

    The host's speed drifts over seconds, so the samples are spread over the
    timed part of the run (between rounds, never during one) instead of being
    taken back to back; the reported value is their median.
    """

    def __init__(self, qs, seconds):
        self.code = SETUP_CODE.format(qs=tuple(qs))
        self.every = seconds / SETUP_SAMPLES
        self.samples = []
        self._sample()  # may compile bytecode, which a user pays once
        self.samples.clear()

    def _sample(self):
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True)
        self.samples.append(float(proc.stdout.strip()))

    def between_rounds(self, timed_s):
        if len(self.samples) < SETUP_SAMPLES and timed_s >= len(self.samples) * self.every:
            self._sample()

    def finish(self) -> list:
        while len(self.samples) < SETUP_SAMPLES:
            self._sample()
        return self.samples


class Record:
    __slots__ = ("round", "kind", "seconds", "traced", "error")

    def __init__(self, rnd, kind, seconds, traced, error):
        self.round, self.kind, self.seconds, self.traced, self.error = rnd, kind, seconds, traced, error


def run_job(job):
    """(seconds, result, error) of one job; a raising job is a failed job."""
    start = time.perf_counter()
    try:
        result, error = job.run(), None
    except Exception:  # counted and reported, never dropped
        result, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, result, error


def check(job, result, error):
    """The job's error, or its check's verdict on ``result``; None when correct."""
    if error is not None:
        return error
    try:
        job.check(result)
    except Mismatch as exc:
        return f"mismatch: {exc}"
    except Exception:  # a crashing check must not drop the job
        return traceback.format_exc(limit=3)
    return None


def run_rounds(workload, ctx, seed, seconds, tracer, setup):
    """Round 0 warms up; later rounds alternate traced/untraced when tracing.

    Each round is checked right after it is timed and its results dropped, so
    memory and garbage-collection work do not grow with the number of jobs.
    """
    records, round_s = [], []
    wall = {False: 0.0, True: 0.0}
    rounds = {False: 0, True: 0}
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        jobs = make_round(workload, ctx, np.random.default_rng([seed, WORKLOADS.index(workload), rnd]))
        done = []
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            for i, job in enumerate(jobs):
                if traced:
                    tracer.begin_job(f"{rnd}.{i}")
                done.append(run_job(job))
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        for job, (dt, result, error) in zip(jobs, done):
            records.append(Record(rnd, job.kind, dt, traced, check(job, result, error)))
        del done
        round_s.append(elapsed)
        if rnd:
            wall[traced] += elapsed
            rounds[traced] += 1
            setup.between_rounds(wall[False] + wall[True])
        rnd += 1
        if wall[False] + wall[True] >= seconds and (tracer is None or rounds[True] == rounds[False]):
            return records, wall, rounds, round_s


def baselines(workload, ctx):
    """The ROADMAP baseline instances this workload contains, as fixed jobs."""
    from schurpow import bounds, families, metrics

    want = EXPECTED["baselines"]
    if workload == "structure":
        jobs = []
        for q in (9, 16):
            m = np.random.default_rng(1).integers(0, q, (60, 60))
            jobs.append(Job(f"rank_60x60_gf{q}", lambda m=m, q=q: ctx.linalg.rank(ctx.F[q], m),
                            lambda r, q=q: expect(r == want[f"rank_60x60_gf{q}"], f"rank {r}")))
        a, b = (np.random.default_rng(s).integers(0, 9, (200, 200)) for s in (1, 2))
        jobs.append(Job("add_200x200_gf9", lambda: ctx.F[9].add(a, b),
                        lambda r: expect(np.array_equal(r, ctx.R[9].add[a, b]), "sum differs")))
        jobs.append(Job("mul_200x200_gf9", lambda: ctx.F[9].mul(a, b),
                        lambda r: expect(np.array_equal(r, ctx.R[9].mul[a, b]), "product differs")))
        a16, b16 = a % 16, b % 16
        jobs.append(Job("add_200x200_gf16", lambda: ctx.F[16].add(a16, b16),
                        lambda r: expect(np.array_equal(r, ctx.R[16].add[a16, b16]), "sum differs")))
        jobs.append(Job("rs_40_10_gf49_dim_sequence_6", lambda: families.reed_solomon(49, 40, 10).dim_sequence(6),
                        lambda r: expect(list(r) == want["rs_40_10_gf49_dim_sequence_6"], f"dims {r}")))
        return jobs
    if workload == "distance":
        return [
            Job("dmin_random_40_16_gf2_seed1", lambda: metrics.dmin(families.random_code(2, 40, 16, 1)),
                lambda r: expect(r == want["dmin_random_40_16_gf2_seed1"], f"dmin {r}")),
            Job("weight_distribution_random_24_10_gf3_seed1",
                lambda: metrics.weight_distribution(families.random_code(3, 24, 10, 1)),
                lambda r: expect([int(x) for x in r] == want["weight_distribution_random_24_10_gf3_seed1"], "dist")),
        ]
    jobs = [Job("fundamental_function_gf2_5_2_2", lambda: bounds.fundamental_function(ctx.F[2], 5, 2, 2),
                lambda r: expect(r == want["fundamental_function_gf2_5_2_2"], f"value {r}"))]
    cli_cases = [
        ("cli_fundamental_2_4_2_2", "fundamental --q 2 --n 4 --d 2 --t 2", lambda p: p["value"] == 2),
        ("cli_universal_check_2_3_3", "universal-check --q 2 --r 3 --t 3", lambda p: p["report"]["bijective"]),
        ("cli_concat_verify_3_2_2_seed7", "concat-verify --q 3 --r 2 --t 2 --n 3 --k 2 --seed 7",
         lambda p: p["report"]["holds"]),
    ]
    for name, argv, ok in cli_cases:
        jobs.append(Job(name, lambda argv=argv: ctx.run_cli(argv.split()),
                        lambda r, ok=ok: cli_check(r[0], 0, r[1], lambda p: expect(ok(p), "verdict"))))
    return jobs


def tail(times):
    """(value, percentile, jobs beyond): the highest whole percentile with >= 10 jobs above it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 0, -1):
        idx = max(0, -(-pct * n // 100) - 1)  # nearest rank
        if n - 1 - idx >= 10:
            return ordered[idx], pct, n - 1 - idx
    return ordered[-1], 100, 0


def provenance(seed):
    cpu = "unknown"
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def run_one(args) -> int:
    phases = {}
    clock = time.perf_counter()
    sampler = SetupSampler(FIELDS[args.workload], args.seconds)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = Context(args.workload, workdir)
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
        records, wall, rounds, round_s = run_rounds(args.workload, ctx, args.seed, args.seconds, tracer, sampler)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = sampler.finish()
        phases["rounds_and_checks"], clock = time.perf_counter() - clock, time.perf_counter()
        base = []
        for job in baselines(args.workload, ctx):
            dt, result, error = run_job(job)
            base.append(Record(-1, job.kind, dt, False, check(job, result, error)))
        phases["baselines"] = time.perf_counter() - clock
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [r for r in records if r.round and not r.traced]
    times = [r.seconds for r in measured]
    tail_s, tail_pct, beyond = tail(times)
    failures = [(r.kind, r.error) for r in records + base if r.error is not None]
    attempted = len(records) + len(base)
    e2e = {
        "jobs_per_s": (len(measured) / wall[False], "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "fail_ratio": (len(failures) / attempted, "ratio"),
    }
    kinds = {}
    for r in measured:
        kinds.setdefault(r.kind, []).append(r.seconds)
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "loop": "closed, 1 client, 1 thread, 1 process",
        "rounds": {"untraced": rounds[False], "traced": rounds[True]},
        "round_s": round_s,
        "jobs_timed": len(measured),
        "tail": {"percentile": tail_pct, "jobs_beyond": beyond, "jobs": len(times)},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "setup_samples_s": setup,
        "job_kinds": {k: {"count": len(v), "median_s": statistics.median(v)} for k, v in sorted(kinds.items())},
        "job_s": [[r.round, r.kind, r.seconds] for r in records],
        "baselines_s": {r.kind: r.seconds for r in base},
        "failures": [{"kind": k, "error": e} for k, e in failures],
        "attempted": attempted,
        "phases_s": phases,
    }
    correct = not failures
    if tracer is not None:
        traced = [r for r in records if r.traced]
        layer = tracer.metrics(rounds[True], len(traced), wall[True], wall[False] * rounds[True] / rounds[False])
        error = tracer.conservation_error()
        # the layers' self times must add up to the outermost calls' time, and
        # those must cover the job wall time but for the benchmark's own code
        correct &= error <= 1e-6 * max(1.0, wall[True]) and layer["trace.attributed_share"][0] >= 0.9
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["self_time_conservation_error_s"] = error
        result["top_functions"] = tracer.top_functions(rounds[True])
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        metrics = dict(result["per_layer"])
    else:
        metrics = {k: v for k, v in result["end_to_end"].items() if k != "fail_ratio"}
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    report(result, out_path)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def report(result, out_path):
    w = result["workload"]
    print(f"{w}: {result['jobs_timed']} jobs in {result['rounds']['untraced']} untraced rounds, "
          f"{result['attempted']} checked, {len(result['failures'])} failed")
    for name, m in result["end_to_end"].items():
        note = ""
        if name == "job_tail_s":
            t = result["tail"]
            note = f"  (p{t['percentile']}, {t['jobs_beyond']} of {t['jobs']} jobs beyond)"
        print(f"  {w}.{name:<14} {m['value']:.6g} {m['unit']}{note}")
    for name, seconds in result["baselines_s"].items():
        print(f"  baseline {name:<44} {seconds:.4f} s")
    for f in result["failures"][:10]:
        print(f"  FAILED {f['kind']}: {f['error'].strip().splitlines()[-1]}")
    if "per_layer" in result:
        shares = sorted(((k[:-6], v["value"]) for k, v in result["per_layer"].items() if k.endswith(".share")),
                        key=lambda kv: -kv[1])
        print("  layer shares of traced job time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares if v >= 0.001))
        for key in ("trace.overhead_ratio", "trace.attributed_share"):
            print(f"  {key} {result['per_layer'][key]['value']:.4f}")
    print(f"  result file: {os.path.relpath(out_path, ROOT)}")


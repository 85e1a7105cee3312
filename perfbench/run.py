"""Closed-loop benchmark of schurpow: one client, one thread, one process.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
A run measures set-up in fresh interpreters, builds the workload's fields,
runs one warm-up round, then runs rounds of fresh seeded jobs (see
``workloads.py``) back to back until ``--seconds`` of job time have passed,
finishing the round in progress.  Each round is checked after it is timed.
Then it runs the fixed baseline instances from the ROADMAP once, writes a
result file under ``perfbench/out/`` and prints the metrics, ending with one
JSON line.

With ``--trace 1`` rounds alternate between traced and untraced, and the
JSON line carries the per-layer metrics of ``layers.py`` instead of the
end-to-end ones; ``trace.overhead_ratio`` compares the two kinds of round.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("structure", "distance", "verify", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schurpow", "__init__.py")):
        print("perfbench: src/schurpow not found; run from the root of a schurpow checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    import driver  # imports numpy, so only after the thread variables are pinned

    return driver.run_one(args)


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("structure", "distance", "verify"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

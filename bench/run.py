"""Benchmark command: run one workload for a set time and print its metrics.

    python3 bench/run.py --workload verify_2d --seed 42 --seconds 20 --trace 0

Each repetition is a fresh child process (``workload.py``) with one BLAS
thread.  Repetitions are started until the next one would end after
``--seconds`` (at least one always runs).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: medians over repetitions of wall_s, setup_s and peak_rss_mb, or
with ``--trace 1`` the per-layer figures of traced repetitions after one
untraced repetition that sets the overhead.  Details of every repetition go
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
LIMIT_S = 170  # every run ends within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_1d", "verify_2d", "solve_2d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def repetition(args, traced, index, deadline):
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}-{index}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    if proc.returncode != 0:
        raise SystemExit(f"repetition {index} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(n != 1 for n in result["blas_threads"].values()):
        raise SystemExit(f"repetition {index} ran with OpenBLAS threads {result['blas_threads']}")
    for line in result["failures"] + result["errors"]:
        print(f"repetition {index}: {line}", file=sys.stderr)
    return result


def median_metric(reps, key, unit):
    return {"value": statistics.median(r[key] for r in reps), "unit": unit}


def layer_medians(reps):
    out = {}
    for metric, entry in reps[0]["layers"].items():
        values = [r["layers"][metric]["value"] for r in reps]
        value = None if None in values else statistics.median(values)
        out[metric] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    for needed in (ROOT / "src" / "sgprecond" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            print(f"missing {needed}: run from a checkout of the repository", file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + LIMIT_S
    plain, traced = [], []
    last = 0.0
    while True:
        enough = plain and (traced or not args.trace)
        if enough and time.monotonic() - start + last > args.seconds:
            break
        want_traced = bool(args.trace and plain)
        began = time.monotonic()
        result = repetition(args, want_traced, len(plain) + len(traced), deadline)
        last = time.monotonic() - began
        (traced if want_traced else plain).append(result)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not any(r["errors"] for r in reps)
    if args.trace:
        metrics = layer_medians(traced)
        wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = {
            "value": wall - statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    else:
        metrics = {
            "wall_s": median_metric(reps, "wall_s", "s"),
            "setup_s": median_metric(reps, "setup_s", "s"),
            "peak_rss_mb": median_metric(reps, "peak_rss_mb", "MiB"),
        }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "repetitions": reps}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

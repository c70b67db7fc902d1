#!/usr/bin/env python3
"""Steadiness of one workload: run it k times, each with another seed.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload paper_sweep --runs 10 [--seconds 20]

It runs seeds 1..k with --trace 0. For every end-to-end metric it prints
the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, and the largest relative deviation of one run from the
median. With BENCHMARK.json at the checkout root it also prints each
end-to-end metric's bound and whether the spread stays within a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady: seed {seed} failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    bench_path = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    seconds = args.seconds or bench.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}

    results = []
    for i in range(args.runs):
        seed = 1 + i
        r = run_once(args.workload, seed, seconds)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}"
          f"{'' if len(shares) == 1 else '  (NOT the same in every run)'}")
    print(f"{'metric':42} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'spread':>8} {'maxdev':>8}  bound")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        maxdev = max(abs(v - med) for v in values) / med if med else 0.0
        verdict = ""
        if name in bounds:
            ok = spread <= bounds[name] / 3
            verdict = f"{bounds[name]:.3f} {'ok' if ok else 'WIDE'}"
        print(f"{name + ' [' + unit + ']':42} {med:14.6g} {q1:14.6g}"
              f" {q3:14.6g} {spread:8.4f} {maxdev:8.4f}  {verdict}")


if __name__ == "__main__":
    main()

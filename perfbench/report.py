#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds and summarise the metrics.

    python3 perfbench/report.py                       # every workload, seed 1, untraced
    python3 perfbench/report.py --trace 1             # the per-layer metrics
    python3 perfbench/report.py --workloads verify --seeds 1 2 3 4 5

Each (workload, seed) is one invocation of ``run.py`` in a fresh
interpreter, one after another.  For every metric the summary gives the
median over seeds, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  error_rate is
failed / attempted summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    all_correct = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        all_correct &= all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs of {seconds} s, seeds {args.seeds}")
        print(f"  {'metric':<27} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = f"{bounds[name]:.2f}" if name in bounds else "-"
            print(f"  {name:<27} {first['unit']:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6}")
        print(f"  {'error_rate':<27} {'ratio':<6} {failed / attempted:>12.6g}"
              f"   ({failed} failed of {attempted} attempted)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that every workload prints each end-to-end metric (untraced) and each
per-layer metric (traced) by name with its unit; that the host-speed
sampler leaves out its own time and restores its signal handler; that a corrupted output,
such as a scan file whose hash does not match, raises error_rate and is
never recorded as a timing; and that without the package sources the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

problems: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def run_cli(args: list[str], cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_metrics_printed() -> None:
    for workload in run.WORKLOADS:
        for trace, units in ((0, run.END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
            label = f"{workload} trace {trace}"
            done = run_cli(["--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", str(trace), "--tiny"])
            check(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
            check(result["correct"] and result["failed"] == 0, f"{label}: not correct: {done.stderr}")
            check(set(result["metrics"]) == set(units), f"{label}: metrics {sorted(result['metrics'])}")
            for name, unit in units.items():
                got = result["metrics"].get(name, {})
                check(got.get("unit") == unit, f"{label}: {name} unit {got.get('unit')!r}, not {unit!r}")
                check(any(line.split()[:1] == [name] and f" {unit}" in line for line in lines[:-1]),
                      f"{label}: {name} with unit {unit} not printed")
            if trace == 0:
                check(any(line.split()[:1] == ["error_rate"] for line in lines), f"{label}: no error_rate line")
                check(all(v["value"] > 0 for v in result["metrics"].values()), f"{label}: a zero metric")
            if workload == "verify" and trace == 1:
                scan_values = [v["value"] for k, v in result["metrics"].items() if k.startswith("scan.")]
                check(not any(scan_values), f"{label}: scan.* not zero")
                check(result["metrics"]["checks.passed"]["value"] == run.VERIFY_CHECKS,
                      f"{label}: checks.passed {result['metrics']['checks.passed']}")


def check_corrupted_scan_is_an_error() -> None:
    key = (4, "csv")
    saved = run.SCAN_SHA256[key]
    run.SCAN_SHA256[key] = "0" * 64
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "scan-csv", "--seed", "3", "--seconds", "0.5",
                             "--trace", "0", "--tiny"])
    finally:
        run.SCAN_SHA256[key] = saved
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code == 0, f"corrupted scan: exit {code}")
    check(result["attempted"] > 0 and result["failed"] == result["attempted"],
          f"corrupted scan: {result['failed']} of {result['attempted']} failed")
    check(not result["correct"], "corrupted scan: reported correct")
    check("op_p50_s" not in result["metrics"], "corrupted scan: a failed op was timed")
    record = json.loads((run.OUT / "scan-csv-seed3-trace0.json").read_text())
    check(record["untraced_op_s"] == [] and record["error_rate"] == 1.0,
          f"corrupted scan: {len(record['untraced_op_s'])} timings, error_rate {record['error_rate']}")


def check_corrupted_outputs_fail_their_gates() -> None:
    passing_verify = "\n".join(
        [f"check-{k}  max_error=0.000e+00  tolerance=1.0e-12  PASS" for k in range(run.VERIFY_CHECKS)]
        + [f"all {run.VERIFY_CHECKS} checks passed"]
    )
    check(run._verify_gate(0, passing_verify) is None, "verify gate rejects a passing output")
    check(run._verify_gate(2, passing_verify) is not None, "verify gate accepts exit code 2")
    check(run._verify_gate(0, passing_verify.replace("PASS", "FAIL", 1)) is not None,
          "verify gate accepts a FAIL line")
    short = "\n".join(passing_verify.splitlines()[1:])
    check(run._verify_gate(0, short) is not None, "verify gate accepts a missing check")
    check(run._extremal_gate(0, "result: PASS (tolerance 1e-06)\n") is None, "extremal gate rejects PASS")
    check(run._extremal_gate(0, "result: FAIL (tolerance 1e-06)\n") is not None, "extremal gate accepts FAIL")
    check(run._extremal_gate(2, "result: PASS (tolerance 1e-06)\n") is not None, "extremal gate accepts exit 2")


def check_speed_sampler() -> None:
    handler = signal.getsignal(signal.SIGALRM)
    wall = time.perf_counter()
    with SpeedSampler(interval=0.01) as sampler:
        start = sampler.clock()
        while time.perf_counter() - wall < 0.3:
            sum(range(1000))
        end = sampler.clock()
    wall = time.perf_counter() - wall
    check(len(sampler.kernel_s) >= 5, f"speed sampler: {len(sampler.kernel_s)} samples in 0.3 s")
    check(0 < end - start < wall - sum(sampler.kernel_s[1:-1]),
          "speed sampler: its clock counts the kernel's own runs")
    check(sampler.speed(start, end) > 0, "speed sampler: speed not positive")
    check(signal.getsignal(signal.SIGALRM) is handler and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
          "speed sampler: timer or handler left behind")


def check_bare_directory_fails() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = run_cli(["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    check(done.returncode != 0, "bare directory: exit code 0")
    check(not done.stdout.strip(), f"bare directory printed: {done.stdout!r}")
    shutil.rmtree(bare)


def main() -> int:
    check_corrupted_outputs_fail_their_gates()
    check_speed_sampler()
    check_corrupted_scan_is_an_error()
    check_bare_directory_fails()
    check_metrics_printed()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the kcbs-msr command line, driven in-process through ``cli.main``.

    python3 perfbench/run.py --workload scan-csv --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Load is a closed loop: one client in one process with no threads issues the
next CLI invocation only after the previous one has returned and passed its
output gate.  Each workload runs in its own interpreter (one invocation of
this script), so peak RSS and set-up are its own.

With ``--trace 0`` the script reports the end-to-end metrics (op_p50_s,
op_tail_s, items_per_s, peak_rss_mb, setup_s; error_rate is printed and
equals failed / attempted).  Its times are at reference speed: a fixed
kernel (``speed.py``) is timed every 0.1 s while the operations run, and
each time is scaled by how far the host's speed has drifted from the
kernel's nominal time, so that a shared host's drift does not read as a
change in the program.  With ``--trace 1`` untraced and traced
operations alternate; the per-layer metrics come from the traced ones
(see ``tracer.py``) and ``trace.overhead_s`` is the difference of the two
medians.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with provenance
goes to ``perfbench/out/``; a traced run also writes its spans there.

``--tiny`` swaps every workload for a tiny one (resolution 4, 10 samples,
3 values of c) for the smoke test in ``smoke.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy
from speed import REFERENCE_NOMINAL_S, SpeedSampler
from tracer import PER_LAYER_UNITS, Tracer, median_metrics, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# SHA-256 of the scan files written by the seed commit, keyed by
# (resolution, format).  The grid is deterministic, so every later commit
# must reproduce these bytes.
SCAN_SHA256 = {
    (96, "csv"): "0e8eb48b55ca97f59211417ccfe9d8d517e56153e17407f8ae5a1c4a0a36ee81",
    (64, "json"): "049a13a13438bfe4f514d95afdbd0fe3b54228f766301842c904b7eacec27754",
    (4, "csv"): "6e6d7fb17a90a2d6cb56befbffb7bb856a7c017fe92b71858f89165794068839",
    (4, "json"): "8952b4c33baa86c573cd6271b4c1abcbf7fbf09465e018c58e82e7ab8ac44b2f",
}
# Number of checks `verify` ran at the seed commit.
VERIFY_CHECKS = 23
SETUP_REPEATS = 11
# A traced run stops tracing once this many spans are held, which bounds
# its memory and span file (verify at 10^4 samples makes ~0.5 M spans an op).
SPAN_BUDGET = 1_500_000
# The setup probe: a fresh interpreter imports kcbs_msr and builds the CLI
# parser through the public entry point (`--help` builds it, prints, exits),
# then times the host-speed reference kernel of speed.py.
SETUP_PROBE = """
import contextlib, io, time
t0 = time.perf_counter()
from kcbs_msr import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
elapsed = time.perf_counter() - t0
from speed import reference_s
print(repr(elapsed), repr(reference_s()))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One CLI invocation, the work units it completes, and its output gate.

    ``gate(rc, stdout)`` returns None when the output is correct, otherwise
    the reason it is not.
    """

    argv: list[str]
    items: int
    gate: Callable[[object, str], str | None]


@dataclass
class Workload:
    item_unit: str
    size: dict
    ops: list[Op]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def scan_workload(resolution: int, fmt: str) -> Workload:
    path = OUT / "work" / f"scan.{fmt}"
    records = resolution**3
    expected = SCAN_SHA256[(resolution, fmt)]

    def gate(rc, stdout: str) -> str | None:
        try:
            if rc != 0:
                return f"exit code {rc}"
            lines = stdout.splitlines()
            if not lines or lines[0] != f"records = {records}":
                return "record count line missing or wrong"
            counted = sum(int(line.split(" = ")[1]) for line in lines if line.startswith("count["))
            if counted != records:
                return f"regime counts sum to {counted}, not {records}"
            digest = _sha256(path)
            if digest != expected:
                return f"scan file sha256 {digest} differs from the seed's {expected}"
            return None
        except (OSError, ValueError, IndexError) as exc:
            return f"gate error: {exc!r}"
        finally:
            with contextlib.suppress(FileNotFoundError):
                path.unlink()

    argv = ["scan", "--resolution", str(resolution), "--format", fmt, "--output", str(path)]
    return Workload("records", {"resolution": resolution, "format": fmt, "records": records},
                    [Op(argv, records, gate)])


def _verify_gate(rc, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.splitlines()
    checks = [line for line in lines if "max_error=" in line]
    failed = [line.split()[0] for line in checks if not line.endswith("  PASS")]
    if failed:
        return f"checks not PASS: {failed}"
    if len(checks) != VERIFY_CHECKS or lines[-1] != f"all {VERIFY_CHECKS} checks passed":
        return f"{len(checks)} checks reported, expected {VERIFY_CHECKS}"
    return None


def verify_workload(seed: int, samples: int) -> Workload:
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(16)]
    ops = [
        Op(["verify", "--samples", str(samples), "--seed", str(s)], samples, _verify_gate)
        for s in seeds
    ]
    return Workload("states", {"samples": samples, "verify_seeds": len(seeds)}, ops)


def _extremal_gate(rc, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if "result: PASS (tolerance 1e-06)" not in stdout.splitlines():
        return "no 'result: PASS' line"
    return None


def extremal_workload(seed: int, draws: int) -> Workload:
    rng = random.Random(seed)
    fixed = [0.0, 1.0 / math.sqrt(5.0), 1.0]
    values = fixed + [rng.random() for _ in range(max(0, draws - len(fixed)))]
    pairs = [(c, objective) for c in values for objective in ("min", "max")]
    rng.shuffle(pairs)
    ops = [
        Op(["extremal", "--concurrence", repr(c), "--objective", obj, "--method", "both"], 1, _extremal_gate)
        for c, obj in pairs
    ]
    return Workload("searches", {"concurrence_values": len(values), "ops_per_cycle": len(ops)}, ops)


def make_workload(name: str, seed: int, tiny: bool) -> Workload:
    if name == "scan-csv":
        return scan_workload(4 if tiny else 96, "csv")
    if name == "scan-json":
        return scan_workload(4 if tiny else 64, "json")
    if name == "verify":
        return verify_workload(seed, 10 if tiny else 10_000)
    if name == "extremal":
        return extremal_workload(seed, 3 if tiny else 100)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("scan-csv", "scan-json", "verify", "extremal")


def run_op(cli, op: Op, clock=time.perf_counter) -> tuple[float, float, str | None]:
    """Invoke the CLI once; return its start and end on ``clock`` and the gate's verdict."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        rc = f"raised {exc!r}"
    t1 = clock()
    problem = op.gate(rc, out.getvalue())
    if problem is not None and err.getvalue():
        problem += f" (stderr: {err.getvalue().strip()[:200]})"
    return t0, t1, problem


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Import-and-parser time in ``repeats`` fresh interpreters, each with the
    host-speed reference timed in the same interpreter: (wall s, reference s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(ROOT / "perfbench"),
                                                      env.get("PYTHONPATH")]))
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        wall, reference = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(reference)))
    return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With fewer than eleven samples no percentile qualifies; the maximum is
    returned as percentile 100 with the count of samples beyond it (zero).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    rank = n - 10  # 1-based nearest rank; ten samples lie above it
    return ordered[rank - 1], 100.0 * rank / n, 10


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str | None:
    """Commit of the checkout from ``.git`` inside it, or None outside a git checkout."""
    git = ROOT / ".git"
    head = _read_text(git / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read_text(git / ref)
    if value is not None:
        return value.strip()
    for line in (_read_text(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(seed: int, tiny: bool) -> dict:
    cpuinfo = _read_text(Path("/proc/cpuinfo")) or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), None)
    l3 = _read_text(Path("/sys/devices/system/cpu/cpu0/cache/index3/size"))
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l3_cache": l3.strip() if l3 else None,
        "ram_mb": round(pages / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "tiny": tiny,
        "input_sizes": {name: make_workload(name, seed, tiny).size for name in WORKLOADS},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@dataclass
class Measurement:
    """Outcome of the timed loop: wall times of passing ops and the failures.

    In an untraced run ``speed[i]`` is the host's speed during untraced op i
    as a share of reference speed (speed.py), and ``kernel_s`` holds every
    timing of the reference kernel.
    """

    attempted: int = 0
    untraced: list[float] = field(default_factory=list)
    untraced_start: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    traced_ops: list[int] = field(default_factory=list)
    items: int = 0
    failures: list[str] = field(default_factory=list)


def measure(cli, workload: Workload, seconds: float, tracer: Tracer | None) -> Measurement:
    """Closed loop over the workload's ops for ``seconds``; with a tracer,
    every second op is traced until the span budget is spent.  Without one
    the host's speed is sampled throughout (speed.py) and ops are timed on
    the sampler's clock, which leaves out the sampling itself."""
    if tracer is not None:
        return _measure(cli, workload, seconds, tracer, time.perf_counter)
    with SpeedSampler() as sampler:
        m = _measure(cli, workload, seconds, None, sampler.clock)
        time.sleep(2 * sampler.interval)  # a sample after the last op
    m.speed = [sampler.speed(start, start + elapsed) for start, elapsed in zip(m.untraced_start, m.untraced)]
    m.kernel_s = sampler.kernel_s
    return m


def _measure(cli, workload: Workload, seconds: float, tracer: Tracer | None, clock) -> Measurement:
    m = Measurement()
    # Operation 0 warms up and is not timed: in a fresh process the first
    # scan runs ~15 % slower (more full garbage collections), which would
    # otherwise weigh differently on runs that fit different op counts.
    _, _, problem = run_op(cli, workload.ops[0], clock)
    if problem is not None:
        m.failures.append(f"op 0 (warm-up) {' '.join(workload.ops[0].argv)}: {problem}")
    m.attempted = 1
    deadline = time.perf_counter() + seconds
    while m.attempted < 3 or time.perf_counter() < deadline:
        k = m.attempted
        op = workload.ops[k % len(workload.ops)]
        use_trace = tracer is not None and k % 2 == 0 and len(tracer.span_start) < SPAN_BUDGET
        if use_trace:
            tracer.install(k)
        try:
            start, end, problem = run_op(cli, op, clock)
        finally:
            if use_trace:
                tracer.uninstall()
        if problem is not None:
            m.failures.append(f"op {k} {' '.join(op.argv)}: {problem}")
        elif use_trace:
            m.traced.append(end - start)
            m.traced_ops.append(k)
        else:
            m.untraced.append(end - start)
            m.untraced_start.append(start)
            m.items += op.items
        m.attempted += 1
    return m


def end_to_end(m: Measurement, workload: Workload,
               setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metric values and a note on how each was taken.  Times are
    at reference speed (speed.py); the raw wall-time medians are in the notes."""
    if not m.untraced:
        return {}, {}
    ops = [elapsed * speed for elapsed, speed in zip(m.untraced, m.speed)]
    tail_s, tail_pct, beyond = tail(ops)
    n = len(ops)
    values = {
        "setup_s": statistics.median(wall * REFERENCE_NOMINAL_S / ref for wall, ref in setup_samples),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail_s,
        "items_per_s": m.items / sum(ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters at reference speed "
        f"(wall median {statistics.median(wall for wall, _ in setup_samples):.4g} s)",
        "op_p50_s": f"median of n={n} passing ops at reference speed "
        f"(wall median {statistics.median(m.untraced):.4g} s)",
        "op_tail_s": f"p{tail_pct:.4g} of n={n}, {beyond} samples beyond"
        + ("; under 11 samples, so the maximum" if n < 11 else ""),
        "items_per_s": f"{workload.item_unit} per second of op time at reference speed",
        "peak_rss_mb": "VmHWM of this process",
    }
    return values, notes


def per_layer(m: Measurement, tracer: Tracer) -> dict:
    """Median per-layer metrics of the traced passing ops, and trace.overhead_s."""
    if not (m.traced and m.untraced):
        return {}
    per_op = tracer.per_op_metrics()
    values = median_metrics([per_op[op] for op in m.traced_ops])
    values["trace.overhead_s"] = statistics.median(m.traced) - statistics.median(m.untraced)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "kcbs_msr" / "cli.py").is_file():
        print(f"error: no kcbs_msr sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from kcbs_msr import cli

    workload = make_workload(args.workload, args.seed, args.tiny)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    setup_samples = measure_setup(SETUP_REPEATS)
    tracer = Tracer() if args.trace else None
    m = measure(cli, workload, args.seconds, tracer)

    failed = len(m.failures)
    for line in m.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    record = {
        "provenance": provenance(args.seed, args.tiny),
        "workload": args.workload,
        "seconds": args.seconds,
        "attempted": m.attempted,
        "failed": failed,
        "error_rate": failed / m.attempted,
        "failures": m.failures[:20],
        "untraced_op_s": m.untraced,
        "setup_samples_wall_reference_s": setup_samples,
        "speed_per_op": m.speed,
        "reference_kernel_s": m.kernel_s,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    metrics: dict[str, dict] = {}
    if tracer is None:
        values, notes = end_to_end(m, workload, setup_samples)
        record["notes"] = notes
        for name, unit in END_TO_END_UNITS.items():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"  {name:<13} {_fmt(values[name]):>12} {unit:<6} {notes[name]}")
        print(f"  {'error_rate':<13} {_fmt(failed / m.attempted):>12} {'ratio':<6} "
              f"{failed} failed of {m.attempted} attempted")
        expected = END_TO_END_UNITS
    else:
        values = per_layer(m, tracer)
        for name, unit in PER_LAYER_UNITS.items():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"  {name:<27} {_fmt(values[name]):>14} {unit}")
        record["traced_op_s"] = m.traced
        record["spans"] = len(tracer.span_start)
        spans_path = OUT / f"{args.workload}-spans.jsonl"
        tracer.write_jsonl(spans_path, {"workload": args.workload, "seed": args.seed})
        print(f"  spans: {len(tracer.span_start)} written to {spans_path.relative_to(ROOT)}")
        expected = PER_LAYER_UNITS

    record["metrics"] = metrics
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  results: {results_path.relative_to(ROOT)}")
    complete = set(metrics) == set(expected)
    if not complete:
        print("error: too few passing operations to measure every metric", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": m.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

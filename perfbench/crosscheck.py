#!/usr/bin/env python3
"""Re-measure the rows of the ROADMAP baseline table, per record where they scale.

    python3 perfbench/crosscheck.py

Times compute_scan, render_csv and render_json at resolution 64, the peak RSS
(VmHWM) of write_scan (res-64 CSV) in a fresh interpreter, and run_all_checks at 10^3
and 10^4 samples (median of 5 each).  A pure-Python reference loop is timed
before and after, because the speed of a shared host can drift by up to
~1.5x over minutes; compare rows only against a reference taken at the same time.
Results go to perfbench/out/crosscheck.json.  perfbench/NOTES.md holds the
comparison with the ROADMAP table.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from run import OUT, ROOT, SRC
RSS_PROBE = """
import sys
from kcbs_msr.scan import ScanConfig, write_scan
from tracer import peak_rss_mb
write_scan(ScanConfig(64, sys.argv[1], "csv"))
print(peak_rss_mb())
"""


def reference_s() -> float:
    """Median of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for k in range(3_000_000):
            total += k * k
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(fn, *args, repeats: int = 1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main() -> int:
    sys.path.insert(0, str(SRC))
    from kcbs_msr.checks import run_all_checks
    from kcbs_msr.scan import compute_scan, render_csv, render_json

    OUT.mkdir(parents=True, exist_ok=True)
    rows = {"reference_before_s": reference_s()}
    compute_s, records = timed(compute_scan, 64)
    rows["compute_scan_us_per_record"] = compute_s / len(records) * 1e6
    rows["render_csv_us_per_record"] = timed(render_csv, records)[0] / len(records) * 1e6
    rows["render_json_us_per_record"] = timed(render_json, records)[0] / len(records) * 1e6
    del records
    scan_path = OUT / "crosscheck-scan.csv"
    probe = subprocess.run([sys.executable, "-c", RSS_PROBE, str(scan_path)], cwd=ROOT,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT / "perfbench")])}, capture_output=True,
                           text=True, timeout=120, check=True)
    scan_path.unlink()
    rows["write_scan_res64_csv_peak_rss_mb"] = float(probe.stdout)
    for samples in (1_000, 10_000):
        rows[f"run_all_checks_{samples}_s"] = timed(run_all_checks, samples, repeats=5)[0]
    rows["reference_after_s"] = reference_s()

    (OUT / "crosscheck.json").write_text(json.dumps(rows, indent=1) + "\n")
    for name, value in rows.items():
        print(f"{name:<36} {value:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed reference for the kcbs-msr benchmark.

The benchmark runs on shared virtual machines whose speed drifts by up to
about 2x over seconds to minutes, for every kind of code at once.  A fixed
reference kernel, timed while the operations run, measures that drift.  The
end-to-end times are reported at reference speed: each raw time is
multiplied by the mean of ``REFERENCE_NOMINAL_S / kernel time`` over the
kernel timings taken during the operation and the nearest one on either
side.  A change to the program moves the operation's time and not the
kernel's, so it still shows in full.

The kernel mixes the kinds of work the workloads do: Python loops of float
math, small-object allocation and function calls (``verify``, the record
loops of ``scan``), ``%.12g`` formatting (``render_csv``/``render_json``),
numpy elementwise arithmetic on a 512 KB array (``compute_scan``) and on
many 8 KB arrays, where numpy's per-call overhead dominates (``extremal``).
A mix tracks the drift of each workload better than any one part of it.
It uses nothing from ``kcbs_msr``, so no change to the package moves it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# A round figure near the kernel's fastest times on a 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4; 2.2 to 4.4 ms as the host drifts).  A time
# reported "at reference speed" is what the operation would take on a host
# where the kernel takes exactly this long.
REFERENCE_NOMINAL_S = 0.002


def _affine(a: float, b: float) -> float:
    return a * b + 1.0


def _kernel() -> float:
    acc = 0.0
    for i in range(1250):
        x = i * 1e-3
        point = (x, math.sin(x), {"c": math.cos(x)})
        acc += point[1] * point[2]["c"]
    for _ in range(3000):
        acc = _affine(acc, 0.5)
    text = ",".join("%.12g" % (i * 1.37) for i in range(400))
    grid = np.linspace(0.0, 1.0, 65_536)
    acc += float((np.sqrt(grid) * np.cos(grid) + grid * grid).sum())
    for _ in range(20):
        small = np.linspace(0.0, 1.0, 1024)
        acc += float((np.sqrt(small) * np.cos(small)).sum())
    return acc + len(text)


def reference_s() -> float:
    """Median wall time of five runs of the kernel, after one untimed run."""
    _kernel()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Times the kernel every ``interval`` seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so it samples the
    host's speed in the middle of long operations too.  ``clock()`` is
    ``time.perf_counter()`` minus the time spent in the handler: time
    operations with it and the kernel's own runs do not count in them.
    Samples are stamped with that clock.  Use as a context manager; it
    restores the previous handler and stops the timer on exit.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.stamps: list[float] = []
        self.kernel_s: list[float] = []
        self._busy_s = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self._busy_s

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0 - self._busy_s)
        self.kernel_s.append(t1 - t0)
        self._busy_s += time.perf_counter() - t0

    def __enter__(self) -> SpeedSampler:
        _kernel()  # warm-up: the kernel's first run in a process is slower
        self._on_alarm(signal.SIGALRM, None)  # so that speed() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean of REFERENCE_NOMINAL_S / kernel time over the samples taken
        between ``start`` and ``end`` (on ``clock()``) and the nearest sample
        on either side.  Wider windows tracked the drift worse."""
        lo = max(bisect.bisect_left(self.stamps, start) - 1, 0)
        hi = bisect.bisect_right(self.stamps, end) + 1
        return statistics.fmean(REFERENCE_NOMINAL_S / k for k in self.kernel_s[lo:hi])

"""Parameter-space scans over (theta1, theta2, delta_phi) and their serialization.

A scan evaluates S, the concurrence and the regime on a regular grid of
cell centers: theta axes over (0, pi), delta_phi over [0, 2*pi).  Cell
centers keep delta_phi meaningful (at theta = 0 or pi it is pure gauge);
the exact extremes live on the closed boundary and are the business of the
extremal module, not the scan.  Only the phase difference is stored since
S and C depend on the azimuths through it alone.  The cells go through
``classify._evaluate``, the kernel behind ``classify_state``.

Output is CSV (header ``theta1,theta2,delta_phi,s,c,regime``) or JSON (an
array of objects with the same keys), UTF-8 with LF newlines, values at 12
significant digits, so a fixed configuration yields byte-identical files.

``write_scan`` streams: it evaluates and writes one theta1 slab at a time,
the resolution^2 cells of one theta1 with theta2 outer and delta_phi inner,
slabs in increasing theta1, so memory stays flat in the resolution.  Within
a slab it fills one text template per theta2 row, whose resolution cells
format s and c with ``%.12g`` in the same ``%`` that copies them in, so it
holds O(resolution) template strings.  JSON writes
``json.dumps(float(text))`` of the ``%.12g`` text; the two can differ only
for values that are non-finite (JSON writes ``NaN`` and ``Infinity``), 1e5
or more in magnitude, or within 1e-6 of an integer (an integer text gains
".0", and subnormals lie within 1e-6 of 0), so the cells with such an s or
c take their JSON text through ``%s`` instead.
The slabs go to a temporary file next to the target, which replaces the
target only once the scan is complete.  ``compute_scan`` holds the same
grid in memory as records, for small resolutions and for tests.

Formatting is nearly all of a scan's time, so where the process may run on
more than one CPU ``write_scan`` forks one helper process (one was measured
to pay, on 2 CPUs; more CPUs fork no more), which writes the second half of
the theta1 slabs to an unnamed part file in the target's directory; until
the caller has copied it after its own half, the scan takes about half the
output again in disk space.  Each process holds one slab's arrays and one
row of text; the helper also comes to own the caller's pages that the
caller writes after the fork, which leaves it 3-7 MB of private memory at
resolutions 64-128.  From Python 3.12, where ``os.fork`` warns in a process
with more than one thread (numpy's OpenBLAS threads make most processes
so), a scan forks only where the process has one thread.
"""

from __future__ import annotations

import errno
import json
import math
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import _LABELS, _evaluate
from .states import _as_integer

__all__ = [
    "ScanConfig",
    "ScanRecord",
    "ScanSummary",
    "compute_scan",
    "write_scan",
]

CSV_HEADER = "theta1,theta2,delta_phi,s,c,regime"

OUTPUT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ScanConfig:
    """Scan resolution and output format/path; the grid is deterministic."""

    resolution: int
    output_path: str | Path
    output_format: str = "csv"

    def __post_init__(self) -> None:
        _as_integer("resolution", self.resolution, 2)
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"output format must be one of {OUTPUT_FORMATS}: got {self.output_format!r}"
            )


@dataclass(frozen=True)
class ScanRecord:
    """One grid point with its S value, concurrence and regime label."""

    theta1: float
    theta2: float
    delta_phi: float
    s: float
    c: float
    regime: str


@dataclass(frozen=True)
class ScanSummary:
    """Per-regime record counts of a completed scan."""

    total: int
    counts: dict[str, int]
    path: Path


def theta_centers(resolution: int) -> np.ndarray:
    """Cell centers (k + 1/2) pi / resolution over (0, pi)."""
    return (np.arange(resolution) + 0.5) * math.pi / resolution


def dphi_centers(resolution: int) -> np.ndarray:
    """Cell centers (k + 1/2) 2 pi / resolution over (0, 2 pi)."""
    return (np.arange(resolution) + 0.5) * 2.0 * math.pi / resolution


def compute_scan(resolution: int) -> list[ScanRecord]:
    """Evaluate the grid in row-major order (theta1 outer, delta_phi inner)."""
    resolution = _as_integer("resolution", resolution, 2)
    th = theta_centers(resolution)
    t1, t2, dphi = np.meshgrid(th, th, dphi_centers(resolution), indexing="ij")
    s, c, code = _evaluate(t1, t2, dphi)
    columns = (t1, t2, dphi, s, c, _LABELS[code])
    return [ScanRecord(*row) for row in zip(*(col.ravel().tolist() for col in columns))]


def _csv_numbers(values) -> list[str]:
    """``%.12g`` of each value."""
    return list(map("%.12g".__mod__, values))


def _json_numbers(values) -> list[str]:
    """What ``json.dumps`` writes for ``float("%.12g" % v)``: its repr if finite,
    else ``NaN``, ``Infinity`` or ``-Infinity``."""
    return list(map(json.dumps, map(float, _csv_numbers(values))))


def _json_differs(values: np.ndarray) -> np.ndarray:
    """True where ``_json_numbers`` may differ from the ``%.12g`` text.

    For a finite value below 1e5 in magnitude they differ only where the
    value is subnormal or the text is an integer, which JSON writes with
    ".0"; both lie within 1e-6 of an integer (an integer text is at most
    5e-8 away, having 7 decimals to round at).  ``fmin`` maps NaN, the
    infinities and every magnitude from 1e5 up to 1e5, itself an integer.
    """
    a = np.fmin(np.abs(values), 1e5)
    return np.abs(a - np.rint(a)) <= 1e-6


def _naming(exc: OSError, path: Path) -> OSError:
    """``exc`` with ``path`` as its file name, in place of the temporary file's."""
    return OSError(exc.errno, exc.strerror, str(path))


def _slab_text(output_format: str, resolution: int):
    """The scan's opening and closing text and ``rows``, which makes a slab's text.

    ``rows(i, s, c, code)`` yields the text of theta1 slab ``i``, one theta2
    row at a time, each after the separator that comes before it; ``s``,
    ``c`` and ``code`` are the slab's flat float64 and regime-code arrays,
    theta2 outer and delta_phi inner.  A theta2 row is a head (theta1,
    theta2) before each of the resolution cells (delta_phi, then s, c and
    the regime label as slots); one % fills a row, formatting s and c with
    %.12g.  Every angle is formatted once.
    """
    if output_format == "csv":
        numbers = _csv_numbers
        opening, separator, closing = CSV_HEADER + "\n", "\n", "\n"
        head, cell = "{},{},", "{},%.12g,%.12g,%s"
    else:
        numbers = _json_numbers
        opening, separator, closing = "[", ",", "]\n"
        head, cell = '{{"theta1":{},"theta2":{},', '"delta_phi":{},"s":%.12g,"c":%.12g,"regime":"%s"}}'
    th_text = numbers(theta_centers(resolution).tolist())
    cells = [cell.format(d) for d in numbers(dphi_centers(resolution).tolist())]
    # A cell whose s or c JSON writes differently takes their text through %s.
    text_cells = [x.replace("%.12g", "%s") for x in cells]
    width = 3 * resolution

    def rows(i, s, c, code):
        slots = [None] * (3 * code.size)
        slots[0::3] = s.tolist()
        slots[1::3] = c.tolist()
        slots[2::3] = _LABELS[code].tolist()
        text_at = {}  # theta2 row -> its cells that take s and c as text
        if output_format == "json":
            for n in np.flatnonzero(_json_differs(s) | _json_differs(c)).tolist():
                j, k = divmod(n, resolution)
                text_at.setdefault(j, []).append(k)
                slots[3 * n : 3 * n + 2] = _json_numbers(slots[3 * n : 3 * n + 2])
        for j, t2 in enumerate(th_text):
            row_cells = cells
            if j in text_at:
                row_cells = list(cells)
                for k in text_at[j]:
                    row_cells[k] = text_cells[k]
            # Joining after an empty first cell puts the separator first.
            row = (separator + head.format(th_text[i], t2)).join(["", *row_cells])
            if not (i or j):
                row = row[len(separator) :]
            yield row % tuple(slots[j * width : (j + 1) * width])

    return opening, closing, rows


# From Python 3.12 os.fork warns (DeprecationWarning) in a process with more
# than one thread, which numpy's OpenBLAS threads make most processes.
_FORK_WARNS_IF_THREADED = sys.version_info >= (3, 12)


def _thread_count() -> int:
    """Threads of this process: its OS threads where /proc lists them, else
    those the threading module knows of."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _forks_helper() -> bool:
    """Whether a scan forks its helper: where it can fork, may run on more
    than one CPU and would not fork with more than one thread where the fork
    warns.  One helper is all that was measured to pay (on 2 CPUs), so more
    CPUs fork no more."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    return not (_FORK_WARNS_IF_THREADED and _thread_count() > 1)


def _write_slabs(out, slabs, rows, th: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Evaluate the theta1 slabs ``slabs`` in turn and write their text to
    ``out``; return their regime counts."""
    counts = np.zeros(len(_LABELS), dtype=np.int64)
    for i in slabs:
        s, c, code = _evaluate(th[i], th[:, None], dp[None, :])
        code = np.ravel(code)
        counts += np.bincount(code, minlength=len(_LABELS))
        for row in rows(i, np.ravel(s), np.ravel(c), code):
            out.write(row.encode("utf-8"))
    return counts


def _while_parent_is(caller: int, slabs):
    """``slabs``, but raise before the next one once this process's parent
    is no longer ``caller``, that is once ``caller`` has ended."""
    for i in slabs:
        if os.getppid() != caller:
            raise ChildProcessError(f"scan caller {caller} has ended")
        yield i


def _close_fds_but(*keep: int) -> None:
    """Close every descriptor above 2 but those in ``keep``."""
    low = 3
    for fd in sorted(keep):
        if fd >= low:
            os.closerange(low, fd)
            low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _write_halves(out, path: Path, rows, th: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Write the text of every theta1 slab to ``out`` and return their
    regime counts, forking a helper for the second half where
    ``_forks_helper()``; a helper that fails raises an error naming ``path``.

    The helper writes slabs [resolution // 2, resolution) to an unnamed part
    file in ``path``'s directory while the caller writes the slabs before
    them to ``out``.  It first closes every descriptor above 2 but the part
    file and its end of a pipe, so that it holds open no pipe, file or
    socket of the caller, nor of a scan running in another thread; it stops
    before any slab at which its parent is no longer the caller.  Once the
    part file is complete it writes its regime counts, three int64, to the
    pipe, its only message, and leaves, as on any error, through
    ``os._exit``, so that it flushes no inherited buffer and runs none of
    the caller's exit handlers.  The caller then reads the counts (or end
    of file, if the helper failed) and copies the part file after its own
    half.  An ``OSError`` making the part file, the pipe or the fork leaves
    the caller to write every slab.  Whatever happens, the caller closes
    its end of the pipe and the part file and reaps the helper, killing it
    first only if the caller raised before it read the pipe: a helper whose
    counts or end of file the caller has read has ended, and may be reaped
    already where SIGCHLD is ignored, so its pid must not be signalled.
    """
    resolution = half = len(th)
    pid = part = reply = None  # the helper's pid, its part file and its counts
    fds = []  # the pipe's ends that the caller holds
    try:
        if _forks_helper():
            try:
                part = tempfile.TemporaryFile(dir=path.parent)
                fds += os.pipe()
                caller = os.getpid()
                pid = os.fork()
                half = resolution // 2
            except OSError:
                pass  # the caller writes every slab
        if pid == 0:
            status = 1
            try:
                _close_fds_but(part.fileno(), fds[1])
                counts = _write_slabs(part, _while_parent_is(caller, range(half, resolution)), rows, th, dp)
                part.flush()
                os.write(fds[1], counts.tobytes())
                status = 0
            finally:
                os._exit(status)
        if pid:
            os.close(fds.pop())  # so that a helper that fails leaves end of file
        counts = _write_slabs(out, range(half), rows, th, dp)
        if pid:
            reply = os.read(fds[0], 24)  # written at once
            if len(reply) < 24:
                raise OSError(errno.EPIPE, f"scan helper process {pid} failed", str(path))
            part.seek(0)
            shutil.copyfileobj(part, out, 1 << 16)
            counts += np.frombuffer(reply, np.int64)
        return counts
    finally:
        for fd in fds:
            os.close(fd)
        if part is not None:
            part.close()
        if pid:
            if reply is None:
                import signal  # here, so that importing the package does not load it

                os.kill(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, where SIGCHLD is ignored
                pass


def write_scan(config: ScanConfig) -> ScanSummary:
    """Run the scan and write it to the configured path, slab by slab.

    The file is written under a temporary name in the target's directory and
    moved onto the target only when complete, so a failed scan leaves any
    previous file untouched.  A target that is a directory fails before any
    cell is computed; an error opening or replacing the file names the
    target, not the temporary file.  Returns the per-regime summary; the
    counts always equal what a reader of the emitted file would recompute.

    Where the process may run on more than one CPU and can fork there
    without a warning, a forked helper writes the second half of the slabs
    (see ``_write_halves``), which takes about half the output again in disk
    space until the scan ends.  The helper is reaped before this returns or
    raises; a helper that fails fails the scan with an error naming the
    target, and one whose caller has ended stops at its next slab.
    """
    path = Path(config.output_path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    resolution = config.resolution
    th = theta_centers(resolution)
    dp = dphi_centers(resolution)
    opening, closing, rows = _slab_text(config.output_format, resolution)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with open(fd, "wb") as out:
            out.write(opening.encode("utf-8"))
            out.flush()  # so that a forked helper inherits no buffered text
            counts = _write_halves(out, path, rows, th, dp)
            out.write(closing.encode("utf-8"))
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return ScanSummary(
        total=int(counts.sum()), counts=dict(zip(_LABELS.tolist(), counts.tolist())), path=path
    )

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
slabs in increasing theta1.  Its memory is flat in the number of slabs but
grows as resolution^2 (a slab's arrays, 3 resolution^2 slots and rows): a
CSV scan peaked at 29.8, 32.1 and 41.7 MB RSS at resolutions 64, 128 and
256 in one process, and its caller within 0.5 MB of that with the helper
(numpy 2.4, Python 3.11).  One bytes ``%`` fills each theta2 row's
template, formatting s and c with ``%.12g`` as it copies them in (CPython
writes the same digits as in a str ``%``); the O(resolution) cell templates
are built once a scan.  JSON writes ``json.dumps(float(text))`` of the
``%.12g`` text; the two can differ only for values that are non-finite
(JSON writes ``NaN`` and ``Infinity``), 1e5 or more in magnitude, or within
1e-6 of an integer (an integer text gains ".0", and subnormals lie within
1e-6 of 0), so a theta2 row with such an s or c takes all its s and c
through ``%s``.  The slabs go to a temporary file next to the target, which
replaces the target only once the scan is complete.  ``compute_scan`` holds
the same grid in memory as records, for small resolutions and for tests.

Formatting is nearly all of a scan's time, so where the process may run on
more than one CPU ``write_scan`` forks one helper process (one was measured
to pay, on 2 CPUs; more CPUs fork no more).  The two take turns at the one
temporary file, the caller writing the even theta1 slabs and the helper the
odd ones, each formatting its next slab while the other writes; the scan
takes no disk space beyond its output.  Each process holds one slab's
arrays and bytes; the helper also comes to own the pages the caller writes
after the fork, 3-7 MB of private memory at resolutions 64-128 (a peak
RSS of 23.1, 25.8 and 35.5 MB at 64, 128 and 256, mostly shared).  From
Python 3.12, where ``os.fork`` warns in a process with more than one
thread, a scan forks only where the process has one thread.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
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

CSV_HEADER = b"theta1,theta2,delta_phi,s,c,regime"

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


def _centers(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The cell centers of each theta axis, (k + 1/2) pi / resolution over
    (0, pi), and of delta_phi, twice those over (0, 2 pi)."""
    theta = (np.arange(resolution) + 0.5) * math.pi / resolution
    return theta, 2.0 * theta


def compute_scan(resolution: int) -> list[ScanRecord]:
    """Evaluate the grid in row-major order (theta1 outer, delta_phi inner)."""
    resolution = _as_integer("resolution", resolution, 2)
    th, dp = _centers(resolution)
    t1, t2, dphi = np.meshgrid(th, th, dp, indexing="ij")
    s, c, code = _evaluate(t1, t2, dphi)
    columns = (t1, t2, dphi, s, c, _LABELS[code])
    return [ScanRecord(*row) for row in zip(*(col.ravel().tolist() for col in columns))]


def _csv_numbers(values) -> list[bytes]:
    """``%.12g`` of each value."""
    return list(map(b"%.12g".__mod__, values))


def _json_numbers(values) -> list[bytes]:
    """What ``json.dumps`` writes for ``float("%.12g" % v)``: its repr if finite,
    else ``NaN``, ``Infinity`` or ``-Infinity``."""
    return [json.dumps(float(x)).encode("ascii") for x in _csv_numbers(values)]


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


# The regime labels as bytes slots; an object array, so that ``tolist``
# hands out references to these bytes rather than new ones.
_LABEL_BYTES = np.array([label.encode("ascii") for label in _LABELS.tolist()], dtype=object)


def _slab_text(output_format: str, resolution: int):
    """``slab``, which evaluates theta1 slab ``i`` and makes its bytes.

    ``slab(i)`` evaluates the slab through ``_evaluate`` and returns the
    bytes of its theta2 rows, one ``bytes`` a row, and its regime counts.
    A row is a head (theta1, theta2) before each of the resolution cells
    (delta_phi, then s, c and the regime label as slots), after the
    separator that comes before it: the scan's opening before row (0, 0),
    and its closing after the last row of the last slab.  One bytes % fills
    a row, formatting s and c with %.12g, the same digits as str % writes.
    Every angle is formatted once, and the grid and the cell and head
    templates are made once a scan.
    """
    if output_format == "csv":
        numbers = _csv_numbers
        opening, separator, closing = CSV_HEADER + b"\n", b"\n", b"\n"
        head, cell = b"%s,%s,", b"{},%.12g,%.12g,%s"
    else:
        numbers = _json_numbers
        opening, separator, closing = b"[", b",", b"]\n"
        head, cell = b'{"theta1":%s,"theta2":%s,', b'"delta_phi":{},"s":%.12g,"c":%.12g,"regime":"%s"}'
    th, dp = _centers(resolution)
    th_text = numbers(th.tolist())
    cells = [cell.replace(b"{}", d) for d in numbers(dp.tolist())]
    # A JSON row with an s or c that _json_differs takes all its s and c as text.
    text_cells = [x.replace(b"%.12g", b"%s") for x in cells]
    last = resolution - 1

    def slab(i):
        s, c, code = _evaluate(th[i], th[:, None], dp[None, :])
        slots = np.empty((resolution, resolution, 3), dtype=object)
        slots[..., 0], slots[..., 1], slots[..., 2] = s, c, _LABEL_BYTES[code]
        as_text = [False] * resolution
        if output_format == "json":
            as_text = (_json_differs(s) | _json_differs(c)).any(axis=1).tolist()
        rows = []
        for j in range(resolution):
            # Listing the whole slab's slots at once cost 1.4-3 MB more peak RSS at res 256.
            row_slots, row_cells = slots[j].ravel().tolist(), cells
            if as_text[j]:
                row_slots[0::3] = _json_numbers(row_slots[0::3])
                row_slots[1::3] = _json_numbers(row_slots[1::3])
                row_cells = text_cells
            row_head = head % (th_text[i], th_text[j])
            lead = separator if i or j else opening
            end = closing if i == j == last else b""
            row = b"".join([lead, row_head, (separator + row_head).join(row_cells), end])
            rows.append(row % tuple(row_slots))
        return rows, np.bincount(np.ravel(code), minlength=len(_LABELS))

    return slab


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


_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX")) if hasattr(os, "writev") else 0


def _write_all(fd: int, chunks: list[bytes]) -> None:
    """Write ``chunks`` to ``fd`` in order, emptying the list as they are
    written, up to IOV_MAX a call to ``os.writev`` (POSIX allows 16; one a
    call to ``os.write`` without it), looping on a short write."""
    while chunks:
        n = os.writev(fd, chunks[:_IOV_MAX]) if _IOV_MAX else os.write(fd, chunks[0])
        while chunks and len(chunks[0]) <= n:
            n -= len(chunks.pop(0))
        if n:
            chunks[0] = chunks[0][n:]


def _write_slabs(fd: int, slabs: range, slab, token=None) -> np.ndarray:
    """Write the bytes of the theta1 slabs ``slabs`` to ``fd`` in turn, one
    ``bytes`` a theta2 row as ``slab`` makes them (a joined slab would raise
    the peak memory), and return their regime counts.

    With ``token`` (the read end of one pipe, the write end of another) two
    processes take turns at ``fd``: each formats its next slab while the
    other writes, waits for the one-byte token on ``token[0]`` (but at slab
    0), writes, and passes it on ``token[1]`` (but after the scan's last
    slab, ``slabs.stop - 1``).  End of file on ``token[0]`` raises EOFError.
    """
    counts = np.zeros(len(_LABELS), dtype=np.int64)
    for i in slabs:
        rows, slab_counts = slab(i)
        counts += slab_counts
        if token and i and not os.read(token[0], 1):
            raise EOFError("the other scan process has ended")
        _write_all(fd, rows)
        if token and i < slabs.stop - 1:
            os.write(token[1], b"t")
    return counts


def _close_fds_but(*keep: int) -> None:
    """Close every descriptor above 2 but those in ``keep``."""
    low = 3
    for fd in sorted(keep):
        if fd >= low:
            os.closerange(low, fd)
            low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _write_turns(fd: int, path: Path, slab, resolution: int) -> np.ndarray:
    """Write every theta1 slab's bytes to ``fd`` and return their regime
    counts; where ``_forks_helper()``, a forked helper writes the odd slabs
    in turns with the caller (see ``_write_slabs``) through the file offset
    the two share, and one that fails raises an error naming ``path``.

    The helper closes every descriptor above 2 but ``fd`` and its two pipe
    ends (none of the caller's, nor of a scan in another thread), sends its
    regime counts (three int64) after its last slab and leaves through
    ``os._exit``, as on any error or on end of file from a caller that has
    ended.  An ``OSError`` making the pipes or the fork leaves the caller to
    write every slab.  The caller reaps the helper, killing it first only
    if it raised before it saw the helper end (end of file, no reader or
    the counts): an ended helper may be reaped already where SIGCHLD is
    ignored, and its pid taken.
    """
    pid = reply = None  # the helper's pid and its counts (b"" if it failed)
    fds = []  # the pipe ends that the caller holds
    try:
        if _forks_helper():
            try:
                fds += os.pipe()  # the caller's token to the helper
                fds += os.pipe()  # the helper's tokens and counts to the caller
                pid = os.fork()
            except OSError:
                pass  # the caller writes every slab
        if pid == 0:
            try:
                _close_fds_but(fd, fds[0], fds[3])
                counts = _write_slabs(fd, range(1, resolution, 2), slab, (fds[0], fds[3]))
                os.write(fds[3], counts.tobytes())
                os._exit(0)
            finally:
                os._exit(1)
        if not pid:
            return _write_slabs(fd, range(resolution), slab)
        for end in (fds.pop(), fds.pop(0)):
            os.close(end)  # the helper's, so that its end leaves end of file or no reader
        try:
            counts = _write_slabs(fd, range(0, resolution, 2), slab, fds[::-1])  # in, out
            reply = os.read(fds[1], 24)  # written at once
        except (EOFError, BrokenPipeError):
            reply = b""
        if len(reply) < 24:
            raise OSError(errno.EPIPE, f"scan helper process {pid} failed", str(path))
        return counts + np.frombuffer(reply, np.int64)
    finally:
        for end in fds:
            os.close(end)
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

    Where ``_forks_helper()``, a forked helper writes the odd slabs in turns
    with the caller (see ``_write_turns``) and is reaped before this returns
    or raises; a helper that fails fails the scan with an error naming the
    target, and one whose caller has ended stops at its next slab.
    """
    path = Path(config.output_path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    slab = _slab_text(config.output_format, config.resolution)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        # O_BINARY, where it exists (Windows), keeps each LF from becoming CRLF.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        try:
            counts = _write_turns(fd, path, slab, config.resolution)
        finally:
            os.close(fd)
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

"""Parameter-space scans over (theta1, theta2, delta_phi) and their serialization.

A scan evaluates S, the concurrence and the regime on a regular grid of
cell centers: theta axes over (0, pi), delta_phi over [0, 2*pi).  Cell
centers keep delta_phi meaningful (at theta = 0 or pi it is pure gauge);
the exact extremes live on the closed boundary and are the business of the
extremal module, not the scan.  Only the phase difference is stored since
S and C depend on the azimuths through it alone.

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
target only once the scan is complete.  ``compute_scan`` and the renderers
hold the same grid in memory as records, for small resolutions and for
tests.

Formatting is nearly all of a scan's time, so where the process may run on
more than one CPU ``write_scan`` forks one formatter process (one formatter
was measured to pay, on 2 CPUs; more CPUs fork no more).  Only the caller
evaluates, counts regimes and writes the file, in theta1 order; the
formatter only turns the raw arrays of the slabs it is sent into their
text, which it sends back.  The caller thus holds one slab's arrays and one
row of text, as a single process does; the formatter is a process of its
own, which holds a slab's text and the caller's pages that it comes to own
as the caller writes them, several MB all told.  From Python 3.12, where
``os.fork`` warns in a process with more than one thread (numpy's OpenBLAS
threads make most processes so), a scan forks only where the process has
one thread.
"""

from __future__ import annotations

import errno
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import REGIME_EDGES, Regime
from .measures import concurrence_of_overlap, s_of_overlap
from .states import _overlap_parts

__all__ = [
    "ScanConfig",
    "ScanRecord",
    "ScanSummary",
    "compute_scan",
    "regime_counts",
    "render_csv",
    "render_json",
    "write_scan",
]

CSV_HEADER = "theta1,theta2,delta_phi,s,c,regime"

OUTPUT_FORMATS = ("csv", "json")

# Regime labels indexed by the code of ``_evaluate``, in the order of ``Regime``.
_LABELS = np.array([r.value for r in Regime], dtype=object)


@dataclass(frozen=True)
class ScanConfig:
    """Scan resolution and output format/path; the grid is deterministic."""

    resolution: int
    output_path: str | Path
    output_format: str = "csv"

    def __post_init__(self) -> None:
        try:
            operator.index(self.resolution)
        except TypeError:
            raise TypeError(f"resolution must be an integer: got {self.resolution!r}") from None
        if self.resolution < 2:
            raise ValueError(f"resolution must be at least 2: got {self.resolution}")
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


def _evaluate(theta1, theta2, delta_phi):
    """S, concurrence and regime code on broadcast angle arrays.

    The code indexes ``_LABELS``: 0 for S < -3, 1 for -3 <= S < -sqrt(5)
    and 2 otherwise, the half-open bands of ``classify_s``.
    """
    _, y, f = _overlap_parts(theta1, theta2, delta_phi)
    s = s_of_overlap(f, y)
    return s, concurrence_of_overlap(f), np.digitize(s, REGIME_EDGES)


def compute_scan(resolution: int) -> list[ScanRecord]:
    """Evaluate the grid in row-major order (theta1 outer, delta_phi inner)."""
    th = theta_centers(resolution)
    t1, t2, dphi = np.meshgrid(th, th, dphi_centers(resolution), indexing="ij")
    s, c, code = _evaluate(t1, t2, dphi)
    columns = (t1, t2, dphi, s, c, _LABELS[code])
    return [ScanRecord(*row) for row in zip(*(col.ravel().tolist() for col in columns))]


def regime_counts(records: list[ScanRecord]) -> dict[str, int]:
    """Records per regime label, keyed by label, all three labels present."""
    counts = {regime.value: 0 for regime in Regime}
    for record in records:
        counts[record.regime] += 1
    return counts


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def render_csv(records: list[ScanRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(
        f"{_fmt(r.theta1)},{_fmt(r.theta2)},{_fmt(r.delta_phi)},"
        f"{_fmt(r.s)},{_fmt(r.c)},{r.regime}"
        for r in records
    )
    return "\n".join(lines) + "\n"


def render_json(records: list[ScanRecord]) -> str:
    rows = [
        {
            "theta1": float(_fmt(r.theta1)),
            "theta2": float(_fmt(r.theta2)),
            "delta_phi": float(_fmt(r.delta_phi)),
            "s": float(_fmt(r.s)),
            "c": float(_fmt(r.c)),
            "regime": r.regime,
        }
        for r in records
    ]
    return json.dumps(rows, separators=(",", ":")) + "\n"


def _csv_numbers(values) -> list[str]:
    """``_fmt`` of each value."""
    return list(map("%.12g".__mod__, values))


def _json_numbers(values) -> list[str]:
    """What ``json.dumps`` writes for ``float(_fmt(v))``: its repr if finite,
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
        import threading  # here, so that importing the package does not load it

        return threading.active_count()


def _forks_formatter() -> bool:
    """Whether a scan forks its formatter: where it can fork, may run on more
    than one CPU and would not fork with more than one thread where the fork
    warns.  One formatter is all that was measured to pay (on 2 CPUs), so
    more CPUs fork no more."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    return not (_FORK_WARNS_IF_THREADED and _thread_count() > 1)


def _read_exact(fd: int, size: int) -> bytearray:
    """``size`` bytes from ``fd``, or fewer if it reaches end of file first."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            break
        data += chunk
    return data


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _close_fds_but(*keep: int) -> None:
    """Close every descriptor above 2 but those in ``keep``."""
    low = 3
    for fd in sorted(keep):
        if fd >= low:
            os.closerange(low, fd)
            low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _format_slabs(rows, resolution: int, inbox: int, reply: int) -> None:
    """The formatter's loop: turn each slab read from ``inbox`` into text on ``reply``.

    A slab arrives as its index (8 bytes, little-endian) followed by the raw
    bytes of s and c (float64) and of the regime codes (uint8); its text
    goes back as the length of its UTF-8 bytes (8 bytes) and the bytes.  The
    loop ends when the caller closes ``inbox``.
    """
    n = resolution * resolution
    size = 8 + 17 * n
    while message := _read_exact(inbox, size):
        if len(message) < size:
            raise EOFError("slab cut short")
        s = np.frombuffer(message, np.float64, n, 8)
        c = np.frombuffer(message, np.float64, n, 8 + 8 * n)
        code = np.frombuffer(message, np.uint8, n, 8 + 16 * n)
        text = bytearray()
        for row in rows(int.from_bytes(message[:8], "little"), s, c, code):
            text += row.encode("utf-8")
        _write_all(reply, len(text).to_bytes(8, "little"))
        _write_all(reply, text)


def _start_formatter(rows, resolution: int):
    """Fork the formatter; return its pid and the caller's ends of its two
    pipes, (pid, inbox, reply), or None if a pipe or the fork fails.

    The formatter first closes every descriptor above 2 but its own ends of
    the pipes, so that it holds open no pipe, file or socket of the caller,
    nor of a scan running in another thread.  It leaves only through
    ``os._exit``, so that it flushes no inherited buffer and runs none of
    the caller's exit handlers.
    """
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except BaseException as exc:
        # A formatter forked before the error reads end of file and exits.
        for fd in fds:
            os.close(fd)
        if isinstance(exc, OSError):
            return None
        raise
    inbox_r, inbox_w, reply_r, reply_w = fds
    if pid == 0:
        status = 1
        try:
            _close_fds_but(inbox_r, reply_w)
            _format_slabs(rows, resolution, inbox_r, reply_w)
            status = 0
        finally:
            os._exit(status)
    os.close(inbox_r)
    os.close(reply_w)
    return pid, inbox_w, reply_r


def _stop_formatter(formatter, kill: bool = False) -> None:
    """Close the caller's ends of the formatter's pipes and reap it, first
    killing it if ``kill``; does nothing for None."""
    if formatter is None:
        return
    pid, inbox, reply = formatter
    if kill:
        import signal  # here, so that importing the package does not load it

        os.kill(pid, signal.SIGKILL)
    os.close(inbox)
    os.close(reply)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # reaped already, where SIGCHLD is ignored
        pass


def _formatter_lost(pid: int, path: Path) -> OSError:
    return OSError(errno.EPIPE, f"scan formatter process {pid} ended early", str(path))


def _send(formatter, i: int, slab, path: Path) -> None:
    """Send slab ``i``, its (s, c, code) arrays, to the formatter."""
    pid, inbox, _ = formatter
    try:
        _write_all(inbox, b"".join([i.to_bytes(8, "little"), *(a.tobytes() for a in slab)]))
    except BrokenPipeError:
        raise _formatter_lost(pid, path) from None


def _copy_reply(formatter, out, path: Path) -> None:
    """Copy the text of the formatter's next slab from its pipe to ``out``."""
    pid, _, reply = formatter
    head = _read_exact(reply, 8)
    if len(head) < 8:
        raise _formatter_lost(pid, path)
    left = int.from_bytes(head, "little")
    while left:
        chunk = os.read(reply, min(left, 1 << 16))
        if not chunk:
            raise _formatter_lost(pid, path)
        out.write(chunk)
        left -= len(chunk)


def write_scan(config: ScanConfig) -> ScanSummary:
    """Run the scan and write it to the configured path, slab by slab.

    The file is written under a temporary name in the target's directory and
    moved onto the target only when complete, so a failed scan leaves any
    previous file untouched.  A target that is a directory fails before any
    cell is computed; an error opening or replacing the file names the
    target, not the temporary file.  Returns the per-regime summary; the
    counts always equal what a reader of the emitted file would recompute.

    Where the process may run on more than one CPU, and can fork there
    without a warning, the text of the slabs is made in two processes.  The
    caller forks one formatter process, then takes the slabs in pairs in
    theta1 order: it evaluates both slabs of a pair, counts their regimes
    and sends the raw arrays of the second to the formatter over a pipe; it
    writes the first slab's text itself, then copies the formatter's reply
    into the file.  Only the caller evaluates and writes, so its own memory
    stays at one slab's arrays and one row of text; the formatter, a
    process of its own, holds one slab's text.  The formatter is reaped
    before this returns or raises, and killed first if it raises; one that
    ends early fails the scan with an error naming the target.  Otherwise
    the caller takes the slabs one at a time alone.
    """
    path = Path(config.output_path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    resolution = config.resolution
    th = theta_centers(resolution)
    dp = dphi_centers(resolution)
    opening, closing, rows = _slab_text(config.output_format, resolution)
    counts = np.zeros(len(_LABELS), dtype=np.int64)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _naming(exc, path) from None
    formatter = None  # (pid, inbox, reply) of the forked formatter
    try:
        try:
            with open(fd, "wb") as out:
                # Nothing is buffered in out yet, so the formatter inherits no text.
                if _forks_formatter():
                    formatter = _start_formatter(rows, resolution)
                out.write(opening.encode("utf-8"))
                step = 1 if formatter is None else 2
                for first in range(0, resolution, step):
                    for i in range(first, min(first + step, resolution)):
                        s, c, code = _evaluate(th[i], th[:, None], dp[None, :])
                        code = code.ravel()
                        counts += np.bincount(code, minlength=len(_LABELS))
                        slab = (
                            np.asarray(s, dtype=np.float64).ravel(),
                            np.asarray(c, dtype=np.float64).ravel(),
                            code.astype(np.uint8),
                        )
                        if i == first:
                            own = slab
                        else:
                            _send(formatter, i, slab, path)
                    for row in rows(first, *own):
                        out.write(row.encode("utf-8"))
                    if i != first:
                        _copy_reply(formatter, out, path)
                out.write(closing.encode("utf-8"))
        except BaseException:
            _stop_formatter(formatter, kill=True)
            raise
        _stop_formatter(formatter)
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

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
"""

from __future__ import annotations

import errno
import json
import math
import operator
import os
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


def write_scan(config: ScanConfig) -> ScanSummary:
    """Run the scan and write it to the configured path, slab by slab.

    The file is written under a temporary name in the target's directory and
    moved onto the target only when complete, so a failed scan leaves any
    previous file untouched.  A target that is a directory fails before any
    cell is computed; an error opening or replacing the file names the
    target, not the temporary file.  Returns the per-regime summary; the
    counts always equal what a reader of the emitted file would recompute.
    """
    path = Path(config.output_path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    th = theta_centers(config.resolution)
    dp = dphi_centers(config.resolution)
    # A theta2 row is a head (theta1, theta2) before each of the resolution
    # cells (delta_phi, then s, c and the regime label as slots); one % fills
    # a row, formatting s and c with %.12g.  Every angle is formatted once.
    if config.output_format == "csv":
        numbers = _csv_numbers
        opening, separator, closing = CSV_HEADER + "\n", "\n", "\n"
        head, cell = "{},{},", "{},%.12g,%.12g,%s"
    else:
        numbers = _json_numbers
        opening, separator, closing = "[", ",", "]\n"
        head, cell = '{{"theta1":{},"theta2":{},', '"delta_phi":{},"s":%.12g,"c":%.12g,"regime":"%s"}}'
    th_text = numbers(th.tolist())
    cells = [cell.format(d) for d in numbers(dp.tolist())]
    # A cell whose s or c JSON writes differently takes their text through %s.
    text_cells = [x.replace("%.12g", "%s") for x in cells]
    counts = np.zeros(len(_LABELS), dtype=np.int64)
    width = 3 * len(cells)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as out:
            out.write(opening)
            for i, t1 in enumerate(th_text):
                s, c, code = _evaluate(th[i], th[:, None], dp[None, :])
                code = code.ravel()
                counts += np.bincount(code, minlength=len(_LABELS))
                slots = [None] * (3 * code.size)
                slots[0::3] = s.ravel().tolist()
                slots[1::3] = c.ravel().tolist()
                slots[2::3] = _LABELS[code].tolist()
                text_at = {}  # theta2 row -> its cells that take s and c as text
                if config.output_format == "json":
                    for j, k in np.argwhere(_json_differs(s) | _json_differs(c)).tolist():
                        text_at.setdefault(j, []).append(k)
                        at = j * width + 3 * k
                        slots[at : at + 2] = _json_numbers(slots[at : at + 2])
                for j, t2 in enumerate(th_text):
                    row_head = head.format(t1, t2)
                    row_cells = cells
                    if j in text_at:
                        row_cells = list(cells)
                        for k in text_at[j]:
                            row_cells[k] = text_cells[k]
                    if i or j:
                        out.write(separator)
                    row = row_head + (separator + row_head).join(row_cells)
                    out.write(row % tuple(slots[j * width : (j + 1) * width]))
            out.write(closing)
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

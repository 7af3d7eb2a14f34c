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
slabs in increasing theta1, so memory stays flat in the resolution.  The
slabs go to a temporary file next to the target, which replaces the target
only once the scan is complete.  ``compute_scan`` and the renderers hold the
same grid in memory as records, for small resolutions and for tests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import Regime
from .extremal import LOCAL_BOUND
from .observables import CLASSICAL_BOUND, SQRT5

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
_LABELS = np.array(
    [r.value for r in (Regime.CONTEXTUAL_NONLOCAL, Regime.NONLOCAL_NONCONTEXTUAL, Regime.LOCAL)],
    dtype=object,
)


@dataclass(frozen=True)
class ScanConfig:
    """Scan resolution and output format/path; the grid is deterministic."""

    resolution: int
    output_path: str | Path
    output_format: str = "csv"

    def __post_init__(self) -> None:
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
    f = np.sin(theta1) * np.sin(theta2) * np.cos(delta_phi) + np.cos(theta1) * np.cos(theta2)
    y = np.cos(theta1) * np.cos(theta2)
    s = 4.0 * (3.0 * SQRT5 - 5.0) * (y + 1.0) / (f + 3.0) + (5.0 - 4.0 * SQRT5)
    c = (1.0 - f) / (3.0 + f)
    return s, c, np.digitize(s, (CLASSICAL_BOUND, LOCAL_BOUND))


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
    """What ``json.dumps`` writes for ``float(_fmt(v))``: its repr."""
    return list(map(repr, map(float, _csv_numbers(values))))


def write_scan(config: ScanConfig) -> ScanSummary:
    """Run the scan and write it to the configured path, slab by slab.

    The file is written under a temporary name in the target's directory and
    moved onto the target only when complete, so a failed scan leaves any
    previous file untouched.  Returns the per-regime summary; the counts
    always equal what a reader of the emitted file would recompute.
    """
    th = theta_centers(config.resolution)
    dp = dphi_centers(config.resolution)
    # A record is a per-slab head (theta1) and a per-cell template (theta2,
    # delta_phi) with slots for s, c and the regime label; every angle is
    # formatted once.
    if config.output_format == "csv":
        numbers = _csv_numbers
        opening, separator, closing = CSV_HEADER + "\n", "\n", "\n"
        head, cell = "{},", "{},{},%s,%s,%s"
    else:
        numbers = _json_numbers
        opening, separator, closing = "[", ",", "]\n"
        head, cell = '{{"theta1":{},', '"theta2":{},"delta_phi":{},"s":%s,"c":%s,"regime":"%s"}}'
    th_text = numbers(th.tolist())
    heads = [head.format(t) for t in th_text]
    cells = [cell.format(a, b) for a in th_text for b in numbers(dp.tolist())]
    counts = np.zeros(len(_LABELS), dtype=np.int64)
    path = Path(config.output_path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as out:
            out.write(opening)
            for i, slab_head in enumerate(heads):
                s, c, code = _evaluate(th[i], th[:, None], dp[None, :])
                code = code.ravel()
                counts += np.bincount(code, minlength=len(_LABELS))
                slots = [None] * (3 * code.size)
                slots[0::3] = numbers(s.ravel().tolist())
                slots[1::3] = numbers(c.ravel().tolist())
                slots[2::3] = _LABELS[code].tolist()
                template = slab_head + (separator + slab_head).join(cells)
                if i:
                    out.write(separator)
                out.write(template % tuple(slots))
            out.write(closing)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return ScanSummary(
        total=int(counts.sum()), counts=dict(zip(_LABELS.tolist(), counts.tolist())), path=path
    )

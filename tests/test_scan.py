"""Tests for the parameter-space scan and its CSV/JSON serialization."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from kcbs_msr import scan
from kcbs_msr import (
    Regime,
    ScanConfig,
    classify_s,
    compute_scan,
    regime_counts,
    render_csv,
    render_json,
    s_function,
    write_scan,
)

SQRT5 = math.sqrt(5.0)

# SHA-256 of the files written by the record-list scan that preceded the
# streaming writer, keyed by (resolution, format).  Any change to the
# floats, their formatting or the framing changes these.
GOLDEN_SHA256 = {
    (32, "csv"): "65029cea5d3e08b89d650ce8f02682b051672cd04b8155d72d13f1bd6844f0a7",
    (32, "json"): "7983d15ae2a2315dcefae10064943b722f0c8e4cf320ce7fd7217314bfd9790d",
    (64, "csv"): "95a3403932e69271d342f7274f78e6518d4bfe5c8a428d012f364fe6b7455142",
    (64, "json"): "049a13a13438bfe4f514d95afdbd0fe3b54228f766301842c904b7eacec27754",
}


class TestScanConfig:
    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            ScanConfig(resolution=1, output_path="out.csv")

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            ScanConfig(resolution=8, output_path="out.xml", output_format="xml")

    def test_has_no_seed(self):
        # The grid is deterministic; a seed would be written nowhere.
        with pytest.raises(TypeError):
            ScanConfig(resolution=8, output_path="out.csv", seed=1)


class TestComputeScan:
    def test_record_count(self):
        assert len(compute_scan(8)) == 8**3

    def test_row_major_order(self):
        records = compute_scan(4)
        # delta_phi innermost, then theta2, then theta1.
        assert records[0].delta_phi < records[1].delta_phi
        assert records[0].theta2 == records[1].theta2
        assert records[4].theta2 > records[0].theta2
        assert records[16].theta1 > records[0].theta1

    def test_records_match_direct_evaluation(self):
        for record in compute_scan(6)[::7]:
            assert record.s == pytest.approx(
                s_function(record.theta1, record.theta2, record.delta_phi),
                abs=1e-12,
            )

    def test_no_record_below_spectral_minimum(self):
        records = compute_scan(16)
        assert min(r.s for r in records) >= 5.0 - 4.0 * SQRT5 - 1e-10

    def test_regime_labels_match_thresholds(self):
        for record in compute_scan(8):
            if record.s < -3.0:
                assert record.regime == Regime.CONTEXTUAL_NONLOCAL.value
            elif record.s < -SQRT5:
                assert record.regime == Regime.NONLOCAL_NONCONTEXTUAL.value
            else:
                assert record.regime == Regime.LOCAL.value

    def test_kernel_codes_match_classify_s(self):
        # (pi/2, pi/2, 0) lands exactly on S = -sqrt(5), which is Local.
        angles = [(math.pi / 2, math.pi / 2, 0.0), (math.pi, 0.0, 0.0), (0.0, 0.0, 0.0), (2.0, 1.0, 0.5)]
        t1, t2, dphi = (np.array(column) for column in zip(*angles))
        s, _, code = scan._evaluate(t1, t2, dphi)
        assert s[0] == -SQRT5
        for s_value, k in zip(s.tolist(), code.tolist()):
            assert scan._LABELS[k] == classify_s(s_value).value

    def test_grid_minimum_at_corner_cell(self):
        resolution = 32
        records = compute_scan(resolution)
        best = min(records, key=lambda r: r.s)
        step = math.pi / resolution
        near_low = 0.5 * step
        near_high = math.pi - 0.5 * step
        assert (
            (best.theta1, best.theta2) == pytest.approx((near_high, near_low))
            or (best.theta1, best.theta2) == pytest.approx((near_low, near_high))
        )

    def test_resolution_32_regime_counts(self):
        # Regression values computed by this scan; both regions nonempty.
        counts = regime_counts(compute_scan(32))
        assert counts[Regime.CONTEXTUAL_NONLOCAL.value] == 3620
        assert counts[Regime.NONLOCAL_NONCONTEXTUAL.value] == 5624
        assert counts[Regime.LOCAL.value] == 23524


class TestSerialization:
    def test_csv_header_and_trailing_newline(self):
        text = render_csv(compute_scan(2))
        lines = text.split("\n")
        assert lines[0] == "theta1,theta2,delta_phi,s,c,regime"
        assert text.endswith("\n")
        assert len(lines) == 2 + 2**3  # header + records + trailing empty

    def test_csv_round_trip_reproduces_s(self):
        text = render_csv(compute_scan(5))
        for line in text.strip().split("\n")[1:]:
            t1, t2, dphi, s, c, regime = line.split(",")
            s_again = s_function(float(t1), float(t2), float(dphi))
            assert abs(s_again - float(s)) <= 1e-9

    def test_json_round_trip(self):
        records = compute_scan(3)
        rows = json.loads(render_json(records))
        assert len(rows) == len(records)
        assert set(rows[0]) == {"theta1", "theta2", "delta_phi", "s", "c", "regime"}
        for row in rows:
            s_again = s_function(row["theta1"], row["theta2"], row["delta_phi"])
            assert abs(s_again - row["s"]) <= 1e-9

    def test_summary_counts_match_records(self):
        records = compute_scan(8)
        counts = regime_counts(records)
        assert sum(counts.values()) == len(records)
        assert counts[Regime.LOCAL.value] == sum(
            1 for r in records if r.regime == Regime.LOCAL.value
        )


class TestWriteScan:
    def test_byte_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            write_scan(ScanConfig(resolution=16, output_path=p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_output(self, tmp_path):
        path = tmp_path / "scan.json"
        summary = write_scan(
            ScanConfig(resolution=4, output_path=path, output_format="json")
        )
        rows = json.loads(path.read_text())
        assert summary.total == len(rows) == 4**3

    def test_summary_reports_all_labels(self, tmp_path):
        summary = write_scan(ScanConfig(resolution=8, output_path=tmp_path / "s.csv"))
        assert set(summary.counts) == {regime.value for regime in Regime}

    def test_unix_newlines(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan(ScanConfig(resolution=2, output_path=path))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    @pytest.mark.parametrize(("resolution", "fmt"), sorted(GOLDEN_SHA256))
    def test_golden_bytes(self, tmp_path, resolution, fmt):
        path = tmp_path / f"scan.{fmt}"
        write_scan(ScanConfig(resolution=resolution, output_path=path, output_format=fmt))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(resolution, fmt)]

    @pytest.mark.parametrize("resolution", [2, 7])
    @pytest.mark.parametrize(("fmt", "render"), [("csv", render_csv), ("json", render_json)])
    def test_file_equals_in_memory_render(self, tmp_path, resolution, fmt, render):
        path = tmp_path / f"scan.{fmt}"
        write_scan(ScanConfig(resolution=resolution, output_path=path, output_format=fmt))
        assert path.read_bytes() == render(compute_scan(resolution)).encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_summary_equals_in_memory_counts(self, tmp_path, fmt):
        summary = write_scan(
            ScanConfig(resolution=9, output_path=tmp_path / "s", output_format=fmt)
        )
        assert summary.total == 9**3
        assert summary.counts == regime_counts(compute_scan(9))
        assert list(summary.counts) == [regime.value for regime in Regime]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_scan_keeps_previous_file(self, tmp_path, monkeypatch, fmt):
        path = tmp_path / f"scan.{fmt}"
        path.write_bytes(b"previous contents\n")
        evaluate = scan._evaluate
        calls = []

        def fail_on_second_slab(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("slab failed")
            return evaluate(*args)

        monkeypatch.setattr(scan, "_evaluate", fail_on_second_slab)
        with pytest.raises(RuntimeError, match="slab failed"):
            write_scan(ScanConfig(resolution=4, output_path=path, output_format=fmt))
        assert path.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_bytes(b"x" * 100_000)
        write_scan(ScanConfig(resolution=3, output_path=path))
        assert path.read_bytes() == render_csv(compute_scan(3)).encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_memory_flat_in_resolution(self, tmp_path):
        # The res-64 CSV is 21.7 MB; a streaming writer holds one slab of it.
        path = tmp_path / "scan.csv"
        tracemalloc.start()
        try:
            write_scan(ScanConfig(resolution=64, output_path=path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 21_736_585
        assert peak < path.stat().st_size / 4

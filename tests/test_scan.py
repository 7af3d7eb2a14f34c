"""Tests for the parameter-space scan and its CSV/JSON serialization."""

import errno
import functools
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kcbs_msr import scan
from kcbs_msr import (
    Regime,
    ScanConfig,
    ScanRecord,
    classify_s,
    compute_scan,
    s_function,
    write_scan,
)

SQRT5 = math.sqrt(5.0)

# SHA-256 of the files written by the record-list scan that preceded the
# streaming writer, keyed by (resolution, format).  Any change to the
# floats, their formatting or the framing changes these.  (96, "csv") and
# (64, "json") are the two files perfbench/run.py gates, with its hashes.
GOLDEN_SHA256 = {
    (32, "csv"): "65029cea5d3e08b89d650ce8f02682b051672cd04b8155d72d13f1bd6844f0a7",
    (32, "json"): "7983d15ae2a2315dcefae10064943b722f0c8e4cf320ce7fd7217314bfd9790d",
    (64, "csv"): "95a3403932e69271d342f7274f78e6518d4bfe5c8a428d012f364fe6b7455142",
    (64, "json"): "049a13a13438bfe4f514d95afdbd0fe3b54228f766301842c904b7eacec27754",
    (96, "csv"): "0e8eb48b55ca97f59211417ccfe9d8d517e56153e17407f8ae5a1c4a0a36ee81",
}

# Values at the edges of how a number is printed: signed zeros, integers
# (JSON appends ".0"), subnormals, the switch to an exponent, and the
# exponents 12-15, where %.12g writes an exponent and repr does not.
EDGE_VALUES = [
    -3.0, 0.0, -0.0, 1.0, 2.0, 5e-324, -5e-324, 1e-310, 1e-05, 1.5e-07,
    1e12, 123456789012345.0, 1e16, -1e16, 99999.99999999, 3.0000000000001,
]


def _fmt(value):
    return f"{value:.12g}"


# The reference renderer, which shares no code with ``write_scan``: it
# formats each record's values on its own, one record a line or object.
def render_csv(records):
    lines = ["theta1,theta2,delta_phi,s,c,regime"]
    lines.extend(
        f"{_fmt(r.theta1)},{_fmt(r.theta2)},{_fmt(r.delta_phi)},"
        f"{_fmt(r.s)},{_fmt(r.c)},{r.regime}"
        for r in records
    )
    return "\n".join(lines) + "\n"


def render_json(records):
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


def regime_counts(records):
    """Records per regime label, keyed by label, all three labels present:
    the reference counter that ``write_scan``'s counts must equal."""
    counts = {regime.value: 0 for regime in Regime}
    for record in records:
        counts[record.regime] += 1
    return counts


def _vm_rss_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line in /proc/self/status")


def _scan_config(resolution):
    return ScanConfig(resolution=resolution, output_path="out.csv")


class TestScanConfig:
    # compute_scan takes the same resolution check as ScanConfig.
    def test_rejects_small_resolution(self):
        for make in (_scan_config, compute_scan):
            for resolution in (1, 0, -2):
                with pytest.raises(ValueError) as raised:
                    make(resolution)
                assert str(raised.value) == f"resolution must be at least 2: got {resolution}"

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            ScanConfig(resolution=8, output_path="out.xml", output_format="xml")

    @pytest.mark.parametrize("resolution", [2.5, 8.0, "8"])
    def test_rejects_non_integer_resolution(self, resolution):
        for make in (_scan_config, compute_scan):
            with pytest.raises(TypeError, match="resolution must be an integer"):
                make(resolution)

    def test_accepts_numpy_integer_resolution(self, tmp_path):
        config = ScanConfig(resolution=np.int64(3), output_path=tmp_path / "s.csv")
        write_scan(config)
        assert config.output_path.read_bytes() == render_csv(compute_scan(3)).encode("utf-8")

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

    # write_scan fills bytes templates; the reference renderer formats str.
    # The two agree because CPython's bytes % and str % both write a float
    # through the same double-to-text conversion.
    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(-0.0)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(5e-324)
    @example(1e16)
    @example(1e-05)
    @example(1e15 - 0.5)
    def test_bytes_percent_writes_the_str_digits(self, value):
        assert b"%.12g" % value == ("%.12g" % value).encode("ascii") == _fmt(value).encode("ascii")

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
    def test_failed_scan_keeps_previous_file(self, tmp_path, monkeypatch, processes, fmt):
        # Slab 2 fails; it is the caller's with one process or two.
        path = tmp_path / f"scan.{fmt}"
        evaluate = scan._evaluate
        th = scan._centers(4)[0].tolist()

        def fail_on_third_slab(theta1, *args):
            if th.index(float(theta1)) == 2:
                raise RuntimeError("slab failed")
            return evaluate(theta1, *args)

        monkeypatch.setattr(scan, "_evaluate", fail_on_third_slab)
        for count in (1, 2):
            processes(count)
            path.write_bytes(b"previous contents\n")
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

    def test_failed_replace_names_the_target(self, tmp_path, monkeypatch):
        # The error names the target, not the temporary file, which is removed.
        path = tmp_path / "scan.csv"
        path.write_bytes(b"previous contents\n")

        def failing_replace(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(src), None, str(dst))

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(PermissionError) as error:
            write_scan(ScanConfig(resolution=3, output_path=path))
        assert (error.value.errno, error.value.filename) == (errno.EACCES, str(path))
        assert ".tmp" not in str(error.value)
        assert path.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_opens_its_file_with_o_binary(self, tmp_path, monkeypatch):
        # Windows's O_BINARY keeps each LF an LF; O_CLOEXEC, which Linux
        # accepts and os.open sets anyway, stands in for it here.
        monkeypatch.setattr(os, "O_BINARY", os.O_CLOEXEC, raising=False)
        flags, real_open = [], os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        path = tmp_path / "scan.csv"
        write_scan(ScanConfig(resolution=3, output_path=path))
        assert [flag & os.O_CLOEXEC for flag in flags] == [os.O_CLOEXEC]
        assert path.read_bytes() == render_csv(compute_scan(3)).encode("utf-8")

    @pytest.mark.parametrize(("fmt", "render"), [("csv", render_csv), ("json", render_json)])
    def test_edge_values_equal_in_memory_render(
        self, tmp_path, monkeypatch, processes, forked, fmt, render
    ):
        # Slab 0 holds one edge value, in the s of its first cell: that row
        # alone follows the opening.  Slabs 1-3 put the edge values in s, in
        # c and in both, so rows with and without them mix.  Slab 4 holds
        # one, in the c of its last cell: that row alone comes before the
        # closing.  With two processes slabs 0, 2 and 4 are the caller's and
        # 1 and 3 the helper's.
        resolution = 5
        th, dp = (x.tolist() for x in scan._centers(resolution))

        def edge_values_evaluate(theta1, *args):
            k = th.index(float(theta1))
            rng = np.random.default_rng((5, k))
            s = rng.uniform(-4.0, 1.0, (resolution, resolution))
            c = rng.uniform(0.0, 1.0, (resolution, resolution))
            edges = np.array(EDGE_VALUES)
            if k == 0:
                s[0, 0] = -3.0
            if k in (1, 3):
                s.flat[: edges.size] = edges
            if k in (2, 3):
                c.flat[-edges.size :] = edges[::-1]
            if k == resolution - 1:
                c[-1, -1] = 1.0
            code = np.arange(resolution**2).reshape(resolution, resolution) % 3
            return s, c, code

        monkeypatch.setattr(scan, "_evaluate", edge_values_evaluate)
        records = [
            ScanRecord(t1, t2, d, s[j, k], c[j, k], scan._LABELS[code[j, k]])
            for t1, (s, c, code) in zip(th, map(edge_values_evaluate, th))
            for j, t2 in enumerate(th)
            for k, d in enumerate(dp)
        ]
        path = tmp_path / f"scan.{fmt}"
        for count in (1, 2):
            processes(count)
            write_scan(ScanConfig(resolution=resolution, output_path=path, output_format=fmt))
            assert path.read_bytes() == render(records).encode("utf-8")
        assert len(forked) == _forks(2)

    def test_non_finite_values_parse_as_json(self, tmp_path, monkeypatch, processes, forked):
        # JSON has no nan or inf literal; json.dumps writes NaN and Infinity.
        # With two processes each writes one slab.
        values = [
            (np.array([[math.nan, 0.25], [math.inf, -math.inf]]), np.array([[0.5, math.nan], [1.0, 2.5]])),
            (np.array([[-1.5, -3.0], [0.125, -2.5]]), np.array([[math.inf, -math.inf], [0.75, math.nan]])),
        ]
        code = np.array([[0, 1], [2, 0]])
        th, dp = (x.tolist() for x in scan._centers(2))

        def non_finite_evaluate(theta1, *args):
            s, c = values[th.index(float(theta1))]
            return s, c, code

        monkeypatch.setattr(scan, "_evaluate", non_finite_evaluate)
        records = [
            ScanRecord(t1, t2, d, s[j, k], c[j, k], scan._LABELS[code[j, k]])
            for t1, (s, c) in zip(th, values)
            for j, t2 in enumerate(th)
            for k, d in enumerate(dp)
        ]
        path = tmp_path / "scan.json"
        for count in (1, 2):
            processes(count)
            write_scan(ScanConfig(resolution=2, output_path=path, output_format="json"))
            text = path.read_text(encoding="utf-8")
            assert len(json.loads(text)) == 8
            assert text == render_json(records)
        assert len(forked) == _forks(2)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_resident_memory_flat_over_repeated_scans(self, tmp_path):
        # Filling one slab-sized template of floats per % fragments the heap:
        # VmRSS rises 2-4 MB on every res-64 JSON scan.  tracemalloc does not
        # see that, so read the resident set itself.
        path = tmp_path / "scan.json"
        rss = []
        for _ in range(4):
            write_scan(ScanConfig(resolution=64, output_path=path, output_format="json"))
            rss.append(_vm_rss_kib())
        assert max(rss[1:]) - rss[0] <= 2048, rss

    def test_memory_bounded_per_slab_cell(self, tmp_path):
        # A scan holds one theta1 slab of resolution^2 cells at a time, so its
        # memory grows as resolution^2, and the traced peak of one slab(i) is
        # flat per cell.  Measured at res 32, 64 and 128 (Python 3.11.7, numpy
        # 2.4.6) over slabs 0, res/3, res/2 and the last: 175-190 B a cell for
        # CSV and 226-241 B for JSON, the most at slab 0.
        for fmt, bytes_per_cell in (("csv", 256), ("json", 320)):
            for resolution in (32, 64, 128):
                slab = scan._slab_text(fmt, resolution)
                for i in (0, resolution // 2, resolution - 1):
                    peak = _traced_peak(slab, i)
                    assert peak <= bytes_per_cell * resolution**2, (fmt, resolution, i, peak)
        # The res-64 CSV is 21.7 MB; a streaming writer holds one slab of it.
        path = tmp_path / "scan.csv"
        peak = _traced_peak(write_scan, ScanConfig(resolution=64, output_path=path))
        assert path.stat().st_size == 21_736_585
        assert peak < path.stat().st_size / 4


def _traced_peak(function, *args):
    """The tracemalloc peak of ``function(*args)``, in bytes."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.cache
def _reference(resolution, fmt):
    """The in-memory render of the scan and its regime counts."""
    records = compute_scan(resolution)
    render = render_csv if fmt == "csv" else render_json
    return render(records).encode("utf-8"), regime_counts(records)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _ended(pid):
    """Whether process ``pid`` has exited: gone, or a zombie that its new
    parent has not reaped."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks(count):
    """Helpers a scan that sees ``count`` CPUs forks: one beyond the first
    CPU, none where a fork in this process would warn."""
    warns = scan._FORK_WARNS_IF_THREADED and scan._thread_count() > 1
    return int(count > 1 and not warns)


@pytest.fixture
def processes(monkeypatch):
    """Sets the number of CPUs the scan sees; it forks one helper if there
    are more than one.  A scan that hangs on its helper fails the test
    after 60 s."""

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    def time_out(signum, frame):
        raise TimeoutError("the scan did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(60)
    try:
        yield use
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forked(monkeypatch):
    """The pids of the processes ``os.fork`` starts during the test."""
    fork = os.fork
    pids = []

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def killed(monkeypatch):
    """The pids that ``os.kill`` signals during the test."""
    kill = os.kill
    pids = []

    def recording_kill(pid, signum):
        pids.append(pid)
        kill(pid, signum)

    monkeypatch.setattr(os, "kill", recording_kill)
    return pids


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and os.path.isdir("/proc/self/fd")),
    reason="needs os.fork, os.sched_getaffinity and /proc/self/fd",
)
class TestFormatterProcesses:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("resolution", [2, 3, 7, 33])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_and_counts_equal_in_memory_scan(
        self, tmp_path, processes, forked, count, resolution, fmt
    ):
        processes(count)
        path = tmp_path / f"scan.{fmt}"
        fds = _open_fds()
        summary = write_scan(ScanConfig(resolution=resolution, output_path=path, output_format=fmt))
        data, counts = _reference(resolution, fmt)
        assert path.read_bytes() == data
        assert summary.counts == counts
        assert summary.total == resolution**3
        assert len(forked) == _forks(count)
        _assert_no_child()
        assert _open_fds() == fds

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch, processes, fmt):
        processes(1)

        def no_fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / f"scan.{fmt}"
        write_scan(ScanConfig(resolution=7, output_path=path, output_format=fmt))
        assert path.read_bytes() == _reference(7, fmt)[0]

    def test_no_fork_means_one_process(self, tmp_path, monkeypatch, processes):
        processes(4)
        monkeypatch.delattr(os, "fork")
        path = tmp_path / "scan.csv"
        write_scan(ScanConfig(resolution=7, output_path=path))
        assert path.read_bytes() == _reference(7, "csv")[0]

    def test_no_fork_where_it_warns_in_threads(self, tmp_path, monkeypatch, processes):
        # From Python 3.12 os.fork warns in a process with more than one thread.
        processes(2)
        monkeypatch.setattr(scan, "_FORK_WARNS_IF_THREADED", True)
        monkeypatch.setattr(scan, "_thread_count", lambda: 2)

        def no_fork():
            raise AssertionError("forked in a process with two threads")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "scan.json"
        write_scan(ScanConfig(resolution=7, output_path=path, output_format="json"))
        assert path.read_bytes() == _reference(7, "json")[0]

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_failing_pipe_or_fork_scans_alone(self, tmp_path, monkeypatch, processes, failing):
        # os.pipe fails, or os.fork does.
        processes(2)

        def no_pipe():
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        if failing == "pipe":
            monkeypatch.setattr(os, "pipe", no_pipe)
        else:
            monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "scan.json"
        fds = _open_fds()
        write_scan(ScanConfig(resolution=7, output_path=path, output_format="json"))
        assert path.read_bytes() == _reference(7, "json")[0]
        _assert_no_child()
        assert _open_fds() == fds

    @pytest.mark.parametrize("helper", ["forks", "declined"])
    def test_error_after_fork_closes_the_pipes(self, tmp_path, monkeypatch, processes, helper):
        # A fork that raises once the child exists (as a warning turned into
        # an error would): the scan fails, and the child reads end of file
        # where it waits for its first turn and exits by itself.  Where the
        # scan declines to fork (from Python 3.12, in a process with more
        # than one thread) it writes every slab itself and leaves no child.
        processes(2)
        if helper == "declined":
            monkeypatch.setattr(scan, "_FORK_WARNS_IF_THREADED", True)
            monkeypatch.setattr(scan, "_thread_count", lambda: 2)
        fork = os.fork
        pids = []

        def fork_then_raise():
            pid = fork()
            if pid == 0:
                return pid
            pids.append(pid)
            raise RuntimeError("after fork")

        monkeypatch.setattr(os, "fork", fork_then_raise)
        path = tmp_path / "scan.csv"
        fds = _open_fds()
        if _forks(2):
            with pytest.raises(RuntimeError, match="after fork"):
                write_scan(ScanConfig(resolution=7, output_path=path))
            assert list(tmp_path.iterdir()) == []
            pid, status = os.waitpid(pids[0], 0)
            assert pid == pids[0] and os.WIFEXITED(status)
        else:
            write_scan(ScanConfig(resolution=7, output_path=path))
            assert path.read_bytes() == _reference(7, "csv")[0]
            assert [p.name for p in tmp_path.iterdir()] == [path.name]
            assert pids == []
        assert _open_fds() == fds
        _assert_no_child()

    def test_formatter_holds_only_its_pipes(self, tmp_path, monkeypatch, processes, forked):
        # The helper holds the output file and its ends of the two pipes;
        # every other descriptor, such as this unrelated pipe, is closed in
        # it.  It checks at each of its slabs, and a stray descriptor fails
        # the scan.
        processes(2)
        caller = os.getpid()
        evaluate = scan._evaluate

        def checking_evaluate(*args):
            if os.getpid() != caller:
                # The listing holds its own descriptor of /proc/self/fd.
                held = set(os.listdir("/proc/self/fd")) - {"0", "1", "2"}
                if len(held) != 4:
                    raise AssertionError(f"the helper holds {sorted(held)}")
            return evaluate(*args)

        monkeypatch.setattr(scan, "_evaluate", checking_evaluate)
        unrelated = os.pipe()
        try:
            write_scan(ScanConfig(resolution=5, output_path=tmp_path / "scan.csv"))
        finally:
            os.close(unrelated[0])
            os.close(unrelated[1])
        assert (tmp_path / "scan.csv").read_bytes() == _reference(5, "csv")[0]
        assert len(forked) == _forks(2)

    def test_scans_in_two_threads(self, tmp_path, monkeypatch, processes):
        # Both scans make their pipes before either forks, so each helper
        # inherits the other scan's pipes and output file; neither may hold
        # them open.
        processes(2)
        import threading

        barrier = threading.Barrier(2, timeout=20)
        fork = os.fork

        def fork_together():
            barrier.wait()
            return fork()

        monkeypatch.setattr(os, "fork", fork_together)
        errors = []

        def run(fmt):
            try:
                write_scan(ScanConfig(resolution=33, output_path=tmp_path / f"scan.{fmt}", output_format=fmt))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(fmt,), daemon=True) for fmt in ("csv", "json")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert not any(thread.is_alive() for thread in threads), "the scans hang"
        assert errors == []
        for fmt in ("csv", "json"):
            assert (tmp_path / f"scan.{fmt}").read_bytes() == _reference(33, fmt)[0]
        _assert_no_child()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_formatter_killed_mid_scan(self, tmp_path, monkeypatch, processes, fmt):
        # The helper is killed as it starts its second slab.
        processes(2)
        caller = os.getpid()
        slab_text = scan._slab_text

        def dying_slab_text(*args):
            slab = slab_text(*args)
            slabs = []

            def dying_slab(i):
                slabs.append(i)
                if os.getpid() != caller and len(slabs) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
                return slab(i)

            return dying_slab

        monkeypatch.setattr(scan, "_slab_text", dying_slab_text)
        path = tmp_path / f"scan.{fmt}"
        path.write_bytes(b"previous contents\n")
        fds = _open_fds()
        if _forks(2):
            with pytest.raises(OSError, match=re.escape(str(path))):
                write_scan(ScanConfig(resolution=9, output_path=path, output_format=fmt))
            assert path.read_bytes() == b"previous contents\n"
        else:
            write_scan(ScanConfig(resolution=9, output_path=path, output_format=fmt))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        _assert_no_child()
        assert _open_fds() == fds

    @pytest.mark.parametrize("half", ["caller", "helper"])
    def test_error_in_either_half_fails_the_scan(self, tmp_path, monkeypatch, processes, half):
        # Slab 2 of 9 is the caller's and slab 5 the helper's.  The caller's
        # error is raised as it is; the helper's fails the scan with an
        # error naming the target.
        processes(2)
        evaluate = scan._evaluate
        th = scan._centers(9)[0].tolist()
        failing = 2 if half == "caller" else 5

        def fail_on_one_slab(theta1, *args):
            if th.index(float(theta1)) == failing:
                raise RuntimeError("slab failed")
            return evaluate(theta1, *args)

        monkeypatch.setattr(scan, "_evaluate", fail_on_one_slab)
        path = tmp_path / "scan.csv"
        path.write_bytes(b"previous contents\n")
        fds = _open_fds()
        if half == "helper" and _forks(2):
            error = pytest.raises(OSError, match=re.escape(str(path)))
        else:
            error = pytest.raises(RuntimeError, match="slab failed")
        with error:
            write_scan(ScanConfig(resolution=9, output_path=path))
        assert path.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        _assert_no_child()
        assert _open_fds() == fds

    def test_helper_that_sent_its_counts_is_not_killed(self, tmp_path, processes, forked, killed):
        # Where SIGCHLD is ignored such a helper may be reaped already, and
        # its pid taken by another process.
        processes(2)
        path = tmp_path / "scan.json"
        write_scan(ScanConfig(resolution=7, output_path=path, output_format="json"))
        assert path.read_bytes() == _reference(7, "json")[0]
        assert len(forked) == _forks(2)
        assert killed == []
        _assert_no_child()

    @pytest.mark.parametrize("writer", ["caller", "helper"])
    def test_write_error_fails_the_scan(self, tmp_path, monkeypatch, processes, forked, killed, writer):
        # The disk fills at the first slab that one process writes.  A caller
        # that fails kills its helper; a helper that fails has ended when the
        # caller reads end of file, so it is reaped, not killed.
        processes(2)
        caller = os.getpid()
        write_all = scan._write_all

        def full_disk(fd, chunks):
            # forked is empty in the helper, and in the caller until it forks.
            failing = os.getpid() != caller if writer == "helper" else bool(forked)
            if failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_all(fd, chunks)

        monkeypatch.setattr(scan, "_write_all", full_disk)
        path = tmp_path / "scan.csv"
        path.write_bytes(b"previous contents\n")
        fds = _open_fds()
        if _forks(2):
            with pytest.raises(OSError) as error:
                write_scan(ScanConfig(resolution=9, output_path=path))
            if writer == "caller":
                assert error.value.errno == errno.ENOSPC
                assert killed == forked
            else:
                assert error.value.errno == errno.EPIPE and error.value.filename == str(path)
                assert killed == []
            assert path.read_bytes() == b"previous contents\n"
        else:
            write_scan(ScanConfig(resolution=9, output_path=path))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert len(forked) == _forks(2)
        _assert_no_child()
        assert _open_fds() == fds

    @pytest.mark.parametrize("iov_max", [0, 2])
    def test_short_writes_are_completed(self, tmp_path, monkeypatch, processes, iov_max):
        # Every write stops after 1000 bytes, and os.writev takes at most
        # iov_max buffers (0: the system has no os.writev).
        writev, write = os.writev, os.write

        def short_writev(fd, buffers):
            assert 0 < len(buffers) <= iov_max
            return writev(fd, [b"".join(buffers)[:1000]])

        monkeypatch.setattr(scan, "_IOV_MAX", iov_max)
        monkeypatch.setattr(os, "writev", short_writev)
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:1000]))
        path = tmp_path / "scan.json"
        for count in (1, 2):
            processes(count)
            write_scan(ScanConfig(resolution=7, output_path=path, output_format="json"))
            assert path.read_bytes() == _reference(7, "json")[0]

    @pytest.mark.parametrize("slow", ["caller", "helper"])
    @pytest.mark.parametrize("resolution", [2, 3, 7])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_either_process_waits_for_its_turn(self, tmp_path, monkeypatch, processes, forked, slow, resolution, fmt):
        # One process takes about 20 ms a slab, so the other has its next
        # slab ready first and must wait for the token to write it.
        processes(2)
        caller = os.getpid()
        evaluate = scan._evaluate

        def slow_evaluate(*args):
            if (os.getpid() == caller) == (slow == "caller"):
                time.sleep(0.02)
            return evaluate(*args)

        monkeypatch.setattr(scan, "_evaluate", slow_evaluate)
        path = tmp_path / f"scan.{fmt}"
        summary = write_scan(ScanConfig(resolution=resolution, output_path=path, output_format=fmt))
        data, counts = _reference(resolution, fmt)
        assert path.read_bytes() == data
        assert summary.counts == counts
        assert len(forked) == _forks(2)
        _assert_no_child()

    def test_caller_error_kills_the_helper(self, tmp_path, monkeypatch, processes, forked, killed):
        # The caller fails at its first slab, before it reads the helper's
        # counts, so the helper is killed, not waited for.
        processes(2)
        caller = os.getpid()
        evaluate = scan._evaluate

        def failing_evaluate(*args):
            if os.getpid() == caller:
                raise RuntimeError("slab failed")
            return evaluate(*args)

        monkeypatch.setattr(scan, "_evaluate", failing_evaluate)
        with pytest.raises(RuntimeError, match="slab failed"):
            write_scan(ScanConfig(resolution=9, output_path=tmp_path / "scan.csv"))
        assert killed == forked
        assert list(tmp_path.iterdir()) == []
        _assert_no_child()

    def test_helper_of_killed_caller_exits(self, tmp_path):
        # A caller killed mid-scan leaves its helper to another parent; the
        # helper stops at its next slab, not after its 16 s half.
        script = textwrap.dedent("""
        import os, sys, time
        from kcbs_msr import scan
        os.sched_getaffinity = lambda pid: {0, 1}
        if not scan._forks_helper():
            sys.exit(0)
        evaluate, fork = scan._evaluate, os.fork

        def slow_evaluate(*args):
            time.sleep(0.5)
            return evaluate(*args)

        def reporting_fork():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid

        scan._evaluate, os.fork = slow_evaluate, reporting_fork
        scan.write_scan(scan.ScanConfig(resolution=64, output_path=sys.argv[1]))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(scan.__file__).parents[1]))
        argv = [sys.executable, "-c", script, str(tmp_path / "scan.csv")]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True) as caller:
            line = caller.stdout.readline()
            if not line:
                pytest.skip("the scan forks no helper in a new interpreter here")
            helper = int(line)
            caller.kill()
        deadline = time.monotonic() + 5.0
        while not _ended(helper):
            assert time.monotonic() < deadline, "the helper outlived its caller by 5 s"
            time.sleep(0.05)

"""Tests for the command-line interface: output, validation, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kcbs_msr
from kcbs_msr.cli import main

# The child interpreter imports the same package as these tests.
PACKAGE_ROOT = str(Path(kcbs_msr.__file__).resolve().parent.parent)


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_maximal_violation(self, capsys):
        code, out, _ = run_cli(
            "eval", "--theta1", "3.14159265", "--theta2", "0",
            "--phi1", "0", "--phi2", "0", capsys=capsys,
        )
        assert code == 0
        assert "S = -3.94427191" in out
        assert "C = 1" in out
        assert "regime = ContextualNonlocal" in out
        assert "amp(0) = 1+0i" in out

    def test_product_state(self, capsys):
        code, out, _ = run_cli(
            "eval", "--theta1", "0", "--theta2", "0", capsys=capsys
        )
        assert code == 0
        assert "S = -0.527864045" in out
        assert "C = 0" in out
        assert "regime = Local" in out

    def test_theta_validation(self, capsys):
        code, _, err = run_cli(
            "eval", "--theta1", "4.0", "--theta2", "0", capsys=capsys
        )
        assert code == 1
        assert "theta1 out of [0, pi]" in err

    def test_malformed_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--theta1", "abc", "--theta2", "0"])
        assert excinfo.value.code == 1


class TestClassify:
    def test_reports_regime_without_amplitudes(self, capsys):
        code, out, _ = run_cli(
            "classify", "--theta1", "1.5707963", "--theta2", "1.5707963",
            capsys=capsys,
        )
        assert code == 0
        assert "regime = Local" in out
        assert "amp" not in out


class TestExtremal:
    def test_both_methods_pass(self, capsys):
        code, out, _ = run_cli(
            "extremal", "--concurrence", "0", "--objective", "min",
            "--method", "both", capsys=capsys,
        )
        assert code == 0
        assert "S_closed = -2.2360679775" in out
        assert "result: PASS" in out

    def test_closed_only(self, capsys):
        code, out, _ = run_cli(
            "extremal", "--concurrence", "1", "--objective", "min",
            "--method", "closed", capsys=capsys,
        )
        assert code == 0
        assert "S_closed = -3.94427191" in out
        assert "S_numeric" not in out

    def test_maximum_constancy(self, capsys):
        code, out, _ = run_cli(
            "extremal", "--concurrence", "0.25", "--objective", "max",
            "--method", "both", capsys=capsys,
        )
        assert code == 0
        assert "S_closed = -0.527864045" in out
        assert "result: PASS" in out

    def test_invalid_concurrence(self, capsys):
        code, _, err = run_cli(
            "extremal", "--concurrence", "1.5", capsys=capsys
        )
        assert code == 1
        assert "concurrence" in err


class TestScan:
    def test_writes_csv_with_summary(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            "scan", "--resolution", "8", "--output", str(out_path), capsys=capsys
        )
        assert code == 0
        assert "records = 512" in out
        assert out_path.read_text().startswith("theta1,theta2,delta_phi,s,c,regime")

    def test_json_format(self, tmp_path, capsys):
        out_path = tmp_path / "scan.json"
        code, _, _ = run_cli(
            "scan", "--resolution", "4", "--format", "json",
            "--output", str(out_path), capsys=capsys,
        )
        assert code == 0
        assert len(json.loads(out_path.read_text())) == 64

    def test_deterministic_across_invocations(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                "scan", "--resolution", "8", "--output", str(p), capsys=capsys
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_resolution_validation(self, tmp_path, capsys):
        code, _, err = run_cli(
            "scan", "--resolution", "1", "--output", str(tmp_path / "x.csv"),
            capsys=capsys,
        )
        assert code == 1
        assert "resolution" in err

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            "scan", "--resolution", "4",
            "--output", str(tmp_path / "missing" / "x.csv"), capsys=capsys,
        )
        assert code == 3
        assert "i/o error" in err

    def test_directory_as_output_leaves_no_temp_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            "scan", "--resolution", "4", "--output", str(tmp_path), capsys=capsys
        )
        assert code == 3
        assert "i/o error" in err
        assert list(tmp_path.iterdir()) == []

    def test_seed_is_a_usage_error(self, tmp_path):
        # The grid is deterministic; --seed belongs to verify only.
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--resolution", "4", "--seed", "1",
                  "--output", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 1


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli("verify", "--samples", "200", capsys=capsys)
        assert code == 0
        assert "classical-bound-is-minus-3" in out
        assert "diag-vs-pentagram" in out
        assert "FAIL" not in out

    def test_zero_samples_rejected(self, capsys):
        code, _, err = run_cli("verify", "--samples", "0", capsys=capsys)
        assert code == 1
        assert "samples" in err


def run_module(*argv):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kcbs_msr", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestEntryPoints:
    def test_module_invocation(self):
        result = run_module("eval", "--theta1", "0", "--theta2", "0")
        assert result.returncode == 0
        assert "regime = Local" in result.stdout

    def test_unknown_command_exits_with_usage_code(self):
        result = run_module("frobnicate")
        assert result.returncode == 1

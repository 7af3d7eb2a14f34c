"""Tests for the command-line interface: output, validation, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kcbs_msr
from kcbs_msr import checks
from kcbs_msr.cli import main

# The child interpreter imports the same package as these tests.
PACKAGE_ROOT = str(Path(kcbs_msr.__file__).resolve().parent.parent)


# Golden stdout.  Any change to a printed byte of these runs fails here.
VERIFY_200 = """\
qutrit-normalization           max_error=4.441e-16  tolerance=1.0e-12  PASS
star-swap-symmetry             max_error=2.371e-16  tolerance=1.0e-12  PASS
global-phase-invariance        max_error=5.551e-16  tolerance=1.0e-12  PASS
f-range-and-overlap-roundtrip  max_error=1.665e-16  tolerance=1.0e-12  PASS
s-four-way-equivalence         max_error=1.776e-15  tolerance=1.0e-12  PASS
concurrence-equivalence        max_error=4.441e-16  tolerance=1.0e-12  PASS
s-and-c-range                  max_error=0.000e+00  tolerance=1.0e-12  PASS
concurrence-roundtrip          max_error=1.110e-16  tolerance=1.0e-12  PASS
diag-vs-pentagram              max_error=8.944e-16  tolerance=1.0e-10  PASS
frame-rotation-invariance      max_error=7.022e-16  tolerance=1.0e-10  PASS
classical-bound-is-minus-3     max_error=0.000e+00  tolerance=0.0e+00  PASS
classical-bound-vs-oracle      max_error=0.000e+00  tolerance=0.0e+00  PASS
spectral-containment           max_error=0.000e+00  tolerance=1.0e-12  PASS
smin-numeric-oracle            max_error=2.154e-08  tolerance=1.0e-06  PASS
smax-constancy                 max_error=1.884e-08  tolerance=1.0e-06  PASS
extremal-tightness             max_error=8.882e-16  tolerance=1.0e-10  PASS
threshold-solves-minus-3       max_error=0.000e+00  tolerance=1.0e-12  PASS
threshold-vs-bisection         max_error=2.776e-16  tolerance=1.0e-10  PASS
chsh-endpoints                 max_error=0.000e+00  tolerance=1.0e-12  PASS
chsh-smin-composition          max_error=1.776e-15  tolerance=1.0e-12  PASS
chsh-offset-proportionality    max_error=1.497e-12  tolerance=1.0e-10  PASS
smin-dominance                 max_error=0.000e+00  tolerance=1.0e-10  PASS
contextual-implies-entangled   max_error=0.000e+00  tolerance=0.0e+00  PASS
all 23 checks passed
"""

VERIFY_200_SEED_7 = """\
qutrit-normalization           max_error=5.551e-16  tolerance=1.0e-12  PASS
star-swap-symmetry             max_error=2.371e-16  tolerance=1.0e-12  PASS
global-phase-invariance        max_error=5.551e-16  tolerance=1.0e-12  PASS
f-range-and-overlap-roundtrip  max_error=2.220e-16  tolerance=1.0e-12  PASS
s-four-way-equivalence         max_error=1.776e-15  tolerance=1.0e-12  PASS
concurrence-equivalence        max_error=5.551e-16  tolerance=1.0e-12  PASS
s-and-c-range                  max_error=0.000e+00  tolerance=1.0e-12  PASS
concurrence-roundtrip          max_error=1.110e-16  tolerance=1.0e-12  PASS
diag-vs-pentagram              max_error=8.944e-16  tolerance=1.0e-10  PASS
frame-rotation-invariance      max_error=7.022e-16  tolerance=1.0e-10  PASS
classical-bound-is-minus-3     max_error=0.000e+00  tolerance=0.0e+00  PASS
classical-bound-vs-oracle      max_error=0.000e+00  tolerance=0.0e+00  PASS
spectral-containment           max_error=0.000e+00  tolerance=1.0e-12  PASS
smin-numeric-oracle            max_error=2.154e-08  tolerance=1.0e-06  PASS
smax-constancy                 max_error=1.884e-08  tolerance=1.0e-06  PASS
extremal-tightness             max_error=8.882e-16  tolerance=1.0e-10  PASS
threshold-solves-minus-3       max_error=0.000e+00  tolerance=1.0e-12  PASS
threshold-vs-bisection         max_error=2.776e-16  tolerance=1.0e-10  PASS
chsh-endpoints                 max_error=0.000e+00  tolerance=1.0e-12  PASS
chsh-smin-composition          max_error=1.776e-15  tolerance=1.0e-12  PASS
chsh-offset-proportionality    max_error=1.497e-12  tolerance=1.0e-10  PASS
smin-dominance                 max_error=0.000e+00  tolerance=1.0e-10  PASS
contextual-implies-entangled   max_error=0.000e+00  tolerance=0.0e+00  PASS
all 23 checks passed
"""

GENERIC_STATE = ("--theta1", "1.1", "--theta2", "2.3", "--phi1", "0.4", "--phi2", "2.9")

CLASSIFY_GENERIC = """\
theta1 = 1.1
theta2 = 2.3
delta_phi = -2.5
S = -1.74241797751
C = 0.847270125552
regime = Local
"""

EVAL_GENERIC = CLASSIFY_GENERIC + """\
amp(+1) = 0.473315570802+0i
amp(0) = -0.537133975402+0.258830486398i
amp(-1) = -0.640315144827-0.102287621548i
"""

EXTREMAL_MIN_03 = """\
concurrence = 0.3
objective = minimize
S_closed = -2.74852915725
witness: theta1 = 0.823897733726, theta2 = 2.31769491986, delta_phi = 0
witness: theta1 = 2.31769491986, theta2 = 0.823897733726, delta_phi = 0
S_numeric = -2.74852913588
numeric witness: theta1 = 0.823897755083, theta2 = 2.31769492191, delta_phi = 0.000267395177763
discrepancy = 2.137e-08
result: PASS (tolerance 1e-06)
"""

# The second maximum witness is the negative theta2 root, printed as is.
EXTREMAL_MAX_03 = """\
concurrence = 0.3
objective = maximize
S_closed = -0.527864045
witness: theta1 = 0.746898593069, theta2 = 0.746898593069, delta_phi = 3.14159265359
witness: theta1 = 0.746898593069, theta2 = -0.746898593069, delta_phi = 0
S_numeric = -0.527864049539
numeric witness: theta1 = 0.746898595119, theta2 = 0.746898595119, delta_phi = 3.14145956875
discrepancy = 4.538e-09
result: PASS (tolerance 1e-06)
"""

SCAN_4_SUMMARY = """\
records = 64
count[ContextualNonlocal] = 8
count[NonlocalNoncontextual] = 12
count[Local] = 44
"""


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


    @pytest.mark.parametrize(
        "route, delta, check",
        [
            ("s_rational_form", 1e-9, "s-four-way-equivalence"),
            ("concurrence_symmetric", 1e-9, "concurrence-equivalence"),
            ("overlap_angle", 1e-6, "f-range-and-overlap-roundtrip"),
            ("expectation_value", 1.0, "spectral-containment"),
            ("s_closed_form", -1.0, "smin-dominance"),
        ],
    )
    def test_broken_route_fails_its_check(self, route, delta, check, monkeypatch,
                                          capsys):
        original = getattr(checks, route)
        monkeypatch.setattr(checks, route, lambda *a: original(*a) + delta)
        code, out, _ = run_cli("verify", "--samples", "20", capsys=capsys)
        assert code == 2
        rows = {line.split()[0]: line for line in out.splitlines()}
        assert rows[check].endswith("  FAIL")
        failed_line = out.splitlines()[-1]
        assert failed_line.startswith("FAILED: ")
        assert check in failed_line[len("FAILED: "):].split(", ")


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("verify", "--samples", "200"), VERIFY_200),
            (("verify", "--samples", "200", "--seed", "7"), VERIFY_200_SEED_7),
            (("eval", *GENERIC_STATE), EVAL_GENERIC),
            (("classify", *GENERIC_STATE), CLASSIFY_GENERIC),
            (
                ("extremal", "--concurrence", "0.3", "--method", "both",
                 "--objective", "min"),
                EXTREMAL_MIN_03,
            ),
            (
                ("extremal", "--concurrence", "0.3", "--method", "both",
                 "--objective", "max"),
                EXTREMAL_MAX_03,
            ),
        ],
        ids=["verify", "verify-seed-7", "eval", "classify", "extremal-min",
             "extremal-max"],
    )
    def test_stdout(self, argv, expected, capsys):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert out == expected
        assert err == ""

    def test_scan_summary(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            "scan", "--resolution", "4", "--output", str(out_path), capsys=capsys
        )
        assert code == 0
        assert out == SCAN_4_SUMMARY + f"wrote {out_path}\n"


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

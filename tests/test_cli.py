"""Tests for the command-line interface: output, validation, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kcbs_msr
from kcbs_msr import checks, cli, scan, states
from kcbs_msr.cli import main

# The child interpreter imports the same package as these tests.
PACKAGE_ROOT = str(Path(kcbs_msr.__file__).resolve().parent.parent)


# Golden stdout.  Any change to a printed byte of these runs fails here.
# They hold on every CPU: CI re-runs them with numpy's dispatched SIMD
# kernels disabled.
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
global-phase-invariance        max_error=4.441e-16  tolerance=1.0e-12  PASS
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

VERIFY_1 = """\
qutrit-normalization           max_error=0.000e+00  tolerance=1.0e-12  PASS
star-swap-symmetry             max_error=0.000e+00  tolerance=1.0e-12  PASS
global-phase-invariance        max_error=2.220e-16  tolerance=1.0e-12  PASS
f-range-and-overlap-roundtrip  max_error=0.000e+00  tolerance=1.0e-12  PASS
s-four-way-equivalence         max_error=2.220e-16  tolerance=1.0e-12  PASS
concurrence-equivalence        max_error=2.082e-16  tolerance=1.0e-12  PASS
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

VERIFY_4097 = """\
qutrit-normalization           max_error=6.661e-16  tolerance=1.0e-12  PASS
star-swap-symmetry             max_error=3.331e-16  tolerance=1.0e-12  PASS
global-phase-invariance        max_error=8.882e-16  tolerance=1.0e-12  PASS
f-range-and-overlap-roundtrip  max_error=2.220e-16  tolerance=1.0e-12  PASS
s-four-way-equivalence         max_error=2.665e-15  tolerance=1.0e-12  PASS
concurrence-equivalence        max_error=6.661e-16  tolerance=1.0e-12  PASS
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

# The benchmark's op: two full chunks of pairs and a last chunk of 1,808.
VERIFY_10000 = """\
qutrit-normalization           max_error=6.661e-16  tolerance=1.0e-12  PASS
star-swap-symmetry             max_error=3.342e-16  tolerance=1.0e-12  PASS
global-phase-invariance        max_error=8.882e-16  tolerance=1.0e-12  PASS
f-range-and-overlap-roundtrip  max_error=2.220e-16  tolerance=1.0e-12  PASS
s-four-way-equivalence         max_error=2.665e-15  tolerance=1.0e-12  PASS
concurrence-equivalence        max_error=6.661e-16  tolerance=1.0e-12  PASS
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

# A star at each pole: the zero amplitude prints as 0+0i, with no minus sign.
POLE_STATE = ("--theta1", "0", "--theta2", "3.141592653589793", "--phi1", "1",
              "--phi2", "2")

EVAL_POLES = """\
theta1 = 0
theta2 = 3.14159265359
delta_phi = -1
S = -3.94427191
C = 1
regime = ContextualNonlocal
amp(+1) = 8.65956056235e-17+0i
amp(0) = -0.416146836547+0.909297426826i
amp(-1) = 0+0i
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

# One maximum witness: the negative theta2 root names no further state.
EXTREMAL_MAX_03 = """\
concurrence = 0.3
objective = maximize
S_closed = -0.527864045
witness: theta1 = 0.746898593069, theta2 = 0.746898593069, delta_phi = 3.14159265359
S_numeric = -0.527864049539
numeric witness: theta1 = 0.746898595119, theta2 = 0.746898595119, delta_phi = 3.14145956875
discrepancy = 4.538e-09
result: PASS (tolerance 1e-06)
"""

# The concurrences at the ends and the threshold 1/sqrt(5): witnesses at the
# poles, and at c = 0 (minimize) the search's P near 0, where P + 1.0 is flat.
EXTREMAL_MIN_0 = """\
concurrence = 0
objective = minimize
S_closed = -2.2360679775
witness: theta1 = 1.57079632679, theta2 = 1.57079632679, delta_phi = 0
S_numeric = -2.2360679775
numeric witness: theta1 = 1.57079561289, theta2 = 1.57079701729, delta_phi = 0
discrepancy = 8.420e-13
result: PASS (tolerance 1e-06)
"""

EXTREMAL_MAX_0 = """\
concurrence = 0
objective = maximize
S_closed = -0.527864045
witness: theta1 = 0, theta2 = 0, delta_phi = 0
witness: theta1 = 0, theta2 = 0, delta_phi = 3.14159265359
S_numeric = -0.527864045
numeric witness: theta1 = 5.94455600464e-09, theta2 = 5.94455600464e-09, delta_phi = 1.57079632679
discrepancy = 0.000e+00
result: PASS (tolerance 1e-06)
"""

EXTREMAL_MIN_THRESHOLD = """\
concurrence = 0.4472135955
objective = minimize
S_closed = -3
witness: theta1 = 0.666239432493, theta2 = 2.4753532211, delta_phi = 0
witness: theta1 = 2.4753532211, theta2 = 0.666239432493, delta_phi = 0
S_numeric = -2.99999999041
numeric witness: theta1 = 0.666239436484, theta2 = 2.47535321711, delta_phi = 0.000201536361702
discrepancy = 9.588e-09
result: PASS (tolerance 1e-06)
"""

EXTREMAL_MAX_THRESHOLD = """\
concurrence = 0.4472135955
objective = maximize
S_closed = -0.527864045
witness: theta1 = 0.904556894302, theta2 = 0.904556894302, delta_phi = 3.14159265359
S_numeric = -0.527864063527
numeric witness: theta1 = 0.904556902014, theta2 = 0.904556902014, delta_phi = 3.14137242149
discrepancy = 1.853e-08
result: PASS (tolerance 1e-06)
"""

EXTREMAL_MIN_1 = """\
concurrence = 1
objective = minimize
S_closed = -3.94427191
witness: theta1 = 0, theta2 = 3.14159265359, delta_phi = 0
witness: theta1 = 0, theta2 = 3.14159265359, delta_phi = 3.14159265359
witness: theta1 = 3.14159265359, theta2 = 0, delta_phi = 0
witness: theta1 = 3.14159265359, theta2 = 0, delta_phi = 3.14159265359
S_numeric = -3.94427191
numeric witness: theta1 = 5.94455600464e-09, theta2 = 3.14159264765, delta_phi = 1.57079632679
discrepancy = 0.000e+00
result: PASS (tolerance 1e-06)
"""

EXTREMAL_MAX_1 = """\
concurrence = 1
objective = maximize
S_closed = -0.527864045
witness: theta1 = 1.57079632679, theta2 = 1.57079632679, delta_phi = 3.14159265359
S_numeric = -0.527864044999
numeric witness: theta1 = 1.57079562459, theta2 = 1.57079562459, delta_phi = 3.14159265359
discrepancy = 1.685e-12
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
        # The message names the target, not the hidden temporary file.
        target = str(tmp_path / "missing" / "x.csv")
        assert err == f"i/o error: [Errno 2] No such file or directory: {target!r}\n"
        assert ".tmp" not in err

    def test_directory_as_output_leaves_no_temp_file(self, tmp_path, capsys,
                                                      monkeypatch):
        def must_not_run(*args):
            raise AssertionError("scan computed a slab for a directory target")

        monkeypatch.setattr(scan, "_evaluate", must_not_run)
        code, _, err = run_cli(
            "scan", "--resolution", "4", "--output", str(tmp_path), capsys=capsys
        )
        assert code == 3
        assert "i/o error" in err
        assert list(tmp_path.iterdir()) == []
        # It fails before the first slab and names the target.
        assert err == f"i/o error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        assert ".tmp" not in err

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

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli("verify", "--seed", "-1", capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == "error: seed must be non-negative: got -1\n"

    @pytest.mark.parametrize("argument", ["samples", "seed"])
    @pytest.mark.parametrize("value", [1.5, "10", None])
    def test_non_integer_argument_raises_before_any_group(self, argument, value,
                                                          capsys):
        # The sampler draws lazily, inside the sampled group; a bad argument
        # must raise at the call, not print a FAIL row for each check.
        with pytest.raises(TypeError) as raised:
            checks.run_all_checks(**{argument: value})
        assert str(raised.value) == f"{argument} must be an integer: got {value!r}"
        assert capsys.readouterr() == ("", "")

    def test_numpy_integer_arguments(self, capsys):
        # numpy's advance overflows on a numpy integer count.
        assert checks.run_all_checks(np.int64(20), np.int64(3)) == checks.run_all_checks(20, 3)
        assert capsys.readouterr() == ("", "")


    @pytest.mark.parametrize(
        "route, delta, check",
        [
            ("s_of_parts", 1e-9, "s-four-way-equivalence"),
            ("_concurrence_rows", 1e-9, "concurrence-equivalence"),
            ("_overlap_angles", 1e-6, "f-range-and-overlap-roundtrip"),
            ("_expectation_rows", 1.0, "spectral-containment"),
            ("s_of_overlap", -1.0, "smin-dominance"),
            # NaN from a route fails its fixed check too.
            ("s_function", math.nan, "extremal-tightness"),
            ("concurrence_of_overlap", math.nan, "concurrence-roundtrip"),
            # A route that raises fails its group's checks.
            ("chsh_max", 1e-3, "chsh-endpoints"),
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
        if route == "_expectation_rows":
            # The matrix expectation's range is spectral-containment's alone.
            assert rows["s-and-c-range"].endswith("  PASS")
        failed_line = out.splitlines()[-1]
        assert failed_line.startswith("FAILED: ")
        assert check in failed_line[len("FAILED: "):].split(", ")

    @pytest.mark.parametrize("factor", [1.1, float("nan")])
    def test_broken_amplitude_rows_fail_the_norm_gate(self, factor, monkeypatch,
                                                      capsys):
        original = states._unit_rows

        def broken(rows):
            rows = rows.copy()
            rows[0] *= factor
            return original(rows)

        chunks = states._sample_chunks(20, states.DEFAULT_SEED, checks._CHUNK)
        sampled = set(checks._check_samples(chunks))
        monkeypatch.setattr(states, "_unit_rows", broken)
        code, out, err = run_cli("verify", "--samples", "20", capsys=capsys)
        # The sampled group raises, so its 10 checks fail and the fixed 13 pass.
        assert code == 2
        rows = dict(line.split()[::3] for line in out.splitlines()[:-1])
        assert list(rows) == list(checks._TOLERANCES)
        assert len(sampled) == 10
        assert {name for name, status in rows.items() if status == "FAIL"} == sampled
        assert err.startswith("error: _check_samples raised InvalidStateError: "
                              "qutrit amplitudes are not normalized: |psi|^2 = ")
        assert err.count("\n") == 1

    def test_each_check_comes_from_exactly_one_group(self):
        # run_all_checks merges the groups' mappings: a name returned by two
        # groups would overwrite the first, and one not in the table would
        # never print.
        chunks = states._sample_chunks(20, states.DEFAULT_SEED, checks._CHUNK)
        returned = [
            group(chunks) if group is checks._check_samples else group()
            for group in checks._GROUPS
        ]
        assert all(isinstance(errors, dict) for errors in returned)
        assert set(checks._GROUPS) == {
            group for name, group in vars(checks).items() if name.startswith("_check_")
        }
        names = [name for group in returned for name in group]
        assert len(names) == len(set(names))
        assert set(names) == set(checks._TOLERANCES)
        assert len(checks._TOLERANCES) == 23


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("verify", "--samples", "200"), VERIFY_200),
            (("verify", "--samples", "200", "--seed", "7"), VERIFY_200_SEED_7),
            # One pair; one full chunk of pairs and a chunk of one.
            (("verify", "--samples", "1"), VERIFY_1),
            (("verify", "--samples", "4097"), VERIFY_4097),
            (("verify", "--samples", "10000"), VERIFY_10000),
            (("eval", *GENERIC_STATE), EVAL_GENERIC),
            (("classify", *GENERIC_STATE), CLASSIFY_GENERIC),
            (("eval", *POLE_STATE), EVAL_POLES),
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
        ids=["verify", "verify-seed-7", "verify-1", "verify-4097", "verify-10000",
             "eval", "classify", "eval-poles", "extremal-min", "extremal-max"],
    )
    def test_stdout(self, argv, expected, capsys):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert out == expected
        assert err == ""

    @pytest.mark.parametrize(
        "c, objective, expected",
        [
            ("0", "min", EXTREMAL_MIN_0),
            ("0", "max", EXTREMAL_MAX_0),
            (repr(1.0 / math.sqrt(5.0)), "min", EXTREMAL_MIN_THRESHOLD),
            (repr(1.0 / math.sqrt(5.0)), "max", EXTREMAL_MAX_THRESHOLD),
            ("1", "min", EXTREMAL_MIN_1),
            ("1", "max", EXTREMAL_MAX_1),
        ],
        ids=["0-min", "0-max", "threshold-min", "threshold-max", "1-min", "1-max"],
    )
    def test_extremal_edge_concurrence(self, c, objective, expected, capsys):
        code, out, err = run_cli(
            "extremal", "--concurrence", c, "--objective", objective,
            "--method", "both", capsys=capsys,
        )
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


def run_module(*argv, flags=()):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "kcbs_msr", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestEntryPoints:
    def test_module_invocation(self):
        result = run_module("eval", "--theta1", "0", "--theta2", "0")
        assert result.returncode == 0
        assert "regime = Local" in result.stdout

    def test_verify_passes_with_asserts_stripped(self):
        # python -O strips assert statements, so none may be what a check relies on.
        result = run_module("verify", "--samples", "200", flags=("-O",))
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "all 23 checks passed"
        assert result.stdout == VERIFY_200

    def test_unknown_command_exits_with_usage_code(self):
        result = run_module("frobnicate")
        assert result.returncode == 1


# A fresh interpreter that runs main once, with one route of checks broken
# by the offset BROKEN gives it, or none.
BROKEN = {"s_of_parts": 1e-9, "chsh_max": 1e-3}
FRESH_MAIN = """\
import sys
from kcbs_msr import checks
from kcbs_msr.cli import main
route, delta = sys.argv[1], float(sys.argv[2])
if route != "intact":
    original = getattr(checks, route)
    setattr(checks, route, lambda *a: original(*a) + delta)
sys.exit(main(sys.argv[3:]))
"""


class TestParserReuse:
    """main builds its parser once per process; no call leaks into the next."""

    CALLS = [
        ("intact", ("extremal", "--objective", "min")),  # usage error
        ("s_of_parts", ("verify", "--samples", "200")),
        ("chsh_max", ("verify", "--samples", "200")),  # a group raises
        ("intact", ("classify", *GENERIC_STATE)),
        ("intact", ("extremal", "--concurrence", "0.3", "--method", "both",
                    "--objective", "min")),
    ]

    def test_one_process_matches_fresh_processes(self, monkeypatch, capsys):
        # Usage text wraps at the terminal width: fix it on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
        fresh = []
        for route, argv in self.CALLS:
            done = subprocess.run(
                [sys.executable, "-c", FRESH_MAIN, route, str(BROKEN.get(route, 0.0)),
                 *argv],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            fresh.append((done.returncode, done.stdout, done.stderr))

        shared = []
        for route, argv in self.CALLS:
            with monkeypatch.context() as patch:
                if route != "intact":
                    original, delta = getattr(checks, route), BROKEN[route]
                    patch.setattr(checks, route, lambda *a: original(*a) + delta)
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            captured = capsys.readouterr()
            shared.append((code, captured.out, captured.err))

        assert shared == fresh
        usage, verify, raised, classify, extremal = shared
        assert usage[0] == 1 and usage[1] == ""
        assert usage[2].startswith("usage: kcbs-msr extremal ")
        assert usage[2].endswith("error: the following arguments are required: --concurrence\n")
        assert verify[0] == 2
        rows = {line.split()[0]: line for line in verify[1].splitlines()}
        assert rows["s-four-way-equivalence"].endswith("  FAIL")
        assert verify[1].splitlines()[-1] == "FAILED: s-four-way-equivalence"
        assert raised[0] == 2
        assert raised[1].splitlines()[-1] == (
            "FAILED: chsh-endpoints, chsh-smin-composition, chsh-offset-proportionality"
        )
        assert raised[2].startswith(
            "error: _check_chsh raised ValueError: beta out of [2, 2*sqrt(2)]"
        )
        assert raised[2].count("\n") == 1
        assert classify == (0, CLASSIFY_GENERIC, "")
        assert extremal == (0, EXTREMAL_MIN_03, "")
        assert cli._build_parser() is cli._build_parser()

"""Tests for the three-regime classification."""

import math

import numpy as np
import pytest

from kcbs_msr import (
    MsrPair,
    Regime,
    classify_s,
    classify_state,
    concurrence_msr,
    concurrence_threshold,
    s_closed_form,
    sample_pairs,
)
from kcbs_msr.classify import REGIME_EDGES
from kcbs_msr.scan import _LABELS
from test_batched import EDGE_ANGLES

SQRT5 = math.sqrt(5.0)


def _band(s):
    """``classify_s(s)``, after checking that the scan's label path agrees."""
    regime = classify_s(s)
    assert _LABELS[np.digitize(s, REGIME_EDGES)] == regime.value
    return regime


class TestClassifyS:
    def test_maximal_violation_is_contextual(self):
        assert classify_s(5.0 - 4.0 * SQRT5) is Regime.CONTEXTUAL_NONLOCAL

    def test_classical_boundary_inclusive(self):
        assert _band(-3.0) is Regime.NONLOCAL_NONCONTEXTUAL
        assert _band(math.nextafter(-3.0, math.inf)) is Regime.NONLOCAL_NONCONTEXTUAL
        assert _band(math.nextafter(-3.0, -math.inf)) is Regime.CONTEXTUAL_NONLOCAL
        assert _band(-3.0 - 1e-12) is Regime.CONTEXTUAL_NONLOCAL

    def test_local_boundary_inclusive(self):
        assert _band(-SQRT5) is Regime.LOCAL
        assert _band(math.nextafter(-SQRT5, math.inf)) is Regime.LOCAL
        assert _band(math.nextafter(-SQRT5, -math.inf)) is Regime.NONLOCAL_NONCONTEXTUAL
        assert _band(-SQRT5 - 1e-12) is Regime.NONLOCAL_NONCONTEXTUAL

    def test_well_inside_local(self):
        assert classify_s(-1.0) is Regime.LOCAL

    @pytest.mark.parametrize("bad", [-4.1, 0.0, -0.4])
    def test_rejects_out_of_spectrum(self, bad):
        with pytest.raises(ValueError, match="spectral range"):
            classify_s(bad)


class TestClassifyState:
    def test_antipodal(self):
        report = classify_state(MsrPair.from_angles(math.pi, 0.0, 0.0, 0.0))
        assert report.s == pytest.approx(5.0 - 4.0 * SQRT5, abs=1e-12)
        assert report.c == 1.0
        assert report.regime is Regime.CONTEXTUAL_NONLOCAL

    def test_equatorial_boundary_is_local(self):
        report = classify_state(
            MsrPair.from_angles(math.pi / 2.0, 0.0, math.pi / 2.0, 0.0)
        )
        assert report.s == pytest.approx(-SQRT5, abs=1e-12)
        assert report.c == pytest.approx(0.0, abs=1e-15)
        assert report.regime is Regime.LOCAL

    def test_coincident_poles(self):
        report = classify_state(MsrPair.from_angles(0.0, 0.0, 0.0, 0.0))
        assert report.s == pytest.approx(2.0 * SQRT5 - 5.0, abs=1e-12)
        assert report.c == pytest.approx(0.0, abs=1e-15)
        assert report.regime is Regime.LOCAL

    def test_report_echoes_angles(self):
        pair = MsrPair.from_angles(1.0, 2.0, 0.5, 0.25)
        report = classify_state(pair)
        assert report.theta1 == 1.0
        assert report.theta2 == 0.5
        assert report.delta_phi == pytest.approx(1.75)

    def test_contextual_states_are_entangled(self):
        threshold = concurrence_threshold()
        for pair in sample_pairs(10_000):
            report = classify_state(pair)
            if report.regime is Regime.CONTEXTUAL_NONLOCAL:
                assert report.c > threshold - 1e-10

    def test_partition_is_exhaustive(self):
        for pair in sample_pairs(1000):
            assert classify_state(pair).regime in Regime

    def test_report_equals_the_scalar_forms_bit_for_bit(self):
        # classify_state evaluates the kernel once; its S and C are the very
        # floats of the scalar closed forms, and its regime classify_s's.
        rows = sample_pairs(2000) + [MsrPair.from_angles(*a) for a in EDGE_ANGLES]
        for pair in rows + [MsrPair(p.star2, p.star1) for p in rows]:
            report = classify_state(pair)
            assert report.s == s_closed_form(pair), pair
            assert report.c == concurrence_msr(pair), pair
            assert report.regime is classify_s(report.s), pair

"""Tests for the equivalent S and concurrence forms and the phase constraint."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kcbs_msr import (
    DegenerateAnglesError,
    InfeasiblePhaseError,
    InvalidStateError,
    MsrPair,
    Qutrit,
    concurrence_function,
    concurrence_msr,
    concurrence_symmetric,
    delta_phi_for_constant_c,
    expectation_value,
    f_from_concurrence,
    f_function,
    kcbs_operator_diagonal,
    msr_to_qutrit,
    s_closed_form,
    s_function,
    s_rational_form,
    s_via_concurrence,
    sample_pairs,
)

SQRT5 = math.sqrt(5.0)

thetas_st = st.floats(min_value=0.0, max_value=math.pi)
phis_st = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


class TestExpectationValue:
    def test_middle_state_gives_spectral_minimum(self):
        assert expectation_value([0.0, 1.0, 0.0]) == pytest.approx(
            5.0 - 4.0 * SQRT5, abs=1e-15
        )

    def test_top_state_reads_diagonal(self):
        assert expectation_value([1.0, 0.0, 0.0]) == pytest.approx(
            2.0 * SQRT5 - 5.0, abs=1e-15
        )

    def test_equal_weight_on_equal_entries(self):
        state = [1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)]
        assert expectation_value(state) == pytest.approx(2.0 * SQRT5 - 5.0, abs=1e-12)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(InvalidStateError):
            expectation_value([1.0, 1.0, 0.0], kcbs_operator_diagonal())

    def test_rejects_nan_operator(self):
        op = np.diag([math.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="Hermitian"):
            expectation_value([1.0, 0.0, 0.0], op)

    def test_rejects_nan_state(self):
        with pytest.raises(InvalidStateError):
            expectation_value([math.nan, 0.0, 0.0])
        with pytest.raises(InvalidStateError):
            concurrence_symmetric([0.0, math.nan, 0.0])

    def test_rejects_wrong_operator_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            expectation_value([0.0, 1.0, 0.0], np.eye(2))

    def test_rejects_non_hermitian_operator(self):
        op = np.zeros((3, 3), dtype=complex)
        op[0, 1] = 1.0j
        state = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="imaginary"):
            expectation_value(state, op)


class TestSForms:
    def test_maximal_violation_any_phase(self):
        for dphi in (0.0, 1.0, 2.5):
            pair = MsrPair.from_angles(math.pi, dphi, 0.0, 0.0)
            assert s_closed_form(pair) == pytest.approx(5.0 - 4.0 * SQRT5, abs=1e-12)

    def test_equatorial_aligned_gives_local_bound(self):
        pair = MsrPair.from_angles(math.pi / 2.0, 0.0, math.pi / 2.0, 0.0)
        assert s_closed_form(pair) == pytest.approx(-SQRT5, abs=1e-12)

    def test_coincident_poles_give_spectral_maximum(self):
        pair = MsrPair.from_angles(0.0, 0.0, 0.0, 0.0)
        assert s_closed_form(pair) == pytest.approx(2.0 * SQRT5 - 5.0, abs=1e-12)
        assert s_rational_form(pair) == pytest.approx(2.0 * SQRT5 - 5.0, abs=1e-12)

    def test_rational_form_at_maximal_violation(self):
        pair = MsrPair.from_angles(math.pi, 0.7, 0.0, 0.0)
        assert s_rational_form(pair) == pytest.approx(5.0 - 4.0 * SQRT5, abs=1e-12)

    def test_via_concurrence_at_known_points(self):
        antipodal = MsrPair.from_angles(math.pi, 0.0, 0.0, 0.0)
        assert s_via_concurrence(antipodal) == pytest.approx(
            5.0 - 4.0 * SQRT5, abs=1e-12
        )
        equatorial = MsrPair.from_angles(math.pi / 2.0, 0.0, math.pi / 2.0, 0.0)
        assert s_via_concurrence(equatorial) == pytest.approx(-SQRT5, abs=1e-12)

    def test_common_phase_shift_leaves_s_unchanged(self):
        for pair in sample_pairs(100):
            shifted = MsrPair.from_angles(
                pair.star1.theta, pair.star1.phi + 1.234,
                pair.star2.theta, pair.star2.phi + 1.234,
            )
            assert s_closed_form(shifted) == pytest.approx(
                s_closed_form(pair), abs=1e-12
            )

    def test_four_way_equivalence_on_samples(self):
        worst = 0.0
        for pair in sample_pairs(1000):
            forms = (
                s_closed_form(pair),
                s_rational_form(pair),
                s_via_concurrence(pair),
                expectation_value(msr_to_qutrit(pair)),
            )
            worst = max(worst, max(forms) - min(forms))
        assert worst <= 1e-12

    @given(thetas_st, thetas_st, phis_st)
    def test_phase_sign_symmetry(self, t1, t2, dphi):
        assert s_function(t1, t2, dphi) == pytest.approx(
            s_function(t1, t2, -dphi), abs=1e-12
        )

    @given(thetas_st, thetas_st, phis_st)
    def test_star_swap_symmetry(self, t1, t2, dphi):
        assert s_function(t1, t2, dphi) == pytest.approx(
            s_function(t2, t1, dphi), abs=1e-12
        )


class TestConcurrence:
    def test_antipodal_is_maximally_entangled(self):
        pair = MsrPair.from_angles(math.pi, 0.0, 0.0, 0.0)
        assert concurrence_msr(pair) == 1.0

    def test_coincident_is_product(self):
        pair = MsrPair.from_angles(0.7, 1.1, 0.7, 1.1)
        assert concurrence_msr(pair) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_stars_give_one_third(self):
        pair = MsrPair.from_angles(
            math.pi / 2.0, math.pi / 2.0, math.pi / 2.0, 0.0
        )
        assert concurrence_msr(pair) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_symmetric_bell_like(self):
        state = [1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)]
        assert concurrence_symmetric(state) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_product_state_vanishes(self):
        # |++> has amplitudes (1/2, 1/sqrt(2), 1/2): a product state.
        state = [0.5, 1.0 / math.sqrt(2.0), 0.5]
        assert concurrence_symmetric(state) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_middle_state(self):
        assert concurrence_symmetric([0.0, 1.0, 0.0]) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_symmetric_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            concurrence_symmetric([1.0, 0.5, 0.0])

    def test_equivalence_on_samples(self):
        for pair in sample_pairs(1000):
            assert concurrence_msr(pair) == pytest.approx(
                concurrence_symmetric(msr_to_qutrit(pair)), abs=1e-12
            )

    def test_accepts_qutrit_instances(self):
        q = Qutrit(0.0, 1.0, 0.0)
        assert concurrence_symmetric(q) == pytest.approx(1.0, abs=1e-15)

    def test_nan_angle_propagates(self):
        # A NaN angle has no overlap; it must not read as antipodal stars.
        assert math.isnan(f_function(math.nan, 0.0, 0.0))
        assert math.isnan(concurrence_function(math.nan, 0.0, 0.0))
        assert math.isnan(concurrence_function(0.3, 0.2, math.nan))


class TestFConcurrenceInversion:
    @pytest.mark.parametrize(
        "c,expected", [(0.0, 1.0), (1.0, -1.0), (1.0 / 3.0, 0.0)]
    )
    def test_known_points(self, c, expected):
        assert f_from_concurrence(c) == pytest.approx(expected, abs=1e-15)

    def test_round_trip(self):
        for k in range(11):
            c = k / 10.0
            f = f_from_concurrence(c)
            assert (1.0 - f) / (3.0 + f) == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            f_from_concurrence(bad)


class TestDeltaPhiForConstantC:
    def test_equatorial_third(self):
        value = delta_phi_for_constant_c(math.pi / 2.0, math.pi / 2.0, 1.0 / 3.0)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_equatorial_product(self):
        value = delta_phi_for_constant_c(math.pi / 2.0, math.pi / 2.0, 0.0)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_infeasible_target(self):
        with pytest.raises(InfeasiblePhaseError):
            delta_phi_for_constant_c(0.1, math.pi - 0.1, 0.0)

    def test_degenerate_angles(self):
        with pytest.raises(DegenerateAnglesError):
            delta_phi_for_constant_c(0.0, math.pi / 2.0, 0.5)

    @pytest.mark.parametrize("t1, t2", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_angle_rejected(self, t1, t2):
        with pytest.raises(InfeasiblePhaseError):
            delta_phi_for_constant_c(t1, t2, 0.3)

    def test_consistency_with_concurrence(self):
        rng = np.random.default_rng(11)
        hits = 0
        while hits < 200:
            t1, t2 = np.arccos(rng.uniform(-1.0, 1.0, size=2))
            c = float(rng.uniform(0.0, 1.0))
            try:
                cos_dphi = delta_phi_for_constant_c(float(t1), float(t2), c)
            except (InfeasiblePhaseError, DegenerateAnglesError):
                continue
            hits += 1
            pair = MsrPair.from_angles(float(t1), math.acos(cos_dphi), float(t2), 0.0)
            assert concurrence_msr(pair) == pytest.approx(c, abs=1e-9)

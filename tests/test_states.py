"""Tests for star-pair states, qutrit amplitudes and the overlap geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kcbs_msr import (
    BlochAngles,
    InvalidStateError,
    MsrPair,
    Qutrit,
    f_value,
    msr_to_qutrit,
    overlap_angle,
    qubit_ket,
    sample_pairs,
)

angles_st = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
pairs_st = st.builds(
    lambda a, b: MsrPair(BlochAngles(*a), BlochAngles(*b)), angles_st, angles_st
)


class TestBlochAngles:
    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="theta out of"):
            BlochAngles(-0.1, 0.0)
        with pytest.raises(ValueError, match="theta out of"):
            BlochAngles(math.pi + 0.1, 0.0)

    def test_phi_wraps_into_period(self):
        assert BlochAngles(1.0, 2.0 * math.pi + 0.5).phi == pytest.approx(0.5)
        assert BlochAngles(1.0, -0.5).phi == pytest.approx(2.0 * math.pi - 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BlochAngles(math.nan, 0.0)
        with pytest.raises(ValueError):
            BlochAngles(1.0, math.inf)


class TestQubitKet:
    def test_north_pole(self):
        np.testing.assert_allclose(qubit_ket(BlochAngles(0.0, 0.0)), [1.0, 0.0])

    def test_south_pole(self):
        np.testing.assert_allclose(
            qubit_ket(BlochAngles(math.pi, 0.0)), [0.0, 1.0], atol=1e-15
        )

    def test_equator_quarter_phase(self):
        ket = qubit_ket(BlochAngles(math.pi / 2.0, math.pi / 2.0))
        np.testing.assert_allclose(
            ket, [1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)], atol=1e-15
        )

    @given(angles_st)
    def test_unit_norm(self, angles):
        ket = qubit_ket(BlochAngles(*angles))
        assert abs(np.vdot(ket, ket).real - 1.0) < 1e-12


class TestMsrToQutrit:
    def test_both_north_gives_top_state(self):
        pair = MsrPair.from_angles(0.0, 1.3, 0.0, 2.4)
        np.testing.assert_allclose(msr_to_qutrit(pair).vector, [1.0, 0.0, 0.0])

    def test_antipodal_gives_middle_state(self):
        pair = MsrPair.from_angles(math.pi, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(
            msr_to_qutrit(pair).vector, [0.0, 1.0, 0.0], atol=1e-15
        )

    def test_equatorial_aligned(self):
        pair = MsrPair.from_angles(math.pi / 2.0, 0.0, math.pi / 2.0, 0.0)
        np.testing.assert_allclose(
            msr_to_qutrit(pair).vector,
            [0.5, 1.0 / math.sqrt(2.0), 0.5],
            atol=1e-15,
        )

    def test_unit_norm_on_samples(self):
        for pair in sample_pairs(1000):
            v = msr_to_qutrit(pair).vector
            assert abs(np.vdot(v, v).real - 1.0) <= 1e-12

    def test_star_swap_symmetry(self):
        for pair in sample_pairs(300):
            swapped = MsrPair(pair.star2, pair.star1)
            np.testing.assert_allclose(
                msr_to_qutrit(pair).vector,
                msr_to_qutrit(swapped).vector,
                atol=1e-12,
            )

    @given(pairs_st, st.floats(min_value=-6.0, max_value=6.0))
    def test_global_phase_changes_only_phases(self, pair, shift):
        shifted = MsrPair(
            BlochAngles(pair.star1.theta, pair.star1.phi + shift),
            BlochAngles(pair.star2.theta, pair.star2.phi + shift),
        )
        before = np.abs(msr_to_qutrit(pair).vector) ** 2
        after = np.abs(msr_to_qutrit(shifted).vector) ** 2
        np.testing.assert_allclose(before, after, atol=1e-12)


class TestQutrit:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            Qutrit(1.0, 1.0, 0.0)

    def test_from_vector_roundtrip(self):
        q = Qutrit.from_vector([0.5, 1.0 / math.sqrt(2.0), 0.5])
        np.testing.assert_allclose(q.vector, [0.5, 1.0 / math.sqrt(2.0), 0.5])

    def test_from_vector_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Qutrit.from_vector([1.0, 0.0])

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(InvalidStateError):
            Qutrit(math.nan, 0.0, 0.0)
        with pytest.raises(InvalidStateError):
            Qutrit.from_vector([0.0, 1.0, math.nan])


class TestOverlapGeometry:
    def test_identical_stars(self):
        pair = MsrPair.from_angles(1.1, 0.7, 1.1, 0.7)
        assert f_value(pair) == pytest.approx(1.0, abs=1e-15)
        assert overlap_angle(pair) == pytest.approx(0.0, abs=1e-7)

    def test_antipodal_stars(self):
        pair = MsrPair.from_angles(math.pi, 0.0, 0.0, 0.0)
        assert f_value(pair) == pytest.approx(-1.0, abs=1e-15)
        assert overlap_angle(pair) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_orthogonal_directions(self):
        pair = MsrPair.from_angles(
            math.pi / 2.0, math.pi / 2.0, math.pi / 2.0, 0.0
        )
        assert f_value(pair) == pytest.approx(0.0, abs=1e-15)
        assert overlap_angle(pair) == pytest.approx(math.pi / 4.0, abs=1e-12)

    @given(pairs_st)
    def test_f_in_range_and_roundtrips(self, pair):
        f = f_value(pair)
        assert -1.0 <= f <= 1.0
        assert abs(math.cos(2.0 * overlap_angle(pair)) - f) <= 1e-12


class TestSamplePairs:
    def test_reproducible(self):
        assert sample_pairs(10, seed=7) == sample_pairs(10, seed=7)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_pairs(-1)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError) as raised:
            sample_pairs(2, seed=-1)
        assert str(raised.value) == "seed must be non-negative: got -1"

    @pytest.mark.parametrize("argument", ["count", "seed"])
    @pytest.mark.parametrize("value", [1.5, "10", None])
    def test_non_integer_argument_is_named(self, argument, value):
        with pytest.raises(TypeError) as raised:
            sample_pairs(**{"count": 2, "seed": 0, argument: value})
        assert str(raised.value) == f"{argument} must be an integer: got {value!r}"

    def test_accepts_numpy_integers(self):
        assert sample_pairs(np.int64(3), seed=np.int64(7)) == sample_pairs(3, seed=7)

"""Tests for the spin-1 observables, the pentagram frame and the five-cycle operator."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from kcbs_msr import (
    IncompatibleFrameError,
    PentagramFrame,
    SPECTRUM_MAX,
    SPECTRUM_MIN,
    SPIN1_X,
    SPIN1_Y,
    SPIN1_Z,
    assignment_values,
    expectation_value,
    kcbs_operator_diagonal,
    kcbs_operator_from_frame,
    msr_to_qutrit,
    pentagram_vectors,
    sample_pairs,
)
from kcbs_msr.observables import _a_observable

SQRT5 = math.sqrt(5.0)

# Rotation about z by the frame's azimuthal step 4*pi/5.
_STEP = 4.0 * math.pi / 5.0
ROT_STEP = np.array(
    [
        [math.cos(_STEP), -math.sin(_STEP), 0.0],
        [math.sin(_STEP), math.cos(_STEP), 0.0],
        [0.0, 0.0, 1.0],
    ]
)


class TestSpinGenerators:
    def test_hermitian(self):
        for s in (SPIN1_X, SPIN1_Y, SPIN1_Z):
            np.testing.assert_allclose(s, s.conj().T, atol=1e-15)

    def test_commutator(self):
        np.testing.assert_allclose(
            SPIN1_X @ SPIN1_Y - SPIN1_Y @ SPIN1_X, 1j * SPIN1_Z, atol=1e-15
        )

    def test_eigenvalues(self):
        for s in (SPIN1_X, SPIN1_Y, SPIN1_Z):
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(s)), [-1.0, 0.0, 1.0], atol=1e-12
            )

    def test_casimir(self):
        # S^2 = s(s+1) I = 2I for spin 1.
        total = SPIN1_X @ SPIN1_X + SPIN1_Y @ SPIN1_Y + SPIN1_Z @ SPIN1_Z
        np.testing.assert_allclose(total, 2.0 * np.eye(3), atol=1e-15)


class TestAObservable:
    def test_z_direction(self):
        np.testing.assert_allclose(
            _a_observable(np.array([0.0, 0.0, 1.0])), np.diag([1.0, -1.0, 1.0])
        )

    def test_trace_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            assert np.trace(_a_observable(d)).real == pytest.approx(1.0, abs=1e-12)

    def test_squares_to_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            a = _a_observable(d)
            np.testing.assert_allclose(a @ a, np.eye(3), atol=1e-12)


class TestPentagramFrame:
    def test_unit_vectors(self):
        v = pentagram_vectors().vectors
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), np.ones(5), atol=1e-12)

    def test_consecutive_orthogonality(self):
        v = pentagram_vectors().vectors
        for j in range(5):
            assert abs(v[j] @ v[(j + 1) % 5]) <= 1e-12

    def test_common_polar_angle(self):
        v = pentagram_vectors().vectors
        expected = math.sqrt(
            math.cos(math.pi / 5.0) / (1.0 + math.cos(math.pi / 5.0))
        )
        np.testing.assert_allclose(v[:, 2], np.full(5, expected), atol=1e-12)
        assert expected == pytest.approx(0.6687, abs=5e-5)

    def test_rotation_permutes_cyclically(self):
        v = pentagram_vectors().vectors
        np.testing.assert_allclose(v @ ROT_STEP.T, np.roll(v, -1, axis=0), atol=1e-12)

    def test_rejects_non_orthogonal(self):
        frame = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.9, math.sqrt(1.0 - 0.81), 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
            ]
        )
        with pytest.raises(IncompatibleFrameError):
            PentagramFrame(frame)

    def test_rejects_non_unit(self):
        frame = pentagram_vectors().vectors.copy()
        frame[0] *= 1.001
        with pytest.raises(ValueError):
            PentagramFrame(frame)

    def test_rejects_nan_frame(self):
        partly_nan = pentagram_vectors().vectors.copy()
        partly_nan[2, 1] = math.nan
        for frame in (np.full((5, 3), math.nan), partly_nan):
            with pytest.raises(ValueError, match="unit"):
                PentagramFrame(frame)
            with pytest.raises(ValueError, match="unit"):
                kcbs_operator_from_frame(frame)

    def test_vectors_read_only(self):
        frame = pentagram_vectors()
        with pytest.raises(ValueError):
            frame.vectors[0, 0] = 2.0


class TestKcbsOperator:
    def test_diagonal_entries(self):
        op = kcbs_operator_diagonal()
        assert op[1, 1] == 5.0 - 4.0 * SQRT5
        assert op[0, 0] == op[2, 2] == 2.0 * SQRT5 - 5.0
        assert op[1, 1] == pytest.approx(-3.94427, abs=5e-6)
        assert op[0, 0] == pytest.approx(-0.52786, abs=5e-6)

    def test_frame_construction_matches_diagonal(self):
        built = kcbs_operator_from_frame(pentagram_vectors())
        np.testing.assert_allclose(built, kcbs_operator_diagonal(), atol=1e-10)

    def test_middle_state_expectation(self):
        built = kcbs_operator_from_frame(pentagram_vectors())
        middle = np.array([0.0, 1.0, 0.0], dtype=complex)
        value = float(np.vdot(middle, built @ middle).real)
        assert value == pytest.approx(5.0 - 4.0 * SQRT5, abs=1e-12)
        assert value == pytest.approx(-3.94, abs=5e-3)

    def test_trace(self):
        built = kcbs_operator_from_frame(pentagram_vectors())
        assert np.trace(built).real == pytest.approx(-5.0, abs=1e-10)

    def test_rotated_frame_gives_same_operator(self):
        frame = pentagram_vectors()
        rebuilt = kcbs_operator_from_frame(frame.vectors @ ROT_STEP.T)
        np.testing.assert_allclose(
            rebuilt, kcbs_operator_from_frame(frame), atol=1e-10
        )

    def test_operator_bits_are_pinned(self):
        # verify prints the construction's errors to four digits only; the
        # SHA-256 of the bytes catches any change in rounding, such as
        # summing the five products A(v_j) A(v_j+1) in another order.
        frame = pentagram_vectors()
        for vectors, digest in (
            (frame, "7e3ef30323cc874792762eec680d84c6a60ff95d5c8a433917b9c504ee8f7aa3"),
            (
                frame.vectors @ ROT_STEP.T,
                "019968cc7aaa2b2ccc971ea298d2f7f0f18eb68bff5bc11c981d0dd1615955f3",
            ),
        ):
            built = kcbs_operator_from_frame(vectors)
            assert hashlib.sha256(built.tobytes()).hexdigest() == digest

    def test_incompatible_frame_rejected(self):
        tilted = pentagram_vectors().vectors.copy()
        # Tilt one direction by far more than the 1e-12 frame tolerance.
        tilted[1] = tilted[1] + 1e-3 * tilted[0]
        tilted[1] /= np.linalg.norm(tilted[1])
        with pytest.raises(IncompatibleFrameError):
            kcbs_operator_from_frame(tilted)

    def test_raw_frame_meets_the_frame_tolerance(self):
        # A tilt of 1e-8 is rejected from a raw array as from a PentagramFrame.
        tilted = pentagram_vectors().vectors.copy()
        tilted[1] = tilted[1] + 1e-8 * tilted[0]
        tilted[1] /= np.linalg.norm(tilted[1])
        with pytest.raises(IncompatibleFrameError):
            PentagramFrame(tilted)
        with pytest.raises(IncompatibleFrameError):
            kcbs_operator_from_frame(tilted)

    def test_spectral_containment_on_samples(self):
        op = kcbs_operator_diagonal()
        for pair in sample_pairs(500):
            value = expectation_value(msr_to_qutrit(pair), op)
            assert SPECTRUM_MIN - 1e-12 <= value <= SPECTRUM_MAX + 1e-12


class TestClassicalBound:
    def test_enumeration_against_independent_oracle(self):
        values = [
            sum(x[j] * x[(j + 1) % 5] for j in range(5))
            for x in itertools.product((-1, 1), repeat=5)
        ]
        assert min(values) == -3
        assert max(values) == 5
        np.testing.assert_array_equal(assignment_values(), values)

    def test_minimizer_count_stable(self):
        values = assignment_values()
        assert values.size == 32
        assert int((values == -3).sum()) == 10

    def test_odd_cycle_never_reaches_minus_five(self):
        assert assignment_values().min() > -5

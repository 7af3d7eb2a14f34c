"""Symmetric two-qubit states parameterized by their two Majorana stars.

A symmetric (total spin 1) two-qubit state is fixed by two points on the
Bloch sphere, the "stars".  This module builds the effective-qutrit
amplitudes from the two stars and exposes the overlap geometry between the
star directions:

    f = sin(t1) sin(t2) cos(p1 - p2) + cos(t1) cos(t2)

which every downstream quantity (concurrence, five-cycle expectation)
depends on.  The qutrit amplitudes in the (m = +1, 0, -1) basis are

    ( c1 c2,  (e^{i p1} s1 c2 + e^{i p2} c1 s2) / sqrt(2),
      e^{i (p1 + p2)} s1 s2 ) / N

with ck = cos(tk/2), sk = sin(tk/2) and N^2 = (f + 3)/4.  Since f >= -1,
N^2 >= 1/2 and the normalization never degenerates.

Each formula is written once, over numpy arrays: the row functions
``_overlap_of_trig``, ``_amplitude_rows`` and ``_overlap_angles``.  The
first two take the sines and cosines of the angles, not the angles, so a
caller that needs several of them evaluates each sine and cosine once;
``_overlap_parts`` and ``_amplitude_terms`` compute that trig from the
angles.  The public scalar functions (``f_function``, ``msr_to_qutrit``,
``overlap_angle``) are 1-row calls of them, returning Python numbers, so
``msr_to_qutrit`` is the per-pair reference of every batch of amplitude
rows.  Batches come from one sampler, ``_sample_chunks``, which yields one
``(thetas, phis)`` tuple of (n, 2) arrays per chunk; ``sample_pairs``
walks it.  The unit-norm gate ``_unit_rows`` runs once on each path: in
``_gated_rows`` for a batch of rows, in :class:`Qutrit` for one state.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "BlochAngles",
    "InvalidStateError",
    "MsrPair",
    "Qutrit",
    "f_function",
    "f_value",
    "msr_to_qutrit",
    "overlap_angle",
    "qubit_ket",
    "sample_pairs",
]

_TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)

# Largest deviation of |psi|^2 from 1 that a qutrit may show.
_NORM_TOL = 1e-9

# Default seed for the sphere-uniform sampler used by property checks.
DEFAULT_SEED = 12345


class InvalidStateError(ValueError):
    """Raised when a state vector is not normalized to unit length."""


@dataclass(frozen=True)
class BlochAngles:
    """A point on the Bloch sphere: polar angle ``theta``, azimuth ``phi``.

    ``theta`` must lie in [0, pi]; values outside are rejected rather than
    wrapped, because they signal a caller bug.  ``phi`` is periodic and is
    normalized into [0, 2*pi) on construction.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta out of [0, pi]: got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite: got {self.phi}")
        object.__setattr__(self, "phi", self.phi % _TWO_PI)


@dataclass(frozen=True)
class MsrPair:
    """The two Majorana stars of a symmetric two-qubit state.

    Swapping the stars leaves the physical state unchanged; all functions
    of an ``MsrPair`` are symmetric under the swap.
    """

    star1: BlochAngles
    star2: BlochAngles

    @classmethod
    def from_angles(
        cls, theta1: float, phi1: float, theta2: float, phi2: float
    ) -> "MsrPair":
        return cls(BlochAngles(theta1, phi1), BlochAngles(theta2, phi2))

    @property
    def delta_phi(self) -> float:
        """Azimuth difference phi1 - phi2."""
        return self.star1.phi - self.star2.phi


@dataclass(frozen=True)
class Qutrit:
    """Normalized spin-1 amplitudes in the (m = +1, 0, -1) basis."""

    amp_plus1: complex
    amp_0: complex
    amp_minus1: complex

    def __post_init__(self) -> None:
        _unit_rows(self.vector[None, :])

    @classmethod
    def from_vector(cls, vec) -> "Qutrit":
        v = np.asarray(vec, dtype=complex).reshape(3)
        return cls(complex(v[0]), complex(v[1]), complex(v[2]))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.amp_plus1, self.amp_0, self.amp_minus1])


def qubit_ket(angles: BlochAngles) -> np.ndarray:
    """Spinor (cos(theta/2), sin(theta/2) e^{i phi}) for a Bloch point."""
    half = 0.5 * angles.theta
    return np.array([math.cos(half), math.sin(half) * cmath.exp(1j * angles.phi)])


def f_function(theta1: float, theta2: float, delta_phi: float) -> float:
    """Star-overlap function of the raw angles, clamped into [-1, 1].

    The clamp only removes floating-point excursions of a few ulps;
    mathematically the value always lies in [-1, 1].  A NaN or infinite
    angle gives NaN (an infinite one with numpy's invalid-value warning).
    """
    return _overlap_parts(*_one_row(theta1, theta2, delta_phi))[2].item()


def f_value(pair: MsrPair) -> float:
    """Star-overlap function f of a star pair; 1 for coincident stars, -1 for antipodal."""
    return f_function(pair.star1.theta, pair.star2.theta, pair.delta_phi)


def msr_to_qutrit(pair: MsrPair) -> Qutrit:
    """Effective-qutrit amplitudes of the symmetric state with the given stars."""
    star1, star2 = pair.star1, pair.star2
    angles = _one_row(star1.theta, star1.phi, star2.theta, star2.phi)
    row = _amplitude_rows(*_amplitude_terms(*angles))
    # Qutrit holds its amplitudes to the unit-norm gate of _gated_rows.
    return Qutrit(*row[0].tolist())


def overlap_angle(pair: MsrPair) -> float:
    """Angle between the two star state vectors, in [0, pi/2].

    Defined through f = cos(2 * overlap_angle).
    """
    return _overlap_angles([f_value(pair)]).item()


def _one_row(*values) -> np.ndarray:
    """``values`` as 1-element float arrays, one per value, so that a row
    function evaluates a single point: ``_overlap_parts(*_one_row(t1, t2, dphi))``."""
    return np.array(values, dtype=float)[:, None]


def _as_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int by ``operator.index``, or ``TypeError: <name> must
    be an integer: got <value!r>``; an int below ``minimum`` is a
    ``ValueError``, ``<name> must be at least <minimum>`` (``non-negative``
    at 0).  The one check of every integer argument of the package.  The
    int also serves numpy's ``advance``, which overflows on a numpy integer."""
    try:
        number = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer: got {value!r}") from None
    if minimum is not None and number < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}: got {number}")
    return number


def _sample_chunks(
    count: int, seed: int, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The star angles of :func:`sample_pairs`, ``size`` pairs at a time.

    Each chunk is a ``(thetas, phis)`` tuple of (n, 2) arrays: column 0 is
    star 1, and n is ``size`` except in the last chunk; a ``count`` of 0
    yields no chunk.  Each phi is normalized into [0, 2*pi) as
    :class:`BlochAngles` normalizes it.  A chunk is drawn when it is asked
    for, so memory stays flat in ``count``; the seeding and the ``count``
    check run at the first chunk, not at the call.  The seed's stream holds
    the 2 * count theta draws, then the 2 * count phi draws; the phis come
    from a second generator advanced past the thetas, so no angle depends
    on ``size``.
    """
    count = _as_integer("count", count, 0)
    theta_rng, phi_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    phi_rng.bit_generator.advance(2 * count)
    for start in range(0, count, size):
        shape = (min(size, count - start), 2)
        thetas = _acos(theta_rng.uniform(-1.0, 1.0, size=shape))
        phis = phi_rng.uniform(0.0, _TWO_PI, size=shape)
        yield thetas, np.remainder(phis, _TWO_PI, out=phis)


def _cos_sin(angle):
    """(cos, sin) of an angle array: the unit of trig the row functions take."""
    return np.cos(angle), np.sin(angle)


def _overlap_parts(theta1, theta2, delta_phi):
    """x = sin t1 sin t2 cos(dphi), y = cos t1 cos t2 and the overlap
    f = x + y clamped into [-1, 1], over broadcast angle arrays."""
    return _overlap_of_trig(_cos_sin(theta1), _cos_sin(theta2), np.cos(delta_phi))


def _overlap_of_trig(trig1, trig2, cos_dphi):
    """:func:`_overlap_parts` on ``_cos_sin`` of theta1 and of theta2 and
    the cosine of delta_phi."""
    (cos1, sin1), (cos2, sin2) = trig1, trig2
    x = sin1 * sin2 * cos_dphi
    y = cos1 * cos2
    return x, y, np.clip(x + y, -1.0, 1.0)


def _acos(values) -> np.ndarray:
    """``math.acos`` of each value, in the shape of ``values``.  Not ``np.arccos``:
    numpy picks its kernel by the CPU's SIMD features, and they round differently."""
    flat = np.ravel(values).tolist()
    return np.fromiter(map(math.acos, flat), float, len(flat)).reshape(np.shape(values))


def _overlap_angles(f) -> np.ndarray:
    """Half the arccosine of each overlap in ``f``: :func:`overlap_angle` over rows."""
    return 0.5 * _acos(f)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` of qutrit amplitudes, each held to the unit-norm gate of
    :class:`Qutrit`: |psi|^2 within ``_NORM_TOL`` of 1, NaN failing."""
    mod2 = rows.real**2 + rows.imag**2
    norm2 = mod2[:, 0] + mod2[:, 1] + mod2[:, 2]
    bad = ~(np.abs(norm2 - 1.0) <= _NORM_TOL)
    if bad.any():
        raise InvalidStateError(
            f"qutrit amplitudes are not normalized: |psi|^2 = {norm2[bad][0]}"
        )
    return rows


def _gated_rows(*terms) -> np.ndarray:
    """:func:`_amplitude_rows` of ``terms``, held to the unit-norm gate."""
    return _unit_rows(_amplitude_rows(*terms))


def _amplitude_terms(theta1, phi1, theta2, phi2):
    """The trig and the overlap that :func:`_amplitude_rows` takes, at
    these angles: ``_cos_sin`` of theta1/2, theta2/2, phi1, phi2 and
    phi1 + phi2, then f."""
    f = _overlap_parts(theta1, theta2, phi1 - phi2)[2]
    half1, half2 = _cos_sin(0.5 * theta1), _cos_sin(0.5 * theta2)
    return half1, half2, _cos_sin(phi1), _cos_sin(phi2), _cos_sin(phi1 + phi2), f


def _amplitude_rows(half1, half2, phase1, phase2, phase_sum, f) -> np.ndarray:
    """The amplitude rows before the unit-norm gate, from the terms of
    :func:`_amplitude_terms`.  Swapping the stars swaps the arguments in
    pairs: cos is even and + commutes, so phase_sum and f stay.

    Written in real and imaginary parts, so that each amplitude rounds as
    Python's complex arithmetic rounds the formula of the module docstring;
    numpy's complex products and complex-by-real quotients round
    differently.  Adding 0.0 turns the -0.0 parts of an amplitude that
    vanishes at a pole into +0.0, so that it prints as 0, not -0.
    """
    (c1, s1), (c2, s2) = half1, half2
    (cos1, sin1), (cos2, sin2), (cos_sum, sin_sum) = phase1, phase2, phase_sum
    norm = np.sqrt((f + 3.0) / 4.0)
    rows = np.empty((len(c1), 3), dtype=complex)
    rows.real[:, 0] = c1 * c2 / norm
    rows.imag[:, 0] = 0.0
    rows.real[:, 1] = (cos1 * s1 * c2 + cos2 * c1 * s2) / _SQRT2 / norm
    rows.imag[:, 1] = (sin1 * s1 * c2 + sin2 * c1 * s2) / _SQRT2 / norm
    rows.real[:, 2] = cos_sum * s1 * s2 / norm
    rows.imag[:, 2] = sin_sum * s1 * s2 / norm
    return rows + 0.0


def sample_pairs(count: int, seed: int = DEFAULT_SEED) -> list[MsrPair]:
    """Draw ``count`` star pairs uniformly on the sphere (cos(theta) uniform,
    phi uniform), reproducibly from ``seed``."""
    count, seed = _as_integer("count", count), _as_integer("seed", seed, 0)
    return [
        MsrPair.from_angles(t1, p1, t2, p2)
        for thetas, phis in _sample_chunks(count, seed, max(count, 1))
        for (t1, t2), (p1, p2) in zip(thetas, phis)
    ]

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
"""

from __future__ import annotations

import cmath
import math
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
    "norm_squared",
    "overlap_angle",
    "qubit_ket",
    "sample_pairs",
]

_TWO_PI = 2.0 * math.pi

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
        norm2 = (
            abs(self.amp_plus1) ** 2
            + abs(self.amp_0) ** 2
            + abs(self.amp_minus1) ** 2
        )
        if not abs(norm2 - 1.0) <= 1e-9:
            raise InvalidStateError(
                f"qutrit amplitudes are not normalized: |psi|^2 = {norm2}"
            )

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
    mathematically the value always lies in [-1, 1].  A NaN angle gives NaN:
    the clamp compares, which NaN fails, where ``max(-1.0, nan)`` would
    return -1, antipodal stars.
    """
    raw = math.sin(theta1) * math.sin(theta2) * math.cos(delta_phi) + math.cos(
        theta1
    ) * math.cos(theta2)
    return -1.0 if raw < -1.0 else (1.0 if raw > 1.0 else raw)


def f_value(pair: MsrPair) -> float:
    """Star-overlap function f of a star pair; 1 for coincident stars, -1 for antipodal."""
    return f_function(pair.star1.theta, pair.star2.theta, pair.delta_phi)


def norm_squared(pair: MsrPair) -> float:
    """Squared normalization constant N^2 = (f + 3)/4 of the qutrit amplitudes.

    Always in [1/2, 1].
    """
    return (f_value(pair) + 3.0) / 4.0


def msr_to_qutrit(pair: MsrPair) -> Qutrit:
    """Effective-qutrit amplitudes of the symmetric state with the given stars."""
    t1, p1 = pair.star1.theta, pair.star1.phi
    t2, p2 = pair.star2.theta, pair.star2.phi
    c1, s1 = math.cos(0.5 * t1), math.sin(0.5 * t1)
    c2, s2 = math.cos(0.5 * t2), math.sin(0.5 * t2)
    norm = math.sqrt(norm_squared(pair))
    return Qutrit(
        c1 * c2 / norm,
        (cmath.exp(1j * p1) * s1 * c2 + cmath.exp(1j * p2) * c1 * s2)
        / math.sqrt(2.0)
        / norm,
        cmath.exp(1j * (p1 + p2)) * s1 * s2 / norm,
    )


def overlap_angle(pair: MsrPair) -> float:
    """Angle between the two star state vectors, in [0, pi/2].

    Defined through f = cos(2 * overlap_angle).
    """
    return 0.5 * math.acos(f_value(pair))


def sample_pairs(count: int, seed: int = DEFAULT_SEED) -> list[MsrPair]:
    """Draw ``count`` star pairs uniformly on the sphere (cos(theta) uniform,
    phi uniform), reproducibly from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative: got {count}")
    rng = np.random.default_rng(seed)
    thetas = np.arccos(rng.uniform(-1.0, 1.0, size=(count, 2)))
    phis = rng.uniform(0.0, _TWO_PI, size=(count, 2))
    return [
        MsrPair.from_angles(thetas[k, 0], phis[k, 0], thetas[k, 1], phis[k, 1])
        for k in range(count)
    ]

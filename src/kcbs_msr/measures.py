"""Concurrence and five-cycle expectation values in their equivalent closed forms.

For a star pair (t1, p1, t2, p2) with overlap f the expectation of the
five-cycle operator is

    S = 4 (3 sqrt(5) - 5) (cos t1 cos t2 + 1) / (f + 3)  +  5 - 4 sqrt(5)

and the concurrence of the underlying symmetric two-qubit state is

    C = (1 - f) / (3 + f),

so S can also be written as
(3 sqrt(5) - 5)(C + 1)(cos t1 cos t2 + 1) + 5 - 4 sqrt(5).  All forms agree
to double precision; the matrix expectation over the qutrit amplitudes is
the independent route used to cross-check them.

Amplitude-level concurrence: for normalized amplitudes (a1, b, a2) in the
(m = +1, 0, -1) basis the value is 2 |a1 a2 - b^2 / 2|.  The b^2/2 term is
what makes the formula vanish on every product state and agree with the
star-overlap form above.
"""

from __future__ import annotations

import math

import numpy as np

from .observables import SQRT5, kcbs_operator_diagonal
from .states import MsrPair, Qutrit, f_function

__all__ = [
    "DegenerateAnglesError",
    "InfeasiblePhaseError",
    "concurrence_function",
    "concurrence_msr",
    "concurrence_symmetric",
    "delta_phi_for_constant_c",
    "expectation_value",
    "f_from_concurrence",
    "s_closed_form",
    "s_function",
    "s_rational_form",
    "s_via_concurrence",
]


class DegenerateAnglesError(ValueError):
    """Raised when sin(t1) sin(t2) vanishes and the phase is unconstrained."""


class InfeasiblePhaseError(ValueError):
    """Raised when no relative phase can realize the requested concurrence."""


def _as_amplitudes(state) -> np.ndarray:
    if not isinstance(state, Qutrit):
        state = Qutrit.from_vector(state)
    return state.vector


def expectation_value(state, operator=None) -> float:
    """Real expectation value <psi| O |psi> of a 3x3 Hermitian operator.

    ``state`` may be a :class:`Qutrit` or any normalized 3-vector of complex
    amplitudes; ``operator`` defaults to the diagonal five-cycle operator.
    """
    v = _as_amplitudes(state)
    op = kcbs_operator_diagonal() if operator is None else np.asarray(operator)
    if op.shape != (3, 3):
        raise ValueError(f"operator must be 3x3: got shape {op.shape}")
    value = complex(np.vdot(v, op @ v))
    if not abs(value.imag) <= 1e-12:
        raise ValueError(
            f"expectation has non-negligible imaginary part {value.imag}; "
            "operator is not Hermitian"
        )
    return value.real


def s_of_overlap(f, y):
    """S from the overlap f and y = cos t1 cos t2; floats or numpy arrays."""
    return 4.0 * (3.0 * SQRT5 - 5.0) * (y + 1.0) / (f + 3.0) + (5.0 - 4.0 * SQRT5)


def concurrence_of_overlap(f):
    """Concurrence (1 - f)/(3 + f) of the overlap f; floats or numpy arrays."""
    return (1.0 - f) / (3.0 + f)


def s_function(theta1: float, theta2: float, delta_phi: float) -> float:
    """Five-cycle expectation S of the raw star angles (closed form)."""
    f = f_function(theta1, theta2, delta_phi)
    return s_of_overlap(f, math.cos(theta1) * math.cos(theta2))


def s_closed_form(pair: MsrPair) -> float:
    """Five-cycle expectation of a star pair, closed form."""
    return s_function(pair.star1.theta, pair.star2.theta, pair.delta_phi)


def s_rational_form(pair: MsrPair) -> float:
    """Five-cycle expectation as a single rational expression.

    Numerator (5 - 4 sqrt(5)) X + (8 sqrt(5) - 15) Y - 5 over X + Y + 3,
    with X = sin t1 sin t2 cos(dphi) and Y = cos t1 cos t2.  Algebraically
    identical to :func:`s_closed_form`.
    """
    t1, t2 = pair.star1.theta, pair.star2.theta
    x = math.sin(t1) * math.sin(t2) * math.cos(pair.delta_phi)
    y = math.cos(t1) * math.cos(t2)
    return ((5.0 - 4.0 * SQRT5) * x + (8.0 * SQRT5 - 15.0) * y - 5.0) / (x + y + 3.0)


def concurrence_function(theta1: float, theta2: float, delta_phi: float) -> float:
    """Concurrence (1 - f)/(3 + f) of the raw star angles."""
    return concurrence_of_overlap(f_function(theta1, theta2, delta_phi))


def concurrence_msr(pair: MsrPair) -> float:
    """Concurrence of a star pair: 0 for coincident stars, 1 for antipodal."""
    return concurrence_function(pair.star1.theta, pair.star2.theta, pair.delta_phi)


def concurrence_symmetric(state) -> float:
    """Concurrence 2 |a1 a2 - b^2 / 2| from spin-1 amplitudes (a1, b, a2)."""
    a1, b, a2 = _as_amplitudes(state)
    return min(1.0, 2.0 * abs(a1 * a2 - 0.5 * b * b))


def _validate_concurrence(c: float) -> None:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence out of [0, 1]: got {c}")


def f_from_concurrence(c: float) -> float:
    """Overlap value (1 - 3c)/(1 + c) realizing concurrence ``c``.

    Inverse of c = (1 - f)/(3 + f).
    """
    _validate_concurrence(c)
    return (1.0 - 3.0 * c) / (1.0 + c)


def s_via_concurrence(pair: MsrPair) -> float:
    """Five-cycle expectation written through the concurrence.

    (3 sqrt(5) - 5)(C + 1)(cos t1 cos t2 + 1) + 5 - 4 sqrt(5).
    """
    c = concurrence_msr(pair)
    y = math.cos(pair.star1.theta) * math.cos(pair.star2.theta)
    return (3.0 * SQRT5 - 5.0) * (c + 1.0) * (y + 1.0) + 5.0 - 4.0 * SQRT5


def delta_phi_for_constant_c(theta1: float, theta2: float, c: float) -> float:
    """cos(delta_phi) that keeps the concurrence at ``c`` for fixed polar angles.

    Returns the value clamped into [-1, 1] (a slack of 1e-12 admits boundary
    solutions computed in floating point).

    Raises
    ------
    DegenerateAnglesError
        If sin(t1) sin(t2) < 1e-12, where delta_phi has no effect.
    InfeasiblePhaseError
        If no phase realizes ``c`` at these polar angles, or an angle is NaN.
    """
    _validate_concurrence(c)
    p = math.sin(theta1) * math.sin(theta2)
    if abs(p) < 1e-12:
        raise DegenerateAnglesError(
            "sin(theta1) sin(theta2) vanishes; delta_phi is unconstrained"
        )
    value = (f_from_concurrence(c) - math.cos(theta1) * math.cos(theta2)) / p
    if not abs(value) <= 1.0 + 1e-12:
        raise InfeasiblePhaseError(
            f"no delta_phi realizes concurrence {c} at these angles: "
            f"cos(delta_phi) would be {value}"
        )
    return min(1.0, max(-1.0, value))

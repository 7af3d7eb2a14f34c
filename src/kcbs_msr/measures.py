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

Each formula is written once and works on floats or numpy arrays
(``s_of_overlap``, ``s_of_parts``, ``s_of_concurrence``,
``concurrence_of_overlap``) or on (N, 3) amplitude rows
(``_expectation_rows``, ``_concurrence_rows``).  The public scalar
functions are 1-row calls of these, on x, y and f from
``states._overlap_parts``, and return Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .observables import SQRT5, kcbs_operator_diagonal
from .states import MsrPair, Qutrit, _one_row, _overlap_parts, f_function

# Largest imaginary part a real expectation value may carry.
_HERMITIAN_TOL = 1e-12
_DEGENERATE_SIN = 1e-12  # |sin t1 sin t2| below this: delta_phi has no effect on f
_COS_DPHI_SLACK = 1e-12  # slack on |cos delta_phi| <= 1 for boundary solutions in floats

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
    op = kcbs_operator_diagonal() if operator is None else np.asarray(operator)
    if op.shape != (3, 3):
        raise ValueError(f"operator must be 3x3: got shape {op.shape}")
    return _expectation_rows(_as_amplitudes(state)[None, :], op).item()


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vdot(a[k], b[k])`` for every row k of two (N, 3) arrays.

    The stacked 1x3 by 3x1 products sum as ``np.vdot`` sums, so each value
    equals it bit for bit; ``einsum`` sums in another order.
    """
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _expectation_rows(rows: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """:func:`expectation_value` of each (N, 3) amplitude row, with its
    Hermiticity gate on every row."""
    values = _vdot_rows(rows, (operator @ rows[:, :, None])[:, :, 0])
    bad = ~(np.abs(values.imag) <= _HERMITIAN_TOL)
    if bad.any():
        raise ValueError(
            f"expectation has non-negligible imaginary part {values.imag[bad][0]}; "
            "operator is not Hermitian"
        )
    return values.real


def s_of_overlap(f, y):
    """S from the overlap f and y = cos t1 cos t2; floats or numpy arrays."""
    return 4.0 * (3.0 * SQRT5 - 5.0) * (y + 1.0) / (f + 3.0) + (5.0 - 4.0 * SQRT5)


def s_of_parts(x, y):
    """S as one rational expression in x = sin t1 sin t2 cos(dphi) and
    y = cos t1 cos t2; floats or numpy arrays."""
    return ((5.0 - 4.0 * SQRT5) * x + (8.0 * SQRT5 - 15.0) * y - 5.0) / (x + y + 3.0)


def s_of_concurrence(c, y):
    """S through the concurrence c and y = cos t1 cos t2; floats or numpy arrays."""
    return (3.0 * SQRT5 - 5.0) * (c + 1.0) * (y + 1.0) + 5.0 - 4.0 * SQRT5


def concurrence_of_overlap(f):
    """Concurrence (1 - f)/(3 + f) of the overlap f; floats or numpy arrays."""
    return (1.0 - f) / (3.0 + f)


def _pair_parts(pair: MsrPair):
    """x, y and f of one star pair as 1-element arrays."""
    return _overlap_parts(*_one_row(pair.star1.theta, pair.star2.theta, pair.delta_phi))


def s_function(theta1: float, theta2: float, delta_phi: float) -> float:
    """Five-cycle expectation S of the raw star angles (closed form)."""
    _, y, f = _overlap_parts(*_one_row(theta1, theta2, delta_phi))
    return s_of_overlap(f, y).item()


def s_closed_form(pair: MsrPair) -> float:
    """Five-cycle expectation of a star pair, closed form."""
    return s_function(pair.star1.theta, pair.star2.theta, pair.delta_phi)


def s_rational_form(pair: MsrPair) -> float:
    """Five-cycle expectation as a single rational expression.

    Numerator (5 - 4 sqrt(5)) X + (8 sqrt(5) - 15) Y - 5 over X + Y + 3,
    with X = sin t1 sin t2 cos(dphi) and Y = cos t1 cos t2.  Algebraically
    identical to :func:`s_closed_form`.
    """
    x, y, _ = _pair_parts(pair)
    return s_of_parts(x, y).item()


def concurrence_function(theta1: float, theta2: float, delta_phi: float) -> float:
    """Concurrence (1 - f)/(3 + f) of the raw star angles."""
    return concurrence_of_overlap(f_function(theta1, theta2, delta_phi))


def concurrence_msr(pair: MsrPair) -> float:
    """Concurrence of a star pair: 0 for coincident stars, 1 for antipodal."""
    return concurrence_function(pair.star1.theta, pair.star2.theta, pair.delta_phi)


def concurrence_symmetric(state) -> float:
    """Concurrence 2 |a1 a2 - b^2 / 2| from spin-1 amplitudes (a1, b, a2)."""
    return _concurrence_rows(_as_amplitudes(state)[None, :]).item()


def _concurrence_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`concurrence_symmetric` of each (N, 3) amplitude row.

    a1 a2 - b^2 / 2 is written in real arithmetic, and its modulus taken
    with ``np.hypot``, the hypot behind Python's complex ``abs``: numpy's
    complex products and ``np.abs`` round differently from Python's.
    """
    a1, b, a2 = rows[:, 0], rows[:, 1], rows[:, 2]
    hr, hi = 0.5 * b.real, 0.5 * b.imag
    re = (a1.real * a2.real - a1.imag * a2.imag) - (hr * b.real - hi * b.imag)
    im = (a1.real * a2.imag + a1.imag * a2.real) - (hr * b.imag + hi * b.real)
    return np.fmin(1.0, 2.0 * np.hypot(re, im))


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
    _, y, f = _pair_parts(pair)
    return s_of_concurrence(concurrence_of_overlap(f), y).item()


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
    f_t = f_from_concurrence(c)
    p = math.sin(theta1) * math.sin(theta2)
    if abs(p) < _DEGENERATE_SIN:
        raise DegenerateAnglesError(
            "sin(theta1) sin(theta2) vanishes; delta_phi is unconstrained"
        )
    value = (f_t - math.cos(theta1) * math.cos(theta2)) / p
    if not abs(value) <= 1.0 + _COS_DPHI_SLACK:
        raise InfeasiblePhaseError(
            f"no delta_phi realizes concurrence {c} at these angles: "
            f"cos(delta_phi) would be {value}"
        )
    return min(1.0, max(-1.0, value))

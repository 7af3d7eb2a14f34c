"""Three-regime taxonomy of states by their five-cycle expectation value.

``_regime_codes`` is the one regime cut, for ``classify_s``, the kernel
``_evaluate`` (behind ``classify_state`` and the scan) and ``verify``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .extremal import LOCAL_BOUND
from .measures import concurrence_of_overlap, s_of_overlap
from .observables import CLASSICAL_BOUND, SPECTRUM_MAX, SPECTRUM_MIN
from .states import MsrPair, _one_row, _overlap_parts

__all__ = ["Regime", "StateReport", "classify_s", "classify_state"]

_RANGE_SLACK = 1e-9

# Edges between the S bands, increasing; see ``Regime``.
REGIME_EDGES = (CLASSICAL_BOUND, LOCAL_BOUND)


class Regime(enum.Enum):
    """S-value band of a state.

    The bands are half-open with the boundary values -3 and -sqrt(5) going
    to the less quantum side: S = -3 is non-contextual, S = -sqrt(5) is
    local.  "Nonlocal" (CHSH-violating) holds for pure states only: mixed
    symmetric states can have S < -sqrt(5) and violate no CHSH inequality.
    """

    CONTEXTUAL_NONLOCAL = "ContextualNonlocal"
    NONLOCAL_NONCONTEXTUAL = "NonlocalNoncontextual"
    LOCAL = "Local"


# Regime labels indexed by the code of ``_regime_codes``, in the order of ``Regime``.
_LABELS = np.array([r.value for r in Regime], dtype=object)


def _regime_codes(s):
    """Regime code of each S value: the number of ``REGIME_EDGES`` at or
    below it, so 0 for S < -3, 1 for -3 <= S < -sqrt(5) and 2 otherwise."""
    return np.digitize(s, REGIME_EDGES)


def _evaluate(theta1, theta2, delta_phi):
    """S, concurrence and regime code on broadcast angle arrays."""
    _, y, f = _overlap_parts(theta1, theta2, delta_phi)
    s = s_of_overlap(f, y)
    return s, concurrence_of_overlap(f), _regime_codes(s)


def classify_s(s: float) -> Regime:
    """Regime of a five-cycle expectation value.

    ``s`` must lie in the operator's spectral range
    [5 - 4 sqrt(5), 2 sqrt(5) - 5].
    """
    if not SPECTRUM_MIN - _RANGE_SLACK <= s <= SPECTRUM_MAX + _RANGE_SLACK:
        raise ValueError(
            f"s out of the spectral range [{SPECTRUM_MIN}, {SPECTRUM_MAX}]: got {s}"
        )
    return Regime(_LABELS[_regime_codes(s)])


@dataclass(frozen=True)
class StateReport:
    """Five-cycle expectation, concurrence and regime of one state."""

    s: float
    c: float
    regime: Regime
    theta1: float
    theta2: float
    delta_phi: float


def classify_state(pair: MsrPair) -> StateReport:
    """Full report (S, concurrence, regime) for a star pair."""
    s, c, _ = _evaluate(*_one_row(pair.star1.theta, pair.star2.theta, pair.delta_phi))
    s = s.item()
    return StateReport(
        s=s,
        c=c.item(),
        regime=classify_s(s),
        theta1=pair.star1.theta,
        theta2=pair.star2.theta,
        delta_phi=pair.delta_phi,
    )

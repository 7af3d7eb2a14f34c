"""Three-regime taxonomy of states by their five-cycle expectation value."""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

from .extremal import LOCAL_BOUND
from .measures import concurrence_msr, s_closed_form
from .observables import CLASSICAL_BOUND, SPECTRUM_MAX, SPECTRUM_MIN
from .states import MsrPair

__all__ = ["Regime", "StateReport", "classify_s", "classify_state"]

_RANGE_SLACK = 1e-9

# Edges between the S bands, increasing; see ``Regime``.
REGIME_EDGES = (CLASSICAL_BOUND, LOCAL_BOUND)


class Regime(enum.Enum):
    """S-value band of a state.

    The bands are half-open with the boundary values -3 and -sqrt(5) going
    to the less quantum side: S = -3 is non-contextual, S = -sqrt(5) is
    local.
    """

    CONTEXTUAL_NONLOCAL = "ContextualNonlocal"
    NONLOCAL_NONCONTEXTUAL = "NonlocalNoncontextual"
    LOCAL = "Local"


# The bands in increasing S, indexed by the number of edges at or below S.
_BANDS = tuple(Regime)


def classify_s(s: float) -> Regime:
    """Regime of a five-cycle expectation value.

    ``s`` must lie in the operator's spectral range
    [5 - 4 sqrt(5), 2 sqrt(5) - 5].
    """
    if not SPECTRUM_MIN - _RANGE_SLACK <= s <= SPECTRUM_MAX + _RANGE_SLACK:
        raise ValueError(
            f"s out of the spectral range [{SPECTRUM_MIN}, {SPECTRUM_MAX}]: got {s}"
        )
    return _BANDS[bisect.bisect_right(REGIME_EDGES, s)]


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
    s = s_closed_form(pair)
    return StateReport(
        s=s,
        c=concurrence_msr(pair),
        regime=classify_s(s),
        theta1=pair.star1.theta,
        theta2=pair.star2.theta,
        delta_phi=pair.delta_phi,
    )

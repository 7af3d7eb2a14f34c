"""Self-verification: every closed form checked against an independent route.

The ``verify`` CLI subcommand runs these checks.  One table, ``_TOLERANCES``,
holds each check's name and tolerance in the order ``verify`` prints them.
Each group of checks returns only its worst observed errors, keyed by check
name, so a new check is one table row and one key in the group that computes
it.  They fold errors with np.max, which keeps a NaN (Python's max(0.0, nan)
is 0.0), so a route that returns NaN fails its check.  A group that raises
or omits a name fails those checks: the exception goes to stderr and the
other groups still run.  The groups pair
routes that share no code: closed forms against the matrix expectation, the
diagonal operator against the pentagram construction, the linear minimum
law against a constrained grid search, and the threshold concurrence
against bisection.

The sampled group takes the angles as ``states._sample_chunks`` yields
them, one ``(thetas, phis)`` chunk at a time, and evaluates each sine and
cosine of a chunk's thetas once: the star rows, the swapped and the
phase-turned rows and x, y, f share them through
``states._amplitude_terms``.  Each row set has the bits of
``msr_to_qutrit`` of its star pairs, the per-pair reference, and passes
the unit-norm gate.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .classify import Regime, _regime_codes
from .extremal import (
    chsh_max,
    concurrence_threshold,
    extremal_witnesses,
    numeric_extremal_search,
    s_min_for_concurrence,
    s_min_from_beta,
    s_min_of,
)
from .measures import (
    _concurrence_rows,
    _expectation_rows,
    _vdot_rows,
    concurrence_function,
    concurrence_of_overlap,
    f_from_concurrence,
    s_function,
    s_of_concurrence,
    s_of_overlap,
    s_of_parts,
)
from .observables import (
    SPECTRUM_MAX,
    SPECTRUM_MIN,
    SQRT5,
    assignment_values,
    kcbs_operator_diagonal,
    kcbs_operator_from_frame,
    pentagram_vectors,
)
from .states import (
    DEFAULT_SEED,
    _amplitude_terms,
    _as_integer,
    _cos_sin,
    _gated_rows,
    _overlap_angles,
    _sample_chunks,
)

__all__ = ["CheckResult", "run_all_checks"]

_C_GRID = [k / 10.0 for k in range(11)]
# Largest error allowed the numeric extremal search against the closed forms,
# here and in the ``extremal --method both`` command.
_ORACLE_TOLERANCE = 1e-6

# Star pairs per batch of the sampled checks: each chunk is drawn as it is
# checked, so memory stays flat in the sample count, and the arrays stay
# small enough for the CPU caches.
_CHUNK = 4096
# Azimuth by which global-phase-invariance turns both stars.
_PHASE_SHIFT = 0.7
_CONTEXTUAL = tuple(Regime).index(Regime.CONTEXTUAL_NONLOCAL)
# How far below the threshold C a contextual state counts against
# contextual-implies-entangled: a margin on C, not that check's tolerance (0).
_THRESHOLD_MARGIN = 1e-10

# Every check, in the order ``verify`` prints them, and the error it allows.
_TOLERANCES = {
    "qutrit-normalization": 1e-12,
    "star-swap-symmetry": 1e-12,
    "global-phase-invariance": 1e-12,
    "f-range-and-overlap-roundtrip": 1e-12,
    "s-four-way-equivalence": 1e-12,
    "concurrence-equivalence": 1e-12,
    "s-and-c-range": 1e-12,
    "concurrence-roundtrip": 1e-12,
    "diag-vs-pentagram": 1e-10,
    "frame-rotation-invariance": 1e-10,
    "classical-bound-is-minus-3": 0.0,
    "classical-bound-vs-oracle": 0.0,
    "spectral-containment": 1e-12,
    "smin-numeric-oracle": _ORACLE_TOLERANCE,
    "smax-constancy": _ORACLE_TOLERANCE,
    "extremal-tightness": 1e-10,
    "threshold-solves-minus-3": 1e-12,
    "threshold-vs-bisection": 1e-10,
    "chsh-endpoints": 1e-12,
    "chsh-smin-composition": 1e-12,
    "chsh-offset-proportionality": 1e-10,
    "smin-dominance": 1e-10,
    "contextual-implies-entangled": 0.0,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    max_error: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.max_error <= self.tolerance)


def _chunk_rows(thetas: np.ndarray, phis: np.ndarray) -> tuple:
    """The qutrit rows of one chunk of star angles, of the same stars
    swapped and of both stars turned by ``_PHASE_SHIFT``, and x, y, f.

    Each sine and cosine of the thetas is evaluated once and shared.  Every
    row equals :func:`msr_to_qutrit` of its star pair, and x, y, f equal
    ``_overlap_parts`` of the same angles, bit for bit."""
    t1, t2 = thetas[:, 0], thetas[:, 1]
    trig = _cos_sin(0.5 * t1), _cos_sin(0.5 * t2), _cos_sin(t1), _cos_sin(t2)
    terms, overlap = _amplitude_terms(*trig, phis[:, 0], phis[:, 1])
    half1, half2, phase1, phase2, phase_sum, f = terms
    v = _gated_rows(*terms)
    swapped = _gated_rows(half2, half1, phase2, phase1, phase_sum, f)
    # Normalized into [0, 2*pi) as BlochAngles normalizes a turned azimuth.
    shifted = (phis + _PHASE_SHIFT) % (2.0 * math.pi)
    w = _gated_rows(*_amplitude_terms(*trig, shifted[:, 0], shifted[:, 1])[0])
    return v, swapped, w, overlap


def _chunk_errors(thetas: np.ndarray, phis: np.ndarray) -> tuple[dict, int]:
    """The sampled checks on one chunk of star angles: the largest error of
    each by check name, and the count of contextual states at or below the
    threshold concurrence."""
    v, swapped, w, (x, y, f) = _chunk_rows(thetas, phis)
    c = concurrence_of_overlap(f)
    s = s_of_overlap(f, y)
    ev = _expectation_rows(v, kcbs_operator_diagonal())
    # The closed forms only: the matrix expectation's range is spectral-containment's.
    closed = np.stack((s, s_of_parts(x, y), s_of_concurrence(c, y)))
    lowest, highest = closed.min(axis=0), closed.max(axis=0)
    contextual = _regime_codes(s) == _CONTEXTUAL
    errors = {
        "qutrit-normalization": np.abs(_vdot_rows(v, v).real - 1.0),
        "star-swap-symmetry": np.abs(v - swapped),
        "global-phase-invariance": np.abs(np.abs(v) ** 2 - np.abs(w) ** 2),
        "f-range-and-overlap-roundtrip": np.maximum(
            np.abs(f) - 1.0, np.abs(np.cos(2.0 * _overlap_angles(f)) - f)
        ),
        "s-four-way-equivalence": np.maximum(highest, ev) - np.minimum(lowest, ev),
        "concurrence-equivalence": np.abs(c - _concurrence_rows(v)),
        "s-and-c-range": np.maximum.reduce(
            (SPECTRUM_MIN - lowest, highest - SPECTRUM_MAX, -c, c - 1.0)
        ),
        "spectral-containment": np.maximum(SPECTRUM_MIN - ev, ev - SPECTRUM_MAX),
        "smin-dominance": np.maximum(s_min_of(c) - s, s - SPECTRUM_MAX),
    }
    below = c <= concurrence_threshold() - _THRESHOLD_MARGIN
    largest = {name: float(np.max(e, initial=0.0)) for name, e in errors.items()}
    return largest, np.count_nonzero(contextual & below)


def _check_samples(chunks) -> dict[str, float]:
    """The sampled checks on an iterable of ``(thetas, phis)`` chunks of
    star angles, as :func:`_sample_chunks` yields them.  Each error is a
    maximum or a sum over the pairs, so the chunking cannot change it."""
    errors, violations = zip(*itertools.starmap(_chunk_errors, chunks))
    largest = {name: np.max([e[name] for e in errors]) for name in errors[0]}
    return {**largest, "contextual-implies-entangled": float(sum(violations))}


def _check_concurrence_roundtrip() -> dict[str, float]:
    errors = [abs(concurrence_of_overlap(f_from_concurrence(c)) - c) for c in _C_GRID]
    return {"concurrence-roundtrip": np.max(errors)}


def _check_operator_construction() -> dict[str, float]:
    frame = pentagram_vectors()
    built = kcbs_operator_from_frame(frame)
    # Rotating the frame about its symmetry axis by the azimuthal step
    # permutes the directions, so the operator must not change.
    step = 4.0 * math.pi / 5.0
    rot = np.array(
        [
            [math.cos(step), -math.sin(step), 0.0],
            [math.sin(step), math.cos(step), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    rotated = kcbs_operator_from_frame(frame.vectors @ rot.T)
    return {
        "diag-vs-pentagram": np.max(np.abs(built - kcbs_operator_diagonal())),
        "frame-rotation-invariance": np.max(np.abs(rotated - built)),
    }


def _check_classical_bound() -> dict[str, float]:
    values = assignment_values()
    # Independent enumeration, written directly against the five-cycle sum.
    oracle = min(
        sum(x[j] * x[(j + 1) % 5] for j in range(5))
        for x in itertools.product((-1, 1), repeat=5)
    )
    return {
        "classical-bound-is-minus-3": abs(values.min() - (-3)),
        "classical-bound-vs-oracle": abs(values.min() - oracle),
    }


def _check_extremal_oracle() -> dict[str, float]:
    min_errors, max_errors = [], []
    for c in _C_GRID:
        found_min = numeric_extremal_search(c, "minimize")
        min_errors.append(abs(found_min.s_star - s_min_for_concurrence(c)))
        found_max = numeric_extremal_search(c, "maximize")
        max_errors.append(abs(found_max.s_star - SPECTRUM_MAX))
    return {"smin-numeric-oracle": np.max(min_errors), "smax-constancy": np.max(max_errors)}


def _check_extremal_tightness() -> dict[str, float]:
    errors = []
    for c in _C_GRID:
        for objective, target in (
            ("minimize", s_min_for_concurrence(c)),
            ("maximize", SPECTRUM_MAX),
        ):
            for t1, t2, dphi in extremal_witnesses(c, objective):
                errors.append(abs(concurrence_function(t1, t2, dphi) - c))
                errors.append(abs(s_function(t1, t2, dphi) - target))
    return {"extremal-tightness": np.max(errors)}


def _check_threshold() -> dict[str, float]:
    c_star = concurrence_threshold()
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s_min_for_concurrence(mid) + 3.0 > 0.0:
            lo = mid
        else:
            hi = mid
    return {
        "threshold-solves-minus-3": abs(s_min_for_concurrence(c_star) - (-3.0)),
        "threshold-vs-bisection": abs(c_star - 0.5 * (lo + hi)),
    }


def _check_chsh() -> dict[str, float]:
    endpoint_errors = [abs(chsh_max(0.0) - 2.0), abs(chsh_max(1.0) - 2.0 * math.sqrt(2.0))]
    comp_errors = [
        abs(s_min_from_beta(chsh_max(c)) - s_min_for_concurrence(c)) for c in _C_GRID
    ]
    ratio_errors = []
    expected = (5.0 - 3.0 * SQRT5) / 2.0
    for beta in np.linspace(2.0 + 1e-9, 2.0 * math.sqrt(2.0), 64):
        ratio = (s_min_from_beta(float(beta)) + SQRT5) / math.sqrt(beta * beta - 4.0)
        ratio_errors.append(abs(ratio - expected))
    return {
        "chsh-endpoints": np.max(endpoint_errors),
        "chsh-smin-composition": np.max(comp_errors),
        "chsh-offset-proportionality": np.max(ratio_errors),
    }


# Every check group, in run order; only ``_check_samples`` takes the sampled
# angles, which it draws chunk by chunk as it checks them.
_GROUPS = (
    _check_samples,
    _check_concurrence_roundtrip,
    _check_operator_construction,
    _check_classical_bound,
    _check_extremal_oracle,
    _check_extremal_tightness,
    _check_threshold,
    _check_chsh,
)


def run_all_checks(samples: int = 1000, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every verification check on ``samples`` seeded random states."""
    samples, seed = _as_integer("samples", samples, 1), _as_integer("seed", seed, 0)
    chunks = _sample_chunks(samples, seed, _CHUNK)
    errors = {}
    for group in _GROUPS:
        try:
            errors.update(group(chunks) if group is _check_samples else group())
        except Exception as exc:
            print(f"error: {group.__name__} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return [
        CheckResult(name, float(errors.get(name, math.inf)), tolerance)
        for name, tolerance in _TOLERANCES.items()
    ]

"""Self-verification: every closed form checked against an independent route.

Each check reports its worst observed error against the tolerance it must
meet; the collection is what the ``verify`` CLI subcommand runs.  The
checks deliberately pair routes that share no code: closed forms against
the matrix expectation, the diagonal operator against the pentagram
construction, the linear minimum law against a constrained grid search,
and the threshold concurrence against bisection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import REGIME_EDGES, Regime
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
    _overlap_angles,
    _overlap_parts,
    _qutrit_rows,
    _sample_angles,
)

__all__ = ["CheckResult", "run_all_checks"]

_C_GRID = [k / 10.0 for k in range(11)]
# Largest error allowed the numeric extremal search against the closed forms,
# here and in the ``extremal --method both`` command.
_ORACLE_TOLERANCE = 1e-6

# Star pairs per batch of the sampled checks: memory stays flat in the
# sample count, and the arrays stay small enough for the CPU caches.
_CHUNK = 4096
# Azimuth by which global-phase-invariance turns both stars.
_PHASE_SHIFT = 0.7
_CONTEXTUAL = tuple(Regime).index(Regime.CONTEXTUAL_NONLOCAL)
# The sampled checks that report a largest error, with their tolerances,
# in the order in which :func:`_chunk_errors` returns the errors.
_SAMPLED_CHECKS = (
    ("qutrit-normalization", 1e-12),
    ("star-swap-symmetry", 1e-12),
    ("global-phase-invariance", 1e-12),
    ("f-range-and-overlap-roundtrip", 1e-12),
    ("s-four-way-equivalence", 1e-12),
    ("concurrence-equivalence", 1e-12),
    ("s-and-c-range", 1e-12),
    ("spectral-containment", 1e-12),
    ("smin-dominance", 1e-10),
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    max_error: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.max_error <= self.tolerance)


def _result(name: str, max_error: float, tolerance: float) -> CheckResult:
    return CheckResult(name=name, max_error=float(max_error), tolerance=tolerance)


def _chunk_errors(thetas: np.ndarray, phis: np.ndarray) -> tuple:
    """The ten sampled checks on one chunk of star angles: the largest error
    of each of ``_SAMPLED_CHECKS``, then the count of contextual states at
    or below the threshold concurrence."""
    t1, t2 = thetas[:, 0], thetas[:, 1]
    p1, p2 = phis[:, 0], phis[:, 1]
    v = _qutrit_rows(t1, p1, t2, p2)
    swapped = _qutrit_rows(t2, p2, t1, p1)
    # Normalized into [0, 2*pi) as BlochAngles normalizes a turned azimuth.
    shifted = (phis + _PHASE_SHIFT) % (2.0 * math.pi)
    w = _qutrit_rows(t1, shifted[:, 0], t2, shifted[:, 1])
    x, y, f = _overlap_parts(t1, t2, p1 - p2)
    c = concurrence_of_overlap(f)
    s = s_of_overlap(f, y)
    expectation = _expectation_rows(v, kcbs_operator_diagonal())
    # The closed forms only: the matrix expectation's range is spectral-containment's.
    closed = np.stack((s, s_of_parts(x, y), s_of_concurrence(c, y)))
    lowest, highest = closed.min(axis=0), closed.max(axis=0)
    contextual = np.digitize(s, REGIME_EDGES) == _CONTEXTUAL
    errors = (
        np.abs(_vdot_rows(v, v).real - 1.0),
        np.abs(v - swapped),
        np.abs(np.abs(v) ** 2 - np.abs(w) ** 2),
        np.maximum(np.abs(f) - 1.0, np.abs(np.cos(2.0 * _overlap_angles(f)) - f)),
        np.maximum(highest, expectation) - np.minimum(lowest, expectation),
        np.abs(c - _concurrence_rows(v)),
        np.maximum.reduce(
            (SPECTRUM_MIN - lowest, highest - SPECTRUM_MAX, -c, c - 1.0)
        ),
        np.maximum(SPECTRUM_MIN - expectation, expectation - SPECTRUM_MAX),
        np.maximum(s_min_of(c) - s, s - SPECTRUM_MAX),
    )
    violations = np.count_nonzero(contextual & (c <= concurrence_threshold() - 1e-10))
    return (*(float(np.max(e, initial=0.0)) for e in errors), violations)


def _check_samples(thetas: np.ndarray, phis: np.ndarray) -> list[CheckResult]:
    """Every check on the sampled star angles, batched over chunks of
    ``_CHUNK`` pairs; results in the order :func:`run_all_checks` splices
    them in.  Each result is a maximum or a sum over the pairs, so the
    chunking cannot change it."""
    per_chunk = [
        _chunk_errors(thetas[k : k + _CHUNK], phis[k : k + _CHUNK])
        for k in range(0, len(thetas), _CHUNK)
    ]
    *errors, violations = zip(*per_chunk)
    return [
        *(
            _result(name, np.max(chunk_errors), tolerance)
            for (name, tolerance), chunk_errors in zip(_SAMPLED_CHECKS, errors)
        ),
        _result("contextual-implies-entangled", float(sum(violations)), 0.0),
    ]


def _check_concurrence_roundtrip() -> CheckResult:
    err = 0.0
    for c in _C_GRID:
        err = max(err, abs(concurrence_of_overlap(f_from_concurrence(c)) - c))
    return _result("concurrence-roundtrip", err, 1e-12)


def _check_operator_construction() -> list[CheckResult]:
    diag = kcbs_operator_diagonal()
    frame = pentagram_vectors()
    built = kcbs_operator_from_frame(frame)
    cross_err = float(np.max(np.abs(built - diag)))

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
    rotated = frame.vectors @ rot.T
    rotation_err = float(np.max(np.abs(kcbs_operator_from_frame(rotated) - built)))
    return [
        _result("diag-vs-pentagram", cross_err, 1e-10),
        _result("frame-rotation-invariance", rotation_err, 1e-10),
    ]


def _check_classical_bound() -> list[CheckResult]:
    values = assignment_values()
    # Independent enumeration, written directly against the five-cycle sum.
    oracle = min(
        sum(x[j] * x[(j + 1) % 5] for j in range(5))
        for x in itertools.product((-1, 1), repeat=5)
    )
    return [
        _result("classical-bound-is-minus-3", abs(values.min() - (-3)), 0.0),
        _result("classical-bound-vs-oracle", abs(values.min() - oracle), 0.0),
    ]


def _check_extremal_oracle(grid_n: int, refine_iters: int) -> list[CheckResult]:
    min_err = 0.0
    max_err = 0.0
    for c in _C_GRID:
        found_min = numeric_extremal_search(c, "minimize", grid_n, refine_iters)
        min_err = max(min_err, abs(found_min.s_star - s_min_for_concurrence(c)))
        found_max = numeric_extremal_search(c, "maximize", grid_n, refine_iters)
        max_err = max(max_err, abs(found_max.s_star - SPECTRUM_MAX))
    return [
        _result("smin-numeric-oracle", min_err, _ORACLE_TOLERANCE),
        _result("smax-constancy", max_err, _ORACLE_TOLERANCE),
    ]


def _check_extremal_tightness() -> CheckResult:
    err = 0.0
    for c in _C_GRID:
        for objective, target in (
            ("minimize", s_min_for_concurrence(c)),
            ("maximize", SPECTRUM_MAX),
        ):
            witnesses = extremal_witnesses(c, objective)
            if not witnesses:
                return _result("extremal-tightness", math.inf, 1e-10)
            for t1, t2, dphi in witnesses:
                err = max(err, abs(concurrence_function(t1, t2, dphi) - c))
                err = max(err, abs(s_function(t1, t2, dphi) - target))
    return _result("extremal-tightness", err, 1e-10)


def _check_threshold() -> list[CheckResult]:
    c_star = concurrence_threshold()
    eq_err = abs(s_min_for_concurrence(c_star) - (-3.0))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s_min_for_concurrence(mid) + 3.0 > 0.0:
            lo = mid
        else:
            hi = mid
    bisect_err = abs(c_star - 0.5 * (lo + hi))
    return [
        _result("threshold-solves-minus-3", eq_err, 1e-12),
        _result("threshold-vs-bisection", bisect_err, 1e-10),
    ]


def _check_chsh() -> list[CheckResult]:
    endpoint_err = max(
        abs(chsh_max(0.0) - 2.0), abs(chsh_max(1.0) - 2.0 * math.sqrt(2.0))
    )
    comp_err = 0.0
    for c in _C_GRID:
        comp_err = max(
            comp_err, abs(s_min_from_beta(chsh_max(c)) - s_min_for_concurrence(c))
        )
    ratio_err = 0.0
    expected = (5.0 - 3.0 * SQRT5) / 2.0
    for beta in np.linspace(2.0 + 1e-9, 2.0 * math.sqrt(2.0), 64):
        ratio = (s_min_from_beta(float(beta)) + SQRT5) / math.sqrt(beta * beta - 4.0)
        ratio_err = max(ratio_err, abs(ratio - expected))
    return [
        _result("chsh-endpoints", endpoint_err, 1e-12),
        _result("chsh-smin-composition", comp_err, 1e-12),
        _result("chsh-offset-proportionality", ratio_err, 1e-10),
    ]


def run_all_checks(
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
    grid_n: int = 128,
    refine_iters: int = 8,
) -> list[CheckResult]:
    """Run every verification check on ``samples`` seeded random states."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1: got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative: got {seed}")
    *head, spectral, dominance, implication = _check_samples(
        *_sample_angles(samples, seed)
    )
    return [
        *head,
        _check_concurrence_roundtrip(),
        *_check_operator_construction(),
        *_check_classical_bound(),
        spectral,
        *_check_extremal_oracle(grid_n, refine_iters),
        _check_extremal_tightness(),
        *_check_threshold(),
        *_check_chsh(),
        dominance,
        implication,
    ]

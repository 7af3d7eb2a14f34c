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

from .classify import Regime, classify_s
from .extremal import (
    chsh_max,
    concurrence_threshold,
    extremal_witnesses,
    numeric_extremal_search,
    s_min_for_concurrence,
    s_min_from_beta,
)
from .measures import (
    concurrence_function,
    concurrence_msr,
    concurrence_of_overlap,
    concurrence_symmetric,
    expectation_value,
    f_from_concurrence,
    s_closed_form,
    s_function,
    s_rational_form,
    s_via_concurrence,
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
    BlochAngles,
    MsrPair,
    f_value,
    msr_to_qutrit,
    overlap_angle,
    sample_pairs,
)

__all__ = ["CheckResult", "run_all_checks"]

_C_GRID = [k / 10.0 for k in range(11)]


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


def _check_state_geometry(pairs: list[MsrPair]) -> list[CheckResult]:
    norm_err = 0.0
    swap_err = 0.0
    phase_err = 0.0
    f_err = 0.0
    for pair in pairs:
        v = msr_to_qutrit(pair).vector
        norm_err = max(norm_err, abs(float(np.vdot(v, v).real) - 1.0))
        swapped = MsrPair(pair.star2, pair.star1)
        swap_err = max(
            swap_err, float(np.max(np.abs(v - msr_to_qutrit(swapped).vector)))
        )
        shift = 0.7
        shifted = MsrPair(
            BlochAngles(pair.star1.theta, pair.star1.phi + shift),
            BlochAngles(pair.star2.theta, pair.star2.phi + shift),
        )
        w = msr_to_qutrit(shifted).vector
        phase_err = max(
            phase_err, float(np.max(np.abs(np.abs(v) ** 2 - np.abs(w) ** 2)))
        )
        f = f_value(pair)
        f_err = max(f_err, max(abs(f) - 1.0, 0.0))
        f_err = max(f_err, abs(math.cos(2.0 * overlap_angle(pair)) - f))
    return [
        _result("qutrit-normalization", norm_err, 1e-12),
        _result("star-swap-symmetry", swap_err, 1e-12),
        _result("global-phase-invariance", phase_err, 1e-12),
        _result("f-range-and-overlap-roundtrip", f_err, 1e-12),
    ]


def _check_equivalences(pairs: list[MsrPair]) -> list[CheckResult]:
    s_err = 0.0
    c_err = 0.0
    range_err = 0.0
    for pair in pairs:
        qutrit = msr_to_qutrit(pair)
        forms = (
            s_closed_form(pair),
            s_rational_form(pair),
            s_via_concurrence(pair),
            expectation_value(qutrit),
        )
        c = concurrence_msr(pair)
        s_err = max(s_err, max(forms) - min(forms))
        c_err = max(c_err, abs(c - concurrence_symmetric(qutrit)))
        range_err = max(
            range_err,
            SPECTRUM_MIN - min(forms),
            max(forms) - SPECTRUM_MAX,
            -c,
            c - 1.0,
            0.0,
        )
    return [
        _result("s-four-way-equivalence", s_err, 1e-12),
        _result("concurrence-equivalence", c_err, 1e-12),
        _result("s-and-c-range", range_err, 1e-12),
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


def _check_spectral_containment(pairs: list[MsrPair]) -> CheckResult:
    err = 0.0
    op = kcbs_operator_diagonal()
    for pair in pairs:
        value = expectation_value(msr_to_qutrit(pair), op)
        err = max(err, SPECTRUM_MIN - value, value - SPECTRUM_MAX, 0.0)
    return _result("spectral-containment", err, 1e-12)


def _check_extremal_oracle(grid_n: int, refine_iters: int) -> list[CheckResult]:
    min_err = 0.0
    max_err = 0.0
    for c in _C_GRID:
        found_min = numeric_extremal_search(c, "minimize", grid_n, refine_iters)
        min_err = max(min_err, abs(found_min.s_star - s_min_for_concurrence(c)))
        found_max = numeric_extremal_search(c, "maximize", grid_n, refine_iters)
        max_err = max(max_err, abs(found_max.s_star - SPECTRUM_MAX))
    return [
        _result("smin-numeric-oracle", min_err, 1e-6),
        _result("smax-constancy", max_err, 1e-6),
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


def _check_dominance(pairs: list[MsrPair]) -> list[CheckResult]:
    dom_err = 0.0
    threshold = concurrence_threshold()
    violations = 0
    for pair in pairs:
        s = s_closed_form(pair)
        c = concurrence_msr(pair)
        dom_err = max(dom_err, s_min_for_concurrence(c) - s, s - SPECTRUM_MAX, 0.0)
        if (
            classify_s(s) is Regime.CONTEXTUAL_NONLOCAL
            and c <= threshold - 1e-10
        ):
            violations += 1
    return [
        _result("smin-dominance", dom_err, 1e-10),
        _result("contextual-implies-entangled", float(violations), 0.0),
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
    pairs = sample_pairs(samples, seed=seed)
    results: list[CheckResult] = []
    results.extend(_check_state_geometry(pairs))
    results.extend(_check_equivalences(pairs))
    results.append(_check_concurrence_roundtrip())
    results.extend(_check_operator_construction())
    results.extend(_check_classical_bound())
    results.append(_check_spectral_containment(pairs))
    results.extend(_check_extremal_oracle(grid_n, refine_iters))
    results.append(_check_extremal_tightness())
    results.extend(_check_threshold())
    results.extend(_check_chsh())
    results.extend(_check_dominance(pairs))
    return results

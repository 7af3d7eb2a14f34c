"""Extremes of the five-cycle expectation at fixed concurrence.

At constant concurrence c the minimum of S is linear,

    S_min(c) = (5 - 3 sqrt(5)) c - sqrt(5),

running from -sqrt(5) at c = 0 (the bound for separable states) down to
5 - 4 sqrt(5) at c = 1, while the maximum is the constant 2 sqrt(5) - 5
for every c.  S_min crosses the non-contextuality bound -3 at
c = 1/sqrt(5), so states violating the five-cycle inequality are
necessarily entangled beyond that threshold.

The closed forms come with the stationary polar-angle sets that attain
them, an independent constrained grid search used as a numerical oracle,
and the companion relation to the maximal CHSH violation
beta = 2 sqrt(1 + c^2), through which S_min + sqrt(5) is proportional to
-sqrt(beta^2 - 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .measures import _validate_concurrence, f_from_concurrence
from .observables import SPECTRUM_MAX, SQRT5
from .states import _as_integer

__all__ = [
    "ExtremalResult",
    "LOCAL_BOUND",
    "chsh_max",
    "concurrence_threshold",
    "extremal_witnesses",
    "numeric_extremal_search",
    "s_max_for_concurrence",
    "s_min_for_concurrence",
    "s_min_from_beta",
]

Objective = Literal["minimize", "maximize"]

# Minimum of S attainable without entanglement: s_min_for_concurrence(0).
LOCAL_BOUND = -SQRT5

_FEASIBILITY_SLACK = 1e-12

# Half-width of the band around a feasibility bound in which the search
# re-decides a cell with np.cos: cos a cos b -/+ sin a sin b as the matmul of
# _trig_grids forms it differs from np.cos(a +/- b) by at most 6.7e-16 (3 ulp
# of 1) over the first stage and 400 seeded refine windows, with OpenBLAS's
# fused multiply-add kernel (SkylakeX) and without one (Prescott), 150 times
# less than the guard.
_COS_GUARD = 1e-13

# Width by which the search widens the plain inverse of S = (P + 1.0) * coef
# + const toward worse S before it compares P with it: for every c, coef is
# in [1.71, 3.42], and the last P whose rounded S is no worse than a bound
# lay at most 4.4e-16 (2 ulp of 1) from the inverse over 1.7 million seeded
# and fuzzed bounds, 225 times less than the guard.
_EDGE_GUARD = 1e-13


def s_min_of(c):
    """The minimum law (5 - 3 sqrt(5)) c - sqrt(5); floats or numpy arrays."""
    return (5.0 - 3.0 * SQRT5) * c - SQRT5


def s_min_for_concurrence(c: float) -> float:
    """Minimum five-cycle expectation at concurrence ``c``: (5 - 3 sqrt(5)) c - sqrt(5)."""
    _validate_concurrence(c)
    return s_min_of(c)


def s_max_for_concurrence(c: float) -> float:
    """Maximum five-cycle expectation at concurrence ``c``.

    The constant 2 sqrt(5) - 5, independent of the concurrence.
    """
    _validate_concurrence(c)
    return SPECTRUM_MAX


def extremal_witnesses(
    c: float, objective: Objective = "minimize"
) -> list[tuple[float, float, float]]:
    """Angle triples (theta1, theta2, delta_phi) attaining the extremum at ``c``.

    With a = arccos((1 - 3c)/(1 + c)), the minimum's stationary theta2 are
    (pi +/- a)/2, each with theta1 = pi - theta2, and the maximum's is a/2
    in [0, pi/2], with theta1 = theta2.  The negative root -a/2 of the
    maximum's stationarity relation is no polar angle: a star at -theta2 is
    the star at theta2 with its azimuth turned by pi, so it adds no state.
    On these theta the gap to the extremum is zero at one delta_phi only:
    0 for the minimum and pi for the maximum.  A star exactly at a pole
    (theta in {0, pi}) has no azimuth, so there both delta_phi in {0, pi}
    are witnesses.  theta1 and theta2 lie in [0, pi].
    """
    _validate_objective(objective)
    a = math.acos(f_from_concurrence(c))
    if objective == "minimize":
        roots = ((math.pi + a) / 2.0, (math.pi - a) / 2.0)
        candidates, gap_zero = [(math.pi - r, r) for r in roots], 0.0
    else:
        candidates, gap_zero = [(a / 2.0, a / 2.0)], math.pi
    witnesses = [(t1, t2, dphi) for t1, t2 in candidates for dphi in (0.0, math.pi)
                 if dphi == gap_zero or {t1, t2} & {0.0, math.pi}]
    return list(dict.fromkeys(witnesses))


@dataclass(frozen=True)
class ExtremalResult:
    """Best value and witness angles found by the constrained search."""

    s_star: float
    theta1: float
    theta2: float
    delta_phi: float
    objective: Objective


def _validate_objective(objective: str) -> None:
    if objective not in ("minimize", "maximize"):
        raise ValueError(f"objective must be 'minimize' or 'maximize': got {objective!r}")


def _sides_in_reach(lo1, hi1, lo2, hi2, upper, lower) -> tuple[bool, bool]:
    """Whether a cell of the window (lo1, hi1) x (lo2, hi2) may fail, or lie
    within ``_COS_GUARD`` of, each feasibility bound of
    :func:`numeric_extremal_search`: (sum side, difference side).

    Over the window t1 + t2 runs in [lo1 + lo2, hi1 + hi2] inside [0, 2 pi],
    where cos is largest at an end, and t1 - t2 in [lo1 - hi2, hi1 - lo2]
    inside [-pi, pi], where cos is smallest at the end farthest from 0.  A
    side is out of reach when its bound lies more than 2 * ``_COS_GUARD``
    beyond that extreme: the roundings of math.cos, np.cos and the product
    form, each a few ulp of 1, leave every cell more than ``_COS_GUARD``
    inside the bound, so the side's test passes every cell and puts none in
    the band.  An infinite guard puts every side in reach.
    """
    margin = 2.0 * _COS_GUARD
    sum_top = max(math.cos(lo1 + lo2), math.cos(hi1 + hi2))
    diff_bottom = math.cos(max(abs(lo1 - hi2), abs(hi1 - lo2)))
    return sum_top >= upper - margin, diff_bottom <= lower + margin


def _trig_grids(grid_n: int):
    """The grids of a stage of :func:`numeric_extremal_search`, from one matmul.

    Returns ``grids(ax1, ax2, sum_side, diff_side)``, which gives the
    (grid_n, grid_n) views (cos(t1 + t2), P, cos(t1 - t2)) over the axes,
    None for a side not asked for; each call overwrites the last one's.
    The column-major left operand holds three row blocks, [cos t1, -sin t1],
    [cos t1, 0] and [cos t1, sin t1], and the right one [cos t2; sin t2], so
    their product is cos t1 cos t2 -/+ sin t1 sin t2 in the outer blocks and
    P = cos t1 cos t2 in the middle one.  A call multiplies only the blocks
    asked for, which lie together around the middle one.  The zero column
    makes each P the one rounding of cos t1 cos t2 (a product of -0.0 may
    come out +0.0); the sides may round as a fused multiply-add.
    """
    lhs = np.zeros((3 * grid_n, 2), order="F")
    cos1, sin1 = lhs[:, 0].reshape(3, grid_n), lhs[:, 1].reshape(3, grid_n)
    rhs = np.empty((2, grid_n))
    out = np.empty((3, grid_n, grid_n))

    def grids(ax1, ax2, sum_side, diff_side):
        np.copyto(cos1, np.cos(ax1))
        np.negative(np.sin(ax1, out=sin1[2]), out=sin1[0])
        np.cos(ax2, out=rhs[0])
        np.sin(ax2, out=rhs[1])
        first, stop = (0 if sum_side else 1), (3 if diff_side else 2)
        rows = slice(first * grid_n, stop * grid_n)
        np.matmul(lhs[rows], rhs, out=out[first:stop].reshape(-1, grid_n))
        return (out[0] if sum_side else None, out[1], out[2] if diff_side else None)

    return grids


def numeric_extremal_search(
    c: float,
    objective: Objective = "minimize",
    grid_n: int = 128,
    refine_iters: int = 8,
) -> ExtremalResult:
    """Constrained grid search for the extremum of S at fixed concurrence.

    Scans (theta1, theta2) cell centers on a grid_n x grid_n grid over
    (0, pi)^2, keeping cells where some delta_phi realizes the concurrence,
    then refines around the best cell with windows shrinking by 1/4 per
    iteration.  Independent of the closed forms above, hence usable as
    their oracle.  Deterministic: ties are broken toward the lowest
    (theta1, theta2) in lexicographic order.

    On the constraint surface f is pinned at (1 - 3c)/(1 + c), so
    feasibility of a cell is exactly |cos(delta_phi)| <= 1, which is
    evaluated in the well-conditioned equivalent form
    cos(theta1 + theta2) <= f <= cos(theta1 - theta2), each side with a
    slack of 1e-12.

    A stage forms P = cos(theta1) cos(theta2), which S needs anyway, and
    cos(theta1 -/+ theta2) = P +/- sin(theta1) sin(theta2) in one BLAS
    matrix product of rank 2 (:func:`_trig_grids`), so it calls np.cos and
    np.sin on its two axes of grid_n values, not on its cells, and makes no
    other pass to build its grids.  Each P is the one rounding of its
    product, as an outer product rounds it; a product of -0.0 may come out
    +0.0, which neither a comparison nor S can tell apart.  The sides differ
    from np.cos(theta1 +/- theta2) by a few ulp, which depend on whether the
    BLAS kernel fuses the multiply-add, so the product form decides a cell
    only where both sides lie farther than ``_COS_GUARD`` (1e-13) from their
    bounds.  A cell inside that band that passes the test on S below is
    re-decided with np.cos(theta1 +/- theta2), so every cell gets the
    decision np.cos would give it, whatever the kernel.  A side whose bound
    lies more than 2 * ``_COS_GUARD`` beyond every cell of the stage's
    window (:func:`_sides_in_reach`) passes every cell and puts none in the
    band, so the stage skips it: its block of the product, its two compares
    and its and/or.  A minimum's refine windows sit on the difference bound
    (delta_phi = 0) and a maximum's on the sum bound (delta_phi = pi), so
    each skips the side it is not on.  Cells in the band still get both
    np.cos tests.

    A stage picks no cell whose S is worse than the best found so far (the
    first stage has no best, so every feasible cell counts).  The result is
    that of picking from every feasible cell: a worse cell could never
    replace the best, and every cell holding the stage's extreme value is
    decided, so the lowest-index tie-break holds.  This test, too, is a
    cheap one with a guard band and an exact one.  S = (P + 1.0) * coef +
    const rises with P, so the cheap test compares P with the plain inverse
    (best - const) / coef - 1.0, widened by ``_EDGE_GUARD`` (1e-13) toward
    worse S: with coef in [1.71, 3.42] the roundings of S and the inverse
    move the edge by a few ulp of 1, so every cell whose S is no worse
    passes, and perhaps a few just worse.  The stage computes S only on the
    cells that pass, in ascending flat order by np.flatnonzero, so argmin /
    argmax return the lowest index, and tests the extreme S exactly: if it
    is worse than the best, every cell is; if not, it and its first index
    lie among the cells no worse than the best.
    """
    f_t = f_from_concurrence(c)
    _validate_objective(objective)
    grid_n = _as_integer("grid_n", grid_n, 16)
    refine_iters = _as_integer("refine_iters", refine_iters, 0)

    # Own affine S: an oracle shares no code with measures; its rounding picks the printed witness.
    s_coef = 4.0 * (3.0 * SQRT5 - 5.0) / (f_t + 3.0)
    s_const = 5.0 - 4.0 * SQRT5
    minimizing = objective == "minimize"
    no_worse = np.less_equal if minimizing else np.greater_equal
    widen = _EDGE_GUARD if minimizing else -_EDGE_GUARD  # toward worse S
    pick = np.argmin if minimizing else np.argmax
    worst = math.inf if minimizing else -math.inf

    # Feasible: cos(t1 + t2) <= upper and cos(t1 - t2) >= lower.
    upper = f_t + _FEASIBILITY_SLACK
    lower = f_t - _FEASIBILITY_SLACK

    # Work arrays shared by the stages: a stage allocates no grid-sized temporary.
    centers = np.arange(grid_n) + 0.5
    grids = _trig_grids(grid_n)
    keep = np.empty((grid_n, grid_n), dtype=bool)
    band = np.empty((grid_n, grid_n), dtype=bool)
    test = np.empty((grid_n, grid_n), dtype=bool)

    def stage(lo1, hi1, lo2, hi2, bound):
        ax1 = lo1 + centers * (hi1 - lo1) / grid_n
        ax2 = lo2 + centers * (hi2 - lo2) / grid_n
        sum_in_reach, diff_in_reach = _sides_in_reach(lo1, hi1, lo2, hi2, upper, lower)
        cos_sum, p, cos_diff = grids(ax1, ax2, sum_in_reach, diff_in_reach)
        # keep: S perhaps no worse than the bound, on P (S rises with P), and
        # the product form may pass; near: it lies within the guard of a bound.
        no_worse(p, (bound - s_const) / s_coef - 1.0 + widen, out=keep)
        near = None
        if sum_in_reach:
            np.less_equal(cos_sum, upper + _COS_GUARD, out=test)
            np.logical_and(keep, test, out=keep)
            near = np.greater_equal(cos_sum, upper - _COS_GUARD, out=band)
        if diff_in_reach:
            np.greater_equal(cos_diff, lower - _COS_GUARD, out=test)
            np.logical_and(keep, test, out=keep)
            np.less_equal(cos_diff, lower + _COS_GUARD, out=test)
            near = test if near is None else np.logical_or(near, test, out=near)
        if near is not None and np.logical_and(near, keep, out=near).any():
            i, j = np.nonzero(near)
            t1, t2 = ax1[i], ax2[j]
            keep[i, j] = (np.cos(t1 + t2) <= upper) & (np.cos(t1 - t2) >= lower)
        cells = np.flatnonzero(keep)
        if not cells.size:
            return None
        # s_coef * (cos t1 cos t2 + 1.0) + s_const on the kept cells, in ascending
        # flat order, so pick's first extreme is the lowest-index one.
        s = (p.ravel()[cells] + 1.0) * s_coef + s_const
        k = int(pick(s))
        if not no_worse(s[k], bound):  # the exact test: every kept S is worse
            return None
        i, j = divmod(int(cells[k]), grid_n)
        return float(s[k]), float(ax1[i]), float(ax2[j])

    best = stage(0.0, math.pi, 0.0, math.pi, worst)  # no bound: every cell is tested
    if best is None:
        # Every concurrence in [0, 1] is attainable, so this is defensive.
        raise RuntimeError(f"no feasible grid cell for concurrence {c}")
    half = math.pi / grid_n
    for _ in range(refine_iters):
        s_best, t1, t2 = best
        candidate = stage(
            max(0.0, t1 - half),
            min(math.pi, t1 + half),
            max(0.0, t2 - half),
            min(math.pi, t2 + half),
            s_best,
        )
        if candidate is not None:
            best = candidate
        half *= 0.25

    s_star, t1, t2 = best
    cos_dphi = (f_t - math.cos(t1) * math.cos(t2)) / (math.sin(t1) * math.sin(t2))
    delta_phi = math.acos(min(1.0, max(-1.0, cos_dphi)))
    return ExtremalResult(s_star, t1, t2, delta_phi, objective)


def chsh_max(c: float) -> float:
    """Maximal CHSH expectation 2 sqrt(1 + c^2) at concurrence ``c``.

    Ranges from the local bound 2 at c = 0 to 2 sqrt(2) at c = 1.
    """
    _validate_concurrence(c)
    return 2.0 * math.sqrt(1.0 + c * c)


def s_min_from_beta(beta: float) -> float:
    """Minimum five-cycle expectation at the concurrence whose maximal CHSH
    value is ``beta``.

    Composition of beta = 2 sqrt(1 + c^2) with S_min(c); the offset
    result + sqrt(5) equals (5 - 3 sqrt(5))/2 * sqrt(beta^2 - 4), i.e. a
    negative multiple of sqrt(beta^2 - 4).
    """
    if not 2.0 <= beta <= 2.0 * math.sqrt(2.0):
        raise ValueError(f"beta out of [2, 2*sqrt(2)]: got {beta}")
    return s_min_of(math.sqrt(max(0.0, beta * beta - 4.0)) / 2.0)


def concurrence_threshold() -> float:
    """Concurrence 1/sqrt(5) at which S_min reaches the bound -3.

    Every state violating the five-cycle inequality has concurrence above
    this value.
    """
    return 1.0 / SQRT5

"""Tests for the extremal values of S at fixed concurrence and the CHSH link."""

import json
import math
import os
import subprocess
import sys
from dataclasses import astuple
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcbs_msr import (
    concurrence_function,
    concurrence_msr,
    chsh_max,
    concurrence_threshold,
    extremal_witnesses,
    numeric_extremal_search,
    s_closed_form,
    s_function,
    s_max_for_concurrence,
    s_min_for_concurrence,
    s_min_from_beta,
    sample_pairs,
)
from kcbs_msr import extremal
from kcbs_msr.checks import _C_GRID, _check_extremal_oracle
from kcbs_msr.extremal import (
    _FEASIBILITY_SLACK,
    ExtremalResult,
    _validate_objective,
)
from kcbs_msr.measures import _validate_concurrence, f_from_concurrence

SQRT5 = math.sqrt(5.0)
PI = math.pi
C_GRID = [k / 10.0 for k in range(11)]


class TestClosedForms:
    def test_separable_minimum(self):
        assert s_min_for_concurrence(0.0) == pytest.approx(-SQRT5, abs=1e-15)

    def test_maximally_entangled_minimum(self):
        assert s_min_for_concurrence(1.0) == pytest.approx(
            5.0 - 4.0 * SQRT5, abs=1e-12
        )

    def test_threshold_concurrence_hits_classical_bound(self):
        assert s_min_for_concurrence(1.0 / SQRT5) == pytest.approx(-3.0, abs=1e-12)

    def test_linearity(self):
        slope = 5.0 - 3.0 * SQRT5
        for c1, c2 in zip(C_GRID, C_GRID[1:]):
            delta = s_min_for_concurrence(c2) - s_min_for_concurrence(c1)
            assert delta == pytest.approx(slope * (c2 - c1), abs=1e-12)

    def test_maximum_constant(self):
        for c in C_GRID:
            assert s_max_for_concurrence(c) == 2.0 * SQRT5 - 5.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_invalid_concurrence(self, bad):
        with pytest.raises(ValueError):
            s_min_for_concurrence(bad)
        with pytest.raises(ValueError):
            s_max_for_concurrence(bad)


class TestThetaSets:
    # The (theta1, theta2) of the stationary roots: (pi +/- a)/2 with
    # theta1 = pi - theta2 for the minimum, a/2 twice for the maximum.
    @pytest.mark.parametrize(
        ("c", "objective", "expected"),
        [
            (1.0, "minimize", {(0.0, PI), (PI, 0.0)}),
            (1.0, "maximize", {(PI / 2.0, PI / 2.0)}),
            (0.0, "minimize", {(PI / 2.0, PI / 2.0)}),
            (0.0, "maximize", {(0.0, 0.0)}),
            (1.0 / 3.0, "minimize", {(PI / 4.0, 3.0 * PI / 4.0), (3.0 * PI / 4.0, PI / 4.0)}),
            (1.0 / 3.0, "maximize", {(PI / 4.0, PI / 4.0)}),
        ],
        ids=["c1-min", "c1-max", "c0-min", "c0-max", "c1third-min", "c1third-max"],
    )
    def test_witness_theta_sets(self, c, objective, expected):
        thetas = {(t1, t2) for t1, t2, _ in extremal_witnesses(c, objective)}
        assert len(thetas) == len(expected)
        for want in expected:
            assert any(
                got == pytest.approx(want, abs=1e-12) for got in thetas
            ), (want, thetas)

    def test_witnesses_are_polar_angles(self):
        # eval and classify accept every printed witness.
        for c in C_GRID:
            for objective in ("minimize", "maximize"):
                for t1, t2, _ in extremal_witnesses(c, objective):
                    assert 0.0 <= t1 <= math.pi
                    assert 0.0 <= t2 <= math.pi

    def test_witness_tightness(self):
        for c in C_GRID:
            for objective, target in (
                ("minimize", s_min_for_concurrence(c)),
                ("maximize", 2.0 * SQRT5 - 5.0),
            ):
                witnesses = extremal_witnesses(c, objective)
                assert witnesses
                for t1, t2, dphi in witnesses:
                    assert concurrence_function(t1, t2, dphi) == pytest.approx(
                        c, abs=1e-10
                    )
                    assert s_function(t1, t2, dphi) == pytest.approx(
                        target, abs=1e-10
                    )

    @pytest.mark.parametrize("c", [1e-10, 2e-10, 1.0 - 1e-10, 1.0 - 9e-10])
    @pytest.mark.parametrize("objective", ["minimize", "maximize"])
    def test_witnesses_reproduce_c_near_the_ends(self, c, objective):
        # Near the ends the delta_phi off the gap's zero set gives a C within
        # 1e-9 of c, but no witness.  The true witnesses measured at most
        # 1.1e-16, one ulp of a c just below 1; the bound allows two.
        witnesses = extremal_witnesses(c, objective)
        assert witnesses
        for t1, t2, dphi in witnesses:
            assert abs(concurrence_function(t1, t2, dphi) - c) <= 2.3e-16


class TestNumericSearch:
    def test_separable_minimum(self):
        result = numeric_extremal_search(0.0, "minimize", 128, 8)
        assert result.s_star == pytest.approx(-SQRT5, abs=1e-6)

    def test_maximally_entangled_minimum(self):
        result = numeric_extremal_search(1.0, "minimize", 128, 8)
        assert result.s_star == pytest.approx(5.0 - 4.0 * SQRT5, abs=1e-6)

    def test_half_concurrence_maximum(self):
        result = numeric_extremal_search(0.5, "maximize", 128, 8)
        assert result.s_star == pytest.approx(2.0 * SQRT5 - 5.0, abs=1e-6)

    def test_witness_consistency(self):
        result = numeric_extremal_search(0.3, "minimize")
        assert concurrence_function(
            result.theta1, result.theta2, result.delta_phi
        ) == pytest.approx(0.3, abs=1e-6)
        assert s_function(
            result.theta1, result.theta2, result.delta_phi
        ) == pytest.approx(result.s_star, abs=1e-6)

    def test_deterministic(self):
        assert numeric_extremal_search(0.7, "minimize") == numeric_extremal_search(
            0.7, "minimize"
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            numeric_extremal_search(2.0, "minimize")
        with pytest.raises(ValueError):
            numeric_extremal_search(0.5, "shrink")

    @pytest.mark.parametrize(
        "argument, value, error, message",
        [
            ("grid_n", 8, ValueError, "grid_n must be at least 16: got 8"),
            ("grid_n", 128.0, TypeError, "grid_n must be an integer: got 128.0"),
            ("refine_iters", -1, ValueError, "refine_iters must be non-negative: got -1"),
            ("refine_iters", "3", TypeError, "refine_iters must be an integer: got '3'"),
        ],
    )
    def test_integer_argument_is_named(self, argument, value, error, message):
        with pytest.raises(error) as raised:
            numeric_extremal_search(0.5, "minimize", **{argument: value})
        assert str(raised.value) == message

    def test_accepts_numpy_integers(self):
        found = numeric_extremal_search(0.5, "minimize", np.int64(33), np.int64(3))
        assert found == numeric_extremal_search(0.5, "minimize", 33, 3)


def reference_search(c, objective="minimize", grid_n=128, refine_iters=8):
    """The grid search as it was before its refine stages were pruned: every
    stage tests all grid_n x grid_n cells.  Kept verbatim as the reference
    that numeric_extremal_search must equal bit for bit."""
    _validate_concurrence(c)
    _validate_objective(objective)
    if grid_n < 16:
        raise ValueError(f"grid_n must be at least 16: got {grid_n}")
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be non-negative: got {refine_iters}")

    f_t = f_from_concurrence(c)
    s_coef = 4.0 * (3.0 * SQRT5 - 5.0) / (f_t + 3.0)
    s_const = 5.0 - 4.0 * SQRT5
    minimizing = objective == "minimize"

    def stage(lo1, hi1, lo2, hi2):
        ax1 = lo1 + (np.arange(grid_n) + 0.5) * (hi1 - lo1) / grid_n
        ax2 = lo2 + (np.arange(grid_n) + 0.5) * (hi2 - lo2) / grid_n
        t1, t2 = np.meshgrid(ax1, ax2, indexing="ij")
        feasible = (np.cos(t1 + t2) <= f_t + _FEASIBILITY_SLACK) & (
            np.cos(t1 - t2) >= f_t - _FEASIBILITY_SLACK
        )
        if not feasible.any():
            return None
        s = s_coef * (np.cos(t1) * np.cos(t2) + 1.0) + s_const
        if minimizing:
            flat = np.where(feasible, s, np.inf)
            k = int(np.argmin(flat))
        else:
            flat = np.where(feasible, s, -np.inf)
            k = int(np.argmax(flat))
        i, j = divmod(k, grid_n)
        return float(s[i, j]), float(t1[i, j]), float(t2[i, j])

    best = stage(0.0, math.pi, 0.0, math.pi)
    if best is None:
        raise RuntimeError(f"no feasible grid cell for concurrence {c}")
    half = math.pi / grid_n
    for _ in range(refine_iters):
        _, t1, t2 = best
        candidate = stage(
            max(0.0, t1 - half),
            min(math.pi, t1 + half),
            max(0.0, t2 - half),
            min(math.pi, t2 + half),
        )
        if candidate is not None:
            better = candidate[0] <= best[0] if minimizing else candidate[0] >= best[0]
            if better:
                best = candidate
        half *= 0.25

    s_star, t1, t2 = best
    cos_dphi = (f_t - math.cos(t1) * math.cos(t2)) / (math.sin(t1) * math.sin(t2))
    delta_phi = math.acos(min(1.0, max(-1.0, cos_dphi)))
    return ExtremalResult(s_star, t1, t2, delta_phi, objective)


# c at the ends of [0, 1], the smallest subnormal and the threshold 1/sqrt(5).
EDGE_C = [0.0, 5e-324, 1.0 / SQRT5, math.nextafter(1.0, 0.0), 1.0]
SEEDED_C = np.random.default_rng(20231).uniform(0.0, 1.0, 200).tolist()
# c whose stages put cells inside the guard band of the feasibility test
# (17 to 201 cells a search at grid 128, for one or both objectives).
BAND_C = [1e-12, 1e-8, 0.999999999999]


class TestSearchAgainstReference:
    @pytest.mark.parametrize("grid_n, refine_iters", [(128, 8), (16, 0), (33, 3)])
    @pytest.mark.parametrize("objective", ["minimize", "maximize"])
    def test_equal_to_the_full_grid_search(self, objective, grid_n, refine_iters):
        for c in _C_GRID + EDGE_C + SEEDED_C:
            found = numeric_extremal_search(c, objective, grid_n, refine_iters)
            assert found == reference_search(c, objective, grid_n, refine_iters), c

    @pytest.mark.parametrize("grid_n, refine_iters", [(128, 8), (16, 0), (33, 3), (24, 3)])
    @pytest.mark.parametrize("objective", ["minimize", "maximize"])
    def test_band_c_equal_to_the_full_grid_search(self, objective, grid_n, refine_iters):
        for c in BAND_C:
            found = numeric_extremal_search(c, objective, grid_n, refine_iters)
            assert found == reference_search(c, objective, grid_n, refine_iters), c

    @pytest.mark.parametrize(
        "c, objective, grid_n, refine_iters",
        [
            # every refine stage ties the first stage's best value
            (0.0, "minimize", 33, 3),
            (1.0, "maximize", 33, 3),
            # every refine stage finds only worse feasible cells
            (0.8130192582033445, "minimize", 24, 3),
            (0.6726210902105313, "maximize", 24, 3),
        ],
    )
    def test_no_refine_stage_improves(self, c, objective, grid_n, refine_iters):
        first = reference_search(c, objective, grid_n, 0)
        found = numeric_extremal_search(c, objective, grid_n, refine_iters)
        assert found == reference_search(c, objective, grid_n, refine_iters)
        assert found.s_star == first.s_star


class TestCosGuard:
    @pytest.mark.parametrize("guard", [math.inf, 0.0])
    @pytest.mark.parametrize("objective", ["minimize", "maximize"])
    def test_guard_width_does_not_change_the_result(self, monkeypatch, guard, objective):
        # inf: np.cos decides every cell; 0.0: the product form decides
        # every cell off the bounds themselves.  An infinite _EDGE_GUARD
        # tests the exact S of every feasible cell.
        cs = _C_GRID + EDGE_C + BAND_C
        expected = [numeric_extremal_search(c, objective) for c in cs]
        monkeypatch.setattr(extremal, "_COS_GUARD", guard)
        monkeypatch.setattr(extremal, "_EDGE_GUARD", math.inf)
        assert [numeric_extremal_search(c, objective) for c in cs] == expected

    def test_product_form_error_is_far_inside_the_guard(self):
        # The one matmul of _trig_grids, as the search forms it, over the
        # first stage's window and seeded refine windows of every size; its
        # P block is the outer product einsum writes.
        grid_n = 128
        centers = np.arange(grid_n) + 0.5
        grids = extremal._trig_grids(grid_n)
        worst = 0.0
        for lo1, hi1, lo2, hi2 in guard_windows(grid_n):
            ax1 = lo1 + centers * (hi1 - lo1) / grid_n
            ax2 = lo2 + centers * (hi2 - lo2) / grid_n
            cos_sum, p, cos_diff = grids(ax1, ax2, True, True)
            assert np.array_equal(p, np.einsum("i,j->ij", np.cos(ax1), np.cos(ax2)))
            worst = max(
                worst,
                np.max(np.abs(cos_sum - np.cos(ax1[:, None] + ax2))),
                np.max(np.abs(cos_diff - np.cos(ax1[:, None] - ax2))),
            )
        assert worst < extremal._COS_GUARD / 100


def guard_windows(grid_n=128):
    """The first stage's window and 400 seeded refine windows of every size."""
    rng = np.random.default_rng(7)
    windows = [(0.0, math.pi, 0.0, math.pi)]
    for k in range(400):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        half = math.pi / grid_n * 0.25 ** (k % 8)
        windows.append(
            (max(0.0, t1 - half), min(math.pi, t1 + half), max(0.0, t2 - half), min(math.pi, t2 + half))
        )
    return windows


class SideCounter:
    """numpy as ``extremal`` sees it, recording each stage's one np.matmul:
    its row count and the feasibility sides it forms.  Each grid_n-row block
    of the left operand is named by the sign of its sin t1 column, which is
    positive at every cell center: - the sum side, 0 P, + the difference
    side."""

    def __init__(self):
        self.rows = []
        self.stages = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, lhs, rhs, **kwargs):
        grid_n = rhs.shape[1]
        self.rows.append(lhs.shape[0])
        signs = np.sign(lhs[::grid_n, 1])
        self.stages.append("".join("s" if sign < 0 else "d" for sign in signs if sign))
        return np.matmul(lhs, rhs, **kwargs)


class TestSidesInReach:
    """A stage skips the feasibility side whose bound lies more than
    2 * ``_COS_GUARD`` beyond every cell of its window."""

    def test_skipped_side_is_far_inside_its_bound(self, monkeypatch):
        # The bounds of each c, and per window bounds up to three guards
        # beyond the extreme of cos(t1 +/- t2) at its ends, where the rule
        # is tightest.  Besides the seeded windows, the oracle's 198: 14 put
        # a cell within 1e-13 of the sum's extreme and 14 of the
        # difference's, since they sit where that cos is flat.
        rule, oracle_windows = extremal._sides_in_reach, []

        def spy(lo1, hi1, lo2, hi2, upper, lower):
            oracle_windows.append((lo1, hi1, lo2, hi2))
            return rule(lo1, hi1, lo2, hi2, upper, lower)

        monkeypatch.setattr(extremal, "_sides_in_reach", spy)
        _check_extremal_oracle()
        monkeypatch.undo()
        grid_n = 128
        centers = np.arange(grid_n) + 0.5
        guard = extremal._COS_GUARD
        grids = extremal._trig_grids(grid_n)
        c_bounds = [
            (f + _FEASIBILITY_SLACK, f - _FEASIBILITY_SLACK)
            for f in map(f_from_concurrence, _C_GRID + EDGE_C + BAND_C)
        ]
        skipped = {"c": 0, "margin": 0}
        windows = guard_windows(grid_n) + oracle_windows
        for lo1, hi1, lo2, hi2 in windows:
            ax1 = lo1 + centers * (hi1 - lo1) / grid_n
            ax2 = lo2 + centers * (hi2 - lo2) / grid_n
            cos_sum, _, cos_diff = grids(ax1, ax2, True, True)
            sum_top = max(math.cos(lo1 + lo2), math.cos(hi1 + hi2))
            diff_bottom = math.cos(max(abs(lo1 - hi2), abs(hi1 - lo2)))
            margin_bounds = [
                (
                    math.nextafter(sum_top + k * guard, math.inf),
                    math.nextafter(diff_bottom - k * guard, -math.inf),
                )
                for k in (0.5, 1.0, 2.0, 3.0)
            ]
            for kind, bounds in (("c", c_bounds), ("margin", margin_bounds)):
                for upper, lower in bounds:
                    sum_in_reach, diff_in_reach = extremal._sides_in_reach(
                        lo1, hi1, lo2, hi2, upper, lower
                    )
                    if not sum_in_reach:
                        assert np.all(np.cos(ax1[:, None] + ax2) < upper - guard)
                        assert np.all(cos_sum < upper - guard)
                    if not diff_in_reach:
                        assert np.all(np.cos(ax1[:, None] - ax2) > lower + guard)
                        assert np.all(cos_diff > lower + guard)
                    skipped[kind] += (not sum_in_reach) + (not diff_in_reach)
        assert skipped["c"] > len(windows) and skipped["margin"] > len(windows), skipped

    def test_every_oracle_refine_stage_skips_one_side(self, monkeypatch):
        # A minimum's window sits on the difference bound (delta_phi = 0), a
        # maximum's on the sum bound (delta_phi = pi): the gain of skipping.
        counter = SideCounter()
        monkeypatch.setattr(extremal, "np", counter)
        errors = _check_extremal_oracle()
        stages = 1 + 8  # numeric_extremal_search's default refine_iters
        assert len(counter.stages) == 2 * len(_C_GRID) * stages
        refines = [sides for k, sides in enumerate(counter.stages) if k % stages]
        assert all(sides in ("s", "d") for sides in refines), refines
        # The first stage forms both sides, but at c = 0 no cell can fail the
        # sum bound (f = 1) and at c = 1 none the difference bound (f = -1).
        assert counter.stages[::stages] == ["d"] * 2 + ["sd"] * 18 + ["s"] * 2
        grid_n = 128  # numeric_extremal_search's default grid_n
        assert counter.rows == [grid_n * (1 + len(sides)) for sides in counter.stages]
        assert max(errors.values()) <= 1e-6


# Prints float.hex of each search's four result fields, for the c read
# from stdin, each c with both objectives.
KERNEL_CHILD = """
import json, sys
from dataclasses import astuple
from kcbs_msr import numeric_extremal_search
print(json.dumps([[float(v).hex() for v in astuple(numeric_extremal_search(c, objective))[:4]]
                  for c in json.load(sys.stdin) for objective in ("minimize", "maximize")]))
"""
KERNEL_C = _C_GRID + EDGE_C + BAND_C + SEEDED_C


@cache
def in_process_hexes():
    return [[float(v).hex() for v in astuple(numeric_extremal_search(c, objective))[:4]]
            for c in KERNEL_C for objective in ("minimize", "maximize")]


class TestKernelIndependence:
    """The search returns the same results whichever BLAS kernel forms its
    grids.  OpenBLAS picks its kernel per CPU; Prescott has no fused
    multiply-add, so about a quarter of its side cells round differently
    from Haswell's, and the guard band must absorb that.  Each environment
    is set on the child only: OpenBLAS reads it when it loads."""

    @pytest.mark.parametrize(
        "env",
        [{"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_NUM_THREADS": "1"}],
        ids=["prescott", "haswell", "one-thread"],
    )
    def test_same_results_under_another_kernel(self, env):
        root = str(Path(extremal.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", KERNEL_CHILD],
            input=json.dumps(KERNEL_C),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, **env},
            check=True,
        )
        assert json.loads(child.stdout) == in_process_hexes()


def s_of_p(p, coef, const):
    """S as the search rounds it, one step at a time."""
    return (p + 1.0) * coef + const


def search_coef(c):
    """The search's coefficient of P + 1.0 in S at concurrence c."""
    return 4.0 * (3.0 * SQRT5 - 5.0) / (f_from_concurrence(c) + 3.0)


S_CONST = 5.0 - 4.0 * SQRT5
# Where the bound's P lies: anywhere in [-1, 1], near 0, or past either end.
EDGE_P = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e-12, 1e-12),
    st.sampled_from([-1.5, 1.5, -1.0, 1.0, 0.0, -0.5]),
)


@st.composite
def edge_inputs(draw):
    """(coef, const, bound, minimizing): the search's coefficients at some c,
    and the bound S of an EDGE_P moved by up to three floats."""
    coef = search_coef(draw(st.floats(0.0, 1.0)))
    bound = s_of_p(draw(EDGE_P), coef, S_CONST)
    for _ in range(draw(st.integers(0, 3))):
        bound = math.nextafter(bound, draw(st.sampled_from([-math.inf, math.inf])))
    return coef, S_CONST, bound, draw(st.booleans())


class TestPEdge:
    """The P edge that decides "S no worse than the bound" in a search stage:
    the plain inverse of S, widened by ``_EDGE_GUARD`` toward worse S."""

    COEF = search_coef(1.0 / SQRT5)
    CONST = S_CONST

    @staticmethod
    def kept(ps, coef, const, bound, minimizing):
        """The P a stage may pick from: those passing the cheap test on P,
        as the stage makes it, whose S is no worse than the bound."""
        widen = extremal._EDGE_GUARD if minimizing else -extremal._EDGE_GUARD
        edge = (bound - const) / coef - 1.0 + widen
        s = s_of_p(ps, coef, const)
        if minimizing:
            return (ps <= edge) & (s <= bound), s <= bound
        return (ps >= edge) & (s >= bound), s >= bound

    @classmethod
    def check(cls, coef, const, bound, minimizing):
        no_worse = (lambda s: s <= bound) if minimizing else (lambda s: s >= bound)
        d = 1.0 if minimizing else -1.0  # S gets worse as d * P grows
        margin = extremal._EDGE_GUARD / 100
        inverse = (bound - const) / coef - 1.0
        # S is monotone in P, so every P in [-1, 1] from worse_p on is worse
        # and every P up to better_p is no worse: the last P no worse lies
        # within margin of the inverse, far inside the guard.
        worse_p, better_p = inverse + d * margin, inverse - d * margin
        if d * worse_p <= 1.0:
            assert not no_worse(s_of_p(min(1.0, max(-1.0, worse_p)), coef, const))
        if d * better_p >= -1.0:
            assert no_worse(s_of_p(min(1.0, max(-1.0, better_p)), coef, const))
        # The cheap test keeps every P whose S is no worse, so with the exact
        # test on S a stage keeps just those.
        ps = [-1.0, -0.5, 0.0, 1e-300, 1e-17, -1e-17, 0.5, 1.0]
        ps += [inverse + k * margin for k in (-200, -2, -1, 1, 2, 200)]
        p = inverse
        for direction in (-math.inf, math.inf):
            for _ in range(3):
                p = math.nextafter(p, direction)
                ps.append(p)
        ps = np.clip(np.concatenate([ps, np.linspace(-1.0, 1.0, 41)]), -1.0, 1.0)
        kept, exact = cls.kept(ps, coef, const, bound, minimizing)
        assert np.array_equal(kept, exact)

    @settings(max_examples=500, deadline=None)
    @given(edge_inputs())
    def test_edge_separates_no_worse_from_worse(self, case):
        self.check(*case)

    @pytest.mark.parametrize("minimizing", [True, False])
    @pytest.mark.parametrize(
        "p",
        # 0 and the floats around the plateau of P + 1.0 == 1.0, where every
        # P with |P| <= 2^-53 (or 2^-54 below 0) shares one S.
        [0.0, 2.0 ** -53, -(2.0 ** -54), 1e-300, -1e-300, 1e-17, -1e-17,
         1e-10, -1e-10, 3e-16, -3e-16, 0.25, -0.25],
    )
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_edges_near_zero(self, p, nudge, minimizing):
        bound = s_of_p(p, self.COEF, self.CONST)
        if nudge:
            bound = math.nextafter(bound, nudge * math.inf)
        self.check(self.COEF, self.CONST, bound, minimizing)

    @pytest.mark.parametrize("minimizing", [True, False])
    def test_bounds_beyond_every_s(self, minimizing):
        low = math.nextafter(s_of_p(-1.0, self.COEF, self.CONST), -math.inf)
        high = math.nextafter(s_of_p(1.0, self.COEF, self.CONST), math.inf)
        # +/-inf: the first stage's bound, before any best.
        for bound in (low, high, -1e300, 1e300, -math.inf, math.inf):
            self.check(self.COEF, self.CONST, bound, minimizing)
        # Below every S, a stage keeps no P when minimizing and every P when
        # maximizing; above every S the other way round.
        ps = np.linspace(-1.0, 1.0, 41)
        below, _ = self.kept(ps, self.COEF, self.CONST, low, minimizing)
        above, _ = self.kept(ps, self.COEF, self.CONST, high, minimizing)
        assert not below.any() if minimizing else below.all()
        assert above.all() if minimizing else not above.any()

    def test_edge_error_is_far_inside_the_guard(self):
        # Bounds at the S of P near -1, 0, 1 and seeded P, each moved by up to
        # three floats, on the search's coefficients at seeded c.
        margin = extremal._EDGE_GUARD / 100
        ps = np.concatenate([
            [-1.0, math.nextafter(-1.0, 0.0), -0.5, -(2.0 ** -54), -1e-17, -1e-300, 0.0,
             1e-300, 1e-17, 2.0 ** -53, 0.5, math.nextafter(1.0, 0.0), 1.0],
            np.random.default_rng(11).uniform(-1.0, 1.0, 200),
        ])
        for c in _C_GRID + EDGE_C + SEEDED_C:
            s_coef = search_coef(c)
            bound = s_of_p(ps, s_coef, S_CONST)
            bounds = [bound]
            for direction in (-np.inf, np.inf):
                nudged = bound
                for _ in range(3):
                    nudged = np.nextafter(nudged, direction)
                    bounds.append(nudged)
            for bound in bounds:
                edge = (bound - S_CONST) / s_coef - 1.0
                # S rises with P, so every P with S <= bound (minimizing) lies
                # below edge + margin once S there is above the bound, and
                # every P with S >= bound (maximizing) above edge - margin.
                above, below = edge + margin, edge - margin
                assert np.all((above > 1.0) | (s_of_p(above, s_coef, S_CONST) > bound)), c
                assert np.all((below < -1.0) | (s_of_p(below, s_coef, S_CONST) < bound)), c


class TestDominance:
    def test_random_states_respect_bounds(self):
        for pair in sample_pairs(1000):
            s = s_closed_form(pair)
            c = concurrence_msr(pair)
            assert s >= s_min_for_concurrence(c) - 1e-10
            assert s <= 2.0 * SQRT5 - 5.0 + 1e-10


class TestChsh:
    def test_local_bound(self):
        assert chsh_max(0.0) == 2.0

    def test_tsirelson(self):
        assert chsh_max(1.0) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)

    def test_threshold_concurrence(self):
        assert chsh_max(1.0 / SQRT5) == pytest.approx(
            2.0 * math.sqrt(6.0 / 5.0), abs=1e-12
        )

    def test_s_min_from_beta_endpoints(self):
        assert s_min_from_beta(2.0) == pytest.approx(-SQRT5, abs=1e-15)
        assert s_min_from_beta(2.0 * math.sqrt(2.0)) == pytest.approx(
            5.0 - 4.0 * SQRT5, abs=1e-12
        )
        assert s_min_from_beta(2.0 * math.sqrt(6.0 / 5.0)) == pytest.approx(
            -3.0, abs=1e-12
        )

    def test_composition_matches_s_min(self):
        for c in C_GRID:
            assert s_min_from_beta(chsh_max(c)) == pytest.approx(
                s_min_for_concurrence(c), abs=1e-12
            )

    @pytest.mark.parametrize("bad", [1.9, 2.0 * math.sqrt(2.0) + 0.01])
    def test_rejects_beta_out_of_range(self, bad):
        with pytest.raises(ValueError):
            s_min_from_beta(bad)

    def test_rejects_concurrence_out_of_range(self):
        with pytest.raises(ValueError):
            chsh_max(-0.2)


class TestThreshold:
    def test_value(self):
        assert concurrence_threshold() == pytest.approx(1.0 / SQRT5, abs=1e-15)
        assert concurrence_threshold() == pytest.approx(0.447, abs=5e-4)

    def test_defining_equation(self):
        assert s_min_for_concurrence(concurrence_threshold()) == pytest.approx(
            -3.0, abs=1e-12
        )

    def test_against_bisection(self):
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if s_min_for_concurrence(mid) > -3.0:
                lo = mid
            else:
                hi = mid
        assert concurrence_threshold() == pytest.approx(0.5 * (lo + hi), abs=1e-10)

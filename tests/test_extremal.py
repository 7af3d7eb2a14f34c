"""Tests for the extremal values of S at fixed concurrence and the CHSH link."""

import math

import pytest

from kcbs_msr import (
    concurrence_function,
    concurrence_msr,
    chsh_max,
    concurrence_threshold,
    extremal_theta_max,
    extremal_theta_min,
    extremal_witnesses,
    numeric_extremal_search,
    s_closed_form,
    s_function,
    s_max_for_concurrence,
    s_min_for_concurrence,
    s_min_from_beta,
    sample_pairs,
)

SQRT5 = math.sqrt(5.0)
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
    def test_min_set_maximal_entanglement(self):
        roots = extremal_theta_min(1.0)
        assert roots[0] == pytest.approx(math.pi, abs=1e-12)
        assert roots[1] == pytest.approx(0.0, abs=1e-12)

    def test_min_set_separable(self):
        roots = extremal_theta_min(0.0)
        assert roots[0] == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert roots[1] == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_min_set_one_third(self):
        roots = extremal_theta_min(1.0 / 3.0)
        assert roots[0] == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
        assert roots[1] == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_max_set_examples(self):
        assert extremal_theta_max(0.0) == pytest.approx(0.0, abs=1e-12)
        assert extremal_theta_max(1.0 / 3.0) == pytest.approx(
            math.pi / 4.0, abs=1e-12
        )
        assert extremal_theta_max(1.0) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

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
        with pytest.raises(ValueError):
            numeric_extremal_search(0.5, "minimize", grid_n=8)
        with pytest.raises(ValueError):
            numeric_extremal_search(0.5, "minimize", refine_iters=-1)


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

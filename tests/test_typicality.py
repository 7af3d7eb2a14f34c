"""The exact laws of the star pairs that ``verify`` samples.

The sampler draws two independent stars uniform on the Bloch sphere.  By
Archimedes' hat-box theorem the overlap f = n1 . n2 of two such stars is
uniform on [-1, 1], so the concurrence C = (1 - f)/(3 + f), which falls as
f rises, has the CDF P(C <= c) = P(f >= (1 - 3c)/(1 + c)) = 2c/(1 + c) on
[0, 1].  A seeded Kolmogorov-Smirnov test holds the sampler to both laws,
and a sampler that draws theta uniform on [0, pi] (too many stars near the
poles), which passes every ``verify`` check, fails it.
"""

import math

import numpy as np
import pytest

from kcbs_msr.measures import concurrence_of_overlap
from kcbs_msr.states import _overlap_parts, _sample_chunks

SAMPLES = 20_000
SEEDS = [7, 11, 12345]

# The false-alarm rate of each test.  The Kolmogorov distribution's tail,
# P(sqrt(n) D > x) = 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2), is below its first
# term, and the Dvoretzky-Kiefer-Wolfowitz inequality (Massart's constant)
# makes that term a bound at every n: P(D > d) <= 2 exp(-2 n d^2).
ALPHA = 1e-3
D_BOUND = math.sqrt(math.log(2.0 / ALPHA) / (2.0 * SAMPLES))


def ks_statistic(samples, cdf):
    """Largest distance between the empirical CDF of ``samples`` and ``cdf``."""
    x = np.sort(samples)
    fx = cdf(x)
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - fx), np.max(fx - np.arange(n) / n))


def uniform_overlap_cdf(f):
    return (f + 1.0) / 2.0


def concurrence_cdf(c):
    return 2.0 * c / (1.0 + c)


def overlap_and_concurrence(thetas, phis):
    """f and C of each sampled pair, through the library's own routes."""
    f = _overlap_parts(thetas[:, 0], thetas[:, 1], phis[:, 0] - phis[:, 1])[2]
    return f, concurrence_of_overlap(f)


def sampled(seed):
    (chunk,) = _sample_chunks(SAMPLES, seed, SAMPLES)
    return chunk


def test_bound_at_the_stated_false_alarm_rate():
    assert round(D_BOUND, 4) == 0.0138


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_overlap_and_concurrence_follow_their_laws(seed):
    f, c = overlap_and_concurrence(*sampled(seed))
    assert ks_statistic(f, uniform_overlap_cdf) <= D_BOUND
    assert ks_statistic(c, concurrence_cdf) <= D_BOUND


@pytest.mark.parametrize("seed", SEEDS)
def test_theta_uniform_sampler_fails(seed):
    thetas, phis = sampled(seed)
    thetas = np.random.default_rng(seed).uniform(0.0, math.pi, thetas.shape)
    f, c = overlap_and_concurrence(thetas, phis)
    assert ks_statistic(f, uniform_overlap_cdf) > D_BOUND
    assert ks_statistic(c, concurrence_cdf) > D_BOUND

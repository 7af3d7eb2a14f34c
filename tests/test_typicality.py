"""The exact laws of the star pairs that ``verify`` samples.

The sampler draws two independent stars uniform on the Bloch sphere.  By
Archimedes' hat-box theorem the overlap f = n1 . n2 of two such stars is
uniform on [-1, 1], so the concurrence C = (1 - f)/(3 + f), which falls as
f rises, has the CDF P(C <= c) = P(f >= (1 - 3c)/(1 + c)) = 2c/(1 + c) on
[0, 1].  A seeded Kolmogorov-Smirnov test holds the sampler to both laws,
and a sampler that draws theta uniform on [0, pi] (too many stars near the
poles), which passes every ``verify`` check, fails it.

Haar-random qutrits (normalised complex-Gaussian amplitudes) follow other
laws: p0 = |b|^2, the weight of m = 0, has P(p0 <= t) = 1 - (1 - t)^2 and
the concurrence P(C <= c) = c^2.  Since S falls linearly in p0 from
SPECTRUM_MAX to SPECTRUM_MIN, S < -3 means p0 > (5 + sqrt(5))/10 and
S < -sqrt(5) means p0 > 1/2, so P(S < -3) = ((5 - sqrt(5))/10)^2, about
0.0764, and P(S < -sqrt(5)) = 1/4: uniform stars are not Haar-random
states.
"""

import math

import numpy as np
import pytest

from kcbs_msr import kcbs_operator_diagonal
from kcbs_msr.measures import _concurrence_rows, _expectation_rows, concurrence_of_overlap
from kcbs_msr.observables import SPECTRUM_MAX, SPECTRUM_MIN
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


def haar_qutrits(seed):
    """Amplitude rows of seeded Haar-random qutrits: complex-Gaussian rows,
    normalised."""
    g = np.random.default_rng(seed).standard_normal((SAMPLES, 2, 3))
    rows = g[:, 0] + 1j * g[:, 1]
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def weight_of_zero_cdf(t):
    return 1.0 - (1.0 - t) ** 2


def s_below_probability(s):
    """P(S < s) under the Haar law: S < s where p0 exceeds the p0 at which
    S = SPECTRUM_MAX + (SPECTRUM_MIN - SPECTRUM_MAX) p0 reaches s."""
    return 1.0 - weight_of_zero_cdf((SPECTRUM_MAX - s) / (SPECTRUM_MAX - SPECTRUM_MIN))


@pytest.mark.parametrize("seed", SEEDS)
def test_haar_weight_of_zero_and_concurrence_follow_their_laws(seed):
    rows = haar_qutrits(seed)
    assert ks_statistic(np.abs(rows[:, 1]) ** 2, weight_of_zero_cdf) <= D_BOUND
    assert ks_statistic(_concurrence_rows(rows), lambda c: c**2) <= D_BOUND


def test_haar_regime_probabilities():
    # Through the spectrum constants the first is 1.1e-15 off, relatively.
    assert s_below_probability(-3.0) == pytest.approx(((5.0 - math.sqrt(5.0)) / 10.0) ** 2, rel=4e-15)
    assert s_below_probability(-math.sqrt(5.0)) == pytest.approx(0.25, rel=4e-15)


@pytest.mark.parametrize("seed", SEEDS)
def test_haar_regime_fractions_follow_the_weight_of_zero(seed):
    # Each fraction is the p0 law's tail at one point, so the D bound on
    # p0's empirical CDF bounds its distance from the probability.
    s = _expectation_rows(haar_qutrits(seed), kcbs_operator_diagonal())
    for edge in (-3.0, -math.sqrt(5.0)):
        assert abs(np.mean(s < edge) - s_below_probability(edge)) <= D_BOUND

"""The five-cycle value over all pentagram frames: SU(2) covariance and the optimum.

A rotation R by angle a about the unit axis n acts on a spin-1 state as

    D(R) = exp(-i a n.S) = I - i sin a (n.S) + (cos a - 1)(n.S)^2,

the closed form that (n.S)^3 = n.S allows.  D carries each spin component
to the rotated one, D (v.S) D^dagger = (Rv).S, so the five-cycle operator
of the rotated frame is D K D^dagger, and a Majorana-star state whose two
stars are turned by R is D(R) times the state, up to a global phase.

K has the eigenvalue 5 - 4 sqrt(5) on the spin-0 state of its frame's
symmetry axis and 2 sqrt(5) - 5 on the rest, so the frame's value on psi is
2 sqrt(5) - 5 - (6 sqrt(5) - 10) |<0_n|psi>|^2 with n that axis.  With
M_jk = Re <psi| S_j S_k |psi>, |<0_n|psi>|^2 = 1 - n.M n, so the frames
about M's eigenvectors are the extremes: over all frames the least value is
S_min(C(psi)) and the largest is 2 sqrt(5) - 5, whatever the concurrence.
The least one has a closed form in the stars: turned into the x-z plane,
symmetric about the equator, the stars sit at pi/2 -+ gamma/2 with
cos gamma = f, and there the canonical frame is optimal.

numpy only; the states come from ``msr_to_qutrit`` of seeded star pairs.
Each bound is about twice the worst error measured over these inputs
(numpy 2.4.6, x86-64), in ulps of 1: 10.5 and 6.9 for D's unitarity and
its action on S, 32 for D K D^dagger, 4 for the turned stars, 32 for S
with both turned, 24 and 19 for the frame minimum and maximum, 23 for the
quadratic form over 400 axes, and 4 (8.9e-16) for the closed-form frame
over 2,001 values of f.
"""

import math

import numpy as np

from kcbs_msr import (
    SPECTRUM_MAX,
    SPIN1_X,
    SPIN1_Y,
    SPIN1_Z,
    MsrPair,
    concurrence_msr,
    kcbs_operator_diagonal,
    kcbs_operator_from_frame,
    msr_to_qutrit,
    pentagram_vectors,
    s_closed_form,
    s_function,
    s_min_for_concurrence,
    sample_pairs,
)
from kcbs_msr.measures import concurrence_of_overlap

EPS = np.finfo(float).eps
SPIN = np.array([SPIN1_X, SPIN1_Y, SPIN1_Z])
FRAME = pentagram_vectors().vectors
K = kcbs_operator_diagonal()
# SPECTRUM_MAX - SPECTRUM_MIN: what the spin-0 state of the frame's axis lowers S by.
SPIN0_GAP = 6.0 * math.sqrt(5.0) - 10.0

PAIRS = sample_pairs(1000, seed=99)
UNITARY_BOUND, SPIN_BOUND, FRAME_BOUND = 21 * EPS, 14 * EPS, 64 * EPS
STATE_BOUND, S_BOUND = 8 * EPS, 64 * EPS
MIN_BOUND, MAX_BOUND, QUADRATIC_BOUND, CLOSED_FORM_BOUND = 48 * EPS, 38 * EPS, 46 * EPS, 8 * EPS


def spin_along(n):
    return np.tensordot(n, SPIN, axes=1)


def d_matrix(n, a):
    """D(R) for the rotation by ``a`` about the unit axis ``n``."""
    ns = spin_along(n)
    return np.eye(3) - 1j * math.sin(a) * ns + (math.cos(a) - 1.0) * (ns @ ns)


def rotation(n, a):
    """The 3x3 rotation by ``a`` about the unit axis ``n`` (Rodrigues)."""
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(a) * k + (1.0 - math.cos(a)) * (k @ k)


def random_rotations(count, seed):
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    return zip(axes, rng.uniform(-math.pi, math.pi, size=count).tolist())


def turned(pair, r):
    """``pair`` with both stars turned by the rotation matrix ``r``."""
    angles = []
    for star in (pair.star1, pair.star2):
        t, p = star.theta, star.phi
        x, y, z = r @ [math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
        angles += [math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x)]
    return MsrPair.from_angles(*angles)


def frame_about(n):
    """The canonical frame turned so that its symmetry axis is the unit ``n``."""
    axis = np.cross([0.0, 0.0, 1.0], n)
    sin_a = np.linalg.norm(axis)
    if sin_a == 0.0:
        axis, sin_a = np.array([1.0, 0.0, 0.0]), 0.0
    else:
        axis = axis / sin_a
    return FRAME @ rotation(axis, math.atan2(sin_a, n[2])).T


def value(psi, frame):
    return np.vdot(psi, kcbs_operator_from_frame(frame) @ psi).real


def axis_matrix(psi):
    """M_jk = Re <psi| S_j S_k |psi>: |<0_n|psi>|^2 = 1 - n.M n."""
    products = SPIN[:, None] @ SPIN[None, :]
    return np.einsum("a,jkab,b->jk", psi.conj(), products, psi).real


class TestCovariance:
    def test_d_rotates_the_spin(self):
        for n, a in random_rotations(1000, seed=1):
            d, r = d_matrix(n, a), rotation(n, a)
            assert np.max(np.abs(d @ d.conj().T - np.eye(3))) <= UNITARY_BOUND
            for v in np.eye(3):
                moved = d @ spin_along(v) @ d.conj().T
                assert np.max(np.abs(moved - spin_along(r @ v))) <= SPIN_BOUND

    def test_turned_frame_is_the_conjugated_operator(self):
        for n, a in random_rotations(1000, seed=2):
            d = d_matrix(n, a)
            turned_k = kcbs_operator_from_frame(FRAME @ rotation(n, a).T)
            assert np.max(np.abs(turned_k - d @ K @ d.conj().T)) <= FRAME_BOUND

    def test_turned_stars_are_the_rotated_state(self):
        for pair, (n, a) in zip(PAIRS, random_rotations(len(PAIRS), seed=3)):
            d, r = d_matrix(n, a), rotation(n, a)
            psi = msr_to_qutrit(pair).vector
            overlap = np.vdot(msr_to_qutrit(turned(pair, r)).vector, d @ psi)
            assert abs(1.0 - abs(overlap)) <= STATE_BOUND
            # Turning the state and the frame together leaves S as it was.
            assert abs(value(d @ psi, FRAME @ r.T) - s_closed_form(pair)) <= S_BOUND


class TestOptimalFrame:
    def test_extremes_over_frames(self):
        for pair in PAIRS[:300]:
            psi = msr_to_qutrit(pair).vector
            _, axes = np.linalg.eigh(axis_matrix(psi))
            least = value(psi, frame_about(axes[:, 0]))
            assert abs(least - s_min_for_concurrence(concurrence_msr(pair))) <= MIN_BOUND
            assert abs(value(psi, frame_about(axes[:, 2])) - SPECTRUM_MAX) <= MAX_BOUND

    def test_value_is_quadratic_in_the_axis(self):
        # Every frame about n gives 2 sqrt(5) - 5 - (6 sqrt(5) - 10)(1 - n.M n),
        # and n.M n lies in [0, 1]: no frame passes the extremes.
        rng = np.random.default_rng(4)
        axes = rng.normal(size=(400, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        frames = [frame_about(n) for n in axes]
        for pair in PAIRS[:40]:
            psi = msr_to_qutrit(pair).vector
            values = np.array([value(psi, frame) for frame in frames])
            n_m_n = np.einsum("ij,jk,ik->i", axes, axis_matrix(psi), axes)
            quadratic = SPECTRUM_MAX - SPIN0_GAP * (1.0 - n_m_n)
            assert np.max(np.abs(values - quadratic)) <= QUADRATIC_BOUND
            s_min = s_min_for_concurrence(concurrence_msr(pair))
            assert s_min - MIN_BOUND <= values.min()
            assert values.max() <= SPECTRUM_MAX + MAX_BOUND

    def test_closed_form_frame(self):
        # The stars at pi/2 -+ gamma/2 in one meridian, cos gamma = f.
        gaps = []
        for f in np.linspace(-1.0, 1.0, 2001).tolist():
            half = 0.5 * math.acos(f)
            s = s_function(0.5 * math.pi - half, 0.5 * math.pi + half, 0.0)
            gaps.append(abs(s - s_min_for_concurrence(concurrence_of_overlap(f))))
        assert max(gaps) <= CLOSED_FORM_BOUND

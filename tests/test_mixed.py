"""Mixed symmetric states: the minimum law holds, the CHSH reading of a regime does not.

The noisy Bell family rho_v = v |Psi+><Psi+| + (1 - v) Pi_sym / 3, with
Pi_sym the projector onto the symmetric subspace of C^4, has Wootters
concurrence C = (4v - 1)/3 for v >= 1/4, and S = Tr(rho K) meets the pure
states' minimum S_min(C) on all of it.  Its largest CHSH value (Horodecki)
is beta = sqrt(2) (1 + C), below the pure states' 2 sqrt(1 + C^2) for
0 < C < 1: at v = 0.4, C = 0.2 and S < -sqrt(5), so ``classify_s`` says
NonlocalNoncontextual, yet beta <= 2 and the state violates no CHSH
inequality.  The regime labels' CHSH meaning holds for pure states only.

rho_v is built from basis kets with numpy alone, so it shares no code with
the kernel; K is the frame operator of ``kcbs_operator_from_frame`` carried
into C^4 by the isometry of the qutrit's (m = +1, 0, -1) basis.  Each
bound is twice the worst error measured over ``VS``: 6, 1.25 and 4 ulps of
1 for S - S_min(C), C and beta.
"""

import math

import numpy as np
import pytest

from kcbs_msr import Regime, chsh_max, classify_s, kcbs_operator_from_frame, pentagram_vectors
from kcbs_msr.extremal import s_min_of

EPS = np.finfo(float).eps
SQRT5 = math.sqrt(5.0)

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

HALF = math.sqrt(0.5)
ISOMETRY = np.array([[1, 0, 0], [0, HALF, 0], [0, HALF, 0], [0, 0, 1]])
KCBS = ISOMETRY @ kcbs_operator_from_frame(pentagram_vectors()) @ ISOMETRY.T

KET = np.eye(2)
PSI_PLUS = (np.kron(KET[0], KET[1]) + np.kron(KET[1], KET[0])) * HALF
SYMMETRIC = sum(np.outer(k, k) for k in (np.kron(KET[0], KET[0]), PSI_PLUS, np.kron(KET[1], KET[1])))

# From the separable edge v = 1/4 (C = 0) to the Bell state v = 1.
VS = np.linspace(0.25, 1.0, 301)
C_BOUND, S_BOUND, BETA_BOUND = 2.5 * EPS, 12 * EPS, 8 * EPS


def noisy_bell(v):
    return v * np.outer(PSI_PLUS, PSI_PLUS) + (1.0 - v) * SYMMETRIC / 3.0


def wootters_concurrence(rho):
    """max(0, l1 - l2 - l3 - l4), the l the decreasing square roots of the
    eigenvalues of sqrt(rho) rho~ sqrt(rho), rho~ = (Y (x) Y) rho* (Y (x) Y)."""
    w, u = np.linalg.eigh(rho)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    yy = np.kron(PAULI[1], PAULI[1])
    flipped = yy @ rho.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root), 0.0, None))[::-1]
    return max(0.0, lam[0] - lam[1:].sum())


def horodecki_beta(rho):
    """2 sqrt(m1 + m2), m1 and m2 the two largest eigenvalues of T^T T."""
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULI] for a in PAULI])
    m = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(m[-1] + m[-2])


def kcbs_value(rho):
    return np.trace(rho @ KCBS).real


def test_noisy_bell_is_a_symmetric_state():
    for v in VS:
        rho = noisy_bell(v)
        assert np.allclose(rho, rho.conj().T, rtol=0.0, atol=EPS)
        assert np.trace(rho) == pytest.approx(1.0, abs=2 * EPS)
        assert np.linalg.eigvalsh(rho).min() >= -EPS
        assert np.allclose(SYMMETRIC @ rho, rho, rtol=0.0, atol=2 * EPS)


def test_concurrence_of_the_family():
    errors = [abs(wootters_concurrence(noisy_bell(v)) - (4.0 * v - 1.0) / 3.0) for v in VS]
    assert max(errors) <= C_BOUND


def test_kcbs_value_meets_the_minimum_law():
    errors = [abs(kcbs_value(rho) - s_min_of(wootters_concurrence(rho))) for rho in map(noisy_bell, VS)]
    assert max(errors) <= S_BOUND


def test_horodecki_value_is_linear_in_concurrence():
    errors = [
        abs(horodecki_beta(rho) - math.sqrt(2.0) * (1.0 + wootters_concurrence(rho)))
        for rho in map(noisy_bell, VS)
    ]
    assert max(errors) <= BETA_BOUND


def test_nonlocal_noncontextual_label_without_chsh_violation():
    rho = noisy_bell(0.4)
    c = wootters_concurrence(rho)
    s = kcbs_value(rho)
    beta = horodecki_beta(rho)
    assert c == pytest.approx(0.2, abs=C_BOUND)
    assert round(s, 4) == -2.5777
    assert -3.0 <= s < -SQRT5
    assert classify_s(s) is Regime.NONLOCAL_NONCONTEXTUAL
    assert beta == pytest.approx(1.2 * math.sqrt(2.0), abs=BETA_BOUND)
    assert beta <= 2.0
    # A pure state at this concurrence does violate CHSH.
    assert chsh_max(c) > 2.0

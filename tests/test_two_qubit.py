"""The concurrence and the CHSH link on the two-qubit state itself.

The symmetric state of two stars is |psi> proportional to
|n1>|n2> + |n2>|n1> in C^4, built here from ``qubit_ket`` alone, so it
shares no code with the qutrit amplitudes of ``msr_to_qutrit``.  Its 2x2
coefficient matrix M gives the concurrence 2|det M|, and its correlation
matrix T_ij = <psi|sigma_i (x) sigma_j|psi> the largest CHSH value
2 sqrt(m1 + m2), m1 and m2 the two largest eigenvalues of T^T T (Horodecki,
Horodecki and Horodecki, Phys. Lett. A 200, 340 (1995)).  The isometry V
from the qutrit into C^4 carries the five-cycle operator K to V K V^T,
whose expectation in |psi> is S.

Each bound is twice the worst error measured over 2,000 pairs of each of
the seeds 0-19 and over ``EDGE_ANGLES``, both with the stars in either
order: 3.5, 10, 3.5 and 16 ulps of 1 for the four tests in turn.
"""

import math

import numpy as np
import pytest

from kcbs_msr import (
    MsrPair,
    chsh_max,
    concurrence_function,
    kcbs_operator_diagonal,
    msr_to_qutrit,
    qubit_ket,
    s_function,
    sample_pairs,
)
from test_batched import EDGE_ANGLES

EPS = np.finfo(float).eps

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# The isometry from the qutrit's (m = +1, 0, -1) basis onto the symmetric
# subspace of C^4, basis |00>, |01>, |10>, |11>.
HALF = math.sqrt(0.5)
ISOMETRY = np.array([[1, 0, 0], [0, HALF, 0], [0, HALF, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def pairs():
    rows = sample_pairs(2000, seed=5) + [MsrPair.from_angles(*a) for a in EDGE_ANGLES]
    return rows + [MsrPair(p.star2, p.star1) for p in rows]


@pytest.fixture(scope="module")
def coefficients(pairs):
    """M of each pair, M_ab = <a b|psi> with |psi> normalised."""
    k1 = np.array([qubit_ket(p.star1) for p in pairs])
    k2 = np.array([qubit_ket(p.star2) for p in pairs])
    m = k1[:, :, None] * k2[:, None, :] + k2[:, :, None] * k1[:, None, :]
    return m / np.linalg.norm(m, axis=(1, 2))[:, None, None]


@pytest.fixture(scope="module")
def concurrences(pairs):
    return np.array([concurrence_function(p.star1.theta, p.star2.theta, p.delta_phi) for p in pairs])


def test_concurrence_is_twice_the_determinant(coefficients, concurrences):
    error = np.abs(2 * np.abs(np.linalg.det(coefficients)) - concurrences)
    assert error.max() <= 7 * EPS


def test_horodecki_value_is_chsh_max(coefficients, concurrences):
    # (sigma_i (x) sigma_j)|psi> has coefficient matrix sigma_i M sigma_j^T.
    t = np.einsum("nab,iac,ncd,jbd->nij", coefficients.conj(), PAULI, coefficients, PAULI).real
    m = np.linalg.eigvalsh(np.einsum("nki,nkj->nij", t, t))
    beta = 2 * np.sqrt(m[:, -1] + m[:, -2])
    error = np.abs(beta - np.array([chsh_max(c) for c in concurrences]))
    assert error.max() <= 20 * EPS


def test_state_is_the_image_of_the_qutrit(pairs, coefficients):
    # Equal up to a global phase.
    qutrits = np.array([msr_to_qutrit(p).vector for p in pairs])
    overlap = np.einsum("na,ab,nb->n", coefficients.reshape(-1, 4).conj(), ISOMETRY, qutrits)
    assert np.max(np.abs(np.abs(overlap) - 1)) <= 7 * EPS


def test_kcbs_expectation_is_s_function(pairs, coefficients):
    psi = coefficients.reshape(-1, 4)
    operator = ISOMETRY @ kcbs_operator_diagonal() @ ISOMETRY.T
    expectation = np.einsum("na,ab,nb->n", psi.conj(), operator, psi).real
    s = np.array([s_function(p.star1.theta, p.star2.theta, p.delta_phi) for p in pairs])
    assert np.max(np.abs(expectation - s)) <= 32 * EPS

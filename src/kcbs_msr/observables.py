"""Spin-1 observables along the pentagram directions and the five-cycle operator.

The five measurement directions are unit vectors with cyclically orthogonal
neighbors, arranged symmetrically around the z axis with azimuthal step
4*pi/5 and common polar angle Theta fixed by cos^2(Theta) =
cos(pi/5) / (1 + cos(pi/5)).  Along each direction v the dichotomic
observable is A(v) = 2 S(v)^2 - I (eigenvalues +1, +1, -1), and consecutive
A's commute.  Their cyclic sum

    K = sum_j A(v_j) A(v_{j+1 mod 5})

is diagonal in the spin-1 basis used throughout, with entries
(2*sqrt(5) - 5, 5 - 4*sqrt(5), 2*sqrt(5) - 5).  A deterministic +/-1
assignment to the five observables can push the cyclic sum no lower
than -3, which is the non-contextuality bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CLASSICAL_BOUND",
    "IncompatibleFrameError",
    "KCBS_DIAG_MIDDLE",
    "KCBS_DIAG_OUTER",
    "PentagramFrame",
    "SPECTRUM_MAX",
    "SPECTRUM_MIN",
    "SPIN1_X",
    "SPIN1_Y",
    "SPIN1_Z",
    "a_observable",
    "assignment_values",
    "classical_bound",
    "kcbs_operator_diagonal",
    "kcbs_operator_from_frame",
    "pentagram_vectors",
    "spin1_along",
]

SQRT5 = math.sqrt(5.0)

# Diagonal entries of the five-cycle operator in the fixed basis; they are
# also its eigenvalues, so they bound every expectation value.
KCBS_DIAG_OUTER = 2.0 * SQRT5 - 5.0
KCBS_DIAG_MIDDLE = 5.0 - 4.0 * SQRT5
SPECTRUM_MIN = KCBS_DIAG_MIDDLE
SPECTRUM_MAX = KCBS_DIAG_OUTER

# Non-contextuality bound of the five-cycle sum (see classical_bound()).
CLASSICAL_BOUND = -3

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# Spin-1 generators in the (m = +1, 0, -1) basis.
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _SQRT2_INV
SPIN1_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _SQRT2_INV
SPIN1_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)

# Largest deviation from unit length and from consecutive orthogonality
# that a frame may show.
_FRAME_TOL = 1e-12


class IncompatibleFrameError(ValueError):
    """Raised when a five-direction frame lacks consecutive orthogonality."""


@dataclass(frozen=True, eq=False)
class PentagramFrame:
    """Five real unit 3-vectors with cyclic consecutive orthogonality.

    ``vectors`` has shape (5, 3); row j is direction v_j and v_j . v_{j+1}
    (indices mod 5) vanishes.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=float)
        if v.shape != (5, 3):
            raise ValueError(f"frame must have shape (5, 3): got {v.shape}")
        norms = np.linalg.norm(v, axis=1)
        # Written so that NaN fails: every comparison with NaN is False.
        if not np.max(np.abs(norms - 1.0)) <= _FRAME_TOL:
            raise ValueError("frame vectors must be unit length")
        dots = np.abs(np.einsum("ij,ij->i", v, np.roll(v, -1, axis=0)))
        if not np.max(dots) <= _FRAME_TOL:
            raise IncompatibleFrameError(
                f"consecutive directions are not orthogonal: max |v_j . v_j+1| = {np.max(dots)}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)


def pentagram_vectors() -> PentagramFrame:
    """Canonical pentagram frame: z symmetry axis, azimuthal step 4*pi/5.

    The polar angle Theta solves the consecutive-orthogonality condition
    tan^2(Theta) = 1/cos(pi/5), i.e. cos^2(Theta) = cos(pi/5)/(1 + cos(pi/5)).
    """
    cos2 = math.cos(math.pi / 5.0) / (1.0 + math.cos(math.pi / 5.0))
    cos_t = math.sqrt(cos2)
    sin_t = math.sqrt(1.0 - cos2)
    step = 4.0 * math.pi / 5.0
    vecs = np.array(
        [
            [sin_t * math.cos(step * j), sin_t * math.sin(step * j), cos_t]
            for j in range(5)
        ]
    )
    return PentagramFrame(vecs)


def _unit_direction(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float).reshape(3)
    norm = float(np.linalg.norm(d))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"direction must be a unit 3-vector: |d| = {norm}")
    return d


def spin1_along(direction) -> np.ndarray:
    """Spin-1 component operator n . S along a unit direction.

    Eigenvalues are always {+1, 0, -1}.
    """
    d = _unit_direction(direction)
    return d[0] * SPIN1_X + d[1] * SPIN1_Y + d[2] * SPIN1_Z


def a_observable(direction) -> np.ndarray:
    """Dichotomic observable A = 2 (n . S)^2 - I along a unit direction.

    Eigenvalues {+1, +1, -1}; equivalently I - 2 P0 with P0 the projector
    onto the spin-0 eigenstate of n . S.
    """
    s = spin1_along(direction)
    return 2.0 * (s @ s) - np.eye(3)


def kcbs_operator_from_frame(frame) -> np.ndarray:
    """Cyclic five-term operator sum_j A(v_j) A(v_{j+1}) for a frame.

    Accepts a :class:`PentagramFrame` or a raw (5, 3) array of unit rows,
    which is validated as one.  Consecutive orthogonality is what makes each
    product Hermitian.
    """
    if not isinstance(frame, PentagramFrame):
        frame = PentagramFrame(frame)
    vecs = frame.vectors
    ops = [a_observable(vecs[j]) for j in range(5)]
    return sum(ops[j] @ ops[(j + 1) % 5] for j in range(5))


def kcbs_operator_diagonal() -> np.ndarray:
    """The five-cycle operator in its diagonal closed form."""
    return np.diag([KCBS_DIAG_OUTER, KCBS_DIAG_MIDDLE, KCBS_DIAG_OUTER])


def assignment_values() -> np.ndarray:
    """Cyclic sums sum_j x_j x_{j+1} for all 32 deterministic assignments
    x in {-1, +1}^5, in lexicographic assignment order."""
    values = [
        sum(x[j] * x[(j + 1) % 5] for j in range(5))
        for x in itertools.product((-1, 1), repeat=5)
    ]
    return np.array(values, dtype=int)


def classical_bound() -> int:
    """Minimum of the cyclic sum over all deterministic assignments (-3)."""
    return int(assignment_values().min())

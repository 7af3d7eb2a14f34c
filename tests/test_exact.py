"""Exact reference for the pentagram frame and its five-cycle operator.

sympy builds the frame from its definition, cos^2(Theta) = cos(pi/5) /
(1 + cos(pi/5)) and azimuthal step 4 pi/5, with exact spin-1 matrices, so
the diagonal form of the cyclic operator is proved rather than sampled, and
the float construction is measured against it.  From the star amplitudes
it also proves the minimum law S >= S_min(C) as identities: S depends on
the state only through the m = 0 weight, and the gap S - S_min(C) is a
positive multiple of a sum of squares, and mpmath at 50 digits measures that
sum of squares in float near the minimum's zero set.
"""

import ast
import inspect
import math
import textwrap
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from kcbs_msr import f_function, kcbs_operator_from_frame, measures, observables, pentagram_vectors

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

SQRT5 = sp.sqrt(5)
EXACT_DIAGONAL = sp.diag(2 * SQRT5 - 5, 5 - 4 * SQRT5, 2 * SQRT5 - 5)


@cache
def exact_frame():
    """Rows (sin T cos(j step), sin T sin(j step), cos T), j = 0..4.

    cos(j step) + i sin(j step) is taken as the j-th power of
    cos(step) + i sin(step), which keeps every entry in one radical of the
    step: sympy writes sin(8 pi/5) with a radical of its own.
    """
    c = sp.cos(sp.pi / 5)
    cos2 = sp.radsimp(c / (1 + c))
    cos_t, sin_t = sp.sqrt(cos2), sp.sqrt(1 - cos2)
    step = 4 * sp.pi / 5
    turn = sp.cos(step) + sp.I * sp.sin(step)
    rows = []
    for j in range(5):
        azimuth = sp.expand(turn**j)
        rows.append([sin_t * sp.re(azimuth), sin_t * sp.im(azimuth), cos_t])
    return sp.Matrix(rows)


@cache
def exact_operator():
    """sum_j A(v_j) A(v_j+1) with A(v) = 2 (v . S)^2 - I, expanded."""
    half = 1 / sp.sqrt(2)
    sx = sp.Matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) * half
    sy = sp.Matrix([[0, -sp.I, 0], [sp.I, 0, -sp.I], [0, sp.I, 0]]) * half
    sz = sp.diag(1, 0, -1)
    frame = exact_frame()
    ops = []
    for j in range(5):
        x, y, z = frame.row(j)
        spin = x * sx + y * sy + z * sz
        ops.append((2 * spin * spin - sp.eye(3)).applyfunc(sp.expand))
    total = sum((ops[j] * ops[(j + 1) % 5] for j in range(5)), sp.zeros(3, 3))
    return total.applyfunc(sp.expand)


class TestExactFrame:
    def test_theta_is_the_quarter_power(self):
        # cos^2(Theta) = cos(pi/5) / (1 + cos(pi/5)) = 1/sqrt(5).
        assert sp.simplify(exact_frame()[0, 2] ** 4 - sp.Rational(1, 5)) == 0

    def test_unit_rows_with_orthogonal_neighbours(self):
        frame = exact_frame()
        for j in range(5):
            v, w = frame.row(j), frame.row((j + 1) % 5)
            assert sp.simplify(v.dot(v)) == 1
            assert sp.simplify(v.dot(w)) == 0

    def test_float_frame_matches(self):
        exact = np.array(exact_frame().evalf(30).tolist(), dtype=float)
        assert np.max(np.abs(pentagram_vectors().vectors - exact)) <= 1e-15


class TestExactOperator:
    def test_cyclic_operator_is_the_diagonal(self):
        assert sp.simplify(exact_operator() - EXACT_DIAGONAL) == sp.zeros(3, 3)

    def test_float_operator_matches(self):
        exact = np.array(EXACT_DIAGONAL.evalf(30).tolist(), dtype=float)
        found = kcbs_operator_from_frame(pentagram_vectors())
        assert np.max(np.abs(found - exact)) <= 1e-14


# Star angles with t1 = 2 u1 and t2 = 2 u2, so the amplitudes' half angles
# are plain symbols, and x, y and f of the states docstring.
U1, U2, P1, P2 = sp.symbols("u1 u2 p1 p2", real=True)
T1, T2, DPHI = 2 * U1, 2 * U2, P1 - P2
X = sp.sin(T1) * sp.sin(T2) * sp.cos(DPHI)
Y = sp.cos(T1) * sp.cos(T2)


HALVES = sp.cos(U1), sp.sin(U1), sp.cos(U2), sp.sin(U2)
# N^2 of the amplitudes in the ``states`` docstring: (f + 3)/4.
NORM2 = (X + Y + 3) / 4


def scaled_amplitudes():
    """N (a1, b, a2) of the amplitudes in the ``states`` docstring."""
    c1, s1, c2, s2 = HALVES
    return [
        c1 * c2,
        (sp.exp(sp.I * P1) * s1 * c2 + sp.exp(sp.I * P2) * c1 * s2) / sp.sqrt(2),
        sp.exp(sp.I * (P1 + P2)) * s1 * s2,
    ]


def exact_weights():
    """|a1|^2, |b|^2 and |a2|^2 of the amplitudes in the ``states`` docstring."""
    return [sp.expand(a * sp.conjugate(a)).rewrite(sp.cos) / NORM2 for a in scaled_amplitudes()]


def exact_code(node, **names):
    """The expression ``node`` of the package's source in sympy, each float
    literal read as the exact rational it is written as, with ``names``
    bound."""
    return sp.sympify(ast.unparse(node), locals=names, rational=True)


def returned_expression(function, **names):
    """The one returned expression of ``function``, by :func:`exact_code`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    (returned,) = [node for node in ast.walk(tree) if isinstance(node, ast.Return)]
    return exact_code(returned.value, **names)


def module_constant(module, name, **names):
    """The value assigned to ``name`` at the top of ``module``, by :func:`exact_code`."""
    tree = ast.parse(inspect.getsource(module))
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return exact_code(value, **names)


class TestMinimumLaw:
    def test_s_depends_only_on_the_middle_weight(self):
        # The weights sum to 1 and K is diagonal with equal outer entries,
        # so S = SPECTRUM_MAX + (SPECTRUM_MIN - SPECTRUM_MAX) p0.
        weights = exact_weights()
        assert sp.simplify(sum(weights) - 1) == 0
        assert EXACT_DIAGONAL[0, 0] == EXACT_DIAGONAL[2, 2]
        p0 = 1 - 2 * (1 + Y) / (3 + X + Y)
        assert sp.simplify(weights[1] - p0) == 0

    def test_gap_is_a_multiple_of_one_minus_x_plus_y(self):
        # S - S_min(C) = (6 sqrt5 - 10)(1 - x + y)/(3 + f), over x and y.
        x, y = sp.symbols("x y", real=True)
        f = x + y
        top, bottom = EXACT_DIAGONAL[0, 0], EXACT_DIAGONAL[1, 1]
        s = top + (bottom - top) * (1 - 2 * (1 + y) / (3 + f))
        c = (1 - f) / (3 + f)
        s_min = (5 - 3 * SQRT5) * c - SQRT5
        assert (6 * SQRT5 - 10).is_positive
        assert sp.simplify(s - s_min - (6 * SQRT5 - 10) * (1 - x + y) / (3 + f)) == 0

    def test_one_minus_x_plus_y_is_a_sum_of_squares(self):
        squares = 2 * sp.cos((T1 + T2) / 2) ** 2 + 2 * sp.sin(T1) * sp.sin(T2) * sp.sin(DPHI / 2) ** 2
        assert sp.simplify(1 - X + Y - squares) == 0


class TestCodeConstants:
    """The closed forms as the package writes them, literals and all."""

    def test_s_of_overlap_is_the_middle_weight_form(self):
        # measures.s_of_overlap equals SPECTRUM_MAX + (SPECTRUM_MIN -
        # SPECTRUM_MAX) p0, with p0 = 1 - 2(1 + y)/(3 + f) and both
        # constants read from observables.
        root5 = module_constant(observables, "SQRT5", math=SimpleNamespace(sqrt=sp.sqrt))
        assert root5 == SQRT5
        top = module_constant(observables, "SPECTRUM_MAX", SQRT5=root5)
        bottom = module_constant(observables, "SPECTRUM_MIN", SQRT5=root5)
        assert (top, bottom) == (EXACT_DIAGONAL[0, 0], EXACT_DIAGONAL[1, 1])
        f, y = sp.symbols("f y", real=True)
        s = returned_expression(measures.s_of_overlap, f=f, y=y, SQRT5=root5)
        p0 = 1 - 2 * (1 + y) / (3 + f)
        assert sp.simplify(s - (top + (bottom - top) * p0)) == 0

    def test_concurrence_of_overlap_is_twice_the_determinant(self):
        # N^2 (a1 a2 - b^2/2) = -e^{i(p1 + p2)} w^2 / 4 with |w|^2 = (1 - f)/2,
        # so 2|a1 a2 - b^2/2| = (1 - f)/(4 N^2) = (1 - f)/(3 + f), the form of
        # measures.concurrence_of_overlap.
        a1, b, a2 = scaled_amplitudes()
        c1, s1, c2, s2 = HALVES
        w = sp.exp(sp.I * DPHI / 2) * s1 * c2 - sp.exp(-sp.I * DPHI / 2) * c1 * s2
        assert sp.expand(a1 * a2 - b**2 / 2 + sp.exp(sp.I * (P1 + P2)) * w**2 / 4) == 0
        modulus2 = sp.expand(w * sp.conjugate(w)).rewrite(sp.cos)
        assert sp.simplify(modulus2 - (1 - X - Y) / 2) == 0
        f = sp.Symbol("f", real=True)
        c = returned_expression(measures.concurrence_of_overlap, f=f).subs(f, X + Y)
        assert sp.simplify(c - 2 * (modulus2 / 4) / NORM2) == 0


def near_extremal_pairs(count, seed):
    """(t1, t2, delta_phi) with t1 + t2 - pi and delta_phi in +/-[1e-9, 1e-3],
    log-uniform in magnitude: near the minimum's zero set of the gap."""
    rng = np.random.default_rng(seed)
    t1 = rng.uniform(1e-3, np.pi - 1e-3, count)
    off_sum, dphi = rng.choice([-1.0, 1.0], (2, count)) * 10.0 ** rng.uniform(-9, -3, (2, count))
    return list(zip(t1.tolist(), (np.pi - t1 + off_sum).tolist(), dphi.tolist()))


class TestSumOfSquaresGap:
    def test_float_sum_of_squares_against_50_digits(self):
        # The gap S - S_min(C) in float as (6 sqrt5 - 10)(1 - x + y)/(3 + f),
        # with 1 - x + y as its sum of squares, against S - S_min(C) from the
        # definitions at 50 digits.  Its error comes from the rounding of
        # t1 + t2: half an ulp of pi over |t1 + t2 - pi| >= 1e-9, squared, is
        # about 4.4e-7.  The worst measured is 3.1e-7 here and 3.7e-7 over
        # seeds 0-7, where the float S - S_min(C) has relative errors of
        # 150-490 and is negative on 7-16 of the 2,000 pairs.
        mp = mpmath.mp
        coef = 6.0 * math.sqrt(5.0) - 10.0
        worst = 0.0
        with mpmath.workdps(50):
            root5 = mp.sqrt(5)
            top, bottom = 2 * root5 - 5, 5 - 4 * root5
            for t1, t2, dphi in near_extremal_pairs(2000, 2026):
                squares = 2.0 * math.cos((t1 + t2) / 2.0) ** 2 + (
                    2.0 * math.sin(t1) * math.sin(t2) * math.sin(dphi / 2.0) ** 2
                )
                gap = coef * squares / (3.0 + f_function(t1, t2, dphi))
                assert gap >= 0.0
                a, b, d = mp.mpf(t1), mp.mpf(t2), mp.mpf(dphi)
                x, y = mp.sin(a) * mp.sin(b) * mp.cos(d), mp.cos(a) * mp.cos(b)
                s = top + (bottom - top) * (1 - 2 * (1 + y) / (3 + x + y))
                c = (1 - x - y) / (3 + x + y)
                exact = s - ((5 - 3 * root5) * c - root5)
                worst = max(worst, float(abs(gap - exact) / exact))
        assert worst <= 4.5e-7

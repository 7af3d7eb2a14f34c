"""The row functions behind ``verify`` and the scalar routes that wrap them.

Each scalar public route is a 1-row call of a row function, so the two
cannot disagree on a value; these tests pin what the wrapping could still
change (the bits of an amplitude, the Python return type) and what the
rows do on their own (the gates, the sums of ``_vdot_rows``, chunking and
memory).  The per-pair walk the batched checks replaced is kept here as
their reference: every comparison is ``==``, never approximate.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kcbs_msr import checks
from kcbs_msr.checks import _check_samples, run_all_checks
from kcbs_msr.classify import Regime, classify_s
from kcbs_msr.extremal import concurrence_threshold, s_min_for_concurrence
from kcbs_msr.measures import (
    _expectation_rows,
    _vdot_rows,
    concurrence_function,
    concurrence_msr,
    concurrence_symmetric,
    expectation_value,
    s_closed_form,
    s_function,
    s_rational_form,
    s_via_concurrence,
)
from kcbs_msr.observables import SPECTRUM_MAX, SPECTRUM_MIN, kcbs_operator_diagonal
from kcbs_msr.states import (
    DEFAULT_SEED,
    BlochAngles,
    InvalidStateError,
    MsrPair,
    Qutrit,
    _amplitude_terms,
    _gated_rows,
    _overlap_parts,
    _sample_chunks,
    _unit_rows,
    f_function,
    f_value,
    msr_to_qutrit,
    overlap_angle,
    sample_pairs,
)

PI = math.pi
UNDER_TWO_PI = math.nextafter(2.0 * PI, 0.0)

# (theta1, phi1, theta2, phi2) at the edges of the parameter space.
EDGE_ANGLES = [
    # a star at a pole
    (0.0, 0.0, 0.0, 0.0),
    (PI, 0.0, PI, 0.0),
    (0.0, 1.3, PI, 4.0),
    (0.0, 2.0, 1.2, 5.5),
    (PI, 0.3, 2.1, 3.3),
    # coincident stars
    (1.1, 2.5, 1.1, 2.5),
    (PI / 2, 0.0, PI / 2, 0.0),
    # antipodal stars: theta2 = pi - theta1, delta_phi = pi
    (1.1, 0.4, PI - 1.1, 0.4 + PI),
    (0.3, 5.0, PI - 0.3, 5.0 - PI),
    (PI / 2, 0.0, PI / 2, PI),
    # an azimuth just under 2 pi
    (0.7, UNDER_TWO_PI, 2.2, 0.1),
    (1.9, UNDER_TWO_PI, 2.9, UNDER_TWO_PI),
]


@pytest.fixture(scope="module")
def pairs():
    rows = sample_pairs(2000) + [MsrPair.from_angles(*a) for a in EDGE_ANGLES]
    return rows + [MsrPair(p.star2, p.star1) for p in rows]


@pytest.fixture(scope="module")
def angles(pairs):
    thetas = np.array([[p.star1.theta, p.star2.theta] for p in pairs])
    phis = np.array([[p.star1.phi, p.star2.phi] for p in pairs])
    return thetas, phis


def qutrit_rows(pairs):
    """:func:`msr_to_qutrit` of each pair, stacked: the per-pair reference
    of every batch of amplitude rows."""
    return np.array([msr_to_qutrit(p).vector for p in pairs])


@pytest.fixture(scope="module")
def rows(pairs):
    return qutrit_rows(pairs)


def bits(values):
    """The IEEE bit patterns of float or complex values, so that ``==``
    also tells -0.0 from +0.0."""
    return np.ascontiguousarray(values).view(np.uint64)


def joined(chunks):
    """The ``(thetas, phis)`` chunks of :func:`_sample_chunks` joined into
    two (count, 2) arrays; no chunk gives two empty ones."""
    empty = np.empty((0, 2))
    thetas, phis = zip(*chunks, (empty, empty))
    return np.concatenate(thetas), np.concatenate(phis)


@pytest.mark.parametrize("count, seed", [(0, DEFAULT_SEED), (1, 3), (500, 7)])
def test_sampler_matches_sample_pairs(count, seed):
    thetas, phis = joined(_sample_chunks(count, seed, 7))
    pairs = sample_pairs(count, seed)
    assert pairs == [
        MsrPair.from_angles(thetas[k, 0], phis[k, 0], thetas[k, 1], phis[k, 1])
        for k in range(count)
    ]
    # The sampler normalizes phi as BlochAngles does.
    assert [p.star1.phi for p in pairs] == phis[:, 0].tolist()
    assert [p.star2.phi for p in pairs] == phis[:, 1].tolist()


def test_amplitude_rows(angles, rows):
    # msr_to_qutrit is a 1-row call of the gated amplitude rows: a batch
    # of them must keep every bit of it, and no vanishing part prints as -0.
    thetas, phis = angles
    batch = _gated_rows(*_amplitude_terms(thetas[:, 0], phis[:, 0], thetas[:, 1], phis[:, 1]))
    assert np.array_equal(bits(batch), bits(rows))
    parts = rows.view(float)
    assert not np.any((parts == 0.0) & np.signbit(parts))


def test_shared_trig_rows_match_the_row_functions(pairs, angles, rows):
    # _chunk_rows evaluates each sine and cosine once for the stars, the
    # swapped stars, the turned stars and x, y, f; each row set must keep
    # every bit of msr_to_qutrit of its pairs, and x, y, f of _overlap_parts.
    thetas, phis = angles
    swapped_pairs = [MsrPair(p.star2, p.star1) for p in pairs]
    turned_pairs = [
        MsrPair.from_angles(
            p.star1.theta, p.star1.phi + checks._PHASE_SHIFT,
            p.star2.theta, p.star2.phi + checks._PHASE_SHIFT,
        )
        for p in pairs
    ]
    v, swapped, w, parts = checks._chunk_rows(thetas, phis)
    assert np.array_equal(bits(v), bits(rows))
    assert np.array_equal(bits(swapped), bits(qutrit_rows(swapped_pairs)))
    assert np.array_equal(bits(w), bits(qutrit_rows(turned_pairs)))
    t1, t2, p1, p2 = thetas[:, 0], thetas[:, 1], phis[:, 0], phis[:, 1]
    for shared, own in zip(parts, _overlap_parts(t1, t2, p1 - p2), strict=True):
        assert np.array_equal(bits(shared), bits(own))


def test_matrix_expectation_and_norm(rows):
    # _vdot_rows sums as np.vdot sums, for the norm and for <psi|K|psi>.
    k_rows = (kcbs_operator_diagonal() @ rows[:, :, None])[:, :, 0]
    for other in (rows, k_rows):
        expected = [np.vdot(v, w) for v, w in zip(rows, other)]
        assert np.array_equal(bits(_vdot_rows(rows, other)), bits(expected))


ANGLES = (1.1, 2.3, -2.5)
PAIR = MsrPair.from_angles(1.1, 0.4, 2.3, 2.9)
SCALAR_ROUTES = {
    "f_function": lambda: f_function(*ANGLES),
    "s_function": lambda: s_function(*ANGLES),
    "s_closed_form": lambda: s_closed_form(PAIR),
    "s_rational_form": lambda: s_rational_form(PAIR),
    "s_via_concurrence": lambda: s_via_concurrence(PAIR),
    "concurrence_function": lambda: concurrence_function(*ANGLES),
    "expectation_value": lambda: expectation_value(msr_to_qutrit(PAIR)),
    "concurrence_symmetric": lambda: concurrence_symmetric(msr_to_qutrit(PAIR)),
    "overlap_angle": lambda: overlap_angle(PAIR),
}


@pytest.mark.parametrize("route", SCALAR_ROUTES)
def test_scalar_route_returns_a_python_float(route):
    # A numpy scalar would show as np.float64(...) in a repr.
    assert type(SCALAR_ROUTES[route]()) is float


def test_amplitudes_are_python_complex():
    q = msr_to_qutrit(PAIR)
    assert [type(a) for a in (q.amp_plus1, q.amp_0, q.amp_minus1)] == [complex] * 3


def scalar_walk(pairs):
    """The sampled checks as one loop over star pairs through the scalar
    public functions: the largest error of each, keyed by check name."""
    norm_err = swap_err = phase_err = f_err = 0.0
    s_err = c_err = range_err = spectral_err = dom_err = 0.0
    violations = 0
    op = kcbs_operator_diagonal()
    for pair in pairs:
        qutrit = msr_to_qutrit(pair)
        v = qutrit.vector
        norm_err = max(norm_err, abs(float(np.vdot(v, v).real) - 1.0))
        swapped = msr_to_qutrit(MsrPair(pair.star2, pair.star1)).vector
        swap_err = max(swap_err, float(np.max(np.abs(v - swapped))))
        w = msr_to_qutrit(
            MsrPair(
                BlochAngles(pair.star1.theta, pair.star1.phi + 0.7),
                BlochAngles(pair.star2.theta, pair.star2.phi + 0.7),
            )
        ).vector
        phase_err = max(
            phase_err, float(np.max(np.abs(np.abs(v) ** 2 - np.abs(w) ** 2)))
        )
        f = f_value(pair)
        f_err = max(f_err, abs(f) - 1.0, abs(math.cos(2.0 * overlap_angle(pair)) - f))
        s = s_closed_form(pair)
        expectation = expectation_value(qutrit, op)
        forms = (s, s_rational_form(pair), s_via_concurrence(pair), expectation)
        c = concurrence_msr(pair)
        s_err = max(s_err, max(forms) - min(forms))
        c_err = max(c_err, abs(c - concurrence_symmetric(qutrit)))
        closed = forms[:3]
        range_err = max(
            range_err, SPECTRUM_MIN - min(closed), max(closed) - SPECTRUM_MAX, -c, c - 1.0
        )
        spectral_err = max(
            spectral_err, SPECTRUM_MIN - expectation, expectation - SPECTRUM_MAX
        )
        dom_err = max(dom_err, s_min_for_concurrence(c) - s, s - SPECTRUM_MAX)
        if (
            classify_s(s) is Regime.CONTEXTUAL_NONLOCAL
            and c <= concurrence_threshold() - 1e-10
        ):
            violations += 1
    return {
        "qutrit-normalization": norm_err,
        "star-swap-symmetry": swap_err,
        "global-phase-invariance": phase_err,
        "f-range-and-overlap-roundtrip": f_err,
        "s-four-way-equivalence": s_err,
        "concurrence-equivalence": c_err,
        "s-and-c-range": range_err,
        "spectral-containment": spectral_err,
        "smin-dominance": dom_err,
        "contextual-implies-entangled": float(violations),
    }


@pytest.fixture(scope="module")
def walk(pairs):
    return scalar_walk(pairs)


@pytest.mark.parametrize("size", [checks._CHUNK, 1000, 7])
def test_sampled_checks_match_the_scalar_walk(angles, walk, size):
    thetas, phis = angles
    cuts = range(size, len(thetas), size)
    assert _check_samples(zip(np.split(thetas, cuts), np.split(phis, cuts))) == walk


@pytest.mark.parametrize("broken", [1.1, math.nan])
def test_amplitude_gate_rejects_a_row_as_qutrit_does(rows, broken):
    bad = rows.copy()
    bad[5] *= broken
    with pytest.raises(InvalidStateError) as batched:
        _unit_rows(bad)
    with pytest.raises(InvalidStateError) as single:
        Qutrit.from_vector(bad[5])
    assert str(batched.value) == str(single.value)
    assert str(batched.value).startswith("qutrit amplitudes are not normalized")


def test_expectation_gate_rejects_as_expectation_value_does(rows):
    non_hermitian = np.diag([1j, 0.0, 0.0])
    nan_entry = kcbs_operator_diagonal()
    nan_entry[0, 0] = math.nan
    for op in (non_hermitian, nan_entry):
        with pytest.raises(ValueError, match="not Hermitian") as batched:
            _expectation_rows(rows, op)
        with pytest.raises(ValueError, match="not Hermitian") as single:
            expectation_value(rows[0], op)
        assert str(batched.value) == str(single.value)
    nan_row = rows.copy()
    nan_row[3] = math.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        _expectation_rows(nan_row, kcbs_operator_diagonal())


def test_sampled_checks_memory_is_bounded():
    # All the angles at once would take 6.4 MB at 200 k pairs; the checks
    # draw and check them a chunk at a time.
    tracemalloc.start()
    try:
        results = run_all_checks(samples=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 23
    assert all(r.passed for r in results)
    assert peak < 20 * 2**20


def test_sampled_checks_memory_is_flat_in_the_sample_count():
    # Drawn all at once, the angles would add 6.4 MB to the second peak.
    peaks = []
    for samples in (200_000, 400_000):
        tracemalloc.start()
        try:
            run_all_checks(samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20


def test_chunked_draws_match_the_draws_at_once():
    # The phis come from a second generator advanced past the thetas, so
    # the chunk size cannot move an angle.
    ((thetas, phis),) = _sample_chunks(10_007, 3, 10_007)
    for size in (checks._CHUNK, 1000, 7):
        chunks = list(_sample_chunks(10_007, 3, size))
        assert [len(t) for t, _ in chunks] == [size] * (10_007 // size) + [10_007 % size]
        chunk_thetas, chunk_phis = joined(chunks)
        assert np.array_equal(bits(chunk_thetas), bits(thetas))
        assert np.array_equal(bits(chunk_phis), bits(phis))
    assert list(_sample_chunks(0, 3, 1)) == []


def test_sampler_checks_its_count_at_the_first_chunk():
    chunks = _sample_chunks(-1, 3, 1)
    with pytest.raises(ValueError) as raised:
        next(chunks)
    assert str(raised.value) == "count must be non-negative: got -1"

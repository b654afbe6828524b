"""Projected Hankel bases, the principal-angle kernel, and the angle-based norms.

The Hankel blocks, projections, Vandermonde ranges and principal-angle
routes defined here are test-only oracles: the library builds no Hankel
block and reads every set of angles from orthonormal bases through one
kernel, ``subspace._cosines``.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cepdist import (
    DimensionMismatch,
    InsufficientData,
    MixedPhaseUnsupported,
    NonSimpleRoot,
    RankDeficient,
    RunConfig,
    Signal,
    ValidationError,
    ZeroPoleGain,
    classify_from_io,
    closed_form_norm,
    complex_cepstrum,
    complex_cepstrum_from_zpk,
    example_systems,
    format_pair_csv,
    power_cepstrum_from_zpk,
    power_cepstrum_of_signal,
    projected_bases,
    simulate,
    state_space_from_roots,
    subspace_distance_between_models,
    subspace_distance_from_bases,
    subspace_distance_from_data,
    subspace_norm_from_data,
    subspace_norm_from_model,
    transfer_cepstrum_from_io,
    transfer_complex_cepstrum_from_io,
    weighted_cepstral_distance,
    weighted_cepstral_norm,
)
from cepdist.cli import main
from cepdist.spectral import power_cepstra
from cepdist.subspace import (
    HANKEL_RANK_RTOL,
    ORDER_GAP_MIN,
    _cosines,
    _lag_gram,
    _norm_from_cosines,
    _range_cosines,
)
from conftest import draw_roots, random_balanced_min_phase, random_min_phase, white_record

POLE_HALF = ZeroPoleGain([0.5], [], 1.0)
POLE_NINE = ZeroPoleGain([0.9], [], 1.0)
MIN_PHASE_DEMO = example_systems()["minimum_phase"]
# A zero of the first system (0.3) is a pole of the second, so their
# cascade has a double zero at 0.3.
SHARED_ROOT_A = ZeroPoleGain([0.9, 0.5], [0.3, -0.4], 1.0)
SHARED_ROOT_B = ZeroPoleGain([-0.8, 0.3], [0.7, 0.0], 1.0)
# Hankel columns folded into the triangular factor per QR step of the
# streamed LQ oracle.
LQ_BLOCK = 2048


def _svd_basis(matrix, rtol):
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    return u[:, s > rtol * s[0]]


def project_complement(matrix, onto):
    """Project the columns of ``matrix`` onto the orthogonal complement of
    the column space of ``onto``."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(onto, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch("project_complement needs two-dimensional arrays")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: {a.shape[0]} vs {b.shape[0]}; columns live in different spaces"
        )
    basis = _svd_basis(b, HANKEL_RANK_RTOL)
    if basis.shape[1] == 0:
        return a.copy()
    return a - basis @ (basis.T @ a)


def build_hankel(signal, rows, cols=None):
    """Test-only oracle: the full Hankel block with entries x(r + c) for
    r < rows, c < cols, scaled by 1/sqrt(cols), which the library never
    builds. Without ``cols``, every full window of the signal."""
    x = signal.samples
    if cols is None:
        cols = x.size - rows + 1
    idx = np.arange(rows)[:, None] + np.arange(cols)[None, :]
    return x[idx] / np.sqrt(cols)


def _reference_projected_bases(input_signal, output_signal, rows):
    """Test-only oracle: the projected bases from the full Hankel blocks,
    by two explicit projections and four SVDs, with a relative rank cutoff.

    The library computes the same ranges from lag-product Gram blocks and
    picks the order at a singular-value gap instead.
    """
    uh = build_hankel(input_signal, rows)
    yh = build_hankel(output_signal, rows)
    y_proj = project_complement(yh.T, uh.T).T
    u_proj = project_complement(uh.T, yh.T).T
    return _svd_basis(y_proj, HANKEL_RANK_RTOL), _svd_basis(u_proj, HANKEL_RANK_RTOL)


def _lq_ordered_basis(lower, rows, side):
    """Basis of the second block of a stacked pair with the first block's
    row space projected out, from the pair's lower triangular LQ factor:
    the left singular pairs of its L22 block, cut at the ORDER_GAP_MIN gap
    above a floor of HANKEL_RANK_RTOL times the second block's norm."""
    u, s, _ = np.linalg.svd(lower[rows:, rows:], full_matrices=False)
    floor = HANKEL_RANK_RTOL * np.linalg.norm(lower[rows:], 2)
    s = np.maximum(s, floor)
    if s[0] <= floor:
        return u[:, :0]
    gaps = np.flatnonzero(s[:-1] / s[1:] >= ORDER_GAP_MIN)
    if gaps.size == 0:
        raise RankDeficient(f"no singular-value gap of {ORDER_GAP_MIN:g} fixes the {side} order")
    return u[:, : gaps[-1] + 1]


def _lq_projected_bases(input_signal, output_signal, rows):
    """Test-only oracle: the projected bases from one streamed LQ
    factorization [U; Y] = L Q^T of the stacked Hankel blocks (MOESP,
    Verhaegen & Dewilde 1992), with the order at the ORDER_GAP_MIN gap.

    The triangular factor is accumulated LQ_BLOCK Hankel columns at a time;
    re-triangularizing it with its blocks swapped gives the input side. The
    library reaches the same ranges from lag-product Gram blocks instead.
    """
    cols = len(input_signal) - rows + 1
    windows = [
        np.lib.stride_tricks.sliding_window_view(s.samples, rows)[:cols]
        for s in (input_signal, output_signal)
    ]
    stack = np.empty((2 * rows + min(cols, LQ_BLOCK), 2 * rows))
    top = 0
    for start in range(0, cols, LQ_BLOCK):
        stop = min(start + LQ_BLOCK, cols)
        end = top + stop - start
        stack[top:end, :rows] = windows[0][start:stop]
        stack[top:end, rows:] = windows[1][start:stop]
        r = np.linalg.qr(stack[:end], mode="r")
        top = r.shape[0]
        stack[:top] = r
    swapped = np.linalg.qr(np.hstack([r[:, rows:], r[:, :rows]]), mode="r")
    scale = np.sqrt(cols)
    return (
        _lq_ordered_basis(r.T / scale, rows, "output"),
        _lq_ordered_basis(swapped.T / scale, rows, "input"),
    )


def vandermonde_range(roots, depth):
    """Test-only oracle: the matrix whose columns are (1, r, ..., r^(depth-1))
    per root, the truncated observability range of distinct roots."""
    return np.asarray(roots, dtype=complex)[None, :] ** np.arange(depth)[:, None]


def principal_angles_qr(a, b):
    """Test-only oracle: cosines, descending, of the principal angles
    between the column spaces of two full-rank matrices, by a QR of each
    and one SVD (Bjorck & Golub 1973)."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return np.clip(np.linalg.svd(qa.conj().T @ qb, compute_uv=False), 0.0, 1.0)


def principal_angles_eigen(a, b):
    """Test-only oracle: the cosines of ``principal_angles_qr`` via the
    Gram-matrix pencil.

    The symmetric generalized eigenvalue problem on the blocks A^H B and
    diag(A^H A, B^H B) has eigenvalues +-cos(theta) padded with zeros. It
    avoids orthonormalizing the inputs, at the cost of squaring their
    conditioning, and shares no step with the QR/SVD routes.
    """
    na, nb = a.shape[1], b.shape[1]
    if na == 0 or nb == 0:
        return np.zeros(0)
    cross = np.zeros((na + nb, na + nb), dtype=complex)
    cross[:na, na:] = a.conj().T @ b
    cross[na:, :na] = cross[:na, na:].conj().T
    gram = np.zeros_like(cross)
    gram[:na, :na] = a.conj().T @ a
    gram[na:, na:] = b.conj().T @ b
    chol = np.linalg.cholesky(gram)
    half = np.linalg.solve(chol, cross)
    sym = np.linalg.solve(chol, half.conj().T).conj().T
    eigenvalues = np.linalg.eigvalsh(sym)
    return np.clip(np.sort(eigenvalues)[::-1][: min(na, nb)], 0.0, 1.0)


def first_windows(pair, rows, cols):
    """The record cut to the first rows + cols - 1 samples, so that its
    rows-row Hankel blocks have cols columns; the whole record for None."""
    if cols is None:
        return pair
    return tuple(Signal(s.samples[: rows + cols - 1]) for s in pair)


def _bases_norm(bases):
    if 0 in (bases[0].shape[1], bases[1].shape[1]):
        return 0.0
    return -float(np.sum(np.log(np.square(principal_angles_qr(*bases)))))


def test_hankel_single_row():
    block = build_hankel(Signal(np.arange(1.0, 6.0)), rows=1)
    assert block.shape == (1, 5)
    assert np.allclose(block[0], np.arange(1.0, 6.0) / np.sqrt(5.0))


def test_hankel_two_by_three_literal():
    block = build_hankel(Signal(np.array([1.0, 2.0, 3.0, 4.0])), rows=2, cols=3)
    expected = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]) / np.sqrt(3.0)
    assert np.allclose(block, expected, atol=1e-15)


@given(st.integers(0, 10**6))
def test_hankel_antidiagonals_are_constant(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(32)
    block = build_hankel(Signal(x), rows=5, cols=20)
    scaled = block * np.sqrt(20.0)
    for r in range(5):
        for c in range(20):
            assert abs(scaled[r, c] - x[r + c]) <= 1e-12


@pytest.mark.parametrize("rows", [1, 2, 40, 150])
@pytest.mark.parametrize("extra_cols", [1, 1000])
def test_lag_gram_equals_the_explicit_hankel_product(rows, extra_cols):
    cols = rows + extra_cols
    rng = np.random.default_rng(rows)
    x, y = rng.standard_normal((2, rows + cols - 1))
    for a, b in ((x, y), (x, x)):
        explicit = build_hankel(Signal(a), rows) @ build_hankel(Signal(b), rows).T * cols
        gram = _lag_gram(a, b, rows)
        assert gram.shape == (rows, rows)
        assert np.max(np.abs(gram - explicit)) <= 1e-14 * np.max(np.abs(explicit))


def test_hankel_needs_enough_samples():
    with pytest.raises(InsufficientData):
        projected_bases(Signal(np.ones(4)), Signal(np.ones(4)), rows=5)


def test_project_complement_two_dimensional_case():
    y = np.array([[1.0], [1.0]])
    u = np.array([[1.0], [0.0]])
    assert np.allclose(project_complement(y, u), [[0.0], [1.0]], atol=1e-15)


@given(st.integers(0, 10**6))
def test_project_complement_is_idempotent_and_orthogonal(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((12, 4))
    u = rng.standard_normal((12, 3))
    once = project_complement(y, u)
    twice = project_complement(once, u)
    assert np.max(np.abs(once - twice)) <= 1e-12
    assert np.max(np.abs(u.T @ once)) <= 1e-10 * max(1.0, np.max(np.abs(y)))


def test_project_complement_onto_full_span_gives_zero():
    y = np.random.default_rng(1).standard_normal((2, 3))
    assert np.max(np.abs(project_complement(y, np.eye(2)))) <= 1e-14


def test_project_complement_shape_validation():
    with pytest.raises(DimensionMismatch):
        project_complement(np.ones((3, 1)), np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        project_complement(np.ones(3), np.ones((3, 1)))


def test_vandermonde_literal_two_roots():
    got = vandermonde_range([0.5, 0.3], 3)
    assert np.allclose(got, [[1.0, 1.0], [0.5, 0.3], [0.25, 0.09]], atol=1e-15)


def test_vandermonde_single_root():
    assert np.allclose(vandermonde_range([0.7], 2), [[1.0], [0.7]])


@pytest.mark.parametrize(
    "first, second, cosines, norm",
    [
        (np.eye(8, 3), np.eye(8, 3), [1.0, 1.0, 1.0], 0.0),
        ([[1.0], [0.0]], [[0.0], [1.0]], [0.0], np.inf),
        ([[1.0], [0.0]], [[2.0**-0.5], [2.0**-0.5]], [2.0**-0.5], np.log(2.0)),
        (np.eye(6, 2), np.zeros((6, 0)), [], 0.0),
    ],
    ids=["identical", "orthogonal", "diagonal", "empty"],
)
def test_cosine_kernel_on_literal_subspaces(first, second, cosines, norm):
    got = _cosines(np.asarray(first).T @ np.asarray(second))
    assert got.shape == (len(cosines),)
    assert np.max(np.abs(got - cosines), initial=0.0) <= 1e-15
    assert _norm_from_cosines(got) == pytest.approx(norm, abs=1e-15)


@given(st.integers(0, 10**6))
def test_cosine_kernel_is_symmetric_in_its_bases(seed):
    rng = np.random.default_rng(seed)
    qa = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    qb = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    assert np.max(np.abs(_cosines(qa.T @ qb) - _cosines(qb.T @ qa))) <= 1e-12


@given(st.integers(0, 10**6))
def test_cosine_kernel_matches_the_eigen_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((12, 4))
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    assert np.max(np.abs(_cosines(qa.T @ qb) - principal_angles_eigen(a, b))) <= 1e-10


def test_cosine_kernel_matches_the_eigen_oracle_for_complex_bases():
    depth = 60
    a = vandermonde_range([0.5, 0.3 + 0.2j, 0.3 - 0.2j], depth)
    b = vandermonde_range([0.8, -0.25 + 0.4j, -0.25 - 0.4j], depth)
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    by_kernel = _cosines(qa.conj().T @ qb)
    assert np.max(np.abs(by_kernel - principal_angles_eigen(a, b))) <= 1e-10


def test_model_norm_of_pure_gain_is_zero():
    assert subspace_norm_from_model(ZeroPoleGain(gain=3.0)) == 0.0


def test_model_norm_pole_zero_pair_matches_closed_form():
    zpk = ZeroPoleGain([0.5], [-0.5], 1.0)
    value = subspace_norm_from_model(zpk)
    assert abs(value - closed_form_norm(zpk)) <= 1e-10


def test_model_norm_demo_minimum_phase_agreement():
    system = example_systems()["minimum_phase"]
    value = subspace_norm_from_model(system)
    assert abs(value - closed_form_norm(system)) <= 1e-13


def test_model_norm_maximum_phase_equals_reflected_minimum_phase():
    system = example_systems()["maximum_phase"]
    value = subspace_norm_from_model(system)
    assert abs(value - closed_form_norm(system)) <= 1e-9
    reflected = ZeroPoleGain(system.folded_poles(), system.folded_zeros(), 1.0)
    assert value == subspace_norm_from_model(reflected)


def test_model_norm_rejects_mixed_phase():
    with pytest.raises(MixedPhaseUnsupported):
        subspace_norm_from_model(example_systems()["mixed"])


def test_model_norm_pads_a_single_missing_zero():
    value = subspace_norm_from_model(POLE_HALF)
    assert abs(value + np.log(0.75)) <= 1e-10


@pytest.mark.parametrize(
    "poles, zeros",
    [([0.5, -0.3, 0.2], []), ([], [0.5, -0.3, 0.2]), ([0.6, 0.3 + 0.4j, 0.3 - 0.4j, -0.5], [0.1])],
    ids=["no-zeros", "no-poles", "three-more-poles"],
)
def test_model_norm_pads_any_count_gap_with_roots_at_the_origin(poles, zeros):
    zpk = ZeroPoleGain(poles, zeros, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = subspace_norm_from_model(zpk)
    assert abs(value - closed_form_norm(zpk)) <= 1e-13


@pytest.mark.parametrize("radius", [0.99, 0.999, 0.9999])
def test_model_norm_of_a_slow_pole(radius):
    zpk = ZeroPoleGain([radius, -0.3], [0.5, 0.2], 1.0)
    value = subspace_norm_from_model(zpk)
    closed = closed_form_norm(zpk)
    assert abs(value - closed) <= 1e-11 * closed


@pytest.mark.parametrize("count", [20, 60])
@pytest.mark.parametrize("outside", [False, True])
def test_model_norm_of_many_roots(count, outside):
    # The cross Gramian is solved one column block at a time; at 60 roots a
    # side the n^2 x n^2 system it replaced took seconds and 200 MB.
    rng = np.random.default_rng([count, outside])
    zpk = ZeroPoleGain(draw_roots(rng, count, outside), draw_roots(rng, count, outside), 1.3)
    value = subspace_norm_from_model(zpk)
    closed = closed_form_norm(zpk)
    # As in ``test_routes_take_repeated_roots``: n eps of absolute rounding
    # per cosine, which -log(c^2) turns into 2 n eps / c.
    cosines = _range_cosines(zpk.folded_poles(), zpk.folded_zeros())
    rounding = 2.0 * cosines.size * np.finfo(float).eps * np.sum(1.0 / cosines)
    assert abs(value - closed) <= 1e-12 * abs(closed) + rounding


def test_model_norm_of_a_pair_that_folds_across_the_real_axis_tolerance():
    # The zeros pair within TAU_MULT * |r| = 1.1e-8 of conjugates. Reflected
    # into the disc, one lies 9.9e-9 from the real axis, within TAU_MULT,
    # and its partner 1.2e-8: the realization must still give both a state.
    zpk = ZeroPoleGain([2.0, 3.0], [1.1 + 1.2e-8j, 1.1 - 1.5e-8j], 1.0)
    assert abs(subspace_norm_from_model(zpk) - closed_form_norm(zpk)) <= 1e-13


def _real_or_pair(magnitude, angle):
    if angle == 0.0:
        return [complex(magnitude)]
    return [magnitude * np.exp(1j * angle), magnitude * np.exp(-1j * angle)]


@st.composite
def clustered_slow_unbalanced_roots(draw):
    """Up to three poles clustered 1e-7 to 1e-1 apart, one pole 1e-4 to 1e-1
    inside the unit circle, and zero to five zeros, real or in conjugate pairs."""
    centre = draw(st.floats(-0.7, 0.7))
    spacing = 10.0 ** draw(st.floats(-7.0, -1.0))
    cluster = [centre + k * spacing for k in range(draw(st.integers(1, 3)))]
    slow = draw(st.sampled_from([1.0, -1.0])) * (1.0 - 10.0 ** draw(st.floats(-4.0, -1.0)))
    zeros = []
    angles = st.one_of(st.just(0.0), st.floats(0.2, np.pi - 0.2))
    for magnitude, angle in draw(st.lists(st.tuples(st.floats(-0.95, 0.95), angles), max_size=5)):
        more = _real_or_pair(magnitude, angle)
        if len(zeros) + len(more) <= 5:
            zeros += more
    return cluster + [slow], zeros


@given(clustered_slow_unbalanced_roots())
# A triple pole at 0.4 and a triple zero at 0.9.
@example(([0.4, 0.4, 0.4, -0.999], [0.9, 0.9, 0.9, -0.5 + 0.2j, -0.5 - 0.2j]))
# Three poles within 7e-4 of each other: 0.5746, 0.5750 and 0.5753.
@example(
    (
        [0.5745678761072228, 0.5750388052861508, 0.5752587263854098],
        [0.6851663884365519, -0.5669881156572236 + 0.18845654119022714j,
         -0.5669881156572236 - 0.18845654119022714j],
    )
)
def test_model_norm_matches_closed_form_on_clustered_slow_and_unbalanced_roots(roots):
    zpk = ZeroPoleGain(*roots, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = subspace_norm_from_model(zpk)
    closed = closed_form_norm(zpk)
    assert abs(value - closed) <= 1e-11 * max(1.0, abs(closed))


@st.composite
def repeated_roots(draw):
    """One to three base roots a side, real or conjugate pairs of modulus at
    most 0.95, each of multiplicity one to three; every root, or each base
    root on its own, may be reflected outside the unit circle."""
    reflect = draw(st.sampled_from(["none", "every", "each"]))
    angles = st.one_of(st.just(0.0), st.floats(0.2, np.pi - 0.2))
    sides = []
    for _ in range(2):
        roots = []
        for _ in range(draw(st.integers(1, 3))):
            magnitude = draw(st.floats(0.05, 0.95)) * draw(st.sampled_from([1.0, -1.0]))
            base = _real_or_pair(magnitude, draw(angles))
            if reflect == "every" or (reflect == "each" and draw(st.booleans())):
                base = [1.0 / np.conj(r) for r in base]
            roots += base * draw(st.integers(1, 3))
        sides.append(roots)
    return tuple(sides)


@given(repeated_roots())
@example(([0.5, 0.5, 0.5], [0.1, 0.1]))
@example(([0.9, 0.9], []))
@example(([0.6 + 0.3j, 0.6 - 0.3j] * 2, [0.2, 0.2]))
@example(([2.0, 2.0], [3.0]))
def test_routes_take_repeated_roots(roots):
    zpk = ZeroPoleGain(*roots, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = closed_form_norm(zpk)
        series = weighted_cepstral_norm(power_cepstrum_from_zpk(zpk, 4096)).value
        assert abs(series - closed) <= 1e-12 * max(1.0, abs(closed))
        power = power_cepstrum_from_zpk(zpk, 64)
        two_sided = complex_cepstrum_from_zpk(zpk, 64)
        assert np.allclose(two_sided.positive + two_sided.negative, power.positive, atol=1e-12)
        if zpk.is_minimum_phase or zpk.is_maximum_phase:
            value = subspace_norm_from_model(zpk)
            # Each cosine carries an absolute rounding error of order eps,
            # which -log(c^2) turns into 2 eps / c: a draw with a tiny cosine
            # loses digits on this route whether or not it repeats a root.
            # The bound allows n eps per cosine for n cosines; over 4000
            # draws the error stayed within eps / 2 per cosine.
            cosines = _range_cosines(zpk.folded_poles(), zpk.folded_zeros())
            rounding = 2.0 * cosines.size * np.finfo(float).eps * np.sum(1.0 / cosines)
            assert abs(value - closed) <= 1e-11 * max(1.0, abs(closed)) + rounding


@given(st.integers(0, 10**6))
def test_model_cosines_match_the_vandermonde_oracle(seed):
    # Roots of modulus at most 1 - CIRCLE_MARGIN: at 400 rows the truncated
    # Vandermonde ranges are the infinite ones to rounding.
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 4))
    poles, zeros = draw_roots(rng, count), draw_roots(rng, count)
    roots = poles + zeros
    assume(all(abs(a - b) >= 1e-3 for i, a in enumerate(roots) for b in roots[i + 1 :]))
    oracle = principal_angles_qr(vandermonde_range(poles, 400), vandermonde_range(zeros, 400))
    cosines = _range_cosines(poles, zeros)
    assert np.max(np.abs(cosines - oracle)) <= 1e-11


def test_distance_between_identical_models_is_zero():
    zpk = ZeroPoleGain([0.5, -0.3], [0.7], 2.0)
    assert subspace_distance_between_models(zpk, zpk) == 0.0


def test_distance_between_single_pole_models():
    value = subspace_distance_between_models(POLE_HALF, POLE_NINE)
    assert value == pytest.approx(0.7527392777621913, abs=1e-9)
    swapped = subspace_distance_between_models(POLE_NINE, POLE_HALF)
    assert abs(value - swapped) <= 1e-10


def test_data_norm_of_single_pole_record():
    u, y = white_record(POLE_HALF, 2**14, 0)
    value = subspace_norm_from_data(u, y, rows=150)
    assert abs(value + np.log(0.75)) <= 1e-3


def test_data_norm_of_identity_record_is_zero():
    u = Signal(np.random.default_rng(5).standard_normal(2048))
    basis_y, basis_u = projected_bases(u, u, rows=40)
    assert basis_y.shape == (40, 0) and basis_u.shape == (40, 0)
    assert subspace_norm_from_data(u, u, rows=40) == 0.0


def test_data_distance_of_a_record_with_itself_is_zero():
    pair = white_record(POLE_HALF, 4096, 1)
    assert subspace_distance_from_data(pair, pair, rows=60) <= 1e-10


def test_data_norm_of_a_double_pole_record():
    zpk = ZeroPoleGain([0.5, 0.5], [0.2], 1.0)
    u, y = white_record(zpk, 8192, 0)
    closed = closed_form_norm(zpk)
    value = subspace_norm_from_data(u, y, rows=150)
    assert abs(value - closed) <= RunConfig().tol_model * closed
    assert classify_from_io(u, y, RunConfig()).kind == "MinimumPhaseStable"


@given(st.integers(0, 10**6))
def test_projected_bases_are_orthonormal_for_the_cosine_kernel(seed):
    # ``_cosines`` reads the angles from the bases as they are, with no
    # orthonormalization of its own; over 1000 seeds the bases held to
    # 1.9e-15 and the norms to 3.7e-14 of the eigen oracle.
    zpk = random_min_phase(np.random.default_rng(seed), max_each=3)
    # The canonical realization needs no more zeros than poles.
    assume(len(zpk.zeros) <= len(zpk.poles))
    u, y = white_record(zpk, 2048, seed)
    try:
        bases = projected_bases(u, y, rows=40)
    except RankDeficient:
        # A near-cancelling pole-zero pair leaves no clear order gap (about
        # one seed in 700): the record is refused and returns no basis.
        assume(False)
    for basis in bases:
        assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])), initial=0.0) <= 1e-12
    oracle = -float(np.sum(np.log(np.square(principal_angles_eigen(*bases)))))
    assert abs(subspace_norm_from_data(u, y, rows=40) - oracle) <= 1e-10


def test_data_distance_between_two_known_systems():
    pair_a = white_record(POLE_HALF, 2**13, 0)
    pair_b = white_record(POLE_NINE, 2**13, 1)
    value = subspace_distance_from_data(pair_a, pair_b, rows=100)
    assert abs(value - 0.7527392777621913) <= 1e-3
    swapped = subspace_distance_from_data(pair_b, pair_a, rows=100)
    assert abs(value - swapped) <= 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=10)
def test_model_norm_matches_closed_form_on_random_systems(seed):
    zpk = random_min_phase(np.random.default_rng(seed), max_each=3)
    value = subspace_norm_from_model(zpk)
    assert abs(value - closed_form_norm(zpk)) <= 1e-9


# (rows, record length, column count or None for every full window): both
# row counts in use, column counts straddling one block of the LQ oracle, and fewer
# than 2 * rows columns. A column count c is had by keeping the first
# rows + c - 1 samples.
EQUIVALENCE_CASES = [
    (40, 2048, None),
    (150, 4096, None),
    (40, 4096, 3000),
    (40, 4096, LQ_BLOCK - 1),
    (40, 4096, LQ_BLOCK),
    (40, 4096, LQ_BLOCK + 1),
    (40, 4096, 70),
]


def _assert_bases_match(oracle, rows, length, cols):
    """The library's bases have the oracle's ranks, and norms and pair
    distances within 1e-10 of the oracle's, on three systems' records."""
    systems = (MIN_PHASE_DEMO, POLE_NINE, random_min_phase(np.random.default_rng(13), 3))
    new, old = [], []
    for seed, system in enumerate(systems):
        u, y = first_windows(white_record(system, length, seed), rows, cols)
        new.append(projected_bases(u, y, rows))
        old.append(oracle(u, y, rows))
        assert [b.shape for b in new[-1]] == [b.shape for b in old[-1]]
        assert abs(_bases_norm(new[-1]) - _bases_norm(old[-1])) <= 1e-10
    for i in range(len(systems)):
        for j in range(len(systems)):
            by_library = subspace_distance_from_bases(new[i], new[j])
            by_oracle = subspace_distance_from_bases(old[i], old[j])
            assert abs(by_library - by_oracle) <= 1e-10


@pytest.mark.parametrize("rows,length,cols", EQUIVALENCE_CASES)
def test_lq_bases_match_the_reference_projections(rows, length, cols):
    _assert_bases_match(_reference_projected_bases, rows, length, cols)


@pytest.mark.parametrize("rows,length,cols", EQUIVALENCE_CASES)
def test_library_bases_match_the_lq_oracle(rows, length, cols):
    _assert_bases_match(_lq_projected_bases, rows, length, cols)


NOISE_RECORD = white_record(MIN_PHASE_DEMO, 4096, 3)


@given(st.floats(-9.0, -1.0), st.integers(0, 10**6))
@settings(max_examples=25)
# Noise 1e-3 lands within tol_model only because ORDER_GAP_MIN refuses it:
# a gap constant of 10 keeps the order there and misses by about 4e-3.
@example(-3.0, 0)
@example(-6.0, 0)
def test_data_norm_under_output_noise_is_accurate_or_refused(log_noise, seed):
    u, y = NOISE_RECORD
    noise = 10.0**log_noise * np.random.default_rng(seed).standard_normal(len(y))
    try:
        value = subspace_norm_from_data(u, Signal(y.samples + noise), rows=60)
    except RankDeficient as exc:
        assert f"{ORDER_GAP_MIN:g}" in str(exc)
        return
    assert abs(value - closed_form_norm(MIN_PHASE_DEMO)) <= RunConfig().tol_model


def test_data_norm_under_small_noise_keeps_the_model_order():
    u, y = white_record(MIN_PHASE_DEMO, 2**14, 0)
    noisy = Signal(y.samples + 1e-6 * np.random.default_rng(7).standard_normal(len(y)))
    basis_y, basis_u = projected_bases(u, noisy, rows=150)
    assert basis_y.shape[1] == 3 and basis_u.shape[1] == 3
    value = _bases_norm((basis_y, basis_u))
    closed = closed_form_norm(MIN_PHASE_DEMO)
    assert abs(value - closed) <= 1e-6 * closed


@pytest.mark.parametrize("pole", [0.99, 0.999])
def test_data_norm_of_a_colored_input_record(pole):
    # A low-pass input leaves the third projected singular value at 2e-5 to
    # 8e-5 of the block norm: its gap to the next is measured on the data,
    # since the Gram eigenvalues blur everything under sqrt(rows * eps).
    white = Signal(np.random.default_rng(3).standard_normal(8192))
    u = simulate(state_space_from_roots(ZeroPoleGain([pole], [], 1.0)), white)
    y = simulate(state_space_from_roots(MIN_PHASE_DEMO), u)
    bases = projected_bases(u, y, rows=150)
    assert [b.shape for b in bases] == [b.shape for b in _lq_projected_bases(u, y, 150)]
    assert [b.shape[1] for b in bases] == [3, 3]
    assert abs(_bases_norm(bases) - closed_form_norm(MIN_PHASE_DEMO)) <= 1e-9


def test_data_bases_refuse_a_record_without_an_order_gap():
    u, y = NOISE_RECORD
    noisy = Signal(y.samples + 1e-2 * np.random.default_rng(1).standard_normal(len(y)))
    with pytest.raises(RankDeficient, match="gap"):
        projected_bases(u, noisy, rows=60)


# The causes named when no order gap is found and the input block is
# well conditioned, at 60 Hankel rows.
NEAR_CANCEL_OR_NOISE = (
    "a pole and a zero nearly cancel, so the record barely excites their mode; "
    "the record is too noisy; or the order reaches the 60 usable dimensions"
)


def test_refusal_names_an_ill_conditioned_gram_block():
    # White noise through an AR(1) filter with pole 0.9999 drives the
    # demo system: the output Gram block's eigenvalue ratio is 3.9e7, and
    # projecting the output out leaves no gap of ORDER_GAP_MIN in the input
    # basis. The largest ratio (about 295) carries that conditioning times
    # the rounding, so its last digits move with the BLAS thread count.
    colored = simulate(
        state_space_from_roots(ZeroPoleGain([0.9999], [], 1.0)),
        Signal(np.random.default_rng(3).standard_normal(8192)),
    )
    output = simulate(state_space_from_roots(MIN_PHASE_DEMO), colored)
    with pytest.raises(RankDeficient) as refusal:
        projected_bases(colored, output, rows=150)
    ratio = re.search(r"fixes the input order \(largest ratio ([^)]+)\)", str(refusal.value))
    assert ratio is not None
    assert np.isfinite(float(ratio.group(1))) and float(ratio.group(1)) < ORDER_GAP_MIN
    assert "output Hankel Gram matrix is ill-conditioned (eigenvalue ratio 3.94e+07)" in str(
        refusal.value
    )
    assert "too noisy" not in str(refusal.value)
    assert refusal.value.exit_code == 2
    # A white input keeps the diagnosis for a well-conditioned input block.
    u, y = NOISE_RECORD
    noisy = Signal(y.samples + 1e-2 * np.random.default_rng(1).standard_normal(len(y)))
    with pytest.raises(RankDeficient, match=NEAR_CANCEL_OR_NOISE):
        projected_bases(u, noisy, rows=60)


def test_refusal_names_a_nearly_cancelling_pole_and_zero():
    # A noise-free record of order 3 whose pole -0.4285 and zero -0.4300 lie
    # 1.5e-3 apart: their mode is barely excited, so no gap of
    # ORDER_GAP_MIN fixes the output order at 40 rows. Noise is not the cause.
    zpk = random_min_phase(np.random.default_rng(216), max_each=3)
    pole, zero = min(
        ((p, z) for p in zpk.poles for z in zpk.zeros), key=lambda pair: abs(pair[0] - pair[1])
    )
    assert abs(pole - zero) < 2e-3
    u, y = white_record(zpk, 2048, 216)
    with pytest.raises(RankDeficient) as refusal:
        projected_bases(u, y, rows=40)
    assert "fixes the output order" in str(refusal.value)
    assert str(refusal.value).endswith(NEAR_CANCEL_OR_NOISE.replace("60", "40"))
    assert refusal.value.exit_code == 2


SHARED_ROOT_RECORDS = (white_record(SHARED_ROOT_A, 4096, 0), white_record(SHARED_ROOT_B, 4096, 1))


def _decisions(bases_of, records, rows):
    """Kept orders of each record (or RankDeficient), then the verdict on
    the last two records' distance: computed, or refused with NonSimpleRoot."""
    verdicts, bases = [], []
    for u, y in records:
        try:
            bases.append(bases_of(u, y, rows))
            verdicts.append(tuple(b.shape[1] for b in bases[-1]))
        except RankDeficient:
            bases.append(None)
            verdicts.append("RankDeficient")
    if bases[-2] is not None and bases[-1] is not None:
        try:
            subspace_distance_from_bases(bases[-2], bases[-1])
            verdicts.append("distance")
        except NonSimpleRoot:
            verdicts.append("NonSimpleRoot")
    return verdicts


@given(st.floats(-9.0, -1.0), st.integers(0, 10**6))
@settings(max_examples=25)
@example(-7.0, 0)
@example(-2.0, 0)
def test_library_and_lq_oracle_decide_alike_under_output_noise(log_noise, seed):
    records = []
    for offset, (u, y) in enumerate((NOISE_RECORD, *SHARED_ROOT_RECORDS)):
        noise = 10.0**log_noise * np.random.default_rng(seed + offset).standard_normal(len(y))
        records.append((u, Signal(y.samples + noise)))
    assert _decisions(projected_bases, records, 60) == _decisions(_lq_projected_bases, records, 60)


_TIME = np.arange(4096)
# Inputs that are not persistently exciting of order 150. For some of them
# the streamed LQ returned empty bases and a silent norm of 0.
POOR_INPUTS = {
    "impulse": np.eye(1, 4096)[0],
    "step": np.ones(4096),
    "sine": np.sin(0.3 * _TIME),
    "two-sines": np.sin(0.3 * _TIME) + np.sin(1.1 * _TIME + 0.4),
    "zero": np.zeros(4096),
}


@pytest.mark.parametrize("kind", list(POOR_INPUTS))
def test_data_norm_refuses_inputs_that_are_not_persistently_exciting(kind):
    u = Signal(POOR_INPUTS[kind])
    y = simulate(state_space_from_roots(MIN_PHASE_DEMO), u)
    with pytest.raises(RankDeficient, match="the input is not persistently exciting of order 150"):
        subspace_norm_from_data(u, y)


# Near 1e307 the streamed LQ stopped with NumPy's untyped LinAlgError, near
# 1e154 the squared FFT magnitudes of the cepstral routes overflow, and far
# below 1 they underflow. Every route scales the record by a power of two
# first: only c(0) moves, by the log of the gain.
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
@settings(max_examples=25)
@example(307.0, 0.0)
@example(0.0, 160.0)
@example(-300.0, 0.0)
def test_data_routes_do_not_depend_on_the_record_scale(log_input, log_output):
    u, y = NOISE_RECORD
    config = RunConfig()
    gain_u, gain_y = 10.0**log_input, 10.0**log_output
    scaled = (Signal(gain_u * u.samples), Signal(gain_y * y.samples))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        angle_norm = subspace_norm_from_data(*scaled, rows=60)
        cepstrum = transfer_cepstrum_from_io(*scaled, config)
        batch = power_cepstra([scaled, scaled[1]], config)
        verdict = classify_from_io(*scaled, config)
        complex_pair = transfer_complex_cepstrum_from_io(*scaled, config)
        complex_output = complex_cepstrum(scaled[1], None, config.K)
    want = subspace_norm_from_data(u, y, rows=60)
    assert abs(angle_norm - want) <= 1e-12 * want
    log_u, log_y = np.log(gain_u), np.log(gain_y)
    cases = [
        (cepstrum, transfer_cepstrum_from_io(u, y, config), 2.0 * (log_y - log_u)),
        (batch[0], transfer_cepstrum_from_io(u, y, config), 2.0 * (log_y - log_u)),
        (batch[1], power_cepstrum_of_signal(y, config), 2.0 * log_y),
        (complex_pair, transfer_complex_cepstrum_from_io(u, y, config), log_y - log_u),
        (complex_output, complex_cepstrum(y, None, config.K), log_y),
    ]
    for got, reference, shift in cases:
        want = weighted_cepstral_norm(reference).value
        assert abs(weighted_cepstral_norm(got).value - want) <= 1e-12 * want
        zeroth = reference.zeroth + shift
        assert abs(got.zeroth - zeroth) <= 1e-12 * max(1.0, abs(zeroth))
    # The energies are compared on the scale of their total, the scale that
    # the verdict reads them on.
    reference = classify_from_io(u, y, config)
    assert verdict.kind == reference.kind
    total = reference.positive_energy + reference.negative_energy
    assert abs(verdict.positive_energy - reference.positive_energy) <= 1e-12 * total
    assert abs(verdict.negative_energy - reference.negative_energy) <= 1e-12 * total


def _bases_outcome(u, y, rows):
    """The bytes of both projected bases, or the class and text of the refusal."""
    try:
        return [basis.tobytes() for basis in projected_bases(u, y, rows)]
    except RankDeficient as exc:
        return type(exc), str(exc)


# A gain of 2**k is exact, and so is the scaling by lti.range_exponent that
# the record gets outside [2**-128, 2**128]; inside, it gets none, and the
# lag products, solves and factorizations scale exactly along with it. The
# bounds on k keep every sample a normal, finite number.
@given(st.integers(0, 10**6), st.integers(-960, 960), st.integers(-960, 960))
@settings(max_examples=25)
@example(0, 127, -127)
@example(0, 128, -129)
@example(0, 960, -960)
@example(0, -960, 200)
def test_power_of_two_gains_keep_the_bases_bit_for_bit(seed, k_input, k_output):
    rng = np.random.default_rng(seed)
    u, y = white_record(random_balanced_min_phase(rng), int(rng.integers(200, 1200)), seed)
    scaled = Signal(np.ldexp(u.samples, k_input)), Signal(np.ldexp(y.samples, k_output))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bases_outcome(*scaled, 40) == _bases_outcome(u, y, 40)


def test_data_bases_refuse_no_more_columns_than_rows():
    u, y = white_record(POLE_HALF, 260, 0)
    with pytest.raises(InsufficientData, match="more columns than rows"):
        projected_bases(u, y, rows=150)
    with pytest.raises(InsufficientData, match="more columns than rows"):
        projected_bases(*first_windows((u, y), 40, 40), rows=40)
    bases = projected_bases(*first_windows((u, y), 40, 43), rows=40)
    assert [b.shape for b in bases] == [(40, 1), (40, 1)]


def test_data_bases_keep_the_hankel_size_checks():
    u, y = white_record(POLE_HALF, 64, 0)
    with pytest.raises(ValidationError, match="rows must be positive"):
        projected_bases(u, y, rows=0)
    with pytest.raises(InsufficientData, match="at least 130 samples, got 64$"):
        projected_bases(u, y, rows=65)
    with pytest.raises(ValidationError, match="lengths differ"):
        projected_bases(u, Signal(y.samples[:-1]), rows=20)


def test_data_distance_refuses_systems_sharing_a_root():
    # The models' distance is a number: only the data route lacks the
    # confluent direction of the repeated root.
    series = weighted_cepstral_distance(
        power_cepstrum_from_zpk(SHARED_ROOT_A, 4096), power_cepstrum_from_zpk(SHARED_ROOT_B, 4096)
    ).value
    value = subspace_distance_between_models(SHARED_ROOT_A, SHARED_ROOT_B)
    assert abs(value - series) <= 1e-12 * series
    pair_a = white_record(SHARED_ROOT_A, 4096, 0)
    pair_b = white_record(SHARED_ROOT_B, 4096, 1)
    with pytest.raises(NonSimpleRoot, match="3 of 4 columns"):
        subspace_distance_from_data(pair_a, pair_b, rows=60)


def _noisy_shared_root_records(noise):
    """Records of the two shared-root systems, 16384 samples, with white output noise."""
    pairs = []
    for seed, system in enumerate((SHARED_ROOT_A, SHARED_ROOT_B)):
        u, y = white_record(system, 16384, seed)
        noisy = y.samples + noise * np.random.default_rng(10 + seed).standard_normal(len(y))
        pairs.append((u, Signal(noisy)))
    return pairs


# With a little output noise the two bases are no longer exactly dependent:
# a fixed rank cutoff kept all four columns and returned about 9.9 against
# a series distance of 8.97. The largest adjacent singular-value ratio of
# the span is still about 5e6 at 1e-7 and 5e5 at 1e-6.
@pytest.mark.parametrize("noise", [1e-7, 1e-6])
def test_data_distance_refuses_shared_roots_under_small_noise(noise):
    with pytest.raises(NonSimpleRoot, match="3 of 4 columns"):
        subspace_distance_from_data(*_noisy_shared_root_records(noise), rows=150)


@pytest.mark.parametrize("noise", [1e-7, 1e-6])
def test_cli_subspace_distance_refuses_shared_roots_under_small_noise(tmp_path, capsys, noise):
    paths = []
    for seed, pair in enumerate(_noisy_shared_root_records(noise)):
        path = tmp_path / f"record{seed}.csv"
        path.write_text(format_pair_csv(*pair))
        paths.append(str(path))
    assert main(["distance", *paths, "--metric", "subspace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a combined span keeps 3 of 4 columns")


@pytest.mark.parametrize(
    "systems,length,message",
    [
        ((SHARED_ROOT_A, SHARED_ROOT_B), 4096, "share a root"),
        ((POLE_HALF, POLE_NINE), 260, "more columns than rows"),
        # Fewer samples than rows: one message, not a block of negative width.
        ((POLE_HALF, POLE_NINE), 100, "at least 300 samples, got 100"),
    ],
)
def test_cli_subspace_distance_refusals_exit_with_validation_code(
    tmp_path, capsys, systems, length, message
):
    paths = []
    for seed, system in enumerate(systems):
        path = tmp_path / f"record{seed}.csv"
        path.write_text(format_pair_csv(*white_record(system, length, seed)))
        paths.append(str(path))
    # A record too short for the Hankel rows is refused before the phase
    # gate could fall back to a periodogram and warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distance", *paths, "--metric", "subspace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err

"""Hankel blocks, projections, principal angles, and the angle-based norms."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cepdist import (
    DimensionMismatch,
    InsufficientData,
    MixedPhaseUnsupported,
    NonSimpleRoot,
    PrincipalAngleSet,
    RankDeficient,
    RunConfig,
    Signal,
    ValidationError,
    ZeroPoleGain,
    cascade,
    closed_form_norm_max_phase,
    closed_form_norm_min_phase,
    closed_form_norm_mixed,
    example_systems,
    format_pair_csv,
    principal_angles,
    projected_bases,
    subspace_distance_between_models,
    subspace_distance_from_bases,
    subspace_distance_from_data,
    subspace_norm_from_data,
    subspace_norm_from_model,
    vandermonde_range,
)
from cepdist.cli import main
from cepdist.subspace import HANKEL_RANK_RTOL, LQ_BLOCK, ORDER_GAP_MIN, TAU_RANK
from conftest import draw_roots, random_min_phase, white_record

POLE_HALF = ZeroPoleGain.from_roots([0.5], [], 1.0)
POLE_NINE = ZeroPoleGain.from_roots([0.9], [], 1.0)
MIN_PHASE_DEMO = example_systems()["minimum_phase"]
# A pole of the first system (0.3) is a zero of the second, so their
# cascade has a repeated root.
SHARED_ROOT_A = ZeroPoleGain.from_roots([0.9, 0.5], [0.3, -0.4], 1.0)
SHARED_ROOT_B = ZeroPoleGain.from_roots([-0.8, 0.3], [0.7, 0.0], 1.0)


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


def angle_convergence_bound(radius, count, depth):
    """Decay scale of the angle-product norm in the Vandermonde depth.

    Proportional to radius^(2 depth); doubling the depth should move the
    norm by no more than a modest multiple of this.
    """
    if radius <= 0.0:
        return 0.0
    if radius >= 1.0:
        raise ValidationError(f"radius must be below one, got {radius}")
    return count**2 * radius ** (2 * depth) / (1.0 - radius**2) ** 2


def _reference_projected_bases(input_signal, output_signal, rows):
    """Test-only oracle: the projected bases from the full Hankel blocks,
    by two explicit projections and four SVDs, with a relative rank cutoff.

    The library computes the same ranges from one streamed LQ
    factorization and picks the order at a singular-value gap instead.
    """
    uh = build_hankel(input_signal, rows)
    yh = build_hankel(output_signal, rows)
    y_proj = project_complement(yh.T, uh.T).T
    u_proj = project_complement(uh.T, yh.T).T
    return _svd_basis(y_proj, HANKEL_RANK_RTOL), _svd_basis(u_proj, HANKEL_RANK_RTOL)


def principal_angles_eigen(a, b):
    """Same angles as ``principal_angles``, via the Gram-matrix pencil.

    The symmetric generalized eigenvalue problem on the blocks A^H B and
    diag(A^H A, B^H B) has eigenvalues +-cos(theta) padded with zeros. It
    avoids orthonormalizing the inputs, at the cost of squaring their
    conditioning, and serves as an independent cross-check of the QR/SVD
    route.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch("principal_angles_eigen needs two-dimensional arrays")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    na, nb = a.shape[1], b.shape[1]
    if na == 0 or nb == 0:
        return PrincipalAngleSet((), ())
    for m, name in ((a, "first"), (b, "second")):
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= TAU_RANK * s[0]:
            raise RankDeficient(f"{name} matrix is numerically rank deficient")
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
    cosines = np.clip(np.sort(eigenvalues)[::-1][: min(na, nb)], 0.0, 1.0)
    angles = np.arccos(cosines)
    return PrincipalAngleSet(tuple(float(t) for t in angles), tuple(float(c) for c in cosines))


def first_windows(pair, rows, cols):
    """The record cut to the first rows + cols - 1 samples, so that its
    rows-row Hankel blocks have cols columns; the whole record for None."""
    if cols is None:
        return pair
    return tuple(Signal(s.samples[: rows + cols - 1]) for s in pair)


def _bases_norm(bases):
    return -float(np.sum(np.log(principal_angles(*bases).cos_squared)))


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


def test_vandermonde_validation():
    with pytest.raises(RankDeficient):
        vandermonde_range([0.5, 0.5], 8)
    with pytest.raises(RankDeficient):
        vandermonde_range([0.5, 0.3, -0.2], 2)
    with pytest.raises(ValidationError):
        vandermonde_range([1.2], 8)


def test_principal_angles_of_identical_spaces_vanish():
    basis = np.random.default_rng(2).standard_normal((8, 3))
    angles = principal_angles(basis, basis).angles
    assert max(angles) <= 1e-7


def test_principal_angles_orthogonal_lines():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    assert principal_angles(a, b).angles[0] == pytest.approx(np.pi / 2)


def test_principal_angles_diagonal_line():
    a = np.array([[1.0], [0.0]])
    b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert principal_angles(a, b).angles[0] == pytest.approx(np.pi / 4, abs=1e-12)


@given(st.integers(0, 10**6))
def test_principal_angles_are_symmetric_in_arguments(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((10, 3))
    b = rng.standard_normal((10, 4))
    forward = principal_angles(a, b).angles
    backward = principal_angles(b, a).angles
    assert np.max(np.abs(np.array(forward) - np.array(backward))) <= 1e-12


def test_principal_angles_reject_rank_deficiency():
    column = np.random.default_rng(3).standard_normal((6, 1))
    dependent = np.hstack([column, 2.0 * column])
    with pytest.raises(RankDeficient):
        principal_angles(dependent, np.eye(6, 2))


@given(st.integers(0, 10**6))
def test_eigen_route_matches_qr_route(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((12, 4))
    by_qr = np.array(principal_angles(a, b).cosines)
    by_eig = np.array(principal_angles_eigen(a, b).cosines)
    assert np.max(np.abs(by_qr - by_eig)) <= 1e-10


def test_eigen_route_matches_qr_route_for_complex_bases():
    depth = 60
    a = vandermonde_range([0.5, 0.3 + 0.2j, 0.3 - 0.2j], depth)
    b = vandermonde_range([0.8, -0.25 + 0.4j, -0.25 - 0.4j], depth)
    by_qr = np.array(principal_angles(a, b).cosines)
    by_eig = np.array(principal_angles_eigen(a, b).cosines)
    assert np.max(np.abs(by_qr - by_eig)) <= 1e-10


def test_model_norm_of_pure_gain_is_zero():
    assert subspace_norm_from_model(ZeroPoleGain(gain=3.0)) == 0.0


def test_model_norm_pole_zero_pair_matches_closed_form():
    zpk = ZeroPoleGain.from_roots([0.5], [-0.5], 1.0)
    value = subspace_norm_from_model(zpk, depth=200)
    assert abs(value - closed_form_norm_min_phase(zpk)) <= 1e-10


def test_model_norm_demo_minimum_phase_agreement():
    system = example_systems()["minimum_phase"]
    value = subspace_norm_from_model(system, depth=400)
    assert abs(value - closed_form_norm_min_phase(system)) <= 1e-13


def test_model_norm_maximum_phase_equals_reflected_minimum_phase():
    system = example_systems()["maximum_phase"]
    value = subspace_norm_from_model(system, depth=400)
    assert abs(value - closed_form_norm_max_phase(system)) <= 1e-9
    reflected = ZeroPoleGain.from_roots(system.folded_poles(), system.folded_zeros(), 1.0)
    assert value == subspace_norm_from_model(reflected, depth=400)


def test_model_norm_rejects_mixed_phase():
    with pytest.raises(MixedPhaseUnsupported):
        subspace_norm_from_model(example_systems()["mixed"])


def test_model_norm_pads_a_single_missing_zero():
    value = subspace_norm_from_model(POLE_HALF, depth=200)
    assert abs(value + np.log(0.75)) <= 1e-10


def test_model_norm_falls_back_when_unbalanceable():
    zpk = ZeroPoleGain.from_roots([0.5, -0.3, 0.2], [], 1.0)
    with pytest.warns(UserWarning, match="balanced"):
        value = subspace_norm_from_model(zpk)
    assert value == pytest.approx(closed_form_norm_mixed(zpk), abs=1e-15)


@given(st.integers(0, 10**6))
@settings(max_examples=10)
def test_convergence_bound_predicts_a_sufficient_depth(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 4))
    zpk = ZeroPoleGain.from_roots(draw_roots(rng, count), draw_roots(rng, count), 1.0)
    total = len(zpk.poles) + len(zpk.zeros)
    # First grid depth whose predicted truncation movement sits below the
    # norm's internal doubling gate; the call must then converge cleanly.
    depth = next(
        d
        for d in range(40, 401, 20)
        if angle_convergence_bound(zpk.folded_radius(), total, d) <= 1e-11
    )
    value = subspace_norm_from_model(zpk, depth)
    assert abs(value - closed_form_norm_min_phase(zpk)) <= 1e-9


def test_angle_convergence_bound_validation():
    assert angle_convergence_bound(0.0, 3, 100) == 0.0
    with pytest.raises(ValidationError):
        angle_convergence_bound(1.0, 3, 100)


def test_distance_between_identical_models_is_zero():
    zpk = ZeroPoleGain.from_roots([0.5, -0.3], [0.7], 2.0)
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
    with warnings.catch_warnings():
        # Wide pole/zero count gaps take the closed-form fallback, which
        # still has to agree with the direct closed form here.
        warnings.simplefilter("ignore")
        value = subspace_norm_from_model(zpk, depth=400)
    assert abs(value - closed_form_norm_min_phase(zpk)) <= 1e-9


# (rows, record length, column count or None for every full window): both
# row counts in use, column counts straddling one streamed block, and fewer
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


@pytest.mark.parametrize("rows,length,cols", EQUIVALENCE_CASES)
def test_lq_bases_match_the_reference_projections(rows, length, cols):
    systems = (MIN_PHASE_DEMO, POLE_NINE, random_min_phase(np.random.default_rng(13), 3))
    new, old = [], []
    for seed, system in enumerate(systems):
        u, y = first_windows(white_record(system, length, seed), rows, cols)
        new.append(projected_bases(u, y, rows))
        old.append(_reference_projected_bases(u, y, rows))
        assert [b.shape for b in new[-1]] == [b.shape for b in old[-1]]
        assert abs(_bases_norm(new[-1]) - _bases_norm(old[-1])) <= 1e-10
    for i in range(len(systems)):
        for j in range(len(systems)):
            by_lq = subspace_distance_from_bases(new[i], new[j])
            by_reference = subspace_distance_from_bases(old[i], old[j])
            assert abs(by_lq - by_reference) <= 1e-10


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
    assert abs(value - closed_form_norm_min_phase(MIN_PHASE_DEMO)) <= RunConfig().tol_model


def test_data_norm_under_small_noise_keeps_the_model_order():
    u, y = white_record(MIN_PHASE_DEMO, 2**14, 0)
    noisy = Signal(y.samples + 1e-6 * np.random.default_rng(7).standard_normal(len(y)))
    basis_y, basis_u = projected_bases(u, noisy, rows=150)
    assert basis_y.shape[1] == 3 and basis_u.shape[1] == 3
    value = _bases_norm((basis_y, basis_u))
    closed = closed_form_norm_min_phase(MIN_PHASE_DEMO)
    assert abs(value - closed) <= 1e-6 * closed


def test_data_bases_refuse_a_record_without_an_order_gap():
    u, y = NOISE_RECORD
    noisy = Signal(y.samples + 1e-2 * np.random.default_rng(1).standard_normal(len(y)))
    with pytest.raises(RankDeficient, match="gap"):
        projected_bases(u, noisy, rows=60)


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
    with pytest.raises(InsufficientData, match="Hankel block needs"):
        projected_bases(u, y, rows=65)
    with pytest.raises(ValidationError, match="lengths differ"):
        projected_bases(u, Signal(y.samples[:-1]), rows=20)


def test_data_distance_refuses_systems_sharing_a_root():
    with pytest.raises(NonSimpleRoot):
        cascade(SHARED_ROOT_A, SHARED_ROOT_B)
    pair_a = white_record(SHARED_ROOT_A, 4096, 0)
    pair_b = white_record(SHARED_ROOT_B, 4096, 1)
    with pytest.raises(NonSimpleRoot, match="3 of 4 columns"):
        subspace_distance_from_data(pair_a, pair_b, rows=60)


@pytest.mark.parametrize(
    "systems,length,message",
    [
        ((SHARED_ROOT_A, SHARED_ROOT_B), 4096, "share a root"),
        ((POLE_HALF, POLE_NINE), 260, "more columns than rows"),
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
    assert main(["distance", *paths, "--metric", "subspace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err

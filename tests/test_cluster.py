"""Distance matrices over signal collections and agglomerative clustering."""

import os
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cepdist import (
    CepdistError,
    DistanceMatrix,
    InsufficientData,
    MixedPhaseUnsupported,
    RunConfig,
    Signal,
    ValidationError,
    ZeroPoleGain,
    agglomerative_cluster,
    cosine_similarity,
    distance_matrix,
    euclidean_distance,
    make_example_signals,
    weighted_cepstral_distance,
)
from cepdist import cluster, parallel
from cepdist.cluster import collection_features, distance_matrix_from_features
from cepdist.parallel import map_chunks, map_runs
from conftest import good_and_broken, white_record
from test_spectral import reference_cepstrum

# Single Welch window per record keeps the estimates deterministic and cheap.
CLUSTER_CONFIG = RunConfig(
    method="welch", window_len=2048, overlap=0.0, fft_length=4096, K=64
)
DEMO_CONFIG = RunConfig(method="welch", window_len=64, fft_length=512, K=128, seed=44)

POLE_HALF = ZeroPoleGain([0.5], [], 1.0)
POLE_NINETY_FIVE = ZeroPoleGain([0.95], [], 1.0)
MIXED_SYSTEM = ZeroPoleGain([0.9], [2.5], 1.0)


def _reference_distance_matrix(items, metric, config):
    """The per-pair loop that the batched cepstral kernel replaced, kept as the oracle.

    Covers the cepstral, euclidean and cosine metrics, with the cepstra
    of the per-record oracles. A record whose features fail is NaN on the
    diagonal too. Returns the values and the failures, with the default ids.
    """
    n = len(items)
    ids = tuple(f"item{idx:03d}" for idx in range(n))
    features = [None] * n
    broken = {}
    for idx, item in enumerate(items):
        try:
            if metric == "cepstral":
                features[idx] = reference_cepstrum(item, config)
            else:
                features[idx] = item[1] if isinstance(item, tuple) else item
        except CepdistError as exc:
            broken[idx] = str(exc)
    pair = {
        "cepstral": lambda a, b: weighted_cepstral_distance(a, b).value,
        "euclidean": euclidean_distance,
        "cosine": lambda a, b: 1.0 - cosine_similarity(a, b),
    }[metric]
    values = np.zeros((n, n))
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            if i in broken or j in broken:
                values[i, j] = values[j, i] = np.nan
                failures.append((ids[i], ids[j], broken.get(i) or broken.get(j)))
                continue
            try:
                values[i, j] = values[j, i] = pair(features[i], features[j])
            except CepdistError as exc:
                values[i, j] = values[j, i] = np.nan
                failures.append((ids[i], ids[j], str(exc)))
    for idx in broken:
        values[idx, idx] = np.nan
    return values, tuple(failures)


def _usable_block(matrix):
    """Indices left after peeling off the worst NaN rows, diagonal cells
    counted, and their block."""
    nan_mask = np.isnan(matrix.values)
    usable = list(range(matrix.size))
    while usable:
        counts = nan_mask[np.ix_(usable, usable)].sum(axis=1)
        worst = int(np.argmax(counts))
        if counts[worst] == 0:
            break
        usable.pop(worst)
    return usable, matrix.values[np.ix_(usable, usable)].astype(float)


def _labels(n, usable, clusters):
    labels = [-1] * n
    order = sorted(range(len(clusters)), key=lambda c: min(clusters[c]))
    for rank, c in enumerate(order):
        for local in clusters[c]:
            labels[usable[local]] = rank
    return tuple(labels)


_REDUCE = {"single": np.min, "complete": np.max, "average": np.mean}


def _reference_cluster(matrix, k, linkage="average"):
    """The O(n^3) pair scan that the linkage table replaced, kept as the oracle.

    Every merge recomputes the linkage of every cluster pair and keeps the
    first strict minimum in (a, b), a < b, order.
    """
    usable, dist = _usable_block(matrix)
    reduce = _REDUCE[linkage]
    clusters = [[i] for i in range(len(usable))]
    heights = []
    while len(clusters) > k:
        best = (np.inf, -1, -1)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = float(reduce(dist[np.ix_(clusters[a], clusters[b])]))
                if d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        heights.append(float(d))
        clusters[a] = clusters[a] + clusters[b]
        clusters.pop(b)
    return _labels(matrix.size, usable, clusters), tuple(heights)


def _reference_table_cluster(matrix, k, linkage="average"):
    """The linkage table with one reduction per recomputed cell, kept as an oracle.

    Same merges as ``_reference_cluster`` in O(n^2) reductions instead of
    O(n^3), so it can check a few hundred items: each cell of the merged
    cluster's row is reduced from its whole block, the earlier cluster's
    members as rows. It is the form the grouped average update replaced.
    """
    usable, dist = _usable_block(matrix)
    reduce = _REDUCE[linkage]
    m = len(usable)
    clusters = [[i] for i in range(m)]
    start = dist + 0.0 if linkage == "average" else dist
    link = np.where(np.triu(np.ones((m, m), dtype=bool), 1), start, np.inf)
    heights = []
    while len(clusters) > k:
        a, b = divmod(int(np.argmin(link)), len(clusters))
        heights.append(float(link[a, b]))
        merged = clusters[a] + clusters[b]
        row = np.full(len(clusters), np.inf)
        for c, members in enumerate(clusters):
            if c not in (a, b):
                rows, cols = (members, merged) if c < a else (merged, members)
                row[c] = float(reduce(dist[np.ix_(rows, cols)]))
        clusters[a] = merged
        clusters.pop(b)
        link = np.delete(np.delete(link, b, axis=0), b, axis=1)
        row = np.delete(row, b)
        link[:a, a] = row[:a]
        link[a, a + 1 :] = row[a + 1 :]
    return _labels(matrix.size, usable, clusters), tuple(heights)


def _symmetric(upper):
    values = np.triu(upper, 1)
    return values + values.T


def _assert_matches_reference(values, reference=_reference_cluster):
    """Labels and merge heights equal the reference exactly, for every linkage."""
    n = values.shape[0]
    matrix = DistanceMatrix(values, tuple(f"x{i}" for i in range(n)), "euclidean")
    usable = len(_usable_block(matrix)[0])
    for linkage in ("single", "complete", "average"):
        for k in sorted({1, 2, usable - 1, usable} & set(range(1, usable + 1))):
            result = agglomerative_cluster(matrix, k, linkage)
            labels, heights = reference(matrix, k, linkage)
            assert result.labels == labels, (linkage, k)
            assert result.merge_heights == heights, (linkage, k)


def random_signals(count, length=64, seed=0):
    rng = np.random.default_rng(seed)
    return [Signal(rng.standard_normal(length)) for _ in range(count)]


def partition(result, ids):
    groups = {}
    for label, name in zip(result.labels, ids):
        groups.setdefault(label, set()).add(name)
    return frozenset(frozenset(group) for label, group in groups.items() if label >= 0)


def test_identical_signals_give_a_zero_matrix():
    signal = random_signals(1)[0]
    matrix = distance_matrix([signal, signal, signal], "euclidean", CLUSTER_CONFIG)
    assert np.array_equal(matrix.values, np.zeros((3, 3)))
    assert matrix.failures == ()


def test_matrix_diagonal_and_symmetry():
    matrix = distance_matrix(random_signals(4, length=256, seed=3), "cepstral", DEMO_CONFIG)
    assert np.array_equal(np.diag(matrix.values), np.zeros(4))
    assert np.array_equal(matrix.values, matrix.values.T)
    assert matrix.ids == ("item000", "item001", "item002", "item003")


def test_demo_signals_cluster_by_dynamics_not_by_shape():
    sine, cosine, noise = make_example_signals(0.995, 44)
    matrix = distance_matrix(
        [sine, cosine, noise], "cepstral", DEMO_CONFIG, ids=["sin", "cos", "noise"]
    )
    assert matrix.values[0, 1] < 5.0
    assert matrix.values[0, 2] > 50.0
    assert matrix.values[1, 2] > 50.0
    labels = agglomerative_cluster(matrix, k=2).labels
    assert labels[0] == labels[1] != labels[2]


def test_cosine_metric_is_one_minus_similarity():
    a = Signal(np.array([1.0, 0.0, 0.0]))
    b = Signal(np.array([0.0, 1.0, 0.0]))
    matrix = distance_matrix([a, a, b], "cosine-derived", CLUSTER_CONFIG)
    assert matrix.metric == "cosine"
    assert matrix.values[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert matrix.values[0, 2] == pytest.approx(1.0, abs=1e-15)


def test_singleton_and_single_cluster_limits():
    matrix = distance_matrix(random_signals(4, seed=1), "euclidean", CLUSTER_CONFIG)
    singletons = agglomerative_cluster(matrix, k=4)
    assert sorted(singletons.labels) == [0, 1, 2, 3]
    assert singletons.merge_heights == ()
    lumped = agglomerative_cluster(matrix, k=1)
    assert set(lumped.labels) == {0}
    assert len(lumped.merge_heights) == 3


def test_invalid_k_is_rejected():
    matrix = distance_matrix(random_signals(3, seed=2), "euclidean", CLUSTER_CONFIG)
    with pytest.raises(ValidationError):
        agglomerative_cluster(matrix, k=0)
    with pytest.raises(ValidationError):
        agglomerative_cluster(matrix, k=4)
    with pytest.raises(ValidationError):
        agglomerative_cluster(matrix, k=2, linkage="ward")


def test_partition_is_permutation_invariant():
    signals = random_signals(5, seed=9)
    ids = ["a", "b", "c", "d", "e"]
    base = distance_matrix(signals, "euclidean", CLUSTER_CONFIG, ids=ids)
    base_partition = partition(agglomerative_cluster(base, k=2), ids)
    order = [3, 0, 4, 2, 1]
    shuffled = distance_matrix(
        [signals[i] for i in order],
        "euclidean",
        CLUSTER_CONFIG,
        ids=[ids[i] for i in order],
    )
    shuffled_partition = partition(
        agglomerative_cluster(shuffled, k=2), [ids[i] for i in order]
    )
    assert base_partition == shuffled_partition


@pytest.mark.parametrize("linkage", ["single", "complete", "average"])
def test_merge_heights_are_nondecreasing(linkage):
    matrix = distance_matrix(random_signals(6, seed=4), "euclidean", CLUSTER_CONFIG)
    heights = agglomerative_cluster(matrix, k=1, linkage=linkage).merge_heights
    assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


def test_mixed_phase_record_is_quarantined_not_fatal():
    items = [
        white_record(POLE_HALF, 2048, 0),
        white_record(POLE_NINETY_FIVE, 2048, 1),
        white_record(MIXED_SYSTEM, 2048, 2),
    ]
    matrix = distance_matrix(items, "subspace", CLUSTER_CONFIG, ids=["a", "b", "bad"])
    assert np.isnan(matrix.values[0, 2]) and np.isnan(matrix.values[1, 2])
    assert np.isfinite(matrix.values[0, 1])
    assert len(matrix.failures) == 2
    assert all("bad" in failure[:2] for failure in matrix.failures)
    assert all("Mixed" in failure[2] for failure in matrix.failures)
    result = agglomerative_cluster(matrix, k=2)
    assert result.labels == (0, 1, -1)


def test_pairwise_nan_excludes_only_one_endpoint():
    values = np.array(
        [[0.0, np.nan, 1.0], [np.nan, 0.0, 2.0], [1.0, 2.0, 0.0]]
    )
    matrix = DistanceMatrix(values, ("p", "q", "r"), "euclidean", (("p", "q", "boom"),))
    labels = agglomerative_cluster(matrix, k=2).labels
    assert sorted(labels) == [-1, 0, 1]


# Records short enough for the default Welch window and 20 Hankel rows.
SHORT_CONFIG = RunConfig(hankel_rows=20)


@pytest.mark.parametrize("metric", ["cepstral", "subspace"])
def test_a_broken_record_is_nan_on_its_diagonal_without_a_failure(metric):
    matrix = distance_matrix(good_and_broken([False, True]), metric, SHORT_CONFIG, ["a", "b"])
    assert matrix.values[0, 0] == 0.0
    assert np.isnan(matrix.values[1, 1]) and np.isnan(matrix.values[0, 1])
    assert [failure[:2] for failure in matrix.failures] == [("a", "b")]


def test_a_broken_record_is_excluded_before_the_good_one_it_ties_with():
    matrix = distance_matrix(good_and_broken([False, True]), "cepstral", SHORT_CONFIG)
    result = agglomerative_cluster(matrix, k=1)
    assert result.labels == (0, -1)
    assert result.merge_heights == ()


def test_a_collection_of_broken_records_is_refused():
    matrix = distance_matrix(good_and_broken([True, True, True]), "cepstral", SHORT_CONFIG)
    assert np.isnan(matrix.values).all()
    with pytest.raises(ValidationError, match=r"k must lie in \[1, 0\]"):
        agglomerative_cluster(matrix, k=1)


def test_two_generator_collection_is_recovered():
    records, truth = [], []
    for trial in range(8):
        generator = POLE_HALF if trial < 4 else POLE_NINETY_FIVE
        records.append(white_record(generator, 2048, 1000 + trial))
        truth.append(0 if trial < 4 else 1)
    matrix = distance_matrix(records, "subspace", CLUSTER_CONFIG)
    assert matrix.failures == ()
    labels = agglomerative_cluster(matrix, k=2).labels
    assert list(labels) == truth


def test_subspace_metric_requires_pairs():
    with pytest.raises(ValidationError):
        distance_matrix(random_signals(2), "subspace", CLUSTER_CONFIG)


def test_subspace_features_refuse_each_signal(monkeypatch):
    signals = random_signals(2)
    features = collection_features(signals, "subspace", CLUSTER_CONFIG)
    assert [type(f) for f in features] == [ValidationError, ValidationError]
    assert {str(f) for f in features} == {"the subspace metric needs (input, output) pairs"}

    # The matrix checks the collection rule before it featurizes any item.
    def featurize(*args):
        raise AssertionError("featurized a refused collection")

    monkeypatch.setattr(cluster, "collection_features", featurize)
    pair = white_record(POLE_HALF, 256, 0)
    for items, metric in [(signals, "subspace"), ([signals[0], pair], "cepstral")]:
        with pytest.raises(ValidationError):
            distance_matrix(items, metric, CLUSTER_CONFIG)


def test_subspace_features_check_the_hankel_size_before_the_phase_gate():
    # The gate refuses this system's records as mixed phase; one too short
    # for its Hankel rows is refused for that first, without the warning of
    # the gate's periodogram fallback.
    mixed = ZeroPoleGain([0.5], [1.5], 1.0)
    records = [white_record(mixed, 100, 0), white_record(mixed, 4096, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        features = collection_features(records, "subspace", CLUSTER_CONFIG)
    assert [type(f) for f in features] == [InsufficientData, MixedPhaseUnsupported]


def test_item_validation():
    signals = random_signals(2, seed=5)
    pair = white_record(POLE_HALF, 256, 0)
    with pytest.raises(ValidationError):
        distance_matrix([signals[0]], "euclidean", CLUSTER_CONFIG)
    with pytest.raises(ValidationError):
        distance_matrix([signals[0], pair], "euclidean", CLUSTER_CONFIG)
    with pytest.raises(ValidationError):
        distance_matrix(signals, "euclidean", CLUSTER_CONFIG, ids=["x", "x"])
    with pytest.raises(ValidationError):
        distance_matrix(signals, "euclidean", CLUSTER_CONFIG, ids=["x"])
    with pytest.raises(ValidationError):
        distance_matrix(signals, "mahalanobis", CLUSTER_CONFIG)


@pytest.mark.parametrize("paired", [False, True])
def test_records_of_two_sample_periods_are_refused(paired):
    # Periods within a relative 1e-6 agree, as the two signals of a pair must.
    u, y = white_record(POLE_HALF, 256, 0)
    items = []
    for period in (0.01, 0.01 * (1 + 1e-9), 0.005):
        output = Signal(y.samples, period)
        items.append((Signal(u.samples, period), output) if paired else output)
    for metric in ("cepstral", "euclidean", "cosine"):
        assert distance_matrix(items[:2], metric, RunConfig()).failures == ()
        with pytest.raises(ValidationError) as caught:
            distance_matrix(items, metric, RunConfig(), ids=["a", "c", "b"])
        assert str(caught.value) == "records a and b differ in sample period: 0.01 and 0.005"


def test_matrix_shape_and_symmetry_validation():
    with pytest.raises(ValidationError):
        DistanceMatrix(np.zeros((2, 3)), ("a", "b"), "euclidean")
    with pytest.raises(ValidationError):
        DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), ("a", "b"), "euclidean")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linkage_table_matches_the_pair_scan_on_continuous_matrices(seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((40, 3))
    values = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    _assert_matches_reference(values)
    _assert_matches_reference(_symmetric(rng.random((23, 23))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linkage_table_matches_the_pair_scan_on_tied_matrices(seed):
    rng = np.random.default_rng(100 + seed)
    _assert_matches_reference(_symmetric(rng.integers(1, 4, (24, 24)).astype(float)))
    _assert_matches_reference(_symmetric(np.ones((9, 9))))


def test_linkage_table_matches_the_pair_scan_with_an_excluded_row():
    rng = np.random.default_rng(7)
    values = _symmetric(rng.integers(0, 5, (15, 15)).astype(float))
    values[4, [1, 9, 12]] = values[[1, 9, 12], 4] = np.nan
    assert agglomerative_cluster(
        DistanceMatrix(values, tuple("abcdefghijklmno"), "euclidean"), k=1
    ).labels[4] == -1
    _assert_matches_reference(values)


@given(
    size=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    levels=st.integers(min_value=1, max_value=4),
)
def test_linkage_table_matches_the_pair_scan_property(size, seed, levels):
    rng = np.random.default_rng(seed)
    _assert_matches_reference(_symmetric(rng.integers(0, levels, (size, size)).astype(float)))


def test_infinite_linkage_distance_is_refused():
    values = np.array(
        [
            [0.0, 1.0, np.inf, np.inf],
            [1.0, 0.0, np.inf, np.inf],
            [np.inf, np.inf, 0.0, 2.0],
            [np.inf, np.inf, 2.0, 0.0],
        ]
    )
    matrix = DistanceMatrix(values, ("a", "b", "c", "d"), "subspace")
    for linkage in ("single", "complete", "average"):
        result = agglomerative_cluster(matrix, k=2, linkage=linkage)
        assert result.labels == (0, 0, 1, 1)
        assert result.merge_heights == (1.0, 2.0)
        with pytest.raises(ValidationError, match="finite linkage distance"):
            agglomerative_cluster(matrix, k=1, linkage=linkage)


def test_negative_zero_cells_keep_the_reference_heights():
    # -0.0 cells come only from hand-built matrices. Average and complete
    # linkage keep the sign of every zero height; under single linkage the
    # sign of a tied zero follows NumPy's reduction order, so only the
    # values are compared there.
    rng = np.random.default_rng(11)
    upper = np.triu(rng.integers(0, 3, (14, 14)).astype(float), 1)
    upper[(upper == 0) & (rng.random((14, 14)) < 0.5)] = -0.0
    values = np.zeros((14, 14))
    rows, cols = np.triu_indices(14, 1)
    values[rows, cols] = values[cols, rows] = upper[rows, cols]
    matrix = DistanceMatrix(values, tuple(f"x{i}" for i in range(14)), "euclidean")
    for linkage in ("single", "complete", "average"):
        for k in (1, 2, 13):
            result = agglomerative_cluster(matrix, k, linkage)
            labels, heights = _reference_cluster(matrix, k, linkage)
            assert result.labels == labels
            assert result.merge_heights == heights
            if linkage != "single":
                assert [repr(h) for h in result.merge_heights] == [repr(h) for h in heights]


def _kernel_config(order):
    # fft_length 512 covers every order up to 256.
    return RunConfig(method="welch", window_len=64, fft_length=512, K=order, K_test=1)


def _cepstral_items(count, paired, seed, broken=()):
    """Records of random one-pole systems; those at ``broken`` have an all-zero
    output, whose spectrum has zero bins, so their features fail."""
    rng = np.random.default_rng(seed)
    items = []
    for idx in range(count):
        pole = ZeroPoleGain([rng.uniform(-0.9, 0.9)], [], 1.0)
        u, y = white_record(pole, 512, int(rng.integers(2**31)))
        if idx in broken:
            y = Signal(np.zeros(len(y)))
        items.append((u, y) if paired else y)
    return items


def _assert_matrix_matches_reference(items, metric, config):
    matrix = distance_matrix(items, metric, config)
    values, failures = _reference_distance_matrix(items, metric, config)
    assert np.array_equal(matrix.values, values, equal_nan=True)
    assert matrix.failures == failures
    return matrix


@pytest.mark.parametrize("paired", [False, True])
@pytest.mark.parametrize("order", [1, 7, 8, 9, 127, 128, 129, 256])
def test_cepstral_matrix_equals_the_pair_loop(order, paired):
    # The orders straddle NumPy's 8-way unrolled sum and its 128-element
    # pairwise block.
    items = _cepstral_items(9, paired, seed=order)
    matrix = _assert_matrix_matches_reference(items, "cepstral", _kernel_config(order))
    assert matrix.failures == ()


@pytest.mark.parametrize("paired", [False, True])
@pytest.mark.parametrize("position", [0, 4, 8])
def test_cepstral_matrix_marks_a_broken_item_like_the_pair_loop(position, paired):
    items = _cepstral_items(9, paired, seed=position, broken={position})
    matrix = _assert_matrix_matches_reference(items, "cepstral", _kernel_config(64))
    assert len(matrix.failures) == 8
    assert np.isnan(np.delete(matrix.values[position], position)).all()
    assert np.isfinite(np.delete(np.delete(matrix.values, position, 0), position, 1)).all()


@given(
    count=st.integers(min_value=2, max_value=10),
    order=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    paired=st.booleans(),
)
def test_cepstral_matrix_equals_the_pair_loop_property(count, order, seed, paired):
    broken = set(np.random.default_rng(seed).choice(count, size=seed % 3, replace=True).tolist())
    items = _cepstral_items(count, paired, seed, broken)
    _assert_matrix_matches_reference(items, "cepstral", _kernel_config(order))


def test_cepstral_matrix_keeps_the_per_record_failures():
    # One record too short for the window, one with an all-zero input and
    # one with unequal lengths, among good records of two lengths; each
    # fails only its own cells, with the per-record text, in row-major
    # order. Record 6 has its input scaled by 1e200, where the squared FFT
    # magnitudes overflow: it is scaled by a power of two first, so its
    # cells are those of the unscaled record, without a NumPy warning.
    items = _cepstral_items(8, paired=True, seed=12)
    items[1] = (items[1][0], Signal(items[1][1].samples[:500]))
    items[3] = (Signal(np.zeros(512)), items[3][1])
    items[4] = (Signal(items[4][0].samples[:200]), Signal(items[4][1].samples[:200]))
    items[7] = (Signal(items[7][0].samples[:400]), Signal(items[7][1].samples[:400]))
    config = RunConfig(window_len=256, K=64)
    want = _assert_matrix_matches_reference(items, "cepstral", config)
    items[6] = (Signal(1e200 * items[6][0].samples), items[6][1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = distance_matrix(items, "cepstral", config)
    reasons = {(id_a, id_b): reason for id_a, id_b, reason in matrix.failures}
    assert {b: reasons["item000", b] for b in ("item001", "item003", "item004")} == {
        "item001": "input and output lengths differ: 512 vs 500",
        "item003": "input spectrum has a nonpositive bin; cannot take its log",
        "item004": "window_len 256 exceeds the signal length 200",
    }
    assert matrix.failures == want.failures
    assert len(matrix.failures) == 7 + 6 + 5
    others = np.ix_([0, 1, 2, 3, 4, 5, 7], [0, 1, 2, 3, 4, 5, 7])
    assert np.array_equal(matrix.values[others], want.values[others], equal_nan=True)
    got, ref = matrix.values[6], want.values[6]
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    good = ~np.isnan(ref)
    assert np.all(np.abs(got[good] - ref[good]) <= 1e-12 * ref[good])
    assert np.count_nonzero(good) == 5


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_per_cell_metrics_keep_their_pair_failures(metric):
    # A short signal fails its pairs on length, an all-zero one its cosine
    # pairs; each failure stays on its own cell.
    signals = random_signals(6, seed=8)
    signals[2] = Signal(np.zeros(64))
    signals[4] = random_signals(1, length=32)[0]
    matrix = _assert_matrix_matches_reference(signals, metric, CLUSTER_CONFIG)
    assert len(matrix.failures) == (9 if metric == "cosine" else 5)


def _clustered_cloud(n, seed):
    """Distances between points drawn around 8 centres in 3-D."""
    rng = np.random.default_rng(seed)
    centres = 6.0 * rng.standard_normal((8, 3))
    points = centres[rng.integers(0, 8, n)] + rng.standard_normal((n, 3))
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))


@pytest.mark.parametrize("n", [105, 300])
def test_grouped_average_matches_the_per_cell_table_on_clustered_clouds(n):
    # Merges inside the clouds leave many clusters of each small size on
    # both sides of the merged one, so the grouped update gathers several
    # blocks per reduction in both orientations.
    _assert_matches_reference(_clustered_cloud(n, seed=n), _reference_table_cluster)


def test_grouped_average_matches_when_every_cluster_has_its_own_size():
    # Clumps of 1, 2, 4, 8 and 16 points with widening gaps, in shuffled
    # order: once the clumps have formed they merge in a chain, and no two
    # clusters ever share a size, so every group holds one block.
    rng = np.random.default_rng(21)
    centres = (0.0, 10.0, 30.0, 70.0, 150.0)
    positions = np.concatenate([c + rng.random(2**j) for j, c in enumerate(centres)])
    points = positions[rng.permutation(positions.size)]
    _assert_matches_reference(np.abs(points[:, None] - points[None, :]))


# The command line splits a collection into contiguous chunks, computes
# each chunk's features in its own process (``parallel.map_runs``) and
# builds the matrix from the joined features.


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _features_by_chunk(items, metric, config, cuts):
    bounds = [0, *cuts, len(items)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    per_chunk = map_chunks(lambda chunk: collection_features(chunk, metric, config), chunks)
    _no_child_left()
    return [feature for features in per_chunk for feature in features]


@pytest.mark.parametrize("metric", ["cepstral", "subspace", "euclidean", "cosine"])
@pytest.mark.parametrize("cuts", [[], [1], [4], [2, 3, 7]])
def test_matrix_from_features_of_any_chunks_is_the_distance_matrix(metric, cuts):
    # Records of two lengths, so the cepstra come from two spectrum plans,
    # and a broken record, so one row of cells fails.
    items = _cepstral_items(9, True, seed=3, broken={5})
    items[2] = tuple(Signal(s.samples[:384]) for s in items[2])
    items[6] = tuple(Signal(s.samples[:384]) for s in items[6])
    config = _kernel_config(64)
    ids = [f"rec{idx}" for idx in range(9)]
    whole = distance_matrix(items, metric, config, ids)
    features = _features_by_chunk(items, metric, config, cuts)
    matrix = distance_matrix_from_features(features, metric, ids)
    assert np.array_equal(matrix.values, whole.values, equal_nan=True)
    assert (matrix.ids, matrix.metric, matrix.failures) == (whole.ids, whole.metric, whole.failures)
    assert whole.failures


def test_map_chunks_returns_the_results_in_chunk_order():
    chunks = [[1, 2], [3], [4, 5, 6], [7]]
    assert map_chunks(lambda chunk: (os.getpid(), sum(chunk)), chunks)[0][0] == os.getpid()
    assert [total for _, total in map_chunks(lambda c: (0, sum(c)), chunks)] == [3, 3, 15, 7]
    assert map_chunks(sum, [[1, 2]]) == [3]
    assert map_chunks(sum, []) == []
    _no_child_left()


def test_map_chunks_raises_the_first_failure_in_chunk_order():
    def refuse_odd(chunk):
        if chunk % 2:
            raise ValidationError(f"chunk {chunk}")
        return chunk

    for chunks, failing in [([0, 1, 2, 3], 1), ([0, 2, 3, 5], 3), ([1, 2, 3], 1)]:
        with pytest.raises(ValidationError, match=f"^chunk {failing}$"):
            map_chunks(refuse_odd, chunks)
        _no_child_left()


def test_map_chunks_issues_the_warnings_of_each_chunk_in_order():
    def warn(chunk):
        warnings.warn(f"chunk {chunk}", UserWarning)
        if chunk == 2:
            raise ValidationError("stop")
        return chunk

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        with pytest.raises(ValidationError, match="stop"):
            map_chunks(warn, [0, 1, 2, 3])
    _no_child_left()
    assert [str(w.message) for w in caught] == ["chunk 0", "chunk 1", "chunk 2"]
    assert {(w.filename, w.lineno) for w in caught} == {(caught[0].filename, caught[0].lineno)}

    # A repeat shows once, as it would from one process.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        map_chunks(lambda chunk: warnings.warn("again", UserWarning), [0, 1, 3])
    _no_child_left()
    assert [str(w.message) for w in caught] == ["again"]


def test_map_chunks_reports_a_worker_that_sent_nothing():
    def leave(chunk):
        if chunk:
            raise SystemExit(0)  # the child still ends without returning
        return chunk

    with pytest.raises(RuntimeError, match="ended without sending a result"):
        map_chunks(leave, [0, 1])
    _no_child_left()


def test_map_chunks_kills_the_workers_when_the_parent_fails():
    def stall(chunk):
        if chunk == 0:
            raise ValidationError("the parent's chunk fails")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValidationError, match="the parent's chunk fails"):
        map_chunks(stall, [0, 1, 2])
    assert time.monotonic() - start < 30
    _no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_map_runs_cuts_the_items_into_one_contiguous_run_per_worker(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    for count in (1, 2, 3, 5, 10):
        items = [f"item{k}" for k in range(count)]
        runs = map_runs(lambda run: (os.getpid(), run), items, 10, 10)
        _no_child_left()
        # Contiguous runs in order, none empty, that cover the items.
        assert [item for _, run in runs for item in run] == items
        assert all(run for _, run in runs)
        # One run per worker, each in its own process, the first in this one.
        assert len(runs) == parallel.worker_count(10, 10, count) == min(cpus, count)
        assert len({pid for pid, _ in runs}) == len(runs)
        assert runs[0][0] == os.getpid()
    # The runs of a range are ranges.
    assert map_runs(lambda run: run, range(7), 10, 10) == [
        range(a, b) for a, b in parallel.ranges(7, min(cpus, 7))
    ]
    # Below the minimum size, one run.
    assert map_runs(lambda run: run, range(7), 9, 10) == [range(7)]
    _no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_map_runs_in_a_chunk_of_map_chunks_makes_one_run(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert len(map_runs(list, range(10), 1, 0)) == 4

    def nested(chunk):
        return os.getpid(), map_runs(lambda run: (os.getpid(), run), range(10), 1, 0)

    per_chunk = map_chunks(nested, [0, 1, 2])
    _no_child_left()
    assert [runs for _, runs in per_chunk] == [[(pid, range(10))] for pid, _ in per_chunk]


def test_map_runs_of_no_items_is_empty(monkeypatch):
    def refuse(run):
        raise AssertionError(f"no run is expected, got {run!r}")

    for cpus in (1, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert map_runs(refuse, [], 1, 0) == []
        assert map_runs(refuse, range(0), 1, 0) == []
        assert map_runs(refuse, [], 1, 2) == []
    _no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_a_chunk_of_map_chunks_gets_one_worker(monkeypatch):
    # The parent's own chunk and each child's chunk are marked, so work in
    # them never forks again, whatever the CPUs and the minimum size.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert parallel.worker_count(10, 0, 10) == 4
    counts = map_chunks(lambda chunk: (os.getpid(), parallel.worker_count(10, 0, 10)), [0, 1, 2])
    _no_child_left()
    assert counts[0][0] == os.getpid() != counts[1][0]
    assert [count for _, count in counts] == [1, 1, 1]
    assert parallel.worker_count(10, 0, 10) == 4

    def fail(chunk):
        raise ValidationError(f"chunk {chunk}")

    with pytest.raises(ValidationError, match="chunk 0"):
        map_chunks(fail, [0, 1])
    _no_child_left()
    assert parallel.worker_count(10, 0, 10) == 4


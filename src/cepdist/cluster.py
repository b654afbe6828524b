"""Pairwise distance matrices over signal collections, and clustering on them.

Collections are either bare output signals or (input, output) pairs; pairs
unlock the transfer-function metrics that cancel whatever was realized on
the input side. Pair failures do not abort the whole matrix: the offending
cell becomes NaN and the failure is recorded, and clustering excludes
items (label -1) until no NaN cell is left.

Every distance takes two steps: ``collection_features`` turns items into
features, or the error that refused each one, and ``pair_report`` turns
two features into a distance and the fields that qualify it. Every
cepstral distance between records, a pair's or a matrix's, comes from one
kernel, ``weighted_cepstral_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import LINKAGES, RunConfig
from .errors import CepdistError, MixedPhaseUnsupported, ValidationError
from .lti import Signal, same_period
from .metrics import cosine_similarity, euclidean_distance, weighted_cepstral_matrix
from .phase import INDETERMINATE, MINIMUM_PHASE, classify_from_io
from .spectral import power_cepstra
from .subspace import hankel_columns, projected_bases, subspace_distance_from_bases

METRICS = ("cepstral", "subspace", "euclidean", "cosine")
METRIC_ALIASES = {"cosine-derived": "cosine"}


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distances with NaN marking failed pairs."""

    values: np.ndarray
    ids: tuple[str, ...]
    metric: str
    failures: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        n = len(self.ids)
        if arr.shape != (n, n):
            raise ValidationError(f"matrix shape {arr.shape} does not match {n} ids")
        if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-10, equal_nan=True):
            raise ValidationError("distance matrix must be symmetric")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "failures", tuple(self.failures))

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ClusterResult:
    """Labels per item (-1 marks excluded items) and the merge heights."""

    labels: tuple[int, ...]
    merge_heights: tuple[float, ...]
    linkage: str


def _check_items(items: Sequence) -> None:
    if len(items) < 2:
        raise ValidationError("need at least two items for a distance matrix")
    for idx, item in enumerate(items):
        if isinstance(item, tuple):
            if len(item) != 2 or not all(isinstance(s, Signal) for s in item):
                raise ValidationError(f"item {idx} is not an (input, output) pair of signals")
        elif not isinstance(item, Signal):
            raise ValidationError(f"item {idx} is not a signal")


def check_collection(
    paired: Sequence[bool], periods: Sequence[float], ids: Sequence[str], metric: str
) -> None:
    """The collection rule: refuse records that mix signals and pairs, that
    give signals to the subspace metric, or that differ in sample period.

    ``paired`` tells, per record, whether it is an (input, output) pair and
    ``periods`` gives its sample period (a pair's is its output's). Periods
    agree as the two signals of a pair must (``lti.check_pair``); a period
    refusal names the first record and one whose period differs from it.
    """
    if any(paired) and not all(paired):
        raise ValidationError("items must be all signals or all (input, output) pairs")
    if metric == "subspace" and not all(paired):
        raise ValidationError("the subspace metric needs (input, output) pairs")
    for name, period in zip(ids, periods):
        if not same_period(periods[0], period):
            raise ValidationError(
                f"records {ids[0]} and {name} differ in sample period: {periods[0]} and {period}"
            )


def output_signal(item) -> Signal:
    """A signal item itself, and the output of an (input, output) pair."""
    return item[1] if isinstance(item, tuple) else item


def resolve_metric(metric: str) -> str:
    """The name in METRICS of a metric or its alias; refuses any other name."""
    metric = METRIC_ALIASES.get(metric, metric)
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    return metric


def distance_matrix(
    items: Sequence,
    metric: str,
    config: RunConfig,
    ids: Sequence[str] | None = None,
) -> DistanceMatrix:
    """All pairwise distances under one metric.

    ``cepstral`` compares weighted power cepstra (transfer cepstra when
    pairs are given), ``subspace`` needs pairs and compares projected
    Hankel ranges, ``euclidean`` and ``cosine`` compare output samples
    pointwise. Each item's features are those of ``collection_features``,
    and the matrix is ``distance_matrix_from_features`` of them.
    """
    metric = resolve_metric(metric)
    _check_items(items)
    n = len(items)
    if ids is None:
        ids = tuple(f"item{idx:03d}" for idx in range(n))
    else:
        ids = tuple(str(s) for s in ids)
        if len(ids) != n:
            raise ValidationError(f"got {len(ids)} ids for {n} items")
        if len(set(ids)) != n:
            raise ValidationError("ids must be unique")
    paired = [isinstance(item, tuple) for item in items]
    check_collection(paired, [output_signal(item).sample_period for item in items], ids, metric)
    features = collection_features(items, metric, config)
    return distance_matrix_from_features(features, metric, ids)


def distance_matrix_from_features(
    features: Sequence, metric: str, ids: Sequence[str]
) -> DistanceMatrix:
    """All pairwise distances between items given by their features.

    ``features`` holds what ``collection_features`` gives for the items
    under ``metric``, in any blocks: an item's features do not depend on
    the other items. An item whose features are a CepdistError makes every
    cell it touches NaN, with one failure entry per cell off the diagonal
    in row-major (i, j) order; its diagonal cell is NaN too, without an
    entry, since it has no distance to anything, itself included.

    The cepstral matrix is computed in one batch by
    ``weighted_cepstral_matrix``, row by row: the kernel of the ``value``
    of ``pair_report``, whose cells do not depend on the batch. The other
    metrics take each cell's ``value`` from ``pair_report``, and a failed
    pair makes only its own cell NaN.
    """
    metric = resolve_metric(metric)
    n = len(features)
    broken = {idx: str(f) for idx, f in enumerate(features) if isinstance(f, CepdistError)}

    values = np.zeros((n, n))
    if metric == "cepstral":
        # No cepstral pair can fail on its own, so only the cells that touch
        # a broken item are visited below, in the same row-major order.
        bad = np.isin(np.arange(n), list(broken))
        good = np.flatnonzero(~bad)
        if good.size > 1:
            values[np.ix_(good, good)] = weighted_cepstral_matrix([features[i] for i in good])
        rows, cols = np.nonzero(np.triu(bad[:, None] | bad, 1))
        cells = zip(rows.tolist(), cols.tolist())
    else:
        cells = ((i, j) for i in range(n) for j in range(i + 1, n))

    failures: list[tuple[str, str, str]] = []
    for i, j in cells:
        if i in broken or j in broken:
            values[i, j] = values[j, i] = np.nan
            failures.append((ids[i], ids[j], broken.get(i) or broken.get(j)))
            continue
        try:
            values[i, j] = values[j, i] = pair_report(metric, features[i], features[j])["value"]
        except CepdistError as exc:
            values[i, j] = values[j, i] = np.nan
            failures.append((ids[i], ids[j], str(exc)))
    values[list(broken), list(broken)] = np.nan
    return DistanceMatrix(values, ids, metric, tuple(failures))


def collection_features(items: Sequence, metric: str, config: RunConfig) -> list:
    """What each item contributes to its distances under ``metric``.

    Items are signals or (input, output) pairs, of any mix: each entry is
    the item's features or the CepdistError that refused it, and whether
    the collection as a whole is allowed is ``check_collection``'s to say.
    ``cepstral`` gives the ``power_cepstra`` of the collection;
    ``subspace`` gives the projected Hankel bases of pairs, refuses a
    signal with ValidationError, a pair too short for its Hankel rows with
    InsufficientData, and then with MixedPhaseUnsupported a
    record whose phase verdict is neither minimum phase nor indeterminate,
    because the data route is only valid behind stable minimum phase
    generators; ``euclidean`` and ``cosine`` use the output samples.
    """
    if metric == "cepstral":
        return power_cepstra(items, config)
    if metric != "subspace":
        return [output_signal(item) for item in items]
    features: list = []
    for item in items:
        try:
            if not isinstance(item, tuple):
                raise ValidationError("the subspace metric needs (input, output) pairs")
            u, y = item
            # The size rule first, so a short record is refused before the gate warns.
            hankel_columns(u, y, config.hankel_rows)
            verdict = classify_from_io(u, y, config)
            if verdict.kind not in (MINIMUM_PHASE, INDETERMINATE):
                raise MixedPhaseUnsupported(
                    f"record classified as {verdict.kind}; the subspace metric "
                    "needs minimum phase records"
                )
            features.append(projected_bases(u, y, config.hankel_rows))
        except CepdistError as exc:
            features.append(exc)
    return features


def pair_report(metric: str, a, b) -> dict:
    """The distance between two items' features, as the fields of a report.

    Every metric gives ``value``; ``cepstral`` adds the truncation
    ``order``, and ``cosine`` the ``similarity`` whose complement the value
    is. The cepstral value is the cell of ``weighted_cepstral_matrix``, the
    kernel of every record distance, so it equals the matrix cell of the
    same two records bit for bit. Estimated cepstra carry no truncation
    bound: only a model's roots bound the lags beyond ``order``.
    """
    if metric == "cepstral":
        return {"value": float(weighted_cepstral_matrix([a, b])[0, 1]), "order": a.order}
    if metric == "cosine":
        similarity = cosine_similarity(a, b)
        return {"value": 1.0 - similarity, "similarity": similarity}
    if metric == "euclidean":
        return {"value": euclidean_distance(a, b)}
    return {"value": subspace_distance_from_bases(a, b)}


def agglomerative_cluster(
    matrix: DistanceMatrix, k: int, linkage: str = "average"
) -> ClusterResult:
    """Bottom-up clustering of a distance matrix into k groups.

    Items are excluded up front and labeled -1 until no NaN distance is
    left among the rest: each step excludes the item with the most NaN
    cells among the remaining ones, its diagonal included, the first on a
    tie. An item whose own features failed is NaN on its diagonal too, so
    it goes before any item that only shares its cells. Labels are
    numbered by first appearance. Merge heights are returned for
    diagnostics; with single, complete, or average linkage they are
    non-decreasing.

    Each step merges the closest pair of clusters. Clusters are kept in
    order of their first member, and a merged cluster takes the place of
    its first part; on a tie the first pair (a, b), a < b, in this cluster
    order is merged, and labels follow the same order. A table of the
    current linkage distances is kept at full size, with a merged-away
    cluster's row and column set to inf, and a merge recomputes only the
    merged cluster's row: O(n) linkage evaluations per merge and O(n^2) in
    all. Single and complete linkage combine the two old rows elementwise.
    Average linkage takes each cell's mean over its whole block, in a few
    batched reductions per merge (one per block shape), with the same bits
    as a separate mean per block. A merge at an infinite linkage distance
    is refused with ValidationError, because k cannot be reached at a
    finite height then.
    """
    if linkage not in LINKAGES:
        raise ValidationError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = matrix.size
    # Peel off the worst NaN offenders until the remaining block is clean,
    # so one failed record does not poison every row it touches.
    nan_mask = np.isnan(matrix.values)
    usable = list(range(n))
    while usable:
        counts = nan_mask[np.ix_(usable, usable)].sum(axis=1)
        worst = int(np.argmax(counts))
        if counts[worst] == 0:
            break
        usable.pop(worst)
    m = len(usable)
    if not (1 <= k <= m):
        raise ValidationError(f"k must lie in [1, {m}] (usable items), got {k}")

    dist = matrix.values[np.ix_(usable, usable)].astype(float)
    # Each cluster sits in the slot of its first member, so slot order is
    # cluster order, and the dict keeps the live slots in that order.
    clusters: dict[int, list[int]] = {i: [i] for i in range(m)}
    # link[a, b] for live slots a < b is the linkage distance between
    # clusters a and b. Between singletons it is the distance itself,
    # except that the mean of a 1x1 block is summed from +0.0 and so turns
    # -0.0 into +0.0. The diagonal, the lower triangle and the rows and
    # columns of retired slots hold inf, so the first minimum in row-major
    # order is the first closest pair in cluster order.
    start = dist + 0.0 if linkage == "average" else dist
    link = np.where(np.triu(np.ones((m, m), dtype=bool), 1), start, np.inf)
    heights: list[float] = []
    while len(clusters) > k:
        a, b = divmod(int(np.argmin(link)), m)
        height = float(link[a, b])
        if not np.isfinite(height):
            raise ValidationError(
                f"k={k} cannot be reached at a finite linkage distance "
                f"({len(clusters)} clusters remain)"
            )
        heights.append(height)
        merged = clusters[a] + clusters[b]
        if linkage == "average":
            row = _average_row(dist, clusters, a, b, merged)
        else:
            # The min or max over a union of blocks is exactly the min or
            # max of the two blocks' results.
            combine = np.minimum if linkage == "single" else np.maximum
            row = combine(_table_row(link, a), _table_row(link, b))
            row[b] = np.inf
        clusters[a] = merged
        del clusters[b]
        link[b] = link[:, b] = np.inf
        link[:a, a] = row[:a]
        link[a, a + 1 :] = row[a + 1 :]

    labels = [-1] * n
    for rank, members in enumerate(clusters.values()):
        for local in members:
            labels[usable[local]] = rank
    return ClusterResult(tuple(labels), tuple(heights), linkage)


def _average_row(
    dist: np.ndarray, clusters: dict[int, list[int]], a: int, b: int, merged: list[int]
) -> np.ndarray:
    """Average linkage from ``merged``, the union of clusters a and b, to every slot.

    A running mean would change the last bits of the heights, so each cell
    is the mean over its whole block, with the earlier cluster's members as
    rows, as in a scan over pairs. Blocks of one shape (the same side of a,
    the same member count) are gathered by one fancy index into a
    C-contiguous (count, r*s) array, laid out as each block alone, and
    ``np.mean`` over its rows reduces each in the order it reduces the
    block alone. Cells at a, b and retired slots stay inf.
    """
    target = np.asarray(merged)
    groups: dict[tuple[bool, int], list[int]] = {}
    for c, members in clusters.items():
        if c != a and c != b:
            groups.setdefault((c < a, len(members)), []).append(c)
    row = np.full(len(dist), np.inf)
    for (before, _), cs in groups.items():
        others = np.array([clusters[c] for c in cs])
        if before:
            blocks = dist[others[:, :, None], target[None, None, :]]
        else:
            blocks = dist[target[None, :, None], others[:, None, :]]
        row[cs] = np.mean(blocks.reshape(len(cs), -1), axis=1)
    return row


def _table_row(link: np.ndarray, a: int) -> np.ndarray:
    """Linkage distances from cluster a to every slot, inf at a itself."""
    return np.minimum(link[a], link[:, a])

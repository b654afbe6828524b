"""Subspace-angle route to the weighted cepstral norm.

The norm of a stable minimum phase model equals minus the log of the
product of squared cosines of the principal angles between the ranges of
two Vandermonde matrices, one built on the poles and one on the zeros, in
the limit of infinitely many rows. The same angles can be reached from
input/output data alone: Hankel matrices of the output with the input's
row space projected out (and vice versa, which is the inverse system's
Hankel picture) span the corresponding ranges. Both projections come from
one LQ factorization of the stacked Hankel blocks, as in MOESP (Verhaegen
& Dewilde 1992), and the order is read from the singular-value gap.
Maximum phase models go through the same computation on reflected roots.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceNotReached,
    DimensionMismatch,
    InsufficientData,
    MixedPhaseUnsupported,
    NonSimpleRoot,
    RankDeficient,
    ValidationError,
)
from .lti import TAU_MULT, Signal, ZeroPoleGain
from .metrics import cascade, closed_form_norm_mixed

# Relative singular-value floor of the projected data Hankel blocks, and the
# rank cutoff of the spans combined from their bases.
HANKEL_RANK_RTOL = 1e-8
# Smallest ratio between the last kept and the first dropped singular value
# of a projected Hankel block; a record with no such gap has no clear order.
ORDER_GAP_MIN = 1e3
# Hankel columns folded into the triangular factor per QR step. Streaming
# keeps the working set near LQ_BLOCK x 2 rows floats for any record length.
LQ_BLOCK = 2048
# Relative cutoff under which matrix columns count as dependent.
TAU_RANK = 1e-10
# Doubling the Vandermonde depth must move the norm less than this.
TAU_CONV = 1e-10


@dataclass(frozen=True)
class PrincipalAngleSet:
    """Principal angles (ascending) between two subspaces, with cosines."""

    angles: tuple[float, ...]
    cosines: tuple[float, ...]

    @property
    def cos_squared(self) -> tuple[float, ...]:
        return tuple(c * c for c in self.cosines)


def _hankel_cols(length: int, rows: int) -> int:
    """Column count of a rows-row Hankel block over every full window of
    ``length`` samples; raises when the block does not fit."""
    if rows < 1:
        raise ValidationError(f"rows must be positive, got {rows}")
    cols = length - rows + 1
    if cols < 1:
        raise InsufficientData(
            f"a {rows} x {cols} Hankel block needs {rows + cols - 1} samples, got {length}"
        )
    return cols


def _column_basis(matrix: np.ndarray, rtol: float) -> np.ndarray:
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    return u[:, s > rtol * s[0]]


def vandermonde_range(roots: Sequence[complex], depth: int) -> np.ndarray:
    """Matrix whose columns are (1, r, r^2, ..., r^(depth-1)) per root.

    Roots must lie strictly inside the unit circle (reflect first) and be
    pairwise distinct, otherwise the range is rank deficient.
    """
    rs = tuple(complex(r) for r in roots)
    for r in rs:
        if abs(r) >= 1.0:
            raise ValidationError(f"root {r} must lie strictly inside the unit circle")
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if abs(rs[i] - rs[j]) <= TAU_MULT:
                raise RankDeficient(f"repeated root near {rs[i]} makes the range rank deficient")
    if depth < max(1, len(rs)):
        raise RankDeficient(f"depth {depth} cannot carry {len(rs)} independent columns")
    if not rs:
        return np.zeros((depth, 0), dtype=complex)
    base = np.asarray(rs, dtype=complex)
    return base[None, :] ** np.arange(depth)[:, None]


def principal_angles(a: np.ndarray, b: np.ndarray) -> PrincipalAngleSet:
    """Principal angles between the column spaces of two full-rank matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch("principal_angles needs two-dimensional arrays")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] == 0 or b.shape[1] == 0:
        return PrincipalAngleSet((), ())
    for m, name in ((a, "first"), (b, "second")):
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= TAU_RANK * s[0]:
            raise RankDeficient(f"{name} matrix is numerically rank deficient")
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    cosines = np.clip(np.linalg.svd(qa.conj().T @ qb, compute_uv=False), 0.0, 1.0)
    angles = np.arccos(cosines)
    return PrincipalAngleSet(tuple(float(t) for t in angles), tuple(float(c) for c in cosines))


def _norm_from_cosines(angle_set: PrincipalAngleSet) -> float:
    total = 0.0
    for c2 in angle_set.cos_squared:
        if c2 <= 0.0:
            return float("inf")
        total -= float(np.log(c2))
    return total


def _model_angle_norm(poles: tuple[complex, ...], zeros: tuple[complex, ...], depth: int) -> float:
    vp = vandermonde_range(poles, depth)
    vz = vandermonde_range(zeros, depth)
    return _norm_from_cosines(principal_angles(vp, vz))


def subspace_norm_from_model(zpk: ZeroPoleGain, depth: int = 400) -> float:
    """Model norm from principal angles between pole and zero Vandermonde ranges.

    Only purely minimum phase or purely maximum phase models are accepted;
    reflected roots are used in the maximum phase case. A single missing
    root on one side is balanced with a root at the origin (the convention
    that equalizes pole and zero counts of invertible realizations); any
    other imbalance, or an empty side, falls back to the closed form. The
    result is cross-checked at twice the depth.
    """
    if not (zpk.is_minimum_phase or zpk.is_maximum_phase):
        raise MixedPhaseUnsupported(
            "the angle route needs a purely minimum or maximum phase model; "
            "mixed models only have the series and closed-form routes"
        )
    if depth < 1:
        raise ValidationError(f"depth must be positive, got {depth}")
    poles = list(zpk.folded_poles())
    zeros = list(zpk.folded_zeros())
    if not poles and not zeros:
        # A bare gain: both ranges are trivial and the norm is exactly zero.
        return 0.0

    def _pad(side: list[complex]) -> bool:
        if any(abs(r) <= TAU_MULT for r in side):
            return False
        side.append(0.0)
        return True

    gap = len(poles) - len(zeros)
    balanced = True
    if gap == 1:
        balanced = _pad(zeros)
    elif gap == -1:
        balanced = _pad(poles)
    elif gap != 0:
        balanced = False
    if not balanced or not poles or not zeros:
        warnings.warn(
            "pole/zero counts cannot be balanced for the angle route; "
            "returning the closed-form value",
            stacklevel=2,
        )
        return closed_form_norm_mixed(zpk)
    value = _model_angle_norm(tuple(poles), tuple(zeros), depth)
    check = _model_angle_norm(tuple(poles), tuple(zeros), 2 * depth)
    if abs(value - check) > TAU_CONV:
        raise ConvergenceNotReached(
            f"norm moved by {abs(value - check):.3e} when doubling the depth from {depth}; "
            "increase the depth"
        )
    return value


def subspace_distance_between_models(
    first: ZeroPoleGain, second: ZeroPoleGain, depth: int = 400
) -> float:
    """Subspace-angle distance between two models.

    The angle norm of the cascade of the first model with the second one's
    inverse; identical models cancel completely and give zero. The cascade
    must come out purely minimum or maximum phase for the angle route to
    apply.
    """
    return subspace_norm_from_model(cascade(first, second), depth)


def _ordered_basis(lower: np.ndarray, rows: int, side: str) -> np.ndarray:
    """Basis of the second block of a stacked pair with the first block's
    row space projected out, from the pair's lower triangular LQ factor.

    That projection's left singular vectors and values are those of the
    L22 block. The values are clipped to a floor of HANKEL_RANK_RTOL times
    the norm of the second block (its rows of ``lower``); the kept order is
    the largest n with s[n-1] / s[n] >= ORDER_GAP_MIN, and zero when s[0]
    sits at the floor.
    """
    u, s, _ = np.linalg.svd(lower[rows:, rows:], full_matrices=False)
    floor = HANKEL_RANK_RTOL * np.linalg.norm(lower[rows:], 2)
    s = np.maximum(s, floor)
    if s[0] <= floor:
        return u[:, :0]
    ratios = s[:-1] / s[1:]
    gaps = np.flatnonzero(ratios >= ORDER_GAP_MIN)
    if gaps.size == 0:
        largest = f"{ratios.max():.3g}" if ratios.size else "undefined"
        raise RankDeficient(
            f"no singular-value gap of {ORDER_GAP_MIN:g} fixes the {side} order "
            f"(largest ratio {largest}); the record is too noisy, or the order "
            f"reaches the {s.size} usable dimensions"
        )
    return u[:, : gaps[-1] + 1]


def projected_bases(
    input_signal: Signal, output_signal: Signal, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the output-after-input and input-after-output
    projected Hankel column spaces.

    The first basis spans the columns of the output Hankel matrix after the
    input Hankel row space is projected out of its rows: for noise-free
    data this is the extended observability range of the generating system.
    The second swaps the roles and yields the inverse system's range.

    Both come from one LQ factorization [U; Y] = L Q^T of the stacked
    Hankel blocks: the L22 block of L spans Y with U's row space projected
    out, and re-triangularizing the small factor with its blocks swapped
    gives the same for U. The triangular factor is accumulated LQ_BLOCK
    Hankel columns at a time from windows over the samples, so the full
    Hankel blocks are never built and memory stays of order
    LQ_BLOCK x rows whatever the record length.

    Each basis keeps the order at the largest singular-value gap of at
    least ORDER_GAP_MIN above a floor of HANKEL_RANK_RTOL times the block
    norm; a block at the floor gives an empty basis. Raises RankDeficient
    when no gap clears the constant (too much noise, or an order that
    fills every dimension), and InsufficientData unless there are more
    Hankel columns than rows: with cols <= rows the input row space covers
    every column and nothing of the output survives the projection.
    """
    if len(input_signal) != len(output_signal):
        raise ValidationError(
            f"input and output lengths differ: {len(input_signal)} vs {len(output_signal)}"
        )
    cols = _hankel_cols(len(input_signal), rows)
    if cols <= rows:
        raise InsufficientData(
            f"{cols} Hankel columns cannot separate the output from the input at {rows} "
            f"rows; need more columns than rows, that is at least {2 * rows} samples"
        )
    windows = [
        np.lib.stride_tricks.sliding_window_view(s.samples, rows)[:cols]
        for s in (input_signal, output_signal)
    ]
    # One buffer holds the running triangular factor on top of the next
    # block of Hankel columns (as rows of [U^T Y^T]); filling it in place
    # saves the copies a stack of separate arrays would make per step.
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
        _ordered_basis(r.T / scale, rows, "output"),
        _ordered_basis(swapped.T / scale, rows, "input"),
    )


def subspace_norm_from_data(
    input_signal: Signal, output_signal: Signal, rows: int = 150
) -> float:
    """Model norm estimated from one input/output record.

    Principal angles between the two projected Hankel ranges play the role
    the pole and zero Vandermonde ranges play for a known model. The ranges
    come from ``projected_bases`` (one streamed LQ factorization, memory of
    order LQ_BLOCK x rows, orders chosen at the singular-value gap). An
    identity-like record has empty bases after projection and norm 0. A
    record without a clear order gap raises RankDeficient, and one with no
    more Hankel columns than rows raises InsufficientData.
    """
    basis_y, basis_u = projected_bases(input_signal, output_signal, rows)
    return _norm_from_cosines(principal_angles(basis_y, basis_u))


def subspace_distance_from_bases(
    bases_a: tuple[np.ndarray, np.ndarray], bases_b: tuple[np.ndarray, np.ndarray]
) -> float:
    """Subspace distance from two precomputed (output, input) projected bases.

    Raises NonSimpleRoot when either combined span is rank deficient, which
    happens when a pole of one system equals a zero of the other.
    """
    ya, ua = bases_a
    yb, ub = bases_b
    if ya.shape[0] != yb.shape[0]:
        raise DimensionMismatch("the two records must use the same Hankel row count")
    spans = []
    for parts in ((ya, ub), (ua, yb)):
        stacked = np.hstack(parts)
        span = _column_basis(stacked, HANKEL_RANK_RTOL)
        if span.shape[1] < stacked.shape[1]:
            # A pole of one system equal to a zero of the other: the cascade
            # has a repeated root, which metrics.cascade refuses as well.
            raise NonSimpleRoot(
                f"a combined span keeps {span.shape[1]} of {stacked.shape[1]} columns; "
                "the two systems share a root between one's poles and the other's zeros"
            )
        spans.append(span)
    return _norm_from_cosines(principal_angles(*spans))


def subspace_distance_from_data(
    pair_a: tuple[Signal, Signal],
    pair_b: tuple[Signal, Signal],
    rows: int = 150,
) -> float:
    """Subspace distance between the systems behind two input/output records.

    Combines each record's own projected output range with the other
    record's projected input range, and measures the angles between the two
    combined spans; for records of the same system the spans coincide.
    """
    bases_a = projected_bases(pair_a[0], pair_a[1], rows)
    bases_b = projected_bases(pair_b[0], pair_b[1], rows)
    return subspace_distance_from_bases(bases_a, bases_b)

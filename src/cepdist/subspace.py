"""Subspace-angle route to the weighted cepstral norm.

The norm of a stable minimum phase model equals minus the log of the
product of squared cosines of the principal angles between its pole and
zero observability ranges, the ranges of Vandermonde matrices with
infinitely many rows. For a known model they come exactly from Gramians
(De Cock & De Moor 2002), after padding the shorter root list with roots
at the origin, which leave the norm unchanged. The same angles can be
reached from input/output data alone: Hankel matrices of the output with
the input's row space projected out (and vice versa, which is the inverse
system's Hankel picture) span the corresponding ranges. Both projections
follow from the rows x rows Gram blocks of the input and output Hankel
matrices (the covariance form of Van Overschee & De Moor 1996), whose
entries are lag-product sums along diagonals (the displacement structure
used by Mastronardi et al. 2001); the order is read from the singular-value
gap, and one subspace-iteration step against the samples makes each basis
as accurate as an LQ factorization of the Hankel blocks would.
Maximum phase models go through the same computation on reflected roots.
Every route reads its cosines as the singular values of Q_a^H Q_b for
orthonormal bases Q_a and Q_b of the two ranges (``_cosines``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .config import RunConfig
from .errors import (
    DimensionMismatch,
    InsufficientData,
    MixedPhaseUnsupported,
    NonSimpleRoot,
    RankDeficient,
    ValidationError,
)
from .lti import Signal, ZeroPoleGain, check_pair, range_exponent
from .metrics import cascade
from .spectral import next_pow2

# Relative singular-value floor of the projected data Hankel blocks.
HANKEL_RANK_RTOL = 1e-8
# Smallest ratio between the last kept and the first dropped singular value
# of a projected Hankel block; a record with no such gap has no clear order.
# A span combined from two records' bases with such a gap is rank deficient.
ORDER_GAP_MIN = 1e3
# A refusal for want of an order gap names the conditioning of the Gram
# block projected out when its eigenvalue ratio exceeds this: projecting
# through such a block (a strongly colored record) can lose the gap where
# noise does not. White-noise inputs give about 2, their outputs about 70.
GRAM_CONDITION_NOTED = 1e6


def _cosines(cross: np.ndarray) -> np.ndarray:
    """Cosines, descending, of the principal angles between two ranges with
    orthonormal bases Q_a and Q_b, from cross = Q_a^H Q_b: its singular values
    (Bjorck & Golub 1973) clipped to [0, 1], and none for an empty basis."""
    if 0 in cross.shape:
        return np.zeros(0)
    return np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)


def _norm_from_cosines(cosines: np.ndarray) -> float:
    total = 0.0
    for c in cosines:
        c2 = c * c
        if c2 <= 0.0:
            return float("inf")
        total -= float(np.log(c2))
    return total


def _output_normal(roots: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) of a cascade of unitary all-pass sections [[r, s], [s, -conj r]],
    s = sqrt(1 - |r|^2), one per root: its observability range is the
    (confluent, for repeated roots) Vandermonde range of the roots, and
    A^H A + c^H c = I, so its observability Gramian is the identity."""
    n = len(roots)
    a = np.zeros((n, n), dtype=complex)
    c = np.zeros(n, dtype=complex)
    for j, r in enumerate(roots):
        s = np.sqrt(1.0 - abs(r) ** 2)
        # Section j reads the output of sections 0..j-1, fed through by -conj(r).
        a[j, :j] = s * c[:j]
        a[j, j] = r
        c[:j] *= -np.conj(r)
        c[j] = s
    return a, c


def _range_cosines(poles: Sequence[complex], zeros: Sequence[complex]) -> np.ndarray:
    """Cosines, descending, of the principal angles between the infinite
    observability ranges of two root lists inside the unit circle, the
    shorter padded with roots at the origin: the singular values of the
    cross Gramian W = A_p^H W A_z + c_p^H c_z of their ``_output_normal``
    realizations."""
    n = max(len(poles), len(zeros))
    a_p, c_p = _output_normal(tuple(poles) + (0.0,) * (n - len(poles)))
    a_z, c_z = _output_normal(tuple(zeros) + (0.0,) * (n - len(zeros)))
    # Row-major vec(A_p^H W A_z) = kron(A_p^H, A_z^T) vec(W).
    stein = np.eye(n * n) - np.kron(a_p.conj().T, a_z.T)
    cross = np.linalg.solve(stein, np.outer(c_p.conj(), c_z).ravel()).reshape(n, n)
    return _cosines(cross)


def subspace_norm_from_model(zpk: ZeroPoleGain) -> float:
    """Model norm from principal angles between the pole and zero
    observability ranges.

    Only purely minimum phase or purely maximum phase models are accepted;
    reflected roots are used in the maximum phase case. Any pole and zero
    counts are taken (``_range_cosines`` pads with roots at the origin).
    Nothing is truncated, so clustered and slow roots lose no accuracy.
    """
    if not (zpk.is_minimum_phase or zpk.is_maximum_phase):
        raise MixedPhaseUnsupported(
            "the angle route needs a purely minimum or maximum phase model; "
            "mixed models only have the series and closed-form routes"
        )
    poles = zpk.folded_poles()
    zeros = zpk.folded_zeros()
    if not poles and not zeros:
        # A bare gain: both ranges are trivial and the norm is exactly zero.
        return 0.0
    return _norm_from_cosines(_range_cosines(poles, zeros))


def subspace_distance_between_models(first: ZeroPoleGain, second: ZeroPoleGain) -> float:
    """Subspace-angle distance between two models.

    The angle norm of the cascade of the first model with the second one's
    inverse; identical models cancel completely and give zero. The cascade
    must come out purely minimum or maximum phase for the angle route to
    apply.
    """
    return subspace_norm_from_model(cascade(first, second))


def _lag_gram(x: np.ndarray, y: np.ndarray, rows: int) -> np.ndarray:
    """Gram block G[i, j] = sum over t < cols of x[i + t] * y[j + t] of the
    rows-row Hankel matrices of x and y, with cols = len(x) - rows + 1.

    Row 0 of each triangle is a correlation over the samples. Along a
    diagonal, G[i + 1, j + 1] = G[i, j] - x[i] y[j] + x[i + cols] y[j + cols],
    so the rest of the triangle is one cumulative sum down a sheared block
    of those updates: O(rows * len(x)) work in all, and no Hankel block.
    """
    cols = x.size - rows + 1
    windows = np.lib.stride_tricks.sliding_window_view
    # sheared[k, d] = G[k, k + d] of the upper triangle, then of the transpose.
    triangles = []
    for a, b in ((x, y), (y, x))[: 1 if x is y else 2]:
        sheared = np.empty((rows, rows))
        sheared[0] = np.correlate(b, a[:cols], "valid")
        # Updates past the last diagonal entry read the zero padding; the
        # entries they reach lie outside the triangle and are never read.
        tail = np.concatenate([b[cols:], np.zeros(rows)])
        sheared[1:] = (
            a[cols:, None] * windows(tail, rows)[: rows - 1]
            - a[: rows - 1, None] * windows(b, rows)[: rows - 1]
        )
        triangles.append(np.cumsum(sheared, axis=0))
    index = np.arange(rows)
    lag = index[None, :] - index[:, None]
    start = np.minimum(index[:, None], index[None, :])
    return np.where(
        lag >= 0, triangles[0][start, np.abs(lag)], triangles[-1][start, np.abs(lag)]
    )


def _correlate(spectrum: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """sum over t of x[i + t] * weights[t, m] for i < count, per column m,
    from spectrum = rfft(x, length).

    The products of a Hankel matrix of x, and of its transpose, with a
    block of vectors are such correlations. length must reach past
    count + len(weights) - 2, so that no product wraps around.
    """
    length = 2 * (spectrum.size - 1)
    products = spectrum[:, None] * np.conj(np.fft.rfft(weights, length, axis=0))
    return np.fft.irfft(products, length, axis=0)[:count]


def _gap_order(s: np.ndarray, floor: float, side: str, cause: str) -> int:
    """The kept order of descending singular values clipped to ``floor``.

    It is the largest n with s[n-1] / s[n] >= ORDER_GAP_MIN, and zero when
    s[0] sits at the floor; RankDeficient, naming ``cause``, when no ratio
    clears the gap.
    """
    s = np.maximum(s, floor)
    if s[0] <= floor:
        return 0
    ratios = s[:-1] / s[1:]
    gaps = np.flatnonzero(ratios >= ORDER_GAP_MIN)
    if gaps.size == 0:
        largest = f"{ratios.max():.3g}" if ratios.size else "undefined"
        raise RankDeficient(
            f"no singular-value gap of {ORDER_GAP_MIN:g} fixes the {side} order "
            f"(largest ratio {largest}); {cause}"
        )
    return int(gaps[-1]) + 1


class _HankelSide(NamedTuple):
    """One record of an input/output pair, as the Gram route reads it."""

    name: str
    gram: np.ndarray  # the Gram block of its rows-row Hankel matrix
    eigenvalues: np.ndarray  # of ``gram``, ascending
    spectrum: np.ndarray  # rfft of its samples, for Hankel products


def _projected_basis(
    first: _HankelSide, second: _HankelSide, cross: np.ndarray, cols: int
) -> np.ndarray:
    """Basis of the second record's Hankel column space with the first
    record's Hankel row space projected out; ``cross`` is the Gram block
    of the first by the second.

    The projection's left singular pairs are the eigenpairs of the Schur
    complement of the first Gram block, which must be numerically positive
    definite. Eigenvalues square the conditioning, so singular values under
    sqrt(rows * eps) of the block norm are not resolved there: an order gap
    whose lower side falls under that is measured on the data instead, by
    the step that refines the basis.
    """
    rows = first.gram.shape[0]
    resolution = max(HANKEL_RANK_RTOL, np.sqrt(rows * np.finfo(float).eps))
    low, high = first.eigenvalues[0], first.eigenvalues[-1]
    if not low > resolution**2 * high:
        raise RankDeficient(
            f"the {first.name} is not persistently exciting of order {rows}: its Hankel "
            f"Gram matrix is numerically singular (eigenvalue ratio "
            f"{low / high if high > 0.0 else 0.0:.3g}), as for an impulse, a step, a few "
            f"sines or an all-zero record, so the {second.name} cannot be separated from it"
        )
    if high > GRAM_CONDITION_NOTED * low:
        cause = (
            f"the {first.name} Hankel Gram matrix is ill-conditioned (eigenvalue ratio "
            f"{high / low:.3g}), as for a strongly colored record, and projecting the "
            f"{first.name} out through it loses the gap"
        )
    else:
        cause = f"the record is too noisy, or the order reaches the {rows} usable dimensions"
    schur = second.gram - cross.T @ np.linalg.solve(first.gram, cross)
    values, vectors = np.linalg.eigh(0.5 * (schur + schur.T))
    s = np.sqrt(np.maximum(values[::-1], 0.0))
    vectors = vectors[:, ::-1]
    top = np.sqrt(second.eigenvalues[-1])
    floor, unresolved = HANKEL_RANK_RTOL * top, resolution * top

    def refine(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One subspace-iteration step, B <- orth(A orth(P A^T B)), with A
        # the second Hankel block and P the projection, both applied
        # through correlations against the samples. The projection runs
        # twice: the second pass removes what rounding left of the first
        # record's row space.
        v = _correlate(second.spectrum, basis, cols)
        for _ in range(2):
            weights = np.linalg.solve(first.gram, _correlate(first.spectrum, v, rows))
            v -= _correlate(first.spectrum, weights, cols)
        q = np.linalg.qr(v)[0]
        left, sigma, _ = np.linalg.svd(_correlate(second.spectrum, q, rows), full_matrices=False)
        return left, sigma

    # Values under ``unresolved`` lie within a factor ORDER_GAP_MIN of the
    # floor, so only the gap below the last resolved value (or, with none
    # resolved, whether the first value clears the floor) can depend on
    # them; then the first unresolved value is measured on the data.
    resolved = int(np.count_nonzero(s > unresolved))
    if resolved < rows and (
        resolved == 0 or ORDER_GAP_MIN * floor <= s[resolved - 1] < ORDER_GAP_MIN * unresolved
    ):
        basis, refined = refine(vectors[:, : resolved + 1])
        return basis[:, : _gap_order(refined, floor, second.name, cause)]
    order = _gap_order(s, unresolved, second.name, cause)
    return refine(vectors[:, :order])[0] if order else vectors[:, :0]


def hankel_columns(input_signal: Signal, output_signal: Signal, rows: int) -> int:
    """The Hankel column count of an input/output pair at ``rows`` rows;
    InsufficientData unless it exceeds ``rows``, as with cols <= rows the
    input row space covers every column and no output survives projection."""
    check_pair(input_signal, output_signal)
    if rows < 1:
        raise ValidationError(f"rows must be positive, got {rows}")
    cols = len(input_signal) - rows + 1
    if cols <= rows:
        raise InsufficientData(
            f"{rows} Hankel rows cannot separate the output from the input; they need "
            f"more columns than rows, that is at least {2 * rows} samples, "
            f"got {len(input_signal)}"
        )
    return cols


def projected_bases(
    input_signal: Signal, output_signal: Signal, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the output-after-input and input-after-output
    projected Hankel column spaces.

    The first basis spans the columns of the output Hankel matrix after the
    input Hankel row space is projected out of its rows: for noise-free
    data this is the extended observability range of the generating system.
    The second swaps the roles and yields the inverse system's range.

    Both come from the rows x rows Gram blocks of the two Hankel matrices,
    built from lag products of the samples, and from correlations of the
    samples with the few basis vectors. The Hankel matrices are never
    built: working memory is a few rows x rows blocks plus a few
    record-length FFT buffers. Each record is first divided by the power of
    two of ``lti.range_exponent``, which changes no angle and keeps the lag
    products in range.

    Each basis keeps the order at the largest singular-value gap of at
    least ORDER_GAP_MIN above a floor of HANKEL_RANK_RTOL times the block
    norm; a block at the floor gives an empty basis. Raises RankDeficient
    when no gap clears the constant (too much noise, or an order that
    fills every dimension) or when the input (or the output, for the
    second basis) is not persistently exciting, and InsufficientData as
    ``hankel_columns`` does.
    """
    cols = hankel_columns(input_signal, output_signal, rows)
    length = next_pow2(len(input_signal))
    samples, sides = [], []
    for name, signal in (("input", input_signal), ("output", output_signal)):
        x = np.ldexp(signal.samples, -range_exponent(signal.samples))
        gram = _lag_gram(x, x, rows)
        samples.append(x)
        sides.append(_HankelSide(name, gram, np.linalg.eigvalsh(gram), np.fft.rfft(x, length)))
    cross = _lag_gram(*samples, rows)
    return (
        _projected_basis(sides[0], sides[1], cross, cols),
        _projected_basis(sides[1], sides[0], cross.T, cols),
    )


def subspace_norm_from_data(
    input_signal: Signal, output_signal: Signal, rows: int = RunConfig.hankel_rows
) -> float:
    """Model norm estimated from one input/output record.

    Principal angles between the two projected Hankel ranges play the role
    the pole and zero Vandermonde ranges play for a known model. The ranges
    come from ``projected_bases`` (lag-product Gram blocks and one refining
    step against the samples, no Hankel matrix built, orders chosen at the
    singular-value gap). An identity-like record has empty bases after
    projection and norm 0. A record without a clear order gap, or whose
    input is not persistently exciting (an impulse, a step, a few sines),
    raises RankDeficient, and one with no more Hankel columns than rows
    raises InsufficientData.
    """
    basis_y, basis_u = projected_bases(input_signal, output_signal, rows)
    return _norm_from_cosines(_cosines(basis_y.T @ basis_u))


def subspace_distance_from_bases(
    bases_a: tuple[np.ndarray, np.ndarray], bases_b: tuple[np.ndarray, np.ndarray]
) -> float:
    """Subspace distance from two precomputed (output, input) projected bases.

    A combined span (one record's output basis next to the other's input
    basis) is rank deficient by the gap rule of the record orders when any
    adjacent singular-value ratio reaches ORDER_GAP_MIN, and NonSimpleRoot
    is raised: a pole of one system equals a zero of the other, noisy or not.
    """
    ya, ua = bases_a
    yb, ub = bases_b
    if ya.shape[0] != yb.shape[0]:
        raise DimensionMismatch("the two records must use the same Hankel row count")
    spans = []
    for parts in ((ya, ub), (ua, yb)):
        stacked = np.hstack(parts)
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        # s[0] >= 1 (orthonormal blocks); a ratio 0/0 is nan and no gap.
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = np.flatnonzero(s[:-1] / s[1:] >= ORDER_GAP_MIN)
        if gaps.size:
            # A pole of one system equal to a zero of the other: the cascade
            # has a repeated root, whose confluent direction the data lack.
            raise NonSimpleRoot(
                f"a combined span keeps {gaps[-1] + 1} of {stacked.shape[1]} columns; "
                "the two systems share a root between one's poles and the other's zeros"
            )
        spans.append(u)
    return _norm_from_cosines(_cosines(spans[0].T @ spans[1]))


def subspace_distance_from_data(
    pair_a: tuple[Signal, Signal],
    pair_b: tuple[Signal, Signal],
    rows: int = RunConfig.hankel_rows,
) -> float:
    """Subspace distance between the systems behind two input/output records.

    Combines each record's own projected output range with the other
    record's projected input range, and measures the angles between the two
    combined spans; for records of the same system the spans coincide.
    """
    bases_a = projected_bases(pair_a[0], pair_a[1], rows)
    bases_b = projected_bases(pair_b[0], pair_b[1], rows)
    return subspace_distance_from_bases(bases_a, bases_b)

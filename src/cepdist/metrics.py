"""Distances between signals and systems.

The central quantity is the weighted cepstral distance: the sum over lags
k >= 1 of k times the squared difference of power cepstra. For rational
systems it has closed forms in the roots, it equals the same distance of
the cascade of one system with the other's inverse, and for minimum phase
models it coincides with the squared Hilbert-Schmidt norm of the Hankel
operator built from the log-transfer coefficients. Those identities are
what the verification front end checks numerically.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import KindMismatch, LengthMismatch, ValidationError
from .lti import TAU_MULT, Signal, ZeroPoleGain, range_exponent
from .spectral import CepstrumSequence


@dataclass(frozen=True)
class WeightedCepstralResult:
    """A weighted cepstral distance (or norm) with its truncation bound.

    ``value`` is the truncated sum. ``tail_bound`` bounds the mass beyond
    lag ``order`` for cepstra of models, from their root metadata; it is
    None for estimated cepstra, whose lags alone bound nothing.
    """

    value: float
    order: int
    tail_bound: float | None


def _power_lags(c: CepstrumSequence) -> np.ndarray:
    if c.kind == "power":
        return c.positive
    # A complex cepstrum folds to the power one by adding the two halves.
    return c.positive + c.negative


def _weighted_square_sum(delta: np.ndarray) -> np.ndarray:
    """Sum over the last axis of k * delta(k)^2, k = 1..K.

    NumPy reduces each contiguous row of a stacked array on its own, in the
    same pairwise order as a 1-D array, so a row gives the same bits
    whether it is reduced alone or with others.
    """
    k = np.arange(1, delta.shape[-1] + 1)
    return np.sum(k * delta**2, axis=-1)


def _geometric_tail(amplitude: float, radius: float, order: int) -> float:
    if radius <= 0.0:
        return 0.0
    return amplitude**2 * radius ** (2 * (order + 1)) / ((order + 1) * (1.0 - radius**2))


def _tail_bound(order: int, *cepstra: CepstrumSequence) -> float | None:
    """The bound on the mass beyond lag ``order`` from the cepstra's root
    metadata, or None when one of them has none."""
    radii = [c.root_radius for c in cepstra]
    counts = [c.root_count for c in cepstra]
    if None in radii or None in counts:
        return None
    return _geometric_tail(float(sum(counts)), max(radii), order)


def weighted_cepstral_distance(
    c1: CepstrumSequence, c2: CepstrumSequence
) -> WeightedCepstralResult:
    """Sum over k of k * (c1(k) - c2(k))^2 on power cepstra.

    Complex cepstra are folded to power form first. When the stored orders
    differ the comparison runs at the common truncation, the smaller of the
    two. Zeroth coefficients never contribute.
    """
    if c1.kind != c2.kind:
        raise KindMismatch(f"cannot mix cepstrum kinds {c1.kind!r} and {c2.kind!r}")
    order = min(c1.order, c2.order)
    delta = _power_lags(c1)[:order] - _power_lags(c2)[:order]
    value = float(_weighted_square_sum(delta))
    return WeightedCepstralResult(value, delta.size, _tail_bound(delta.size, c1, c2))


def weighted_cepstral_matrix(cepstra: Sequence[CepstrumSequence]) -> np.ndarray:
    """Weighted cepstral distances between all pairs of cepstra, as a matrix.

    The cepstra must share one kind and one order. Each cell equals
    ``weighted_cepstral_distance(...).value`` bit for bit: the lags are
    stacked once, and row i is reduced against all later rows in one call.
    The difference is taken directly, because the Gram expansion
    |a|^2 + |b|^2 - 2 a.b cancels near zero distance. No tail bound is
    computed.
    """
    kinds = {c.kind for c in cepstra}
    if len(kinds) > 1:
        raise KindMismatch(f"cannot mix cepstrum kinds {sorted(kinds)}")
    orders = {c.order for c in cepstra}
    if len(orders) > 1:
        raise ValidationError(f"cepstra must share one order, got {sorted(orders)}")
    lags = np.stack([_power_lags(c) for c in cepstra])
    n = lags.shape[0]
    values = np.zeros((n, n))
    for i in range(n - 1):
        values[i, i + 1 :] = values[i + 1 :, i] = _weighted_square_sum(lags[i] - lags[i + 1 :])
    return values


def weighted_cepstral_norm(c: CepstrumSequence) -> WeightedCepstralResult:
    """Weighted cepstral distance from the all-pass class: sum of k * c(k)^2."""
    lags = _power_lags(c)
    value = float(_weighted_square_sum(lags))
    return WeightedCepstralResult(value, lags.size, _tail_bound(lags.size, c))


def _log_gram(a: np.ndarray, b: np.ndarray) -> float:
    """Sum over all pairs of log |1 - a_i conj(b_j)|."""
    return float(np.sum(np.log(np.abs(1.0 - np.outer(a, np.conj(b))))))


def closed_form_norm(zpk: ZeroPoleGain) -> float:
    """Weighted cepstral norm of a rational model, from its roots.

    With p and z the poles and zeros folded inside the unit circle, the
    norm is 2 sum log|1 - p conj(z)| - sum log|1 - p conj(p')| -
    sum log|1 - z conj(z')| over all pairs. The power cepstrum cannot tell
    a root r from 1/conj(r), so the one expression holds for minimum
    phase, maximum phase and mixed models alike. ``ZeroPoleGain`` refuses
    roots on the circle, so every folded root lies strictly inside.
    """
    p = np.asarray(zpk.folded_poles(), dtype=complex)
    z = np.asarray(zpk.folded_zeros(), dtype=complex)
    return 2.0 * _log_gram(p, z) - _log_gram(p, p) - _log_gram(z, z)


def cascade(first: ZeroPoleGain, second: ZeroPoleGain) -> ZeroPoleGain:
    """Root form of first composed with the inverse of second.

    Poles of the result are first's poles plus second's zeros, zeros are
    first's zeros plus second's poles, and coincident pole/zero pairs
    cancel. The weighted cepstral distance between two systems equals the
    weighted cepstral norm of their cascade.
    """
    poles = list(first.poles) + list(second.zeros)
    zeros = list(first.zeros) + list(second.poles)
    kept_poles = []
    for pole in poles:
        for idx, zero in enumerate(zeros):
            if abs(pole - zero) <= TAU_MULT:
                zeros.pop(idx)
                break
        else:
            kept_poles.append(pole)
    return ZeroPoleGain(kept_poles, zeros, first.gain / second.gain)


def hs_hankel_norm(cepstrum: CepstrumSequence, m: int) -> float:
    """Squared Frobenius norm of the m x m Hankel matrix of c(1..2m-1).

    Entry (i, j) is c(i + j + 1). A lag k <= m appears in exactly k of the
    entries, so for quickly decaying cepstra the value matches the weighted
    cepstral norm truncated at lag m; the lags beyond m carry reduced weight
    and contribute only tail mass.
    """
    if cepstrum.kind != "power":
        raise KindMismatch("the Hankel norm route is defined on power cepstra")
    if m < 1:
        raise ValidationError(f"m must be positive, got {m}")
    if cepstrum.order < 2 * m - 1:
        raise ValidationError(
            f"an {m} x {m} Hankel block reads lags 1 to {2 * m - 1}; "
            f"store at least {2 * m - 1} coefficients (got {cepstrum.order})"
        )
    coeffs = cepstrum.positive
    idx = np.arange(m)
    hankel = coeffs[idx[:, None] + idx[None, :]]
    return float(np.sum(hankel**2))


def _scaled(x: np.ndarray, exponent: int) -> np.ndarray:
    return np.ldexp(x, -exponent) if exponent else x


def euclidean_distance(s1: Signal, s2: Signal) -> float:
    """Plain pointwise L2 distance between equal-length signals.

    The difference is divided by the power of two that ``range_exponent``
    gives for it, and the norm is multiplied back, so the sum of squares
    neither overflows nor underflows, however far below the signals' peak
    the difference lies. That scaling is exact. A distance beyond the
    floating-point range, one with a difference that overflows included,
    is refused with ValidationError.
    """
    if len(s1) != len(s2):
        raise LengthMismatch(f"signal lengths differ: {len(s1)} vs {len(s2)}")
    with np.errstate(over="ignore"):
        difference = s1.samples - s2.samples
    if np.isfinite(difference).all():
        exponent = range_exponent(difference)
        with contextlib.suppress(OverflowError):
            return math.ldexp(float(np.linalg.norm(_scaled(difference, exponent))), exponent)
    raise ValidationError("the euclidean distance exceeds the floating-point range")


def cosine_similarity(s1: Signal, s2: Signal) -> float:
    """Inner product of the signals normalized by their L2 norms.

    Each signal is first divided by its own power of two from
    ``range_exponent``, so the inner product and the norms neither overflow
    nor underflow. That scaling is exact and cancels in the ratio. The
    ratio is clipped to [-1, 1], which rounding can leave by an ulp.
    """
    if len(s1) != len(s2):
        raise LengthMismatch(f"signal lengths differ: {len(s1)} vs {len(s2)}")
    x, y = (_scaled(s.samples, range_exponent(s.samples)) for s in (s1, s2))
    norms = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    if norms == 0.0:
        raise ValidationError("cosine similarity is undefined for an all-zero signal")
    return min(1.0, max(-1.0, float(x @ y) / norms))


class SignalStats(NamedTuple):
    median: float
    mean: float
    std: float


def signal_statistics(signal: Signal) -> SignalStats:
    """Median, mean, and population standard deviation of the samples."""
    x = signal.samples
    return SignalStats(float(np.median(x)), float(np.mean(x)), float(np.std(x)))

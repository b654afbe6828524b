"""Spectrum estimates and cepstra.

The power cepstrum of a spectrum sampled at L uniform points on the unit
circle is the inverse DFT of its log. For a rational model it reduces to
sums of scaled root powers, which is what the closed forms in the metrics
module exploit. The complex cepstrum keeps phase as well: its positive
quefrencies see only roots inside the unit circle and its negative
quefrencies only roots outside, which is what phase classification reads.

Estimated spectra of finite signals carry a global phase trend (an integer
number of windings across the frequency axis, from delays and from roots
outside the circle). That trend is removed before the inverse transform so
the log stays single-valued; only the winding-free part is reported.

Power and transfer cepstra of a collection are estimated in batches:
records with one resolved ``SpectrumPlan`` (record length, method,
window, hop and FFT length) are stacked a block at a time and go through
each FFT, log and inverse FFT call together. A single record is a batch
of one through the same code, and every row is transformed and reduced
as it would be alone, so the batch changes no bit of any estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .config import RunConfig
from .errors import (
    CepdistError,
    DimensionMismatch,
    InsufficientData,
    KindMismatch,
    LengthMismatch,
    LogOfNonpositive,
    SpectralNull,
    ValidationError,
)
from .lti import Signal, ZeroPoleGain, check_pair, range_exponent

CEPSTRUM_KINDS = ("power", "complex")

# Relative floor under which a spectrum magnitude counts as a null.
TAU_SPEC = 1e-12
# Minimum signal length for segment averaging; below this fall back to a
# plain periodogram.
MIN_WELCH_LENGTH = 128
# Spectrum values computed per FFT call: a block holds the segments of
# several records that share a plan, or a block of segments of one long
# record, so a call's memory stays near a megabyte whatever the record
# length or the collection size.
WELCH_BLOCK_VALUES = 2**16


def next_pow2(n: int) -> int:
    """Smallest power of two that is >= n."""
    if n < 1:
        raise ValidationError(f"need a positive length, got {n}")
    return 1 << (int(n) - 1).bit_length()


def _is_grid_size(n: int) -> bool:
    """Whether a uniform frequency grid can have n points: a power of two, at least 2."""
    return n >= 2 and not n & (n - 1)


def _grid_values(values, what: str, dtype=float) -> np.ndarray:
    """``values`` as a finite vector on a uniform frequency grid, named ``what`` if refused."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{what} must be one-dimensional, got shape {arr.shape}")
    if not _is_grid_size(arr.size):
        raise ValidationError(f"{what} length must be a power of two >= 2, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} values must be finite")
    return arr


def _check_order(order: int, length: int | None = None) -> None:
    """Refuse a cepstrum order below 1, or above half of a ``length``-point grid."""
    if order < 1:
        raise ValidationError(f"order must be positive, got {order}")
    if length is not None and 2 * order > length:
        raise ValidationError(
            f"cepstrum order {order} needs a spectrum of at least {2 * order} samples, got {length}"
        )


def default_window_length(n: int) -> int:
    """Largest power of two at most n / 8, clamped to [16, 1024]."""
    if n < 16:
        return 16
    return int(min(1024, 2 ** int(np.floor(np.log2(max(16, n // 8))))))


@dataclass(frozen=True)
class CepstrumSequence:
    """Truncated cepstrum coefficients.

    ``power`` kind: ``positive[k-1]`` holds c(k) for k = 1..K and the
    sequence is even, so negative lags are implied. ``complex`` kind keeps
    both halves: ``negative[k-1]`` holds c(-k).

    ``root_radius`` and ``root_count`` are set when the sequence came from
    a model; they bound the truncated tail (|c(k)| <= count * radius^k / k).
    """

    kind: str
    positive: np.ndarray
    negative: np.ndarray | None
    zeroth: float
    root_radius: float | None = None
    root_count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CEPSTRUM_KINDS:
            raise KindMismatch(f"kind must be one of {CEPSTRUM_KINDS}, got {self.kind!r}")
        pos = np.asarray(self.positive, dtype=float)
        if pos.ndim != 1 or pos.size < 1:
            raise ValidationError("positive coefficients must be a nonempty vector")
        if not np.all(np.isfinite(pos)):
            raise ValidationError("cepstrum coefficients must be finite")
        neg = self.negative
        if self.kind == "complex":
            if neg is None:
                raise ValidationError("complex cepstra need the negative-lag half")
            neg = np.asarray(neg, dtype=float)
            if neg.shape != pos.shape:
                raise LengthMismatch("positive and negative halves must have equal length")
            if not np.all(np.isfinite(neg)):
                raise ValidationError("cepstrum coefficients must be finite")
        elif neg is not None:
            raise ValidationError("power cepstra are even; negative half must be None")
        if not np.isfinite(self.zeroth):
            raise ValidationError("zeroth coefficient must be finite")
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "negative", neg)
        object.__setattr__(self, "zeroth", float(self.zeroth))

    @property
    def order(self) -> int:
        return int(self.positive.size)

    def coefficient(self, k: int) -> float:
        """Coefficient at integer lag k, for |k| <= order."""
        if k == 0:
            return self.zeroth
        if abs(k) > self.order:
            raise ValidationError(f"lag {k} is beyond the stored order {self.order}")
        if k > 0:
            return float(self.positive[k - 1])
        if self.kind == "power":
            return float(self.positive[-k - 1])
        return float(self.negative[-k - 1])


class SpectrumPlan(NamedTuple):
    """The resolved settings of a spectrum estimate of one record.

    ``samples`` is the record length. ``window_len`` and ``hop`` are None
    for a periodogram, which takes the whole record as one untapered
    segment. Records with equal plans are estimated in one batch.
    """

    method: str
    samples: int
    window_len: int | None
    hop: int | None
    fft_length: int

    @property
    def segments(self) -> int:
        if self.window_len is None:
            return 1
        return (self.samples - self.window_len) // self.hop + 1


def _fft_length(fft_length: int | None, covered: int, what: str, order: int) -> int:
    """The FFT length of a transform of ``covered`` samples, those of the
    signal or of the window as ``what`` names them.

    A given length must be a power of two, at least 2, that covers the
    samples. By default it is the smallest power of two that covers both
    the samples and ``2 * order``, so a cepstrum resolves ``order`` lags.
    """
    if fft_length is None:
        return next_pow2(max(covered, 2 * order))
    length = int(fft_length)
    if length < covered:
        raise ValidationError(f"fft_length {length} is shorter than the {what} ({covered})")
    if not _is_grid_size(length):
        raise ValidationError(f"fft_length must be a power of two, got {length}")
    return length


def _plan_spectrum(n: int, config: RunConfig) -> SpectrumPlan:
    """The plan of ``estimate_spectrum`` for a record of n samples.

    A window longer than the record, and an FFT length that does not cover
    the window (the record, for a periodogram), are refused.
    """
    method = config.method
    if method == "welch" and n < MIN_WELCH_LENGTH:
        warnings.warn(
            "signal too short for segment averaging; falling back to a periodogram",
            stacklevel=3,
        )
        method = "periodogram"
    if method == "periodogram":
        length = _fft_length(config.fft_length, n, "signal", config.K)
        return SpectrumPlan("periodogram", n, None, None, length)
    wl = int(config.window_len) if config.window_len is not None else default_window_length(n)
    if wl > n:
        raise InsufficientData(f"window_len {wl} exceeds the signal length {n}")
    length = _fft_length(config.fft_length, wl, "window", config.K)
    hop = max(1, int(round(wl * (1.0 - config.overlap))))
    return SpectrumPlan("welch", n, wl, hop, length)


def plan_record(record, config: RunConfig) -> SpectrumPlan:
    """The spectrum plan of a signal, or of an (input, output) pair.

    The two signals of a pair must agree in length and sample period, and
    share one plan, so that the realized input spectrum cancels. The plan
    is the one ``estimate_spectrum`` runs, with its periodogram fallback
    and warning for short records.
    """
    if isinstance(record, tuple):
        check_pair(*record)
        record = record[0]
    return _plan_spectrum(len(record), config)


def _spectra(stack: np.ndarray, plan: SpectrumPlan, cross: bool = False):
    """Spectrum estimates of the rows of a stack of records, one row each.

    Welch estimates average |FFT|^2 / fft_length over Hann-tapered
    segments of ``window_len`` samples, ``hop`` apart, each padded to
    ``fft_length``; a periodogram is the one-segment case without taper.
    Each FFT call takes the same block of segments of every row, at most
    WELCH_BLOCK_VALUES spectrum values (or one segment a row, if that
    alone has more), so a stack sized to one block, as ``power_cepstra``
    sizes it, goes through in one call. The running sums are added into
    the first segment of each block, and a sum over the segment axis adds
    the segments in order, so every row is its own segment-by-segment sum
    bit for bit whatever the block.

    With ``cross``, rows 2i and 2i+1 are a pair's input and output, and
    the same segment FFTs U and Y also give its cross spectrum, averaged
    as Y·conj(U) / fft_length; it is returned after the power rows.
    """
    length = plan.fft_length
    if plan.method == "periodogram":
        segments, taper = stack[:, None, :], 1.0
    else:
        view = np.lib.stride_tricks.sliding_window_view(stack, plan.window_len, axis=-1)
        segments, taper = view[:, :: plan.hop], np.hanning(plan.window_len)
    count = plan.segments
    step = max(1, max(1, WELCH_BLOCK_VALUES // length) // len(stack))
    total = np.zeros((len(stack), length))
    cross_total = 0.0
    # ``power_cepstra`` scales its records into range, but
    # ``estimate_spectrum`` takes its signal as given: an overflowing
    # signal gives a non-finite spectrum, which it refuses with a typed
    # error; NumPy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, step):
            spectrum = np.fft.fft(taper * segments[:, start : start + step], length, axis=-1)
            if cross:
                product = spectrum[1::2] * spectrum[::2].conj()
                product[:, 0] += cross_total
                cross_total = np.sum(product, axis=1)
            power = np.abs(spectrum)
            np.square(power, out=power)
            power[:, 0] += total
            total = np.sum(power, axis=1)
        scale = count * length
        return (total / scale, cross_total / scale) if cross else total / scale


def estimate_spectrum(signal: Signal, config: RunConfig) -> np.ndarray:
    """The spectrum estimate of a signal per the configuration, on a
    power-of-two grid of ``fft_length`` points.

    Welch averages |FFT|^2 / fft_length over Hann-tapered segments of
    ``window_len`` samples, spaced by ``window_len * (1 - overlap)``, each
    padded to ``fft_length``; a window covering the whole signal gives the
    periodogram of the tapered signal. A periodogram is |FFT(x, L)|^2 / L,
    whose mean over the bins is the mean square of the zero-padded signal.
    A signal under MIN_WELCH_LENGTH samples cannot support segment
    averaging, so Welch falls back to a periodogram with a warning.
    Automatic FFT lengths cover twice the cepstrum order. A non-finite
    spectrum, from a signal whose squares overflow, is refused.
    """
    spectrum = _spectra(signal.samples[None], _plan_spectrum(len(signal), config))[0]
    return _grid_values(spectrum, "spectrum")


def _refuse_log(spectra: np.ndarray, order: int) -> None:
    """Raise what stops the log cepstrum of one record's spectra.

    ``spectra`` holds one row for a signal, or the input and output rows
    of a pair. A spectrum must pass the grid check, the order must be
    positive and at most half the grid, and every bin strictly positive.
    """
    for values in spectra:
        _grid_values(values, "spectrum")
    _check_order(order, spectra.shape[-1])
    if len(spectra) == 1:
        values = spectra[0]
        if np.any(values <= 0.0):
            bad = int(np.argmin(values))
            raise LogOfNonpositive(
                f"spectrum bin {bad} is {values[bad]}; "
                "the log spectrum needs strictly positive values"
            )
    else:
        for name, values in zip(("input", "output"), spectra):
            if np.any(values <= 0.0):
                raise LogOfNonpositive(f"{name} spectrum has a nonpositive bin; cannot take its log")


def _fold_ifft_log(log_values: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cepstra of the rows of a log spectrum: lags 1..order and lag 0."""
    length = log_values.shape[-1]
    c = np.fft.ifft(log_values, axis=-1).real
    # The log spectrum of a real signal is even, so c(k) = c(L - k) up to
    # estimation noise; averaging the two halves symmetrizes exactly.
    positive = 0.5 * (c[..., 1 : order + 1] + c[..., length - order :][..., ::-1])
    return positive, c[..., 0]


def power_cepstrum_from_psd(values: np.ndarray, order: int) -> CepstrumSequence:
    """Inverse DFT of the log of a spectrum sampled on a uniform grid,
    truncated to ``order`` lags."""
    values = _grid_values(values, "spectrum")
    _refuse_log(values[None], order)
    positive, zeroth = _fold_ifft_log(np.log(values), order)
    return CepstrumSequence("power", positive, None, zeroth)


def power_cepstra(records: Sequence, config: RunConfig) -> list:
    """Power cepstra of signals, and transfer cepstra of (input, output) pairs.

    A transfer cepstrum comes from the difference of the output and input
    log spectra, so the realized input spectrum cancels instead of being
    modeled. Each entry is the record's cepstrum of order ``config.K``, or
    the CepdistError that refused it, so one broken record fails alone.
    Any finite record is accepted: each signal is divided by the power of
    two of ``range_exponent`` before its spectrum is taken, and the log of
    that scale is added back to c(0), the mean log spectrum (output minus
    input for a pair). Every other coefficient is that of the record, and a
    record inside the range keeps every bit.

    Records of one ``plan_record`` plan and one kind (signal or pair) go
    through in blocks: as many as fit WELCH_BLOCK_VALUES spectrum values
    are stacked and transformed together (one at a time when a record's
    segments alone exceed it), and the logs and inverse FFTs of a block's
    good records take one call each. Every row is transformed and reduced
    as it would be alone, so each cepstrum equals the record's own bit for bit.
    """
    results: list = [None] * len(records)
    groups: dict = {}
    for idx, record in enumerate(records):
        try:
            plan = plan_record(record, config)
        except CepdistError as exc:
            results[idx] = exc
            continue
        signals = record if isinstance(record, tuple) else (record,)
        groups.setdefault((plan, len(signals)), []).append((idx, signals))
    for (plan, width), members in groups.items():
        per_call = max(1, WELCH_BLOCK_VALUES // plan.fft_length)
        chunk = max(1, per_call // (plan.segments * width))
        for start in range(0, len(members), chunk):
            block = members[start : start + chunk]
            stack = np.stack([s.samples for _, signals in block for s in signals])
            exponents = np.array([range_exponent(row) for row in stack])
            if exponents.any():
                stack = np.ldexp(stack, -exponents[:, None])
            spectra = _spectra(stack, plan).reshape(len(block), width, -1)
            exponents = exponents.reshape(len(block), width)
            gains = exponents[:, 1] - exponents[:, 0] if width == 2 else exponents[:, 0]
            good = []
            for offset, (idx, _) in enumerate(block):
                try:
                    _refuse_log(spectra[offset], config.K)
                    good.append(offset)
                except CepdistError as exc:
                    results[idx] = exc
            if not good:
                continue
            logs = np.log(spectra[good])
            log_spectra = logs[:, 1] - logs[:, 0] if width == 2 else logs[:, 0]
            positive, zeroth = _fold_ifft_log(log_spectra, config.K)
            for row, offset in enumerate(good):
                idx = block[offset][0]
                c0 = zeroth[row]
                if gains[offset]:
                    c0 = c0 + 2.0 * gains[offset] * np.log(2.0)
                results[idx] = CepstrumSequence("power", positive[row], None, c0)
    return results


def _record_cepstrum(record, config: RunConfig, order: int | None) -> CepstrumSequence:
    """``power_cepstra`` of one record, at ``order`` if given; raises its refusal."""
    if order is not None:
        _check_order(order)
        config = replace(config, K=order)
    (result,) = power_cepstra([record], config)
    if isinstance(result, CepdistError):
        raise result
    return result


def power_cepstrum_of_signal(
    signal: Signal, config: RunConfig, order: int | None = None
) -> CepstrumSequence:
    """Power cepstrum of one signal through the configured spectrum estimate.

    Any finite signal is accepted; its gain shows only in c(0).
    """
    return _record_cepstrum(signal, config, order)


def transfer_cepstrum_from_io(
    input_signal: Signal,
    output_signal: Signal,
    config: RunConfig,
    order: int | None = None,
) -> CepstrumSequence:
    """Power cepstrum of the transfer spectrum between an input/output pair.

    Both signals are estimated with identical settings and the log spectra
    are subtracted, so the realized input spectrum cancels instead of being
    modeled. Any finite pair is accepted; the gain between its signals
    shows only in c(0).
    """
    return _record_cepstrum((input_signal, output_signal), config, order)


def _root_power_sums(roots: tuple[complex, ...], order: int) -> np.ndarray:
    if not roots:
        return np.zeros(order)
    arr = np.asarray(roots, dtype=complex)
    k = np.arange(1, order + 1)
    return np.sum(arr[:, None] ** k[None, :], axis=0).real


def _model_zeroth(zpk: ZeroPoleGain) -> float:
    """A model's complex c(0), half its power c(0), from its gain and outside roots."""
    return (
        np.log(abs(zpk.gain))
        + sum(np.log(abs(z)) for z in zpk.max_zeros)
        - sum(np.log(abs(p)) for p in zpk.unstable_poles)
    )


def _root_bound(zpk: ZeroPoleGain) -> dict:
    """The root radius and count that bound a model cepstrum's truncated tail."""
    return {"root_radius": zpk.folded_radius(), "root_count": len(zpk.poles) + len(zpk.zeros)}


def power_cepstrum_from_zpk(zpk: ZeroPoleGain, order: int) -> CepstrumSequence:
    """Exact power cepstrum of a rational model from its roots.

    Roots outside the unit circle enter through their reflections inside,
    and through log-magnitude terms at lag zero.
    """
    _check_order(order)
    k = np.arange(1, order + 1)
    positive = (
        _root_power_sums(zpk.folded_poles(), order) - _root_power_sums(zpk.folded_zeros(), order)
    ) / k
    return CepstrumSequence("power", positive, None, 2.0 * _model_zeroth(zpk), **_root_bound(zpk))


def _winding_free_phase(spectrum: np.ndarray) -> np.ndarray:
    length = spectrum.size
    phase = np.unwrap(np.angle(spectrum))
    if length < 2:
        return phase
    # Remove the integer number of windings across the full circle (linear
    # phase from delays and circle-exterior roots); log must be periodic.
    windings = round((phase[-1] - phase[0]) / (2.0 * np.pi) * length / (length - 1))
    return phase - 2.0 * np.pi * windings * np.arange(length) / length


def _complex_cepstrum_core(spectrum: np.ndarray, order: int, gain: int = 0) -> CepstrumSequence:
    """The complex cepstrum of ``spectrum`` times 2**gain, a scale that only moves c(0)."""
    length = spectrum.size
    _check_order(order, length)
    mags = np.abs(spectrum)
    if float(np.min(mags)) <= TAU_SPEC * float(np.max(mags)):
        raise SpectralNull(
            "spectrum magnitude touches zero on the grid; the complex cepstrum is undefined"
        )
    log_spec = np.log(mags) + 1j * _winding_free_phase(spectrum)
    coeffs = np.fft.ifft(log_spec).real
    positive = coeffs[1 : order + 1]
    negative = coeffs[length - order :][::-1]
    zeroth = float(coeffs[0])
    if gain:
        zeroth += gain * np.log(2.0)
    return CepstrumSequence("complex", positive, negative, zeroth)


def complex_cepstrum(
    signal: Signal, fft_length: int | None = RunConfig.fft_length, order: int = RunConfig.K
) -> CepstrumSequence:
    """Complex cepstrum of a signal via FFT, phase unwrapping, and inverse FFT.

    Any finite signal is accepted: it is divided by the power of two of
    ``range_exponent`` first, and the log of that scale added to c(0).
    """
    x = signal.samples
    length = _fft_length(fft_length, x.size, "signal", order)
    gain = range_exponent(x)
    return _complex_cepstrum_core(np.fft.fft(np.ldexp(x, -gain), length), order, gain)


def complex_cepstrum_from_response(values: np.ndarray, order: int) -> CepstrumSequence:
    """Complex cepstrum of a frequency response sampled on a uniform grid."""
    return _complex_cepstrum_core(_grid_values(values, "response", complex), order)


def transfer_complex_cepstrum_from_io(
    input_signal: Signal, output_signal: Signal, config: RunConfig, order: int | None = None
) -> CepstrumSequence:
    """Complex cepstrum of the H1 transfer estimate S_yu / S_uu of an i/o pair.

    S_uu and S_yu average the segment FFTs of the pair's ``plan_record``
    plan at ``order`` (``config.K`` if not given), as its transfer cepstrum
    does; the phase of the ratio is unwrapped as one quantity. Any finite
    pair is accepted: each signal is divided by the power of two of
    ``range_exponent`` first, and the log of the ratio of the two scales
    added to c(0).
    """
    if order is not None:
        _check_order(order)
        config = replace(config, K=order)
    plan = plan_record((input_signal, output_signal), config)
    stack = np.stack([input_signal.samples, output_signal.samples])
    gains = np.array([range_exponent(row) for row in stack])
    power, cross = _spectra(np.ldexp(stack, -gains[:, None]), plan, cross=True)
    # S_uu is a power, so the null floor on magnitudes squares.
    if float(np.min(power[0])) <= TAU_SPEC**2 * float(np.max(power[0])):
        raise SpectralNull("input spectrum touches zero on the grid")
    return _complex_cepstrum_core(cross[0] / power[0], config.K, gains[1] - gains[0])


def complex_cepstrum_from_zpk(zpk: ZeroPoleGain, order: int) -> CepstrumSequence:
    """Exact complex cepstrum of a rational model from its roots.

    Positive lags: power sums of stable poles minus minimum phase zeros.
    Negative lags: power sums of reciprocals of unstable poles minus
    reciprocals of maximum phase zeros, with the sign such that the power
    cepstrum is the sum of the two halves.
    """
    _check_order(order)
    k = np.arange(1, order + 1)
    positive = (
        _root_power_sums(zpk.stable_poles, order) - _root_power_sums(zpk.min_zeros, order)
    ) / k
    inv_poles = tuple(1.0 / p for p in zpk.unstable_poles)
    inv_zeros = tuple(1.0 / z for z in zpk.max_zeros)
    negative = (_root_power_sums(inv_poles, order) - _root_power_sums(inv_zeros, order)) / k
    return CepstrumSequence(
        "complex", positive, negative, _model_zeroth(zpk), **_root_bound(zpk)
    )

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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .errors import (
    DimensionMismatch,
    InsufficientData,
    KindMismatch,
    LengthMismatch,
    LogOfNonpositive,
    SpectralNull,
    ValidationError,
)
from .lti import Signal, ZeroPoleGain

SPECTRUM_KINDS = ("periodogram", "welch", "model")
CEPSTRUM_KINDS = ("power", "complex")

# Relative floor under which a spectrum magnitude counts as a null.
TAU_SPEC = 1e-12
# Minimum signal length for segment averaging; below this fall back to a
# plain periodogram.
MIN_WELCH_LENGTH = 128


def next_pow2(n: int) -> int:
    """Smallest power of two that is >= n."""
    if n < 1:
        raise ValidationError(f"need a positive length, got {n}")
    return 1 << (int(n) - 1).bit_length()


def default_window_length(n: int) -> int:
    """Largest power of two at most n / 8, clamped to [16, 1024]."""
    if n < 16:
        return 16
    return int(min(1024, 2 ** int(np.floor(np.log2(max(16, n // 8))))))


@dataclass(frozen=True)
class SpectrumEstimate:
    """A nonnegative spectrum on a power-of-two uniform frequency grid."""

    values: np.ndarray
    method: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DimensionMismatch(f"spectrum must be one-dimensional, got shape {arr.shape}")
        n = arr.size
        if n < 2 or n & (n - 1):
            raise ValidationError(f"spectrum length must be a power of two >= 2, got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("spectrum values must be finite")
        if np.any(arr < 0.0):
            raise ValidationError("spectrum values must be nonnegative")
        if self.method not in SPECTRUM_KINDS:
            raise ValidationError(f"method must be one of {SPECTRUM_KINDS}, got {self.method!r}")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


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


def psd_periodogram(signal: Signal, fft_length: int) -> SpectrumEstimate:
    """Plain squared-FFT spectrum estimate, |FFT(x, L)|^2 / L.

    With this scaling the mean over frequency bins equals the mean square
    of the zero-padded signal.
    """
    x = signal.samples
    n = x.size
    length = int(fft_length)
    if length < n:
        raise ValidationError(f"fft_length {length} is shorter than the signal ({n})")
    if length < 2 or length & (length - 1):
        raise ValidationError(f"fft_length must be a power of two, got {length}")
    values = np.abs(np.fft.fft(x, length)) ** 2 / length
    return SpectrumEstimate(values, "periodogram")


def psd_welch(
    signal: Signal,
    window_len: int,
    overlap: float,
    fft_length: int,
) -> SpectrumEstimate:
    """Averaged tapered-segment spectrum estimate.

    Hann-tapered segments of ``window_len`` samples, spaced by
    ``window_len * (1 - overlap)``, each padded to ``fft_length`` and
    averaged as |FFT|^2 / fft_length. A window covering the whole signal
    reduces to the periodogram of the tapered signal.
    """
    x = signal.samples
    n = x.size
    wl = int(window_len)
    if wl < 8:
        raise ValidationError(f"window_len must be at least 8, got {wl}")
    if wl > n:
        raise InsufficientData(f"window_len {wl} exceeds the signal length {n}")
    if not (0.0 <= overlap < 1.0):
        raise ValidationError(f"overlap must lie in [0, 1), got {overlap}")
    length = int(fft_length)
    if length < wl:
        raise ValidationError(f"fft_length {length} is shorter than the window ({wl})")
    if length < 2 or length & (length - 1):
        raise ValidationError(f"fft_length must be a power of two, got {length}")
    hop = max(1, int(round(wl * (1.0 - overlap))))
    window = np.hanning(wl)
    acc = np.zeros(length)
    count = 0
    for start in range(0, n - wl + 1, hop):
        seg = window * x[start : start + wl]
        acc += np.abs(np.fft.fft(seg, length)) ** 2
        count += 1
    values = acc / (count * length)
    return SpectrumEstimate(values, "welch")


def estimate_spectrum(signal: Signal, config: RunConfig) -> SpectrumEstimate:
    """Estimate a spectrum per the configuration, with automatic sizing.

    Short signals (fewer than 128 samples) cannot support segment
    averaging, so the welch method falls back to a periodogram with a
    warning. Automatic FFT lengths always cover twice the cepstrum order.
    """
    n = len(signal)
    method = config.method
    if method == "welch" and n < MIN_WELCH_LENGTH:
        warnings.warn(
            "signal too short for segment averaging; falling back to a periodogram",
            stacklevel=2,
        )
        method = "periodogram"
    if method == "periodogram":
        length = config.fft_length
        if length is None:
            length = next_pow2(max(n, 2 * config.K))
        return psd_periodogram(signal, length)
    wl = config.window_len if config.window_len is not None else default_window_length(n)
    length = config.fft_length
    if length is None:
        length = next_pow2(max(wl, 2 * config.K))
    return psd_welch(signal, wl, config.overlap, length)


def _fold_ifft_log(log_values: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    length = log_values.size
    if 2 * order > length:
        raise ValidationError(
            f"cepstrum order {order} needs a spectrum of at least {2 * order} samples, got {length}"
        )
    c = np.fft.ifft(log_values).real
    # The log spectrum of a real signal is even, so c(k) = c(L - k) up to
    # estimation noise; averaging the two halves symmetrizes exactly.
    positive = 0.5 * (c[1 : order + 1] + c[length - order :][::-1])
    return positive, float(c[0])


def power_cepstrum_from_psd(psd: SpectrumEstimate, order: int) -> CepstrumSequence:
    """Inverse DFT of the log spectrum, truncated to ``order`` lags."""
    if order < 1:
        raise ValidationError(f"order must be positive, got {order}")
    values = psd.values
    if np.any(values <= 0.0):
        bad = int(np.argmin(values))
        raise LogOfNonpositive(
            f"spectrum bin {bad} is {values[bad]}; the log spectrum needs strictly positive values"
        )
    positive, zeroth = _fold_ifft_log(np.log(values), order)
    return CepstrumSequence("power", positive, None, zeroth)


def power_cepstrum_of_signal(
    signal: Signal, config: RunConfig, order: int | None = None
) -> CepstrumSequence:
    """Power cepstrum of one signal through the configured spectrum estimate."""
    cfg = config if order is None else replace(config, K=order)
    psd = estimate_spectrum(signal, cfg)
    return power_cepstrum_from_psd(psd, cfg.K)


def transfer_cepstrum_from_io(
    input_signal: Signal,
    output_signal: Signal,
    config: RunConfig,
    order: int | None = None,
) -> CepstrumSequence:
    """Power cepstrum of the transfer spectrum between an input/output pair.

    Both signals are estimated with identical settings and the log spectra
    are subtracted, so the realized input spectrum cancels instead of being
    modeled.
    """
    if len(input_signal) != len(output_signal):
        raise LengthMismatch(
            f"input and output lengths differ: {len(input_signal)} vs {len(output_signal)}"
        )
    if input_signal.sample_period != output_signal.sample_period:
        raise ValidationError("input and output sample periods differ")
    cfg = config if order is None else replace(config, K=order)
    psd_in = estimate_spectrum(input_signal, cfg)
    psd_out = estimate_spectrum(output_signal, cfg)
    for name, est in (("input", psd_in), ("output", psd_out)):
        if np.any(est.values <= 0.0):
            raise LogOfNonpositive(f"{name} spectrum has a nonpositive bin; cannot take its log")
    positive, zeroth = _fold_ifft_log(np.log(psd_out.values) - np.log(psd_in.values), cfg.K)
    return CepstrumSequence("power", positive, None, zeroth)


def _root_power_sums(roots: tuple[complex, ...], order: int) -> np.ndarray:
    if not roots:
        return np.zeros(order)
    arr = np.asarray(roots, dtype=complex)
    k = np.arange(1, order + 1)
    return np.sum(arr[:, None] ** k[None, :], axis=0).real


def power_cepstrum_from_zpk(zpk: ZeroPoleGain, order: int) -> CepstrumSequence:
    """Exact power cepstrum of a rational model from its roots.

    Roots outside the unit circle enter through their reflections inside,
    and through log-magnitude terms at lag zero.
    """
    if order < 1:
        raise ValidationError(f"order must be positive, got {order}")
    k = np.arange(1, order + 1)
    positive = (
        _root_power_sums(zpk.folded_poles(), order) - _root_power_sums(zpk.folded_zeros(), order)
    ) / k
    zeroth = 2.0 * (
        np.log(abs(zpk.gain))
        + sum(np.log(abs(z)) for z in zpk.max_zeros)
        - sum(np.log(abs(p)) for p in zpk.unstable_poles)
    )
    return CepstrumSequence(
        "power",
        positive,
        None,
        zeroth,
        root_radius=zpk.folded_radius(),
        root_count=len(zpk.poles) + len(zpk.zeros),
    )


def _winding_free_phase(spectrum: np.ndarray) -> np.ndarray:
    length = spectrum.size
    phase = np.unwrap(np.angle(spectrum))
    if length < 2:
        return phase
    # Remove the integer number of windings across the full circle (linear
    # phase from delays and circle-exterior roots); log must be periodic.
    windings = round((phase[-1] - phase[0]) / (2.0 * np.pi) * length / (length - 1))
    return phase - 2.0 * np.pi * windings * np.arange(length) / length


def _complex_cepstrum_core(spectrum: np.ndarray, order: int) -> CepstrumSequence:
    length = spectrum.size
    if 2 * order > length:
        raise ValidationError(
            f"cepstrum order {order} needs at least {2 * order} spectrum samples, got {length}"
        )
    mags = np.abs(spectrum)
    peak = float(np.max(mags)) if length else 0.0
    if peak == 0.0 or float(np.min(mags)) <= TAU_SPEC * peak:
        raise SpectralNull(
            "spectrum magnitude touches zero on the grid; the complex cepstrum is undefined"
        )
    log_spec = np.log(mags) + 1j * _winding_free_phase(spectrum)
    coeffs = np.fft.ifft(log_spec).real
    positive = coeffs[1 : order + 1]
    negative = coeffs[length - order :][::-1]
    return CepstrumSequence("complex", positive, negative, float(coeffs[0]))


def complex_cepstrum(
    signal: Signal, fft_length: int | None = None, order: int = 256
) -> CepstrumSequence:
    """Complex cepstrum of a signal via FFT, phase unwrapping, and inverse FFT."""
    x = signal.samples
    length = next_pow2(max(x.size, 2 * order)) if fft_length is None else int(fft_length)
    if length < x.size:
        raise ValidationError(f"fft_length {length} is shorter than the signal ({x.size})")
    if length < 2 or length & (length - 1):
        raise ValidationError(f"fft_length must be a power of two, got {length}")
    return _complex_cepstrum_core(np.fft.fft(x, length), order)


def complex_cepstrum_from_response(values: np.ndarray, order: int) -> CepstrumSequence:
    """Complex cepstrum of a frequency response sampled on a uniform grid."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise DimensionMismatch(f"response must be one-dimensional, got shape {arr.shape}")
    n = arr.size
    if n < 2 or n & (n - 1):
        raise ValidationError(f"response length must be a power of two, got {n}")
    return _complex_cepstrum_core(arr, order)


def transfer_complex_cepstrum_from_io(
    input_signal: Signal, output_signal: Signal, order: int, fft_length: int | None = None
) -> CepstrumSequence:
    """Complex cepstrum of the empirical transfer function of an i/o pair.

    Both signals are Hann tapered over their full length (suppressing the
    transient leakage of the finite record), transformed, and divided; the
    phase of the ratio is unwrapped as one quantity so winding slips of the
    two spectra at deep input nulls cancel instead of corrupting the
    cepstrum.
    """
    if len(input_signal) != len(output_signal):
        raise LengthMismatch(
            f"input and output lengths differ: {len(input_signal)} vs {len(output_signal)}"
        )
    u = input_signal.samples
    y = output_signal.samples
    length = next_pow2(max(u.size, 2 * order)) if fft_length is None else int(fft_length)
    if length < u.size or length < 2 or length & (length - 1):
        raise ValidationError(
            f"fft_length must be a power of two at least the signal length, got {length}"
        )
    window = np.hanning(u.size)
    spec_u = np.fft.fft(window * u, length)
    spec_y = np.fft.fft(window * y, length)
    for name, spec in (("input", spec_u), ("output", spec_y)):
        mags = np.abs(spec)
        if float(np.min(mags)) <= TAU_SPEC * float(np.max(mags)):
            raise SpectralNull(f"{name} spectrum touches zero on the grid")
    return _complex_cepstrum_core(spec_y / spec_u, order)


def complex_cepstrum_from_zpk(zpk: ZeroPoleGain, order: int) -> CepstrumSequence:
    """Exact complex cepstrum of a rational model from its roots.

    Positive lags: power sums of stable poles minus minimum phase zeros.
    Negative lags: power sums of reciprocals of unstable poles minus
    reciprocals of maximum phase zeros, with the sign such that the power
    cepstrum is the sum of the two halves.
    """
    if order < 1:
        raise ValidationError(f"order must be positive, got {order}")
    k = np.arange(1, order + 1)
    positive = (
        _root_power_sums(zpk.stable_poles, order) - _root_power_sums(zpk.min_zeros, order)
    ) / k
    inv_poles = tuple(1.0 / p for p in zpk.unstable_poles)
    inv_zeros = tuple(1.0 / z for z in zpk.max_zeros)
    negative = (_root_power_sums(inv_poles, order) - _root_power_sums(inv_zeros, order)) / k
    zeroth = (
        np.log(abs(zpk.gain))
        + sum(np.log(abs(z)) for z in zpk.max_zeros)
        - sum(np.log(abs(p)) for p in zpk.unstable_poles)
    )
    return CepstrumSequence(
        "complex",
        positive,
        negative,
        float(zeroth),
        root_radius=zpk.folded_radius(),
        root_count=len(zpk.poles) + len(zpk.zeros),
    )

"""Spectrum estimation, power and complex cepstra, and phase unwrapping."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepdist import (
    CepstrumSequence,
    ConfigError,
    InsufficientData,
    KindMismatch,
    LengthMismatch,
    LogOfNonpositive,
    RunConfig,
    Signal,
    SpectralNull,
    StateSpaceModel,
    ValidationError,
    ZeroPoleGain,
    complex_cepstrum,
    complex_cepstrum_from_response,
    complex_cepstrum_from_zpk,
    estimate_spectrum,
    example_systems,
    frequency_response,
    power_cepstrum_from_psd,
    power_cepstrum_from_zpk,
    power_cepstrum_of_signal,
    roots_from_state_space,
    simulate,
    state_space_from_roots,
    transfer_cepstrum_from_io,
)
from cepdist.spectral import (
    MIN_WELCH_LENGTH,
    WELCH_BLOCK_VALUES,
    SpectrumPlan,
    _spectra,
    default_window_length,
    next_pow2,
    plan_record,
    power_cepstra,
    transfer_complex_cepstrum_from_io,
)
from conftest import (
    draw_roots,
    grid_power_cepstrum,
    random_any_phase,
    random_balanced_min_phase,
    trace_cepstrum,
    white_record,
)

PERIODOGRAM_CONFIG = RunConfig(method="periodogram", K=20)

SINGLE_POLE = ZeroPoleGain([0.5], [], 1.0)


def white(length: int, seed: int) -> Signal:
    return Signal(np.random.default_rng(seed).standard_normal(length))


def periodogram(signal: Signal, fft_length: int) -> np.ndarray:
    return estimate_spectrum(signal, RunConfig(method="periodogram", fft_length=fft_length))


def welch(signal: Signal, window_len: int, overlap: float, fft_length: int) -> np.ndarray:
    config = RunConfig(window_len=window_len, overlap=overlap, fft_length=fft_length)
    return estimate_spectrum(signal, config)


def test_periodogram_of_constant_is_a_zero_frequency_spike():
    psd = periodogram(Signal(np.ones(64)), 64)
    assert psd[0] == pytest.approx(64.0)
    assert np.max(np.abs(psd[1:])) <= 1e-9


def test_zero_signal_spectrum_is_flagged_downstream():
    psd = periodogram(Signal(np.zeros(32)), 32)
    assert np.array_equal(psd, np.zeros(32))
    with pytest.raises(LogOfNonpositive):
        power_cepstrum_from_psd(psd, 4)


@given(st.integers(0, 10**6), st.integers(5, 200))
def test_periodogram_satisfies_parseval(seed, n):
    x = np.random.default_rng(seed).standard_normal(n)
    psd = periodogram(Signal(x), 256)
    assert np.mean(psd) == pytest.approx(np.sum(x**2) / 256, rel=1e-12)


def test_periodogram_fft_length_validation():
    with pytest.raises(ValidationError):
        periodogram(white(64, 0), 32)
    with pytest.raises(ValidationError):
        periodogram(white(64, 0), 100)


def _reference_psd_welch(signal, window_len, overlap, fft_length):
    """The segment-by-segment loop that the batched Welch estimate replaced,
    kept as the oracle it must match bit for bit."""
    x = signal.samples
    hop = max(1, int(round(window_len * (1.0 - overlap))))
    window = np.hanning(window_len)
    acc = np.zeros(fft_length)
    count = 0
    for start in range(0, x.size - window_len + 1, hop):
        acc += np.abs(np.fft.fft(window * x[start : start + window_len], fft_length)) ** 2
        count += 1
    return acc / (count * fft_length)


def _reference_spectrum(signal, config):
    """The per-record spectrum estimate that the batch replaced, kept as the
    oracle: the short-record periodogram fallback with its warning, the
    automatic sizes, and the segment loop. Raises as it did for a window
    longer than the record and for a non-finite spectrum."""
    x = signal.samples
    n = x.size
    method = config.method
    if method == "welch" and n < MIN_WELCH_LENGTH:
        warnings.warn("signal too short for segment averaging; falling back to a periodogram")
        method = "periodogram"
    if method == "periodogram":
        length = config.fft_length or next_pow2(max(n, 2 * config.K))
        values = np.abs(np.fft.fft(x, length)) ** 2 / length
    else:
        window_len = config.window_len or default_window_length(n)
        if window_len > n:
            raise InsufficientData(f"window_len {window_len} exceeds the signal length {n}")
        length = config.fft_length or next_pow2(max(window_len, 2 * config.K))
        values = _reference_psd_welch(signal, window_len, config.overlap, length)
    if not np.all(np.isfinite(values)):
        raise ValidationError("spectrum values must be finite")
    if np.any(values < 0.0):
        raise ValidationError("spectrum values must be nonnegative")
    return values


def _reference_fold(log_values, order):
    c = np.fft.ifft(log_values).real
    positive = 0.5 * (c[1 : order + 1] + c[c.size - order :][::-1])
    return CepstrumSequence("power", positive, None, float(c[0]))


def reference_power_cepstrum(signal, config):
    """``power_cepstrum_of_signal`` one record at a time: the batch's oracle."""
    values = _reference_spectrum(signal, config)
    if np.any(values <= 0.0):
        bad = int(np.argmin(values))
        raise LogOfNonpositive(
            f"spectrum bin {bad} is {values[bad]}; the log spectrum needs strictly positive values"
        )
    return _reference_fold(np.log(values), config.K)


def reference_transfer_cepstrum(input_signal, output_signal, config):
    """``transfer_cepstrum_from_io`` one record at a time: the batch's oracle."""
    if len(input_signal) != len(output_signal):
        raise LengthMismatch(
            f"input and output lengths differ: {len(input_signal)} vs {len(output_signal)}"
        )
    spectra = [_reference_spectrum(s, config) for s in (input_signal, output_signal)]
    for name, values in zip(("input", "output"), spectra):
        if np.any(values <= 0.0):
            raise LogOfNonpositive(f"{name} spectrum has a nonpositive bin; cannot take its log")
    return _reference_fold(np.log(spectra[1]) - np.log(spectra[0]), config.K)


def reference_cepstrum(record, config):
    if isinstance(record, tuple):
        return reference_transfer_cepstrum(record[0], record[1], config)
    return reference_power_cepstrum(record, config)


@pytest.mark.parametrize("overlap", [0.0, 0.25, 0.3, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("length", [8, 100, 1000, 4097])
def test_welch_matches_the_segment_loop(length, overlap):
    # Window lengths include one whose hop does not divide the record and
    # the whole record; FFT lengths include twice the padded window. A
    # record under MIN_WELCH_LENGTH falls back to a periodogram in
    # estimate_spectrum, so its Welch plan is run directly.
    x = Signal(white(length, length).samples * 1e3)
    for window_len in sorted({w for w in (8, 64, 100, length) if w <= length}):
        for fft_length in (next_pow2(window_len), 2 * next_pow2(window_len)):
            if length < MIN_WELCH_LENGTH:
                hop = max(1, int(round(window_len * (1.0 - overlap))))
                plan = SpectrumPlan("welch", length, window_len, hop, fft_length)
                got = _spectra(x.samples[None], plan)[0]
            else:
                got = welch(x, window_len, overlap, fft_length)
            want = _reference_psd_welch(x, window_len, overlap, fft_length)
            assert got.tobytes() == want.tobytes(), (window_len, fft_length)


@pytest.mark.parametrize("fft_length", [64, 1024])
def test_welch_matches_the_segment_loop_across_blocks(fft_length):
    # Enough segments for several FFT blocks, and a last block part full.
    per_block = WELCH_BLOCK_VALUES // fft_length
    hop = fft_length // 4
    x = white(hop * (3 * per_block + 7) + fft_length, 5)
    got = welch(x, fft_length, 0.75, fft_length)
    want = _reference_psd_welch(x, fft_length, 0.75, fft_length)
    assert got.tobytes() == want.tobytes()


def test_welch_single_full_window_is_a_tapered_periodogram():
    x = white(512, 3)
    tapered = periodogram(Signal(np.hanning(512) * x.samples), 512)
    assert np.array_equal(welch(x, 512, 0.0, 512), tapered)


def test_welch_white_noise_estimate_is_flat():
    # Short windows trade resolution for variance; +-20% needs ~256 segments.
    for seed in (0, 7, 44):
        psd = welch(white(2**14, seed), 64, 0.5, 64)
        mean = float(np.mean(psd))
        assert np.max(psd) <= 1.2 * mean
        assert np.min(psd) >= 0.8 * mean


def test_welch_variance_is_below_periodogram_variance():
    for seed in range(20):
        x = white(2**14, seed)
        var_welch = float(np.var(welch(x, 1024, 0.5, 1024)))
        var_full = float(np.var(periodogram(x, 2**14)))
        assert var_welch < var_full


def test_welch_rejects_window_longer_than_signal():
    # At MIN_WELCH_LENGTH samples and above, where no fallback applies.
    with pytest.raises(InsufficientData, match="window_len 256 exceeds the signal length 200"):
        welch(white(200, 0), 256, 0.5, 256)


def test_welch_rejects_bad_overlap():
    with pytest.raises(ValidationError, match=re.escape("overlap must lie in [0, 1), got 1.0")):
        welch(white(256, 0), 64, 1.0, 64)


@pytest.mark.parametrize(
    "fft_length,message",
    [(32, "fft_length 32 is shorter than the signal (40)"), (48, "must be a power of two, got 48")],
)
def test_every_route_refuses_a_bad_fft_length_alike(fft_length, message):
    x = white(40, 3)
    routes = [
        lambda: periodogram(x, fft_length),
        lambda: complex_cepstrum(x, fft_length, 8),
        lambda: transfer_complex_cepstrum_from_io(
            x, x, RunConfig(method="periodogram", fft_length=fft_length), 8
        ),
    ]
    for route in routes:
        with pytest.raises(ValidationError, match=re.escape(message)):
            route()
    with pytest.raises(ValidationError, match="fft_length 8 is shorter than the window"):
        welch(white(MIN_WELCH_LENGTH, 3), 16, 0.5, 8)


def test_estimate_spectrum_falls_back_for_short_signals():
    config = RunConfig(method="welch", K=16)
    with pytest.warns(UserWarning, match="falling back"):
        psd = estimate_spectrum(white(64, 1), config)
    fallback = estimate_spectrum(white(64, 1), RunConfig(method="periodogram", K=16))
    assert psd.tobytes() == fallback.tobytes()


def test_spectrum_estimate_validation():
    with pytest.raises(ValidationError, match="power of two >= 2, got 48"):
        power_cepstrum_from_psd(np.ones(48), 4)
    with pytest.raises(LogOfNonpositive):
        power_cepstrum_from_psd(-np.ones(16), 4)
    with pytest.raises(ValidationError, match="method must be one of"):
        estimate_spectrum(white(256, 0), RunConfig(method="guess"))


@pytest.mark.parametrize("route", ["plan_record", "estimate_spectrum", "power_cepstra"])
def test_an_unknown_method_is_refused_not_run_as_welch(route):
    # A library RunConfig is never validated, so the plan checks the method
    # itself, with the message of RunConfig.validate.
    config = RunConfig(method="Periodogram")
    message = "method must be one of ('welch', 'periodogram'), got 'Periodogram'"
    call = {
        "plan_record": lambda: plan_record(white(512, 0), config),
        "estimate_spectrum": lambda: estimate_spectrum(white(512, 0), config),
        "power_cepstra": lambda: power_cepstra([white(512, 0)], config)[0],
    }[route]
    if route == "power_cepstra":
        result = call()
    else:
        with pytest.raises(ValidationError) as info:
            call()
        result = info.value
    assert isinstance(result, ConfigError) and str(result) == message
    with pytest.raises(ConfigError, match=re.escape(message)):
        config.validate()


def test_estimate_spectrum_refuses_a_spectrum_that_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="spectrum values must be finite"):
            periodogram(Signal(np.full(256, 1e200)), 256)


def test_power_cepstrum_of_flat_spectrum_is_zero():
    cepstrum = power_cepstrum_from_psd(np.ones(512), 32)
    assert np.array_equal(cepstrum.positive, np.zeros(32))
    assert cepstrum.zeroth == 0.0


def test_power_cepstrum_from_dense_grid_of_single_pole():
    grid = 2.0 * np.pi * np.arange(8192) / 8192
    response = frequency_response(SINGLE_POLE, grid)
    cepstrum = power_cepstrum_from_psd(np.abs(response) ** 2, 8)
    assert cepstrum.coefficient(1) == pytest.approx(0.5, abs=1e-6)
    assert cepstrum.coefficient(2) == pytest.approx(0.125, abs=1e-6)


def test_power_cepstrum_is_even():
    cepstrum = power_cepstrum_of_signal(white(256, 5), PERIODOGRAM_CONFIG)
    for k in range(1, cepstrum.order + 1):
        assert cepstrum.coefficient(k) == cepstrum.coefficient(-k)


def test_power_cepstrum_of_impulse_is_zero():
    x = np.zeros(64)
    x[0] = 1.0
    cepstrum = power_cepstrum_of_signal(Signal(x), PERIODOGRAM_CONFIG)
    assert np.max(np.abs(cepstrum.positive)) <= 1e-15


def test_power_cepstrum_of_single_pole_impulse_response():
    x = np.zeros(2**14)
    x[0] = 1.0
    y = simulate(state_space_from_roots(SINGLE_POLE), Signal(x))
    cepstrum = power_cepstrum_of_signal(y, PERIODOGRAM_CONFIG)
    assert cepstrum.coefficient(1) == pytest.approx(0.5, abs=1e-3)


@given(st.integers(0, 10**6), st.floats(0.1, 10.0))
def test_scaling_a_signal_moves_only_the_zeroth_coefficient(seed, scale):
    x = white(512, seed)
    base = power_cepstrum_of_signal(x, PERIODOGRAM_CONFIG)
    scaled = power_cepstrum_of_signal(Signal(scale * x.samples), PERIODOGRAM_CONFIG)
    assert np.allclose(scaled.positive, base.positive, atol=1e-10)
    assert scaled.zeroth - base.zeroth == pytest.approx(2.0 * np.log(scale), abs=1e-9)


def test_transfer_cepstrum_of_identity_is_zero():
    u = white(4096, 2)
    cepstrum = transfer_cepstrum_from_io(u, u, RunConfig())
    assert np.max(np.abs(cepstrum.positive)) <= 1e-15


def test_transfer_cepstrum_recovers_single_pole():
    u, y = white_record(SINGLE_POLE, 2**14, 44)
    cepstrum = transfer_cepstrum_from_io(u, y, RunConfig())
    assert cepstrum.coefficient(1) == pytest.approx(0.5, abs=1e-2)


def test_white_noise_output_cepstrum_matches_transfer_cepstrum():
    # A flat input spectrum leaves the nonzero lags of the output cepstrum
    # equal to the system's own coefficients, up to estimation error.
    system = example_systems()["minimum_phase"]
    u, y = white_record(system, 2**14, 44)
    estimated = power_cepstrum_of_signal(y, RunConfig(K=20))
    exact = power_cepstrum_from_zpk(system, 20)
    assert np.max(np.abs(estimated.positive - exact.positive)) <= 0.05


def test_log_spectrum_factorization_splits_into_system_and_input():
    system = example_systems()["minimum_phase"]
    u, y = white_record(system, 4096, 9)
    config = RunConfig(method="periodogram", K=64)
    c_y = power_cepstrum_of_signal(y, config)
    c_u = power_cepstrum_of_signal(u, config)
    c_h = transfer_cepstrum_from_io(u, y, config)
    residual = c_y.positive - (c_h.positive + c_u.positive)
    assert np.max(np.abs(residual)) <= 1e-12


def test_transfer_cepstrum_validates_lengths():
    with pytest.raises(LengthMismatch):
        transfer_cepstrum_from_io(white(128, 0), white(256, 0), RunConfig())


def _records(lengths, paired, seed):
    """Records of a two-pole system driven by white noise, one per length."""
    system = ZeroPoleGain([0.6, -0.3], [0.2], 1.0)
    records = []
    for idx, length in enumerate(lengths):
        u, y = white_record(system, length, seed + idx)
        records.append((u, y) if paired else y)
    return records


def _batch_cepstra(records, config):
    """Cepstra of a collection from one ``power_cepstra`` call, and the set of their plans."""
    return power_cepstra(records, config), {plan_record(record, config) for record in records}


def _assert_bit_equal(got, want):
    assert got.positive.tobytes() == want.positive.tobytes()
    assert repr(got.zeroth) == repr(want.zeroth)


def _single_cepstrum(record, config):
    if isinstance(record, tuple):
        return transfer_cepstrum_from_io(record[0], record[1], config)
    return power_cepstrum_of_signal(record, config)


@pytest.mark.parametrize("method", ["welch", "periodogram"])
@pytest.mark.parametrize("paired", [False, True])
def test_batch_matches_the_per_record_oracle_on_mixed_lengths(paired, method):
    # Lengths with different automatic windows, two records per length so
    # that a block holds several records, and one under the Welch minimum.
    lengths = [300, 1024, 100, 4096, 1024, 300, 5000, 100, 20000, 4096]
    records = _records(lengths, paired, seed=3)
    config = RunConfig(method=method, K=64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        results, plans = _batch_cepstra(records, config)
        for record, got in zip(records, results):
            want = reference_cepstrum(record, config)
            _assert_bit_equal(got, want)
            _assert_bit_equal(_single_cepstrum(record, config), want)
    assert len(plans) == len(set(lengths))
    if method == "welch":
        assert len({plan.window_len for plan in plans}) >= 4


@pytest.mark.parametrize("paired", [False, True])
def test_batch_falls_back_to_a_periodogram_for_short_records(paired):
    records = _records([MIN_WELCH_LENGTH - 1, 64], paired, seed=8)
    config = RunConfig(K=16)
    for record in records:
        with pytest.warns(UserWarning, match="falling back"):
            plan = plan_record(record, config)
        assert plan.method == "periodogram"
        with pytest.warns(UserWarning, match="falling back"):
            (got,) = power_cepstra([record], config)
        with pytest.warns(UserWarning, match="falling back"):
            want = reference_cepstrum(record, config)
        _assert_bit_equal(got, want)


@pytest.mark.parametrize("paired", [False, True])
def test_batch_matches_the_oracle_across_welch_blocks(paired):
    # Each 100k-sample record has more segments than one FFT block holds,
    # so its running sums cross several blocks.
    records = _records([100_000, 100_000], paired, seed=11)
    config = RunConfig()
    results, plans = _batch_cepstra(records, config)
    (plan,) = plans
    assert plan.segments * plan.fft_length > 3 * WELCH_BLOCK_VALUES
    for record, got in zip(records, results):
        _assert_bit_equal(got, reference_cepstrum(record, config))


def test_a_collection_may_mix_signals_and_pairs():
    pairs = _records([1024, 4096, 1024], True, seed=5)
    records = [pairs[0], pairs[1][1], pairs[2], pairs[0][1], pairs[1]]
    config = RunConfig(K=64)
    for record, got in zip(records, power_cepstra(records, config)):
        _assert_bit_equal(got, reference_cepstrum(record, config))


@pytest.mark.parametrize("paired", [False, True])
def test_a_broken_record_fails_alone_in_its_block(paired):
    records = _records([1024] * 6, paired, seed=4)
    zero, plain = Signal(np.zeros(1024)), records[4]
    # Record 4 (its input, for a pair) is scaled by 1e200, where the squared
    # FFT magnitudes overflow. It is scaled by a power of two before its
    # spectrum is taken, so only c(0) moves, by the log of the gain.
    huge = Signal(1e200 * (plain[0] if paired else plain).samples)
    records[1] = (zero, records[1][1]) if paired else zero
    records[4] = (huge, plain[1]) if paired else huge
    config = RunConfig(K=64)
    plan = plan_record(records[0], config)
    assert WELCH_BLOCK_VALUES // (plan.segments * plan.fft_length * (1 + paired)) >= 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = power_cepstra(records, config)
    zero_text = (
        "input spectrum has a nonpositive bin; cannot take its log"
        if paired
        else "spectrum bin 0 is 0.0; the log spectrum needs strictly positive values"
    )
    assert isinstance(results[1], LogOfNonpositive) and str(results[1]) == zero_text
    want = reference_cepstrum(plain, config)
    lag_error = np.max(np.abs(results[4].positive - want.positive))
    assert lag_error <= 1e-12 * np.max(np.abs(want.positive))
    zeroth = want.zeroth + (-2.0 if paired else 2.0) * np.log(1e200)
    assert abs(results[4].zeroth - zeroth) <= 1e-12 * abs(zeroth)
    for idx in (0, 2, 3, 5):
        _assert_bit_equal(results[idx], reference_cepstrum(records[idx], config))


def test_power_cepstrum_from_roots_single_pole():
    cepstrum = power_cepstrum_from_zpk(SINGLE_POLE, 3)
    assert cepstrum.positive == pytest.approx([0.5, 0.125, 0.5**3 / 3])


def test_power_cepstrum_from_roots_pure_gain():
    cepstrum = power_cepstrum_from_zpk(ZeroPoleGain(gain=3.0), 8)
    assert np.array_equal(cepstrum.positive, np.zeros(8))
    assert cepstrum.zeroth == pytest.approx(2.0 * np.log(3.0))


def test_power_cepstrum_cannot_tell_a_pole_from_its_inverse():
    inside = power_cepstrum_from_zpk(SINGLE_POLE, 16)
    outside = power_cepstrum_from_zpk(ZeroPoleGain([2.0], [], 1.0), 16)
    assert np.allclose(inside.positive, outside.positive, atol=1e-15)
    assert outside.zeroth == pytest.approx(-2.0 * np.log(2.0))


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_power_cepstrum_from_roots_matches_grid_oracle(seed):
    zpk = random_any_phase(np.random.default_rng(seed))
    exact = power_cepstrum_from_zpk(zpk, 32)
    oracle = grid_power_cepstrum(zpk, 32)
    assert np.max(np.abs(exact.positive - oracle)) <= 1e-9


def test_power_cepstrum_from_state_space_one_state():
    model = StateSpaceModel(A=[[0.5]], B=[1.0], C=[1.0], D=1.0)
    cepstrum = power_cepstrum_from_zpk(roots_from_state_space(model), 4)
    # Pole 0.5 against zero -0.5: 0.5 - (-0.5) = 1 at the first lag.
    assert cepstrum.coefficient(1) == pytest.approx(1.0)


def test_power_cepstrum_from_state_space_feedthrough_only():
    model = StateSpaceModel(A=[[0.5]], B=[0.0], C=[1.0], D=2.0)
    cepstrum = power_cepstrum_from_zpk(roots_from_state_space(model), 8)
    assert np.max(np.abs(cepstrum.positive)) <= 1e-15


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_state_space_cepstrum_matches_root_route(seed):
    zpk = random_balanced_min_phase(np.random.default_rng(seed))
    model = state_space_from_roots(zpk)
    by_trace = trace_cepstrum(model, 20)
    by_roots = power_cepstrum_from_zpk(roots_from_state_space(model), 20)
    assert np.max(np.abs(by_trace - by_roots.positive)) <= 1e-10


def test_unwrap_leaves_continuous_sequences_alone():
    values = np.array([0.0, 0.5, 1.2, 0.4, -0.9])
    assert np.array_equal(np.unwrap(values), values)


def test_unwrap_corrects_a_single_jump():
    out = np.unwrap(np.array([3.0, -3.0]))
    assert out == pytest.approx([3.0, 2.0 * np.pi - 3.0])


@given(st.integers(0, 10**6))
def test_unwrap_anchors_first_element_and_bounds_steps(seed):
    values = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=32)
    out = np.unwrap(values)
    assert out[0] == values[0]
    steps = np.diff(out)
    assert np.all(steps > -np.pi - 1e-12) and np.all(steps <= np.pi + 1e-12)
    shifts = (out - values) / (2.0 * np.pi)
    assert np.max(np.abs(shifts - np.round(shifts))) <= 1e-9


def test_complex_cepstrum_of_impulse_is_zero():
    x = np.zeros(32)
    x[0] = 1.0
    cepstrum = complex_cepstrum(Signal(x), order=8)
    assert np.array_equal(cepstrum.positive, np.zeros(8))
    assert np.array_equal(cepstrum.negative, np.zeros(8))


def test_complex_cepstrum_of_geometric_impulse_response():
    y = Signal(0.5 ** np.arange(4096.0))
    cepstrum = complex_cepstrum(y, order=10)
    k = np.arange(1, 11)
    assert np.allclose(cepstrum.positive, 0.5**k / k, atol=1e-12)
    assert np.max(np.abs(cepstrum.negative)) <= 1e-12


def test_complex_cepstrum_of_demo_minimum_phase_response_is_causal():
    system = example_systems()["minimum_phase"]
    x = np.zeros(4096)
    x[0] = 1.0
    y = simulate(state_space_from_roots(system), Signal(x))
    cepstrum = complex_cepstrum(y, order=5)
    assert np.max(np.abs(cepstrum.negative)) <= 1e-9
    assert np.min(np.abs(cepstrum.positive)) >= 0.07
    assert cepstrum.coefficient(1) == pytest.approx(0.6, abs=1e-9)


def test_complex_cepstrum_rejects_spectral_nulls():
    with pytest.raises(SpectralNull):
        complex_cepstrum(Signal(np.ones(8)), order=2)


def test_complex_cepstrum_from_response_matches_root_route():
    system = example_systems()["minimum_phase"]
    grid = 2.0 * np.pi * np.arange(4096) / 4096
    sampled = complex_cepstrum_from_response(frequency_response(system, grid), 20)
    exact = complex_cepstrum_from_zpk(system, 20)
    assert np.max(np.abs(sampled.positive - exact.positive)) <= 1e-10
    assert np.max(np.abs(sampled.negative - exact.negative)) <= 1e-10


def test_complex_cepstrum_from_response_handles_winding():
    # An anticausal system puts windings on the sampled phase; they must be
    # removed, not folded into spurious coefficients.
    system = example_systems()["maximum_phase"]
    grid = 2.0 * np.pi * np.arange(8192) / 8192
    cepstrum = complex_cepstrum_from_response(frequency_response(system, grid), 20)
    assert cepstrum.coefficient(-1) == pytest.approx(0.6, abs=1e-3)
    pos_energy = float(np.sum(cepstrum.positive**2))
    neg_energy = float(np.sum(cepstrum.negative**2))
    assert pos_energy <= 1e-3 * (pos_energy + neg_energy)


def test_complex_cepstrum_from_roots_demo_values():
    systems = example_systems()
    minimum = complex_cepstrum_from_zpk(systems["minimum_phase"], 5)
    assert minimum.coefficient(1) == pytest.approx((0.9 + 0.7 + 0.4) - (0.8 + 0.6))
    assert np.array_equal(minimum.negative, np.zeros(5))
    maximum = complex_cepstrum_from_zpk(systems["maximum_phase"], 5)
    assert np.array_equal(maximum.positive, np.zeros(5))
    assert maximum.coefficient(-1) == pytest.approx(0.6, abs=1e-12)
    mixed = complex_cepstrum_from_zpk(systems["mixed"], 5)
    assert mixed.coefficient(1) == pytest.approx((0.9 + 0.7) - 0.6)
    assert mixed.coefficient(-1) == pytest.approx(0.4 - 0.8)


def test_complex_cepstrum_from_roots_pure_gain():
    cepstrum = complex_cepstrum_from_zpk(ZeroPoleGain(gain=2.0), 6)
    assert np.array_equal(cepstrum.positive, np.zeros(6))
    assert np.array_equal(cepstrum.negative, np.zeros(6))
    assert cepstrum.zeroth == pytest.approx(np.log(2.0))


@given(st.integers(0, 10**6))
def test_complex_cepstrum_causality_follows_phase_type(seed):
    rng = np.random.default_rng(seed)
    inside = ZeroPoleGain(draw_roots(rng, 3), draw_roots(rng, 2), 1.0)
    assert np.array_equal(complex_cepstrum_from_zpk(inside, 16).negative, np.zeros(16))
    outside = ZeroPoleGain(
        draw_roots(rng, 3, outside=True), draw_roots(rng, 2, outside=True), 1.0
    )
    assert np.array_equal(complex_cepstrum_from_zpk(outside, 16).positive, np.zeros(16))


@given(st.integers(0, 10**6))
def test_power_cepstrum_is_the_sum_of_complex_halves(seed):
    zpk = random_any_phase(np.random.default_rng(seed))
    power = power_cepstrum_from_zpk(zpk, 24)
    two_sided = complex_cepstrum_from_zpk(zpk, 24)
    assert np.allclose(power.positive, two_sided.positive + two_sided.negative, atol=1e-12)
    # Both share one zeroth lag, the power one twice the complex one, and
    # one tail bound.
    assert power.zeroth == 2.0 * two_sided.zeroth
    assert (power.root_radius, power.root_count) == (two_sided.root_radius, two_sided.root_count)


@given(st.integers(0, 10**6))
def test_cepstrum_coefficients_respect_the_decay_bound(seed):
    zpk = random_any_phase(np.random.default_rng(seed))
    cepstrum = power_cepstrum_from_zpk(zpk, 64)
    k = np.arange(1, 65)
    bound = cepstrum.root_count * cepstrum.root_radius**k / k
    assert np.all(np.abs(cepstrum.positive) <= bound + 1e-15)


def test_transfer_complex_cepstrum_of_identity_is_zero():
    u = white(1024, 11)
    cepstrum = transfer_complex_cepstrum_from_io(u, u, RunConfig(), 16)
    assert np.max(np.abs(cepstrum.positive)) <= 1e-15
    assert np.max(np.abs(cepstrum.negative)) <= 1e-15


def test_cepstrum_sequence_validation():
    with pytest.raises(ValidationError):
        CepstrumSequence("complex", np.ones(4), None, 0.0)
    with pytest.raises(ValidationError):
        CepstrumSequence("power", np.ones(4), np.ones(4), 0.0)
    with pytest.raises(KindMismatch):
        CepstrumSequence("cosine", np.ones(4), None, 0.0)
    message = "^positive and negative halves must have equal length$"
    with pytest.raises(LengthMismatch, match=message):
        CepstrumSequence("complex", np.ones(3), np.ones(2), 0.0)
    cepstrum = CepstrumSequence("power", np.ones(4), None, 0.0)
    with pytest.raises(ValidationError):
        cepstrum.coefficient(5)

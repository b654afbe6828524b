"""Spectrum estimation, power and complex cepstra, and phase unwrapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepdist import (
    CepstrumSequence,
    InsufficientData,
    KindMismatch,
    LengthMismatch,
    LogOfNonpositive,
    RunConfig,
    Signal,
    SpectrumEstimate,
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
    psd_periodogram,
    psd_welch,
    roots_from_state_space,
    simulate,
    state_space_from_roots,
    transfer_cepstrum_from_io,
)
from cepdist.spectral import transfer_complex_cepstrum_from_io
from conftest import (
    draw_roots,
    grid_power_cepstrum,
    random_any_phase,
    random_balanced_min_phase,
    trace_cepstrum,
    white_record,
)

PERIODOGRAM_CONFIG = RunConfig(method="periodogram", K=20)

SINGLE_POLE = ZeroPoleGain.from_roots([0.5], [], 1.0)


def white(length: int, seed: int) -> Signal:
    return Signal(np.random.default_rng(seed).standard_normal(length))


def test_periodogram_of_constant_is_a_zero_frequency_spike():
    psd = psd_periodogram(Signal(np.ones(64)), 64)
    assert psd.values[0] == pytest.approx(64.0)
    assert np.max(np.abs(psd.values[1:])) <= 1e-9
    assert psd.method == "periodogram"


def test_zero_signal_spectrum_is_flagged_downstream():
    psd = psd_periodogram(Signal(np.zeros(32)), 32)
    assert np.array_equal(psd.values, np.zeros(32))
    with pytest.raises(LogOfNonpositive):
        power_cepstrum_from_psd(psd, 4)


@given(st.integers(0, 10**6), st.integers(5, 200))
def test_periodogram_satisfies_parseval(seed, n):
    x = np.random.default_rng(seed).standard_normal(n)
    psd = psd_periodogram(Signal(x), 256)
    assert np.mean(psd.values) == pytest.approx(np.sum(x**2) / 256, rel=1e-12)


def test_periodogram_fft_length_validation():
    with pytest.raises(ValidationError):
        psd_periodogram(white(64, 0), 32)
    with pytest.raises(ValidationError):
        psd_periodogram(white(64, 0), 100)


def test_welch_single_full_window_is_a_tapered_periodogram():
    x = white(512, 3)
    welch = psd_welch(x, window_len=512, overlap=0.0, fft_length=512)
    tapered = psd_periodogram(Signal(np.hanning(512) * x.samples), 512)
    assert np.array_equal(welch.values, tapered.values)
    assert welch.method == "welch"


def test_welch_white_noise_estimate_is_flat():
    # Short windows trade resolution for variance; +-20% needs ~256 segments.
    for seed in (0, 7, 44):
        psd = psd_welch(white(2**14, seed), window_len=64, overlap=0.5, fft_length=64)
        mean = float(np.mean(psd.values))
        assert np.max(psd.values) <= 1.2 * mean
        assert np.min(psd.values) >= 0.8 * mean


def test_welch_variance_is_below_periodogram_variance():
    for seed in range(20):
        x = white(2**14, seed)
        var_welch = float(np.var(psd_welch(x, 1024, 0.5, 1024).values))
        var_full = float(np.var(psd_periodogram(x, 2**14).values))
        assert var_welch < var_full


def test_welch_rejects_window_longer_than_signal():
    with pytest.raises(InsufficientData):
        psd_welch(white(64, 0), window_len=128, overlap=0.5, fft_length=128)


def test_welch_rejects_bad_overlap():
    with pytest.raises(ValidationError):
        psd_welch(white(256, 0), window_len=64, overlap=1.0, fft_length=64)


def test_estimate_spectrum_falls_back_for_short_signals():
    config = RunConfig(method="welch", K=16)
    with pytest.warns(UserWarning, match="falling back"):
        psd = estimate_spectrum(white(64, 1), config)
    assert psd.method == "periodogram"


def test_spectrum_estimate_validation():
    with pytest.raises(ValidationError):
        SpectrumEstimate(np.ones(48), "periodogram")
    with pytest.raises(ValidationError):
        SpectrumEstimate(-np.ones(16), "periodogram")
    with pytest.raises(ValidationError):
        SpectrumEstimate(np.ones(16), "guess")


def test_power_cepstrum_of_flat_spectrum_is_zero():
    cepstrum = power_cepstrum_from_psd(SpectrumEstimate(np.ones(512), "model"), 32)
    assert np.array_equal(cepstrum.positive, np.zeros(32))
    assert cepstrum.zeroth == 0.0


def test_power_cepstrum_from_dense_grid_of_single_pole():
    grid = 2.0 * np.pi * np.arange(8192) / 8192
    response = frequency_response(SINGLE_POLE, grid)
    psd = SpectrumEstimate(np.abs(response) ** 2, "model")
    cepstrum = power_cepstrum_from_psd(psd, 8)
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


def test_power_cepstrum_from_roots_single_pole():
    cepstrum = power_cepstrum_from_zpk(SINGLE_POLE, 3)
    assert cepstrum.positive == pytest.approx([0.5, 0.125, 0.5**3 / 3])


def test_power_cepstrum_from_roots_pure_gain():
    cepstrum = power_cepstrum_from_zpk(ZeroPoleGain(gain=3.0), 8)
    assert np.array_equal(cepstrum.positive, np.zeros(8))
    assert cepstrum.zeroth == pytest.approx(2.0 * np.log(3.0))


def test_power_cepstrum_cannot_tell_a_pole_from_its_inverse():
    inside = power_cepstrum_from_zpk(SINGLE_POLE, 16)
    outside = power_cepstrum_from_zpk(ZeroPoleGain.from_roots([2.0], [], 1.0), 16)
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
    inside = ZeroPoleGain.from_roots(draw_roots(rng, 3), draw_roots(rng, 2), 1.0)
    assert np.array_equal(complex_cepstrum_from_zpk(inside, 16).negative, np.zeros(16))
    outside = ZeroPoleGain.from_roots(
        draw_roots(rng, 3, outside=True), draw_roots(rng, 2, outside=True), 1.0
    )
    assert np.array_equal(complex_cepstrum_from_zpk(outside, 16).positive, np.zeros(16))


@given(st.integers(0, 10**6))
def test_power_cepstrum_is_the_sum_of_complex_halves(seed):
    zpk = random_any_phase(np.random.default_rng(seed))
    power = power_cepstrum_from_zpk(zpk, 24)
    two_sided = complex_cepstrum_from_zpk(zpk, 24)
    assert np.allclose(power.positive, two_sided.positive + two_sided.negative, atol=1e-12)


@given(st.integers(0, 10**6))
def test_cepstrum_coefficients_respect_the_decay_bound(seed):
    zpk = random_any_phase(np.random.default_rng(seed))
    cepstrum = power_cepstrum_from_zpk(zpk, 64)
    k = np.arange(1, 65)
    bound = cepstrum.root_count * cepstrum.root_radius**k / k
    assert np.all(np.abs(cepstrum.positive) <= bound + 1e-15)


def test_transfer_complex_cepstrum_of_identity_is_zero():
    u = white(1024, 11)
    cepstrum = transfer_complex_cepstrum_from_io(u, u, 16)
    assert np.max(np.abs(cepstrum.positive)) <= 1e-15
    assert np.max(np.abs(cepstrum.negative)) <= 1e-15


def test_cepstrum_sequence_validation():
    with pytest.raises(ValidationError):
        CepstrumSequence("complex", np.ones(4), None, 0.0)
    with pytest.raises(ValidationError):
        CepstrumSequence("power", np.ones(4), np.ones(4), 0.0)
    with pytest.raises(KindMismatch):
        CepstrumSequence("cosine", np.ones(4), None, 0.0)
    cepstrum = CepstrumSequence("power", np.ones(4), None, 0.0)
    with pytest.raises(ValidationError):
        cepstrum.coefficient(5)

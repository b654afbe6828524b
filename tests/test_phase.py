"""Phase-type verdicts from models, cepstra, and raw input/output records."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cepdist import (
    INDETERMINATE,
    KindMismatch,
    MAXIMUM_PHASE,
    MINIMUM_PHASE,
    MIXED_PHASE,
    CepstrumSequence,
    RunConfig,
    Signal,
    StateSpaceModel,
    ValidationError,
    ZeroPoleGain,
    classify,
    classify_from_io,
    classify_from_model,
    complex_cepstrum,
    complex_cepstrum_from_zpk,
    example_systems,
    frequency_response,
    simulate,
    state_space_from_roots,
)
from conftest import (
    expected_phase_kind,
    random_any_phase,
    random_simulable,
    well_expressed,
    white_record,
)

CONFIG = RunConfig()


def zero_complex_cepstrum(order=20):
    return CepstrumSequence(
        kind="complex",
        positive=np.zeros(order),
        negative=np.zeros(order),
        zeroth=0.0,
    )


def test_verdict_strings_are_pinned():
    assert MINIMUM_PHASE == "MinimumPhaseStable"
    assert MAXIMUM_PHASE == "MaximumPhaseUnstable"
    assert MIXED_PHASE == "Mixed"
    assert INDETERMINATE == "Indeterminate"


def test_demo_systems_get_the_expected_verdicts():
    systems = example_systems()
    assert classify_from_model(systems["minimum_phase"], CONFIG).kind == MINIMUM_PHASE
    assert classify_from_model(systems["maximum_phase"], CONFIG).kind == MAXIMUM_PHASE
    assert classify_from_model(systems["mixed"], CONFIG).kind == MIXED_PHASE


def test_state_space_models_are_accepted_directly():
    # One pole at 0.5 and the matching origin zero; D stays nonzero so the
    # inverse system (and with it the zero set) is defined.
    model = StateSpaceModel(
        A=np.array([[0.5]]), B=np.array([0.5]), C=np.array([1.0]), D=1.0
    )
    verdict = classify_from_model(model, CONFIG)
    assert verdict.kind == MINIMUM_PHASE
    assert verdict.order_tested == CONFIG.K_test
    assert verdict.tolerance == CONFIG.tol_model


def test_pure_gain_is_indeterminate():
    verdict = classify_from_model(ZeroPoleGain(gain=2.0), CONFIG)
    assert verdict.kind == INDETERMINATE
    assert verdict.positive_energy == 0.0
    assert verdict.negative_energy == 0.0
    assert verdict.energy_ratio == 0.0


def test_zero_cepstrum_is_indeterminate():
    assert classify(zero_complex_cepstrum()).kind == INDETERMINATE


def test_power_cepstrum_is_rejected():
    power = CepstrumSequence(kind="power", positive=np.ones(8), negative=None, zeroth=0.0)
    with pytest.raises(KindMismatch):
        classify(power)


def test_classify_validates_order_and_tolerance():
    cepstrum = zero_complex_cepstrum(order=8)
    with pytest.raises(ValidationError):
        classify(cepstrum, order=0)
    with pytest.raises(ValidationError):
        classify(cepstrum, order=9)
    with pytest.raises(ValidationError):
        classify(cepstrum, tolerance=0.0)
    with pytest.raises(ValidationError):
        classify(cepstrum, tolerance=1.0)


def test_geometric_signal_classifies_as_minimum_phase():
    samples = 0.5 ** np.arange(64.0)
    verdict = classify(complex_cepstrum(Signal(samples), order=20))
    assert verdict.kind == MINIMUM_PHASE
    assert verdict.energy_ratio <= 1e-3


def test_identity_record_is_indeterminate():
    u = Signal(np.random.default_rng(7).standard_normal(256))
    assert classify_from_io(u, u, CONFIG).kind == INDETERMINATE


def test_white_noise_through_stable_pole_is_minimum_phase():
    u, y = white_record(ZeroPoleGain([0.5], [], 1.0), 2**14, 3)
    verdict = classify_from_io(u, y, CONFIG)
    assert verdict.kind == MINIMUM_PHASE
    assert verdict.tolerance == CONFIG.tol_estimated


def test_mixed_record_is_detected():
    zpk = ZeroPoleGain([0.9], [2.5], 1.0)
    u, y = white_record(zpk, 2**14, 3)
    assert classify_from_io(u, y, CONFIG).kind == MIXED_PHASE


def test_output_scaling_leaves_the_verdict_and_energies_alone():
    u, y = white_record(ZeroPoleGain([0.9], [2.5], 1.0), 4096, 11)
    base = classify_from_io(u, y, CONFIG)
    scaled = classify_from_io(
        u, Signal(5.0 * y.samples, sample_period=y.sample_period), CONFIG
    )
    assert scaled.kind == base.kind
    assert abs(scaled.positive_energy - base.positive_energy) <= 1e-10
    assert abs(scaled.negative_energy - base.negative_energy) <= 1e-10


def test_energy_ratio_lies_in_unit_interval():
    verdict = classify_from_model(example_systems()["mixed"], CONFIG)
    assert 0.0 <= verdict.energy_ratio <= 1.0
    assert verdict.positive_energy > 0.0
    assert verdict.negative_energy > 0.0


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_model_verdicts_match_the_root_pattern(seed):
    rng = np.random.default_rng(seed)
    zpk = None
    for _ in range(100):
        candidate = random_any_phase(rng)
        if well_expressed(candidate):
            zpk = candidate
            break
    assume(zpk is not None)
    assert classify_from_model(zpk, CONFIG).kind == expected_phase_kind(zpk)


# A second-order minimum phase system with a resonance, and the same with
# its zero at -0.3 moved outside the circle to 1.6.
RESONANT = ZeroPoleGain([0.8 * np.exp(0.6j), 0.8 * np.exp(-0.6j)], [0.5, -0.3], 1.0)
RESONANT_MIXED = ZeroPoleGain(
    [0.8 * np.exp(0.6j), 0.8 * np.exp(-0.6j)], [0.5, 1.6], 1.0
)


def _clear_minimum_phase(rng):
    """A minimum phase system whose phase stands clear of 5% output noise.

    The gate reads the phase bin by bin, so |H| may span at most a factor
    of 10 over the circle, or noise swamps the bins where it is small; and
    the tested lags must carry a cepstral energy of at least 0.2, or the
    noise's own cepstrum weighs as much on both sides.
    """
    grid = 2.0 * np.pi * np.arange(1024) / 1024
    while True:
        zpk = random_simulable(rng, want_mixed=False)
        mags = np.abs(frequency_response(zpk, grid))
        energy = np.sum(complex_cepstrum_from_zpk(zpk, CONFIG.K_test).positive ** 2)
        if mags.max() <= 10.0 * mags.min() and energy >= 0.2:
            return zpk


def _noisy(y, std, rng):
    return Signal(y.samples + std * rng.standard_normal(len(y)), y.sample_period)


@given(st.integers(0, 10**6), st.floats(0.0, 0.05))
def test_noisy_minimum_phase_records_classify_as_minimum_phase(seed, share):
    rng = np.random.default_rng(seed)
    u, y = white_record(_clear_minimum_phase(rng), 2**13, seed)
    noisy = _noisy(y, share * float(np.std(y.samples)), rng)
    assert classify_from_io(u, noisy, CONFIG).kind == MINIMUM_PHASE


@pytest.mark.parametrize("seed", range(8))
def test_an_input_with_a_deep_nyquist_null_keeps_the_verdict(seed):
    # White noise through (1 + 1/z)^3: the input spectrum falls to zero at
    # the Nyquist bin, where a single whole-record ratio Y/U can take the
    # wrong sign and slip a phase winding.
    white = np.random.default_rng(seed).standard_normal(2**13 + 3)
    u = Signal(np.convolve(white, [1.0, 3.0, 3.0, 1.0], mode="valid"))
    y = simulate(state_space_from_roots(RESONANT), u)
    assert classify_from_io(u, y, CONFIG).kind == MINIMUM_PHASE


@pytest.mark.parametrize("std", [0.0, 0.1])
@pytest.mark.parametrize("seed", range(4))
def test_a_time_reversed_record_is_maximum_phase(seed, std):
    # Reversal in time reflects every root of the system through the circle.
    u, y = white_record(RESONANT, 2**13, seed)
    y = _noisy(y, std, np.random.default_rng(seed + 100))
    reversed_record = (Signal(u.samples[::-1]), Signal(y.samples[::-1]))
    assert classify_from_io(*reversed_record, CONFIG).kind == MAXIMUM_PHASE


@pytest.mark.parametrize("std", [0.0, 0.01, 0.1, 0.3])
def test_a_stable_record_with_a_zero_outside_stays_mixed(std):
    u, y = white_record(RESONANT_MIXED, 2**13, 7)
    y = _noisy(y, std, np.random.default_rng(8))
    assert classify_from_io(u, y, CONFIG).kind == MIXED_PHASE

"""Weighted cepstral distances, closed forms, cascades, and baselines."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepdist import (
    CepstrumSequence,
    KindMismatch,
    LengthMismatch,
    RunConfig,
    Signal,
    ValidationError,
    ZeroPoleGain,
    cascade,
    closed_form_norm,
    complex_cepstrum_from_zpk,
    cosine_similarity,
    euclidean_distance,
    example_systems,
    hs_hankel_norm,
    power_cepstrum_from_zpk,
    signal_statistics,
    weighted_cepstral_distance,
    weighted_cepstral_norm,
)
from cepdist.metrics import weighted_cepstral_matrix
from cepdist.spectral import power_cepstra
from conftest import draw_roots, random_any_phase, random_min_phase, white_record

POLE_HALF = ZeroPoleGain([0.5], [], 1.0)
POLE_NINE = ZeroPoleGain([0.9], [], 1.0)

# Distance between the two single-pole systems above, from the closed form
# log((1 - 0.45)^2 / ((1 - 0.25) (1 - 0.81))).
TWO_POLE_DISTANCE = 0.7527392777621913


def geometric_cepstrum(radius: float, order: int) -> CepstrumSequence:
    k = np.arange(1, order + 1)
    return CepstrumSequence("power", radius**k / k, None, 0.0)


def test_distance_of_identical_cepstra_is_zero():
    c = power_cepstrum_from_zpk(POLE_HALF, 64)
    result = weighted_cepstral_distance(c, c)
    assert result.value == 0.0
    assert result.order == 64


def test_distance_between_two_single_poles():
    c1 = power_cepstrum_from_zpk(POLE_HALF, 5000)
    c2 = power_cepstrum_from_zpk(POLE_NINE, 5000)
    result = weighted_cepstral_distance(c1, c2)
    formula = np.log((1 - 0.45) ** 2 / ((1 - 0.25) * (1 - 0.81)))
    assert formula == pytest.approx(TWO_POLE_DISTANCE, abs=1e-15)
    assert result.value == pytest.approx(TWO_POLE_DISTANCE, abs=1e-12)


def test_distance_truncates_to_the_common_order():
    c1 = power_cepstrum_from_zpk(POLE_HALF, 100)
    c2 = power_cepstrum_from_zpk(POLE_NINE, 80)
    result = weighted_cepstral_distance(c1, c2)
    assert result.order == 80
    assert result.value == pytest.approx(0.7527392753689297, abs=1e-12)


def test_distance_rejects_mixed_kinds():
    power = power_cepstrum_from_zpk(POLE_HALF, 16)
    two_sided = complex_cepstrum_from_zpk(POLE_HALF, 16)
    with pytest.raises(KindMismatch):
        weighted_cepstral_distance(power, two_sided)


def test_matrix_rejects_mixed_kinds_and_orders():
    power = power_cepstrum_from_zpk(POLE_HALF, 16)
    with pytest.raises(KindMismatch):
        weighted_cepstral_matrix([power, complex_cepstrum_from_zpk(POLE_NINE, 16)])
    with pytest.raises(ValidationError):
        weighted_cepstral_matrix([power, power_cepstrum_from_zpk(POLE_NINE, 8)])


@pytest.mark.parametrize("route", [power_cepstrum_from_zpk, complex_cepstrum_from_zpk])
def test_matrix_equals_the_pair_distances(route):
    # Complex cepstra are folded to power form first, as in the pair route.
    rng = np.random.default_rng(12)
    cepstra = [route(random_any_phase(rng), 64) for _ in range(6)]
    values = weighted_cepstral_matrix(cepstra)
    expected = np.array(
        [[weighted_cepstral_distance(a, b).value for b in cepstra] for a in cepstra]
    )
    assert np.array_equal(values, expected)


@given(st.integers(0, 10**6))
def test_distance_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    c1 = power_cepstrum_from_zpk(random_any_phase(rng), 64)
    c2 = power_cepstrum_from_zpk(random_any_phase(rng), 64)
    assert weighted_cepstral_distance(c1, c2).value == weighted_cepstral_distance(c2, c1).value


def test_norm_of_single_pole():
    result = weighted_cepstral_norm(power_cepstrum_from_zpk(POLE_HALF, 2000))
    assert result.value == pytest.approx(-np.log(0.75), abs=1e-10)
    assert result.tail_bound >= 0.0


def test_norm_of_zero_cepstrum_is_zero():
    zero = CepstrumSequence("power", np.zeros(16), None, 0.0)
    assert weighted_cepstral_norm(zero).value == 0.0


def test_norm_ignores_coefficient_signs():
    c = power_cepstrum_from_zpk(POLE_HALF, 64)
    negated = CepstrumSequence("power", -c.positive, None, c.zeroth)
    assert weighted_cepstral_norm(negated).value == weighted_cepstral_norm(c).value


def test_norm_equals_distance_from_zero_cepstrum():
    c = power_cepstrum_from_zpk(POLE_NINE, 64)
    zero = CepstrumSequence("power", np.zeros(64), None, 0.0)
    assert weighted_cepstral_norm(c).value == weighted_cepstral_distance(c, zero).value


def test_hankel_norm_of_zero_cepstrum():
    zero = CepstrumSequence("power", np.zeros(16), None, 0.0)
    assert hs_hankel_norm(zero, 8) == 0.0


def test_hankel_norm_of_single_first_lag():
    spike = np.zeros(16)
    spike[0] = 1.0
    c = CepstrumSequence("power", spike, None, 0.0)
    # c(1) sits in the corner of the block alone, whatever the block size.
    assert hs_hankel_norm(c, 1) == 1.0
    assert hs_hankel_norm(c, 8) == 1.0


def test_hankel_norm_matches_weighted_series_for_geometric_decay():
    c = geometric_cepstrum(0.5, 128)
    k = np.arange(1, 65)
    series = float(np.sum(k * c.positive[:64] ** 2))
    assert abs(hs_hankel_norm(c, 64) - series) <= 1e-8


def test_hankel_norm_validation():
    c = geometric_cepstrum(0.5, 16)
    with pytest.raises(KindMismatch):
        hs_hankel_norm(complex_cepstrum_from_zpk(POLE_HALF, 16), 4)
    with pytest.raises(ValidationError):
        hs_hankel_norm(c, 0)
    with pytest.raises(ValidationError):
        hs_hankel_norm(c, 9)


def test_hankel_norm_reads_exactly_lags_one_to_2m_minus_1():
    # An m x m block reads c(1..2m-1): 2m - 1 stored lags suffice, 2m - 2 do not.
    m = 8
    c = geometric_cepstrum(0.5, 2 * m - 1)
    assert hs_hankel_norm(c, m) == hs_hankel_norm(geometric_cepstrum(0.5, 2 * m), m)
    message = "an 8 x 8 Hankel block reads lags 1 to 15; store at least 15 coefficients (got 14)"
    with pytest.raises(ValidationError) as info:
        hs_hankel_norm(geometric_cepstrum(0.5, 2 * m - 2), m)
    assert str(info.value) == message


def test_closed_form_min_phase_without_roots():
    assert closed_form_norm(ZeroPoleGain(gain=2.0)) == 0.0


def test_closed_form_min_phase_pole_and_zero():
    zpk = ZeroPoleGain([0.5], [-0.5], 1.0)
    value = closed_form_norm(zpk)
    assert value == pytest.approx(np.log(1.5625 / (0.75 * 0.75)), abs=1e-15)
    # Only odd lags survive: c(k) = (0.5^k - (-0.5)^k) / k, so the series
    # collapses to 4 artanh(1/4).
    assert value == pytest.approx(4.0 * np.arctanh(0.25), abs=1e-12)
    series = weighted_cepstral_norm(power_cepstrum_from_zpk(zpk, 4096)).value
    assert series == pytest.approx(value, abs=1e-10)


def test_closed_form_max_phase_single_pole():
    value = closed_form_norm(ZeroPoleGain([2.0], [], 1.0))
    assert value == pytest.approx(-np.log(0.75), abs=1e-12)
    assert closed_form_norm(ZeroPoleGain(gain=1.0)) == 0.0


def test_demo_maximum_phase_norm_equals_minimum_phase_norm():
    systems = example_systems()
    value_max = closed_form_norm(systems["maximum_phase"])
    value_min = closed_form_norm(systems["minimum_phase"])
    assert value_min == pytest.approx(0.6717042794183063, abs=1e-12)
    assert value_max == pytest.approx(value_min, abs=1e-12)


def test_closed_form_mixed_two_reflected_poles():
    zpk = ZeroPoleGain([0.5, 2.0], [], 1.0)
    value = closed_form_norm(zpk)
    assert value == pytest.approx(-4.0 * np.log(0.75), abs=1e-12)
    series = weighted_cepstral_norm(power_cepstrum_from_zpk(zpk, 2000)).value
    assert series == pytest.approx(value, abs=1e-10)


def test_closed_form_mixed_of_pure_gain():
    assert closed_form_norm(ZeroPoleGain(gain=5.0)) == 0.0


@given(st.integers(0, 10**6))
def test_closed_form_mixed_is_inversion_invariant(seed):
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(0.2, 0.85, size=4)
    signs = rng.choice([-1.0, 1.0], size=4)
    roots = list(magnitudes * signs)
    base = ZeroPoleGain(roots[:2], roots[2:], 1.0)
    flip = rng.random(4) < 0.5
    flipped = [1.0 / r if f else r for r, f in zip(roots, flip)]
    other = ZeroPoleGain(flipped[:2], flipped[2:], 1.0)
    assert abs(closed_form_norm(base) - closed_form_norm(other)) <= 1e-12


@given(st.integers(0, 10**6))
def test_closed_forms_agree_on_pure_phase_types(seed):
    # A maximum phase model and the minimum phase model with every root
    # reflected inside have one norm; a minimum phase model is its own fold.
    rng = np.random.default_rng(seed)
    minimum = random_min_phase(rng)
    folded = ZeroPoleGain(minimum.folded_poles(), minimum.folded_zeros(), minimum.gain)
    assert closed_form_norm(folded) == closed_form_norm(minimum)
    maximum = ZeroPoleGain(
        draw_roots(rng, 2, outside=True), draw_roots(rng, 2, outside=True), 1.0
    )
    assert maximum.is_maximum_phase
    reflected = ZeroPoleGain(maximum.folded_poles(), maximum.folded_zeros(), 1.0)
    assert reflected.is_minimum_phase
    assert abs(closed_form_norm(maximum) - closed_form_norm(reflected)) <= 1e-12


def test_cascade_of_a_system_with_itself_cancels():
    zpk = ZeroPoleGain([0.5, -0.3], [0.7], 2.0)
    combined = cascade(zpk, zpk)
    assert combined.poles == ()
    assert combined.zeros == ()
    assert combined.gain == pytest.approx(1.0)


def test_cascade_of_two_single_poles():
    combined = cascade(POLE_HALF, POLE_NINE)
    assert combined.poles == (0.5 + 0.0j,)
    assert combined.zeros == (0.9 + 0.0j,)


def test_cascade_divides_gains():
    first = ZeroPoleGain([0.5], [], 1.3)
    second = ZeroPoleGain([0.9], [], 0.7)
    assert cascade(first, second).gain == pytest.approx(1.3 / 0.7)


def test_cascade_norm_equals_weighted_distance():
    first = ZeroPoleGain([0.55, -0.3], [0.25], 1.3)
    second = ZeroPoleGain([0.85, 0.1], [-0.45, 0.6], 0.7)
    c1 = power_cepstrum_from_zpk(first, 4096)
    c2 = power_cepstrum_from_zpk(second, 4096)
    distance = weighted_cepstral_distance(c1, c2).value
    closed = closed_form_norm(cascade(first, second))
    assert abs(distance - closed) <= 1e-6


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_series_converges_to_the_closed_form_from_below(seed):
    zpk = random_any_phase(np.random.default_rng(seed), max_each=3)
    closed = closed_form_norm(zpk)
    cepstrum = power_cepstrum_from_zpk(zpk, 2000)
    k = np.arange(1, 2001)
    partial = np.cumsum(k * cepstrum.positive**2)
    assert partial[-1] <= closed + 1e-9
    result = weighted_cepstral_norm(cepstrum)
    assert closed - result.value <= result.tail_bound + 1e-12


@pytest.mark.parametrize("radius", [0.99, 0.999, 0.9999, 0.99999])
def test_a_model_tail_bound_covers_a_slow_pole(radius):
    # A model's root radius is exact, so its bound holds however slow the
    # decay; an estimated cepstrum has no roots and gets no bound at all.
    zpk = ZeroPoleGain([radius], [], 1.0)
    result = weighted_cepstral_norm(power_cepstrum_from_zpk(zpk, 256))
    assert closed_form_norm(zpk) - result.value <= result.tail_bound


def test_a_model_distance_tail_bound_covers_a_slow_pole():
    first, second = ZeroPoleGain([0.99999], [], 1.0), ZeroPoleGain([0.5], [], 1.0)
    result = weighted_cepstral_distance(
        power_cepstrum_from_zpk(first, 256), power_cepstrum_from_zpk(second, 256)
    )
    assert closed_form_norm(cascade(first, second)) - result.value <= result.tail_bound


@pytest.mark.parametrize("paired", [True, False])
def test_estimated_cepstra_carry_no_tail_bound(paired):
    # The lags of an estimate bound nothing beyond its order: only a model's
    # roots do, so a distance or norm with an estimated side has no bound.
    records = [white_record(zpk, 1024, 1) for zpk in (POLE_HALF, POLE_NINE)]
    first, second = power_cepstra(records if paired else [y for _, y in records], RunConfig())
    model = power_cepstrum_from_zpk(POLE_HALF, first.order)
    assert weighted_cepstral_distance(first, second).tail_bound is None
    assert weighted_cepstral_distance(first, model).tail_bound is None
    assert weighted_cepstral_norm(first).tail_bound is None
    assert weighted_cepstral_distance(model, model).tail_bound is not None


def test_euclidean_distance_basics():
    a = Signal(np.array([1.0, 0.0]))
    b = Signal(np.array([0.0, 1.0]))
    assert euclidean_distance(a, a) == 0.0
    assert euclidean_distance(a, b) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(LengthMismatch):
        euclidean_distance(a, Signal(np.zeros(3)))


@pytest.mark.parametrize("shift", [0, 600, 1000, -600, -1000])
@pytest.mark.parametrize("seed", range(3))
def test_euclidean_distance_is_exact_under_power_of_two_scaling(seed, shift):
    # Shifts of 600 and 1000 overflow the squared norm of the difference,
    # and -600 and -1000 flush it to zero; the scaled route must give the
    # unscaled value shifted, bit for bit.
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(64), rng.standard_normal(64)
    plain = float(np.linalg.norm(x - y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = euclidean_distance(Signal(np.ldexp(x, shift)), Signal(np.ldexp(y, shift)))
    assert got == np.ldexp(plain, shift)


def _exact_euclidean_distance(a, b):
    """The distance from the exact sum of squared differences, rounded once
    to a float after a square root taken in range."""
    total = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a.tolist(), b.tolist()))
    if total == 0:
        return 0.0
    half = (total.numerator.bit_length() - total.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(total / Fraction(4) ** half), half)


def test_euclidean_distance_sees_a_difference_far_below_the_peak():
    # The records' peak is 1, so scaling them together leaves the squared
    # difference 1e-400, which is zero in floating point.
    got = euclidean_distance(Signal([1.0, 1e-200]), Signal([1.0, 2e-200]))
    assert abs(got - 1e-200) <= 1e-12 * 1e-200


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(-300.0, 300.0),
    gap=st.floats(-300.0, 0.0),
)
def test_euclidean_distance_is_exact_at_every_scale(seed, scale, gap):
    # Records at 10^scale that share their first samples and differ in the
    # rest, which lie at 10^gap of that size: the distance must be the
    # exact one to 1e-12 relative, also where the difference is subnormal
    # or hundreds of decades below the records' peak.
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(8) * 10.0**scale
    a, b = (
        np.concatenate([shared, rng.standard_normal(8) * 10.0 ** (scale + gap)]) for _ in "ab"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = euclidean_distance(Signal(a), Signal(b))
    exact = _exact_euclidean_distance(a, b)
    assert abs(got - exact) <= 1e-12 * exact


def test_euclidean_distance_beyond_the_range_is_refused():
    with pytest.raises(ValidationError, match="exceeds the floating-point range"):
        euclidean_distance(Signal(np.array([1e308])), Signal(np.array([-1e308])))


def test_cosine_similarity_basics():
    a = Signal(np.array([1.0, 0.0]))
    b = Signal(np.array([0.0, 1.0]))
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, b) == 0.0
    with pytest.raises(ValidationError):
        cosine_similarity(a, Signal(np.zeros(2)))


@pytest.mark.parametrize(
    "shift_a,shift_b", [(0, 0), (600, 600), (-600, -600), (600, -600), (-520, -520)]
)
@pytest.mark.parametrize("seed", range(3))
def test_cosine_similarity_is_exact_under_power_of_two_scaling(seed, shift_a, shift_b):
    # A shift of 600 overflows the squared norms and -600 flushes them to
    # zero. At -520 the squares are subnormal, so neither the norms nor the
    # inner product is zero, but each has lost digits. The scaled route
    # must give the unscaled value bit for bit, and the unscaled value is
    # the plain formula's.
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(64), rng.standard_normal(64)
    plain = float(x @ y / (float(np.linalg.norm(x)) * float(np.linalg.norm(y))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = cosine_similarity(Signal(np.ldexp(x, shift_a)), Signal(np.ldexp(y, shift_b)))
    assert scaled == plain


def test_cosine_similarity_at_the_edges_of_the_range():
    # Both norms and the inner product overflow; the ratio is exactly -1.
    assert cosine_similarity(Signal([1e308]), Signal([-1e308])) == -1.0
    # Only a norm overflows, so the plain quotient would read 0.
    assert cosine_similarity(Signal([2.0**600, 1.0]), Signal([2.0**-600, 1.0])) == 2.0**-599
    with pytest.raises(ValidationError, match="all-zero"):
        cosine_similarity(Signal([1e308]), Signal([0.0]))


@given(st.integers(0, 10**6))
def test_cosine_similarity_stays_in_range(seed):
    rng = np.random.default_rng(seed)
    a = Signal(rng.standard_normal(64))
    b = Signal(rng.standard_normal(64))
    assert -1.0 <= cosine_similarity(a, b) <= 1.0
    # Parallel signals sit at the ends, which rounding alone could pass.
    assert cosine_similarity(a, a) <= 1.0
    assert cosine_similarity(a, Signal(-a.samples)) >= -1.0


def test_signal_statistics_constant():
    stats = signal_statistics(Signal(np.full(9, 3.2)))
    assert stats == pytest.approx((3.2, 3.2, 0.0))


def test_signal_statistics_small_case():
    stats = signal_statistics(Signal(np.array([1.0, 2.0, 3.0])))
    assert stats.median == 2.0
    assert stats.mean == 2.0
    assert stats.std == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

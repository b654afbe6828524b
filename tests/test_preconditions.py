"""Each record precondition has one check, and every route that has the
precondition refuses with that check's class and message: the agreement of
an (input, output) pair, the truncation order of a cepstrum, and the
frequency grid of a spectrum or response."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from cepdist import (
    ConfigError,
    DimensionMismatch,
    LengthMismatch,
    RunConfig,
    Signal,
    ValidationError,
    ZeroPoleGain,
    classify_from_io,
    classify_from_model,
    complex_cepstrum,
    complex_cepstrum_from_response,
    complex_cepstrum_from_zpk,
    format_pair_csv,
    power_cepstrum_from_psd,
    power_cepstrum_from_zpk,
    power_cepstrum_of_signal,
    projected_bases,
    subspace_norm_from_data,
    transfer_cepstrum_from_io,
    transfer_complex_cepstrum_from_io,
)
from cepdist.lti import check_pair
from cepdist.spectral import power_cepstra
from conftest import white_record

MODEL = ZeroPoleGain([0.6, -0.3], [0.4], 1.5)
CONFIG = RunConfig()


def _raise(result):
    """``power_cepstra`` reports a record's refusal as its entry; raise it."""
    if isinstance(result, Exception):
        raise result
    return result


def _assert_refusal(call, cls, message):
    with pytest.raises(cls) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, message)


PAIR_ROUTES = {
    "power_cepstra": lambda u, y: _raise(power_cepstra([(u, y)], CONFIG)[0]),
    "transfer_cepstrum_from_io": lambda u, y: transfer_cepstrum_from_io(u, y, CONFIG),
    "transfer_complex_cepstrum_from_io": lambda u, y: transfer_complex_cepstrum_from_io(
        u, y, CONFIG, 20
    ),
    "classify_from_io": lambda u, y: classify_from_io(u, y, CONFIG),
    "projected_bases": lambda u, y: projected_bases(u, y, 20),
    "subspace_norm_from_data": lambda u, y: subspace_norm_from_data(u, y, 20),
    "format_pair_csv": format_pair_csv,
}
PAIR_FAULTS = {
    "length": (
        lambda y: Signal(y.samples[:-1], y.sample_period),
        LengthMismatch,
        "input and output lengths differ: 512 vs 511",
    ),
    "period": (
        lambda y: Signal(y.samples, 0.5 * y.sample_period),
        ValidationError,
        "input and output sample periods differ",
    ),
}


@pytest.mark.parametrize("fault", sorted(PAIR_FAULTS))
@pytest.mark.parametrize("route", sorted(PAIR_ROUTES))
def test_every_pair_route_refuses_a_pair_that_disagrees(route, fault):
    u, y = white_record(MODEL, 512, 3)
    PAIR_ROUTES[route](u, y)
    spoil, cls, message = PAIR_FAULTS[fault]
    _assert_refusal(lambda: PAIR_ROUTES[route](u, spoil(y)), cls, message)
    _assert_refusal(lambda: check_pair(u, spoil(y)), cls, message)


@pytest.mark.parametrize("route", sorted(PAIR_ROUTES))
def test_every_pair_route_accepts_periods_that_differ_by_rounding(route):
    u, y = white_record(MODEL, 512, 3)
    u, y = Signal(u.samples, 1.0 / 3.0), Signal(y.samples, float("%.12g" % (1.0 / 3.0)))
    assert u.sample_period != y.sample_period
    check_pair(u, y)
    PAIR_ROUTES[route](u, y)


# Routes whose grid is given: 64 points, so orders up to 32 fit.
GRID = 64
_rng = np.random.default_rng(5)
SIGNAL = Signal(_rng.standard_normal(GRID))
OUTPUT = Signal(_rng.standard_normal(GRID))
GRID_CONFIG = RunConfig(method="periodogram", fft_length=GRID)
GRID_ROUTES = {
    "power_cepstrum_from_psd": lambda order: power_cepstrum_from_psd(np.ones(GRID), order),
    "power_cepstra": lambda order: _raise(
        power_cepstra([SIGNAL], replace(GRID_CONFIG, K=order))[0]
    ),
    "power_cepstrum_of_signal": lambda order: power_cepstrum_of_signal(SIGNAL, GRID_CONFIG, order),
    "transfer_cepstrum_from_io": lambda order: transfer_cepstrum_from_io(
        SIGNAL, OUTPUT, GRID_CONFIG, order
    ),
    "complex_cepstrum": lambda order: complex_cepstrum(SIGNAL, GRID, order),
    "complex_cepstrum_from_response": lambda order: complex_cepstrum_from_response(
        np.ones(GRID), order
    ),
    "transfer_complex_cepstrum_from_io": lambda order: transfer_complex_cepstrum_from_io(
        SIGNAL, OUTPUT, GRID_CONFIG, order
    ),
}
# Routes without a given grid: a model's roots, or an FFT sized to the order.
UNGRIDDED_ROUTES = {
    "power_cepstrum_from_zpk": lambda order: power_cepstrum_from_zpk(MODEL, order),
    "complex_cepstrum_from_zpk": lambda order: complex_cepstrum_from_zpk(MODEL, order),
    "complex_cepstrum (automatic grid)": lambda order: complex_cepstrum(SIGNAL, order=order),
    # A periodogram, as the 64-sample pair is too short for Welch segments.
    "classify_from_io": lambda order: classify_from_io(
        SIGNAL, OUTPUT, replace(CONFIG, method="periodogram", K_test=order)
    ),
    "classify_from_model": lambda order: classify_from_model(MODEL, replace(CONFIG, K_test=order)),
}


# Routes whose order travels in the config, under the named key: a config
# that carries an order below 1 is refused where it is built, with its message.
CONFIG_ORDERS = {
    "power_cepstra": "K",
    "classify_from_io": "K_test",
    "classify_from_model": "K_test",
}


@pytest.mark.parametrize("order", [0, -3])
@pytest.mark.parametrize("route", sorted(GRID_ROUTES) + sorted(UNGRIDDED_ROUTES))
def test_every_order_route_refuses_an_order_below_one(route, order):
    call = {**GRID_ROUTES, **UNGRIDDED_ROUTES}[route]
    call(1)
    if route in CONFIG_ORDERS:
        key = CONFIG_ORDERS[route]
        refusal = (ConfigError, f"{key} must be a positive integer, got {order}")
        _assert_refusal(lambda: replace(CONFIG, **{key: order}), *refusal)
    else:
        refusal = (ValidationError, f"order must be positive, got {order}")
    # Refused before any spectrum is planned, so with no fallback warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_refusal(lambda: call(order), *refusal)


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
def test_every_gridded_order_route_refuses_an_order_above_half_the_grid(route):
    call = GRID_ROUTES[route]
    assert call(GRID // 2).order == GRID // 2
    order = GRID // 2 + 1
    message = f"cepstrum order {order} needs a spectrum of at least {2 * order} samples, got {GRID}"
    _assert_refusal(lambda: call(order), ValidationError, message)


GRID_VALUES = {
    "spectrum": lambda values: power_cepstrum_from_psd(values, 1),
    "response": lambda values: complex_cepstrum_from_response(values, 1),
}


@pytest.mark.parametrize(
    "values,cls,message",
    [
        (np.ones((4, 4)), DimensionMismatch, "{} must be one-dimensional, got shape (4, 4)"),
        (np.ones(1), ValidationError, "{} length must be a power of two >= 2, got 1"),
        (np.ones(48), ValidationError, "{} length must be a power of two >= 2, got 48"),
        (np.array([1.0, np.inf, 1.0, 1.0]), ValidationError, "{} values must be finite"),
        (np.array([1.0, np.nan]), ValidationError, "{} values must be finite"),
    ],
)
@pytest.mark.parametrize("what", sorted(GRID_VALUES))
def test_spectra_and_responses_share_one_grid_check(what, values, cls, message):
    GRID_VALUES[what](np.ones(4))
    _assert_refusal(lambda: GRID_VALUES[what](values), cls, message.format(what))


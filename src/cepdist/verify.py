"""Self-contained equivalence checks between the independent computation routes.

Each case generates its own data, computes the same quantity along two or
three routes that share no code path (closed form in the roots, truncated
cepstral series, subspace angles, data-driven estimates), and reports the
discrepancies against fixed bounds. A case passes when every check passes;
the report is plain data suitable for canonical JSON output.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import RunConfig
from .errors import MixedPhaseUnsupported, ValidationError
from .lti import (
    Signal,
    ZeroPoleGain,
    example_systems,
    frequency_response,
    simulate,
    state_space_from_roots,
)
from .metrics import (
    cascade,
    closed_form_norm,
    weighted_cepstral_distance,
    weighted_cepstral_norm,
)
from .phase import MAXIMUM_PHASE, MINIMUM_PHASE, MIXED_PHASE, classify, classify_from_io
from .spectral import (
    complex_cepstrum_from_response,
    complex_cepstrum_from_zpk,
    next_pow2,
    power_cepstrum_from_psd,
    power_cepstrum_from_zpk,
    power_cepstrum_of_signal,
    transfer_cepstrum_from_io,
)
from .subspace import (
    subspace_distance_between_models,
    subspace_norm_from_data,
    subspace_norm_from_model,
)

# Record length for the simulated cases; long enough that estimation error
# sits well inside the stated bounds.
RECORD_LENGTH = 2**14
# Dense-grid length and series truncation for exact frequency sampling.
GRID_LENGTH = 8192
SERIES_ORDER = 4096


def _check(name: str, value: float, bound: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "pass": bool(value <= bound),
    }


def _expected_check(name: str, value, expected) -> dict:
    return {
        "name": name,
        "value": value,
        "expected": expected,
        "pass": bool(value == expected),
    }


def _full_record_config(config: RunConfig, length: int) -> RunConfig:
    # One full-length tapered segment: the taper suppresses the transient
    # leakage and the log-ratio cancels the realized input spectrum.
    return replace(
        config,
        method="welch",
        window_len=length,
        overlap=0.0,
        fft_length=next_pow2(max(length, 2 * config.K)),
    )


def _white_record(system: ZeroPoleGain, config: RunConfig) -> tuple[Signal, Signal]:
    """A seeded white-noise input of RECORD_LENGTH samples and the response of a stable system."""
    u = Signal(np.random.default_rng(config.seed).standard_normal(RECORD_LENGTH))
    return u, simulate(state_space_from_roots(system), u)


def case_min_phase(config: RunConfig) -> dict:
    system = example_systems()["minimum_phase"]
    closed = closed_form_norm(system)
    model_norm = subspace_norm_from_model(system)

    u, y = _white_record(system, config)
    cepstrum = transfer_cepstrum_from_io(u, y, _full_record_config(config, RECORD_LENGTH))
    ceps_norm = weighted_cepstral_norm(cepstrum).value
    data_norm = subspace_norm_from_data(u, y, config.hankel_rows)
    verdict = classify_from_io(u, y, config)

    checks = [
        _check("model_subspace_vs_closed_form", abs(model_norm - closed), 1e-9),
        _check(
            "data_subspace_vs_data_cepstral_relative",
            abs(data_norm - ceps_norm) / closed,
            config.tol_model,
        ),
        _expected_check("phase_verdict", verdict.kind, MINIMUM_PHASE),
    ]
    return {
        "measurements": {
            "closed_form": closed,
            "subspace_from_model": model_norm,
            "cepstral_from_data": ceps_norm,
            "subspace_from_data": data_norm,
            "record_length": RECORD_LENGTH,
        },
        "checks": checks,
    }


def case_max_phase(config: RunConfig) -> dict:
    system = example_systems()["maximum_phase"]
    closed = closed_form_norm(system)
    grid = 2.0 * np.pi * np.arange(GRID_LENGTH) / GRID_LENGTH
    response = frequency_response(system, grid)
    psd = np.abs(response) ** 2
    series = weighted_cepstral_norm(power_cepstrum_from_psd(psd, SERIES_ORDER)).value
    model_norm = subspace_norm_from_model(system)
    verdict = classify(
        complex_cepstrum_from_response(response, config.K_test),
        config.K_test,
        config.tol_model,
    )
    # The maximum phase system cannot be simulated forward, but reversing a
    # record of the minimum phase one in time reflects every root.
    u, y = _white_record(example_systems()["minimum_phase"], config)
    data_verdict = classify_from_io(Signal(u.samples[::-1]), Signal(y.samples[::-1]), config)

    checks = [
        _check("frequency_route_vs_closed_form", abs(series - closed), 1e-10),
        _check(
            "model_subspace_vs_closed_form_relative",
            abs(model_norm - closed) / closed,
            config.tol_model,
        ),
        _expected_check("phase_verdict", verdict.kind, MAXIMUM_PHASE),
        _expected_check("data_phase_verdict", data_verdict.kind, MAXIMUM_PHASE),
    ]
    return {
        "measurements": {
            "closed_form": closed,
            "cepstral_from_frequency_data": series,
            "subspace_from_model": model_norm,
            "grid_length": GRID_LENGTH,
        },
        "checks": checks,
    }


def case_mixed(config: RunConfig) -> dict:
    system = example_systems()["mixed"]
    closed = closed_form_norm(system)
    series_result = weighted_cepstral_norm(power_cepstrum_from_zpk(system, SERIES_ORDER))
    verdict = classify(
        complex_cepstrum_from_zpk(system, config.K_test), config.K_test, config.tol_model
    )
    # The example's pole at 1/0.4 cannot be simulated; moved back to 0.4,
    # it leaves a stable system whose zero at 1/0.8 keeps it mixed.
    stable = ZeroPoleGain([0.9, 0.7, 0.4], [1 / 0.8, 0.6, 0.0])
    data_verdict = classify_from_io(*_white_record(stable, config), config)
    try:
        subspace_norm_from_model(system)
        gate_fired = False
    except MixedPhaseUnsupported:
        gate_fired = True

    checks = [
        _check(
            "series_vs_closed_form",
            abs(series_result.value - closed),
            max(1e-8, series_result.tail_bound),
        ),
        _expected_check("subspace_gate_refuses_mixed", gate_fired, True),
        _expected_check("phase_verdict", verdict.kind, MIXED_PHASE),
        _expected_check("data_phase_verdict", data_verdict.kind, MIXED_PHASE),
    ]
    return {
        "measurements": {
            "closed_form": closed,
            "series_value": series_result.value,
            "series_tail_bound": series_result.tail_bound,
        },
        "checks": checks,
    }


def _series_distance(first: ZeroPoleGain, second: ZeroPoleGain) -> float:
    c1 = power_cepstrum_from_zpk(first, SERIES_ORDER)
    c2 = power_cepstrum_from_zpk(second, SERIES_ORDER)
    return weighted_cepstral_distance(c1, c2).value


def case_cascade(config: RunConfig) -> dict:
    first = ZeroPoleGain([0.55, -0.3], [0.25], 1.3)
    second = ZeroPoleGain([0.85, 0.1], [-0.45, 0.6], 0.7)
    distance = _series_distance(first, second)
    closed = closed_form_norm(cascade(first, second))
    # The pole 0.5 of the first and the zero 0.5 of the second make a
    # double pole of the cascade.
    shared_a = ZeroPoleGain([0.5, -0.3], [0.2])
    shared_b = ZeroPoleGain([0.7], [0.5, 0.1])
    shared_distance = _series_distance(shared_a, shared_b)
    shared_closed = closed_form_norm(cascade(shared_a, shared_b))
    shared_model = subspace_distance_between_models(shared_a, shared_b)

    checks = [
        _check("distance_vs_cascade_norm", abs(distance - closed), 1e-6),
        _check(
            "shared_root_distance_vs_cascade_norm", abs(shared_distance - shared_closed), 1e-6
        ),
        _check(
            "shared_root_model_subspace_vs_closed_form", abs(shared_model - shared_closed), 1e-9
        ),
    ]
    return {
        "measurements": {
            "distance": distance,
            "cascade_closed_form": closed,
            "shared_root_distance": shared_distance,
            "shared_root_cascade_closed_form": shared_closed,
            "shared_root_subspace_from_model": shared_model,
        },
        "checks": checks,
    }


def case_white_noise(config: RunConfig) -> dict:
    seeds = range(50)
    order = config.K_test
    coeffs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        signal = Signal(rng.standard_normal(RECORD_LENGTH))
        cepstrum = power_cepstrum_of_signal(signal, config, order)
        coeffs.append(cepstrum.positive[:order])
    stack = np.asarray(coeffs)
    means = stack.mean(axis=0)
    errors = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    z_scores = np.abs(means) / np.where(errors > 0, errors, np.inf)
    worst = float(np.max(z_scores))

    checks = [_check("max_abs_mean_over_standard_error", worst, 3.0)]
    return {
        "measurements": {
            "seeds": len(coeffs),
            "max_z_score": worst,
            "lags_tested": order,
        },
        "checks": checks,
    }


_CASE_RUNNERS = {
    "min-phase": case_min_phase,
    "max-phase": case_max_phase,
    "mixed": case_mixed,
    "cascade": case_cascade,
    "white-noise": case_white_noise,
}
CASES = tuple(_CASE_RUNNERS)


def run_verify(config: RunConfig, cases: tuple[str, ...] | None = None) -> dict:
    """Run the requested cases (all by default) and assemble one report."""
    names = CASES if cases is None else tuple(cases)
    for name in names:
        if name not in _CASE_RUNNERS:
            raise ValidationError(f"unknown verify case {name!r}; choose from {CASES}")
    results = [{"case": name, **_CASE_RUNNERS[name](config)} for name in names]
    for result in results:
        result["pass"] = all(check["pass"] for check in result["checks"])
    return {
        "schema_version": 1,
        "command": "verify",
        "config": {
            "K": config.K,
            "K_test": config.K_test,
            "hankel_rows": config.hankel_rows,
            "method": config.method,
            "seed": config.seed,
            "tol_estimated": config.tol_estimated,
            "tol_model": config.tol_model,
        },
        "cases": results,
        "pass": all(r["pass"] for r in results),
    }

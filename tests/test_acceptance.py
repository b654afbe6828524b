"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each test computes its quantities through independent routes (closed forms
in the roots, truncated series, subspace angles, simulated records), prints
a single summary line, and then asserts. The printed lines are replayed in
the terminal summary by the conftest hook.
"""

import numpy as np

from cepdist import (
    RunConfig,
    Signal,
    ZeroPoleGain,
    cascade,
    classify_from_io,
    classify_from_model,
    closed_form_norm_mixed,
    cosine_similarity,
    euclidean_distance,
    hs_hankel_norm,
    make_example_signals,
    power_cepstrum_from_zpk,
    power_cepstrum_of_signal,
    roots_from_state_space,
    signal_statistics,
    state_space_from_roots,
    weighted_cepstral_distance,
    weighted_cepstral_norm,
)
from cepdist.cli import main
from cepdist.spectral import CepstrumSequence
from cepdist.verify import case_max_phase, case_min_phase, case_white_noise
from conftest import (
    expected_phase_kind,
    random_any_phase,
    random_balanced_min_phase,
    random_min_phase,
    random_simulable,
    record_acceptance,
    trace_cepstrum,
    well_expressed,
    white_record,
)

DEFAULTS = RunConfig()
SERIES_ORDER = 4096

# Real-magnitude grid for the inversion ensemble: sampling magnitudes
# without replacement keeps every root simple even after sign flips and
# inversions, and real roots stay real under z -> 1/z.
MAGNITUDE_GRID = np.array([0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85])


def spread(values):
    return (max(values) - min(values)) / min(values)


def grid_system(rng):
    total = int(rng.integers(2, 7))
    n_poles = int(rng.integers(1, total))
    magnitudes = rng.choice(MAGNITUDE_GRID, size=total, replace=False)
    signs = rng.choice([-1.0, 1.0], size=total)
    roots = [complex(m * s) for m, s in zip(magnitudes, signs)]
    return ZeroPoleGain.from_roots(roots[:n_poles], roots[n_poles:], 1.0)


def invert_roots(zpk, mask):
    roots = list(zpk.poles) + list(zpk.zeros)
    flipped = [1.0 / r if flip else r for r, flip in zip(roots, mask)]
    n_poles = len(zpk.poles)
    return ZeroPoleGain.from_roots(flipped[:n_poles], flipped[n_poles:], zpk.gain)


def test_criterion_1_minimum_phase_equivalence():
    report = case_min_phase(DEFAULTS)
    model_check, data_check, verdict_check = report["checks"]
    ok = report["pass"]
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 1 (minimum-phase equivalence): "
        f"model-vs-closed {model_check['value']:.2e} <= {model_check['bound']:.0e}, "
        f"data-route relative gap {data_check['value']:.2e} <= {data_check['bound']:.0e}, "
        f"verdict {verdict_check['value']}"
    )
    assert ok, report


def test_criterion_2_maximum_phase_equivalence():
    report = case_max_phase(DEFAULTS)
    series_check, model_check, verdict_check = report["checks"]
    ok = report["pass"]
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 2 (maximum-phase equivalence): "
        f"frequency-route gap {series_check['value']:.2e} <= {series_check['bound']:.0e}, "
        f"model relative gap {model_check['value']:.2e} <= {model_check['bound']:.0e}, "
        f"verdict {verdict_check['value']}"
    )
    assert ok, report


def test_criterion_3_motivating_example_tables():
    config = RunConfig(method="welch", window_len=64, fft_length=512, K=128)
    sine, cosine, noise = make_example_signals(0.995, config.seed)
    signals = [sine, cosine, noise]
    cepstra = [power_cepstrum_of_signal(s, config) for s in signals]
    d_sin_cos = weighted_cepstral_distance(cepstra[0], cepstra[1]).value
    d_sin_noise = weighted_cepstral_distance(cepstra[0], cepstra[2]).value
    d_cos_noise = weighted_cepstral_distance(cepstra[1], cepstra[2]).value
    asymmetry = abs(d_sin_noise - d_cos_noise) / d_sin_noise
    similarities = [
        cosine_similarity(sine, cosine),
        cosine_similarity(sine, noise),
        cosine_similarity(cosine, noise),
    ]
    euclids = [
        euclidean_distance(sine, cosine),
        euclidean_distance(sine, noise),
        euclidean_distance(cosine, noise),
    ]
    stds = [signal_statistics(s).std for s in signals]
    ok = (
        d_sin_cos < 5.0
        and d_sin_noise > 50.0
        and d_cos_noise > 50.0
        and asymmetry < 0.15
        and max(abs(s) for s in similarities) <= 0.05
        and spread(euclids) <= 0.15
        and spread(stds) <= 0.10
    )
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 3 (motivating example tables): "
        f"d(sin,cos)={d_sin_cos:.2f}, d(sin,noise)={d_sin_noise:.1f}, "
        f"d(cos,noise)={d_cos_noise:.1f}, |cos sims|<= {max(abs(s) for s in similarities):.3f}, "
        f"euclid spread {spread(euclids):.1%}, std spread {spread(stds):.1%}"
    )
    assert ok, (d_sin_cos, d_sin_noise, d_cos_noise, similarities, euclids, stds)


def test_criterion_4_closed_form_and_trace_oracles():
    rng = np.random.default_rng(4)
    worst_series = 0.0
    series_ok = True
    for _ in range(200):
        zpk = random_any_phase(rng)
        result = weighted_cepstral_norm(power_cepstrum_from_zpk(zpk, SERIES_ORDER))
        gap = abs(result.value - closed_form_norm_mixed(zpk))
        bound = max(1e-8, result.tail_bound)
        series_ok &= gap <= bound
        worst_series = max(worst_series, gap)
    worst_trace = 0.0
    for _ in range(100):
        zpk = random_balanced_min_phase(rng)
        model = state_space_from_roots(zpk)
        by_trace = trace_cepstrum(model, 20)
        by_roots = power_cepstrum_from_zpk(roots_from_state_space(model), 20)
        worst_trace = max(worst_trace, float(np.max(np.abs(by_trace - by_roots.positive))))
    ok = series_ok and worst_trace <= 1e-10
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 4 (closed-form and trace oracles): "
        f"worst series gap {worst_series:.2e} (bound max(1e-8, tail)), "
        f"worst trace gap {worst_trace:.2e} <= 1e-10 over 200+100 systems"
    )
    assert ok, (worst_series, worst_trace)


def test_criterion_5_cascade_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        first = random_min_phase(rng, max_each=3)
        second = random_min_phase(rng, max_each=3)
        distance = weighted_cepstral_distance(
            power_cepstrum_from_zpk(first, SERIES_ORDER),
            power_cepstrum_from_zpk(second, SERIES_ORDER),
        ).value
        closed = closed_form_norm_mixed(cascade(first, second))
        worst = max(worst, abs(distance - closed))
    ok = worst <= 1e-6
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 5 (cascade identity): "
        f"worst |distance - cascade norm| {worst:.2e} <= 1e-6 over 50 pairs"
    )
    assert ok, worst


def test_criterion_6_inversion_insensitivity():
    rng = np.random.default_rng(6)
    drift = 0.0
    for _ in range(100):
        zpk = grid_system(rng)
        base = closed_form_norm_mixed(zpk)
        mask = rng.random(len(zpk.poles) + len(zpk.zeros)) < 0.5
        drift = max(drift, abs(closed_form_norm_mixed(invert_roots(zpk, mask)) - base))
    flips = 0
    trials = 200
    for _ in range(trials):
        zpk = grid_system(rng)
        before = classify_from_model(zpk, DEFAULTS).kind
        total = len(zpk.poles) + len(zpk.zeros)
        mask = np.zeros(total, dtype=bool)
        mask[rng.integers(total)] = True
        after = classify_from_model(invert_roots(zpk, mask), DEFAULTS).kind
        flips += before == "MinimumPhaseStable" and after == "Mixed"
    ok = drift <= 1e-12 and flips == trials
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 6 (inversion insensitivity): "
        f"closed-form drift {drift:.2e} <= 1e-12, verdict flips {flips}/{trials}"
    )
    assert ok, (drift, flips)


def test_criterion_7_classifier_accuracy():
    rng = np.random.default_rng(7)
    patterns = ("MinimumPhaseStable", "MaximumPhaseUnstable", "Mixed", "Indeterminate")
    model_correct = 0
    model_trials = 200
    for trial in range(model_trials):
        want = patterns[trial % 4]
        if want == "Indeterminate":
            zpk = ZeroPoleGain(gain=float(rng.uniform(0.5, 2.0)))
        else:
            while True:
                zpk = random_any_phase(rng)
                if expected_phase_kind(zpk) == want and well_expressed(zpk):
                    break
        model_correct += classify_from_model(zpk, DEFAULTS).kind == want
    gen_rng = np.random.default_rng(12)
    data_correct = 0
    data_trials = 50
    for seed in range(data_trials):
        zpk = random_simulable(gen_rng, want_mixed=seed % 2 == 1)
        u, y = white_record(zpk, 2**14, seed)
        data_correct += classify_from_io(u, y, DEFAULTS).kind == expected_phase_kind(zpk)
    ok = model_correct == model_trials and data_correct >= 0.95 * data_trials
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 7 (classifier accuracy): "
        f"model {model_correct}/{model_trials} (need all), "
        f"estimated {data_correct}/{data_trials} (need >= 95%)"
    )
    assert ok, (model_correct, data_correct)


def test_criterion_8_white_noise_cepstrum():
    report = case_white_noise(DEFAULTS)
    check = report["checks"][0]
    ok = report["pass"]
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 8 (white-noise cepstrum): "
        f"max |mean|/stderr {check['value']:.2f} <= {check['bound']:.0f} "
        f"over 50 seeds, lags 1..20"
    )
    assert ok, report


def test_criterion_9_hankel_norm_link():
    # Both routes see lags beyond m: the identity holds to 1e-8 only while
    # the tail past lag 64 is negligible, which caps the usable radii
    # (r^k dies slower than the pole cepstrum's r^k/k).
    cepstra = [
        CepstrumSequence(
            kind="power",
            positive=radius ** np.arange(1.0, 129.0),
            negative=None,
            zeroth=0.0,
        )
        for radius in (0.3, 0.5, 0.7)
    ] + [
        power_cepstrum_from_zpk(ZeroPoleGain.from_roots([radius], [], 1.0), 128)
        for radius in (0.3, 0.5, 0.7, 0.85)
    ]
    worst = 0.0
    for cepstrum in cepstra:
        direct = sum(k * cepstrum.coefficient(k) ** 2 for k in range(1, 65))
        worst = max(worst, abs(hs_hankel_norm(cepstrum, 64) - direct))
    ok = worst <= 1e-8
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 9 (Hankel-norm link): "
        f"worst |hankel - weighted partial sum| {worst:.2e} <= 1e-8 at m=64"
    )
    assert ok, worst


def test_criterion_10_verify_determinism(tmp_path):
    ok = True
    details = []
    for case in ("min-phase", "max-phase"):
        first = tmp_path / f"{case}-1.json"
        second = tmp_path / f"{case}-2.json"
        rc_first = main(["verify", "--case", case, "-o", str(first)])
        rc_second = main(["verify", "--case", case, "-o", str(second)])
        identical = first.read_bytes() == second.read_bytes()
        ok &= rc_first == 0 and rc_second == 0 and identical
        details.append(f"{case}: rc {rc_first}/{rc_second}, identical {identical}")
    record_acceptance(
        f"{'PASS' if ok else 'FAIL'} criterion 10 (verify determinism): "
        + "; ".join(details)
    )
    assert ok, details

"""Shared generators, oracles, and reporting hooks for the test suite.

Random-system generators keep every root magnitude at least a fixed margin
away from the unit circle so truncation and estimation errors have uniform
headroom across ensembles. Classifier ensembles additionally reject systems
whose phase content is barely expressed in the tested lag range; a verdict
on those would measure the tolerance constant, not the method.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings

from cepdist import (
    Signal,
    StateSpaceModel,
    ZeroPoleGain,
    frequency_response,
    invert,
    simulate,
    state_space_from_roots,
)
from cepdist.spectral import complex_cepstrum_from_zpk

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    # The profile is not derandomized, so a failing draw prints the
    # @reproduce_failure line that replays it.
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Root magnitudes are drawn from [MIN_MAGNITUDE, 1 - CIRCLE_MARGIN] (or the
# reflected band outside the circle).
CIRCLE_MARGIN = 0.15
MIN_MAGNITUDE = 0.2

# A side of the complex cepstrum counts as well expressed when it carries at
# least this share of the test-range energy; three times the estimated-data
# classification tolerance.
ENERGY_MARGIN = 0.15


def draw_roots(rng: np.random.Generator, count: int, outside: bool = False) -> list[complex]:
    """Random simple roots: real values and conjugate pairs, off-circle."""
    roots: list[complex] = []
    while len(roots) < count:
        mag = float(rng.uniform(MIN_MAGNITUDE, 1.0 - CIRCLE_MARGIN))
        val = 1.0 / mag if outside else mag
        if count - len(roots) >= 2 and rng.random() < 0.4:
            ang = float(rng.uniform(0.2, np.pi - 0.2))
            roots += [val * np.exp(1j * ang), val * np.exp(-1j * ang)]
        else:
            roots.append(complex(val if rng.random() < 0.5 else -val))
    return roots


def random_min_phase(rng: np.random.Generator, max_each: int = 4) -> ZeroPoleGain:
    """Stable minimum phase system with 1..max_each poles, 0..max_each zeros."""
    n_poles = int(rng.integers(1, max_each + 1))
    n_zeros = int(rng.integers(0, max_each + 1))
    gain = float(rng.uniform(0.5, 2.0))
    return ZeroPoleGain(draw_roots(rng, n_poles), draw_roots(rng, n_zeros), gain)


def random_any_phase(rng: np.random.Generator, max_each: int = 4) -> ZeroPoleGain:
    """Roots on both sides of the circle, at most max_each per side."""
    n_poles = int(rng.integers(0, max_each + 1))
    n_zeros = int(rng.integers(0, max_each + 1))
    if n_poles + n_zeros == 0:
        n_poles = 1
    poles_out = int(rng.integers(0, n_poles + 1))
    zeros_out = int(rng.integers(0, n_zeros + 1))
    poles = draw_roots(rng, n_poles - poles_out) + draw_roots(rng, poles_out, outside=True)
    zeros = draw_roots(rng, n_zeros - zeros_out) + draw_roots(rng, zeros_out, outside=True)
    gain = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    return ZeroPoleGain(poles, zeros, gain)


def random_balanced_min_phase(rng: np.random.Generator, max_each: int = 4) -> ZeroPoleGain:
    """Minimum phase with zero count equal to or one below the pole count.

    The round trip through ``state_space_from_roots`` and
    ``roots_from_state_space`` pads missing zeros at the origin. A gap of
    m >= 2 makes an m-fold origin zero, which ``eigvals`` returns perturbed
    by about eps^(1/m), past the 1e-8 to which the round-trip tests compare
    roots. Generators whose roots must survive the round trip stay in this
    band.
    """
    n_poles = int(rng.integers(1, max_each + 1))
    n_zeros = n_poles - int(rng.integers(0, 2))
    gain = float(rng.uniform(0.5, 2.0))
    return ZeroPoleGain(draw_roots(rng, n_poles), draw_roots(rng, n_zeros), gain)


def companion_realization(zpk: ZeroPoleGain) -> StateSpaceModel:
    """The controllable canonical (companion) realization of a root-form
    model with no more zeros than poles, from the polynomial coefficients
    of its roots. The powers of its A grow large for repeated or clustered
    poles, as a state-space file's own A may; the library realizes roots in
    output-normal form instead."""
    a_coeffs = np.real(np.atleast_1d(np.poly(zpk.poles)))
    b_coeffs = zpk.gain * np.real(np.atleast_1d(np.poly(zpk.zeros)))
    n = len(zpk.poles)
    b_coeffs = np.concatenate([b_coeffs, np.zeros(n - len(zpk.zeros))])
    a_mat = np.zeros((n, n))
    a_mat[:1, :] = -a_coeffs[1:]
    a_mat[1:, :-1] = np.eye(n - 1)
    b_vec = np.zeros(n)
    b_vec[:1] = 1.0
    d = b_coeffs[0]
    return StateSpaceModel(a_mat, b_vec, b_coeffs[1:] - d * a_coeffs[1:], d)


def expected_phase_kind(zpk: ZeroPoleGain) -> str:
    inside = len(zpk.stable_poles) + len(zpk.min_zeros)
    outside = len(zpk.unstable_poles) + len(zpk.max_zeros)
    if inside and outside:
        return "Mixed"
    if inside:
        return "MinimumPhaseStable"
    if outside:
        return "MaximumPhaseUnstable"
    return "Indeterminate"


def energy_shares(zpk: ZeroPoleGain, order: int) -> tuple[float, float]:
    """Exact (positive, negative) energy shares of the two cepstrum halves."""
    cepstrum = complex_cepstrum_from_zpk(zpk, order)
    pos = float(np.sum(cepstrum.positive**2))
    neg = float(np.sum(cepstrum.negative**2))
    total = pos + neg
    if total == 0.0:
        return 0.0, 0.0
    return pos / total, neg / total


def well_expressed(zpk: ZeroPoleGain, order: int = 20, margin: float = ENERGY_MARGIN) -> bool:
    """True when every side that should carry energy carries at least margin."""
    want = expected_phase_kind(zpk)
    pos, neg = energy_shares(zpk, order)
    if want == "Mixed":
        return pos >= margin and neg >= margin
    if want == "MinimumPhaseStable":
        return pos >= margin and neg == 0.0
    if want == "MaximumPhaseUnstable":
        return neg >= margin and pos == 0.0
    return True


def random_simulable(rng: np.random.Generator, want_mixed: bool) -> ZeroPoleGain:
    """Stable system with well-expressed phase content, safe to simulate.

    Minimum phase when want_mixed is false, otherwise stable poles plus at
    least one maximum phase zero. Zero counts never exceed pole counts, so
    ``state_space_from_roots`` realizes it.
    """
    while True:
        poles = draw_roots(rng, int(rng.integers(1, 4)))
        if want_mixed:
            zeros = draw_roots(rng, int(rng.integers(0, 2))) + draw_roots(
                rng, int(rng.integers(1, 3)), outside=True
            )
        else:
            zeros = draw_roots(rng, int(rng.integers(0, 3)))
        if len(zeros) > len(poles):
            poles = poles + draw_roots(rng, len(zeros) - len(poles))
        zpk = ZeroPoleGain(poles, zeros, 1.0)
        if well_expressed(zpk):
            return zpk


def white_record(zpk: ZeroPoleGain, length: int, seed: int) -> tuple[Signal, Signal]:
    """Simulate one white-noise input/output record of the given system."""
    u = Signal(np.random.default_rng(seed).standard_normal(length))
    return u, simulate(state_space_from_roots(zpk), u)


def good_and_broken(broken: list[bool]) -> list[tuple[Signal, Signal]]:
    """512-sample white-noise records of the pole at 0.5, record k from seed
    k; those flagged in ``broken`` have an all-zero output, whose spectrum
    has zero bins, so their features fail under every metric that takes
    pairs."""
    records = []
    for seed, bad in enumerate(broken):
        u, y = white_record(ZeroPoleGain([0.5], [], 1.0), 512, seed)
        records.append((u, Signal(np.zeros(512)) if bad else y))
    return records


def trace_cepstrum(model: StateSpaceModel, order: int) -> np.ndarray:
    """Positive power-cepstrum lags (tr(A^k) - tr(A_inv^k)) / k of a stable,
    minimum phase state-space model, with A_inv the inverse system's A.

    Independent of the root route: matrix powers only, no eigenvalues.
    """
    a = model.A
    a_inv = invert(model).A
    power, power_inv = np.eye(model.order), np.eye(model.order)
    lags = np.empty(order)
    for k in range(1, order + 1):
        power, power_inv = power @ a, power_inv @ a_inv
        lags[k - 1] = (np.trace(power) - np.trace(power_inv)) / k
    return lags


def grid_power_cepstrum(zpk: ZeroPoleGain, order: int, grid_length: int = 8192) -> np.ndarray:
    """Independent cepstrum oracle: dense grid, log of |H|^2, inverse DFT.

    Shares no code with the root power-sum route beyond the frequency
    response itself.
    """
    w = 2.0 * np.pi * np.arange(grid_length) / grid_length
    h = frequency_response(zpk, w)
    coeffs = np.fft.ifft(np.log(np.abs(h) ** 2)).real
    return coeffs[1 : order + 1]


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

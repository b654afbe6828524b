"""State-space simulation, realization, inversion, root extraction, and the
demo signals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cepdist import (
    DimensionMismatch,
    NotInvertible,
    Signal,
    SimulationOverflow,
    StateSpaceModel,
    UnitCircleRoot,
    UnstableSimulation,
    ValidationError,
    ZeroPoleGain,
    closed_form_norm,
    cosine_similarity,
    example_systems,
    frequency_response,
    invert,
    make_example_signals,
    power_cepstrum_from_zpk,
    roots_from_state_space,
    simulate,
    spectral_radius,
    state_space_from_roots,
    subspace_norm_from_model,
)
from cepdist.lti import SIM_BLOCK, SIM_GROWTH, _power_peaks, output_normal, solve_stein
from conftest import companion_realization, draw_roots, random_balanced_min_phase, random_min_phase

GRID_64 = 2.0 * np.pi * np.arange(64) / 64

ONE_POLE = StateSpaceModel(A=[[0.5]], B=[1.0], C=[1.0], D=0.0)


def frequency_response_state_space(model, grid):
    """Oracle: D + C (zI - A)^(-1) B on the unit circle, one solve per point."""
    n = model.order
    out = np.empty(grid.size, dtype=complex)
    eye = np.eye(n)
    for k, wk in enumerate(grid):
        z = np.exp(1j * wk)
        if n:
            out[k] = model.D + model.C @ np.linalg.solve(z * eye - model.A, model.B)
        else:
            out[k] = model.D
    return out


# Record lengths around the block size of the lifted recursion.
BLOCK_LENGTHS = (1, SIM_BLOCK - 1, SIM_BLOCK, SIM_BLOCK + 1, 3 * SIM_BLOCK + 5)
EPS = np.finfo(float).eps


def impulse(n: int) -> Signal:
    samples = np.zeros(n)
    samples[0] = 1.0
    return Signal(samples)


def _reference_simulate(model, input_signal, initial_state=None):
    """The per-sample recursion that the block-lifted simulate replaced."""
    u = input_signal.samples
    n = model.order
    if initial_state is None:
        x = np.zeros(n)
    else:
        x = np.asarray(initial_state, dtype=float).copy()
    a, b, c, d = model.A, model.B, model.C, model.D
    y = np.empty(len(u))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(u)):
            y[k] = c @ x + d * u[k]
            x = a @ x + b * u[k]
    if not np.all(np.isfinite(y)):
        raise SimulationOverflow("simulation output left the finite range")
    return Signal(y, input_signal.sample_period)


def _stable_model(rng, order):
    """A seeded stable model: an output-normal realization of random roots,
    turned into a dense one by a random orthogonal change of state
    coordinates."""
    if order == 0:
        return StateSpaceModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), rng.standard_normal())
    gain = 1.0 + rng.random()
    model = state_space_from_roots(
        ZeroPoleGain(draw_roots(rng, order), draw_roots(rng, order), gain)
    )
    q, _ = np.linalg.qr(rng.standard_normal((order, order)))
    return StateSpaceModel(q @ model.A @ q.T, q @ model.B, model.C @ q.T, model.D)


def _reached_state(model, rng):
    """A state the model reaches from rest under 200 samples of unit noise."""
    x = np.zeros(model.order)
    for value in rng.standard_normal(200):
        x = model.A @ x + model.B * value
    return x


def test_simulate_zero_input_gives_zero_output():
    y = simulate(ONE_POLE, Signal(np.zeros(17)))
    assert len(y) == 17
    assert np.array_equal(y.samples, np.zeros(17))


def test_simulate_identity_feedthrough_echoes_input():
    model = StateSpaceModel(A=[[0.0]], B=[0.0], C=[0.0], D=1.0)
    u = Signal(np.random.default_rng(0).standard_normal(32))
    y = simulate(model, u)
    assert np.array_equal(y.samples, u.samples)


def test_simulate_single_pole_impulse_recursion():
    # One delay into a 0.5-geometric: y = (0, 1, 0.5, 0.25, ...).
    y = simulate(ONE_POLE, impulse(8))
    expected = np.concatenate([[0.0], 0.5 ** np.arange(7)])
    assert np.allclose(y.samples, expected, atol=0.0)


def test_simulate_initial_state_decay():
    y = simulate(ONE_POLE, Signal(np.zeros(6)), initial_state=[2.0])
    assert np.allclose(y.samples, 2.0 * 0.5 ** np.arange(6))


def test_simulate_rejects_wrong_state_length():
    with pytest.raises(DimensionMismatch):
        simulate(ONE_POLE, impulse(4), initial_state=[1.0, 2.0])


def test_simulate_overflow_is_reported():
    growing = StateSpaceModel(A=[[2.0]], B=[1.0], C=[1.0], D=0.0)
    with pytest.raises(SimulationOverflow):
        simulate(growing, Signal(np.ones(1200)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("order", [0, 1, 2, 8])
@pytest.mark.parametrize("length", BLOCK_LENGTHS)
@pytest.mark.parametrize("with_state", [False, True])
def test_lifted_simulation_matches_the_recursion(order, length, with_state):
    for seed in range(5):
        rng = np.random.default_rng([order, length, seed])
        model = _stable_model(rng, order)
        u = Signal(rng.standard_normal(length), 0.5)
        x0 = _reached_state(model, rng) if with_state else None
        got = simulate(model, u, initial_state=x0)
        want = _reference_simulate(model, u, x0)
        assert got.sample_period == 0.5
        h = _reference_simulate(model, impulse(4096)).samples
        bound = 64 * order * EPS * np.sum(np.abs(h)) * np.max(np.abs(u.samples))
        assert np.max(np.abs(got.samples - want.samples)) <= bound


def _cascade_of_first_order(poles, u):
    """The output of one first-order filter 1 / (1 - p z^-1) per pole, in turn."""
    y = u
    for p in poles:
        out = np.empty_like(y)
        state = 0.0
        for i, v in enumerate(y):
            state = p * state + v
            out[i] = state
        y = out
    return y


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("poles", [[0.99] * 4, [0.9, 0.92, 0.94, 0.96, 0.98]])
def test_clustered_poles_simulate_without_amplified_rounding(poles):
    # The companion realization of clustered poles has powers A^j with
    # entries in the thousands within a 64-sample step; stepping through
    # them lost up to 4.5e-2 of the output. A state-space file may bring
    # such an A, so ``simulate`` shortens its steps.
    model = companion_realization(ZeroPoleGain(poles, [], 1.0))
    assert _power_peaks(model.A, SIM_BLOCK)[-1] > SIM_GROWTH
    u = np.random.default_rng(0).standard_normal(3000)
    want = _cascade_of_first_order(poles, u)
    got = simulate(model, Signal(u)).samples
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pole, bound", [(0.99, 1e-12), (0.999, 1e-8)])
@pytest.mark.parametrize("fold", range(1, 9))
def test_repeated_poles_give_the_binomial_impulse_response(pole, bound, fold):
    # 1 / (1 - p/z)^k has the impulse response C(n + k - 1, k - 1) p^n. The
    # coefficients of (z - p)^k lose a k-fold root to about eps^(1/k); the
    # realization never forms them.
    model = state_space_from_roots(ZeroPoleGain([pole] * fold, [], 1.0))
    assert _power_peaks(model.A, SIM_BLOCK)[-1] <= 1.0
    n = np.arange(400)
    want = np.array([math.comb(i + fold - 1, fold - 1) for i in n], dtype=float) * pole**n
    got = simulate(model, impulse(400)).samples
    assert np.max(np.abs(got - want)) <= bound * np.max(want)


@pytest.mark.parametrize("multiplicity", [2, 3, 4])
def test_repeated_conjugate_pairs_give_the_root_form_response(multiplicity):
    pair = [0.9 * np.exp(0.6j), 0.9 * np.exp(-0.6j)]
    zeros = [0.7 * np.exp(2.1j), 0.7 * np.exp(-2.1j)] * (multiplicity - 1) + [-1.4, 0.3]
    zpk = ZeroPoleGain(pair * multiplicity + [0.5], zeros, -1.7)
    model = state_space_from_roots(zpk)
    want = frequency_response(zpk, GRID_64)
    got = frequency_response_state_space(model, GRID_64)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@given(st.integers(0, 10**6))
def test_realized_powers_never_grow(seed):
    # A^T A + C^T C = I, so every power of A is a contraction and
    # ``simulate`` keeps whole blocks for every root-form model.
    zpk = random_min_phase(np.random.default_rng(seed), max_each=6)
    if len(zpk.zeros) <= len(zpk.poles):
        model = state_space_from_roots(zpk)
        gram = model.A.T @ model.A + np.outer(model.C, model.C)
        assert np.max(np.abs(gram - np.eye(model.order))) <= 1e-15 * max(1, model.order)
        assert _power_peaks(model.A, SIM_BLOCK)[-1] <= 1.0


def _kronecker_stein(left, right, const):
    """Oracle: X = left X right + const as one nm x nm system, row-major
    vec(left X right) = kron(left, right^T) vec(X). Returns X and the
    1-norm condition number of the system."""
    n, m = const.shape
    system = np.eye(n * m) - np.kron(left, right.T)
    inverse = np.linalg.inv(system)
    condition = np.linalg.norm(system, 1) * np.linalg.norm(inverse, 1)
    return (inverse @ const.ravel()).reshape(n, m), condition


@pytest.mark.parametrize("sides", [(1, 1), (3, 5), (8, 2), (30, 30), (40, 33)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stein_solver_matches_the_kronecker_oracle(sides, kind):
    rng = np.random.default_rng(sides)
    n, m = sides
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    left = 0.97 * q
    if kind == "real":
        # The cascade of roots with conjugate pairs: 2x2 diagonal blocks.
        right, _ = output_normal(draw_roots(rng, m))
        const = rng.standard_normal((n, m))
    else:
        # The cascade of first-order sections (z - z_i) / (z - p_i) that
        # ``state_space_from_roots`` solves against: lower triangular.
        poles, zeros = np.array(draw_roots(rng, m)), np.array(draw_roots(rng, m))
        right = np.diag(poles) + np.tril(np.broadcast_to(poles - zeros, (m, m)), -1)
        const = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    want, condition = _kronecker_stein(left, right, const)
    got = solve_stein(left, right, const)
    # Both solves round at about eps times the condition of the system,
    # which for the first-order cascade of 30 random roots reached 1e4-5e6.
    assert np.max(np.abs(got - want)) <= EPS * condition * np.max(np.abs(want))


def test_state_space_refuses_an_unstable_pole():
    # No output-normal form exists for a pole outside the circle.
    with pytest.raises(UnstableSimulation, match="outside the unit circle"):
        state_space_from_roots(ZeroPoleGain([0.5, 2.5], [0.1], 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pole", [1.5, 1e5])
@pytest.mark.parametrize(
    "length", [*BLOCK_LENGTHS, SIM_BLOCK // 2 - 1, SIM_BLOCK // 2 + 1, 700, 2000]
)
def test_growing_models_give_the_recursion_output_or_its_refusal(pole, length):
    model = StateSpaceModel(A=[[pole]], B=[1.0], C=[1.0], D=0.5)
    u = Signal(np.random.default_rng(length).uniform(0.5, 1.0, length))
    try:
        want = _reference_simulate(model, u).samples
    except SimulationOverflow:
        with pytest.raises(SimulationOverflow):
            simulate(model, u)
        return
    got = simulate(model, u).samples
    # Rounding is relative to the sizes of the terms each output sums.
    h = _reference_simulate(model, impulse(length)).samples
    scale = np.convolve(np.abs(h), np.abs(u.samples))[:length]
    assert np.all(np.abs(got - want) <= 64 * EPS * scale)


def test_invert_direct_one_state_case():
    model = StateSpaceModel(A=[[0.5]], B=[1.0], C=[1.0], D=2.0)
    inverse = invert(model)
    assert np.allclose(inverse.A, [[0.0]])
    assert np.allclose(inverse.B, [0.5])
    assert np.allclose(inverse.C, [-0.5])
    assert inverse.D == pytest.approx(0.5)


def test_invert_identity_is_identity():
    identity = StateSpaceModel(A=[[0.0]], B=[0.0], C=[0.0], D=1.0)
    inverse = invert(identity)
    assert np.array_equal(inverse.A, identity.A)
    assert np.array_equal(inverse.B, identity.B)
    assert np.array_equal(inverse.C, identity.C)
    assert inverse.D == 1.0


def test_invert_rejects_zero_feedthrough():
    with pytest.raises(NotInvertible):
        invert(ONE_POLE)


@given(st.integers(0, 10**6))
def test_invert_is_an_involution_in_frequency_response(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    zpk = ZeroPoleGain(draw_roots(rng, n), draw_roots(rng, n), 1.5)
    model = state_space_from_roots(zpk)
    twice = invert(invert(model))
    h1 = frequency_response_state_space(model, GRID_64)
    h2 = frequency_response_state_space(twice, GRID_64)
    assert np.max(np.abs(h1 - h2)) <= 1e-9
    # The inverse itself multiplies the response back to one.
    h_inv = frequency_response_state_space(invert(model), GRID_64)
    assert np.max(np.abs(h1 * h_inv - 1.0)) <= 1e-9


def test_roots_of_one_state_model():
    model = StateSpaceModel(A=[[0.5]], B=[1.0], C=[1.0], D=1.0)
    zpk = roots_from_state_space(model)
    assert zpk.stable_poles == (0.5 + 0.0j,)
    assert zpk.min_zeros == (-0.5 + 0.0j,)
    assert zpk.gain == pytest.approx(1.0)


def test_roots_without_input_coupling_collapse_to_feedthrough():
    model = StateSpaceModel(A=[[0.5]], B=[0.0], C=[1.0], D=3.0)
    zpk = roots_from_state_space(model)
    assert zpk.poles == zpk.zeros
    response = frequency_response(zpk, GRID_64)
    assert np.max(np.abs(response - 3.0)) <= 1e-12


def test_roots_of_demo_minimum_phase_realization():
    system = example_systems()["minimum_phase"]
    recovered = roots_from_state_space(state_space_from_roots(system))
    assert np.allclose(sorted(np.real(recovered.stable_poles)), [0.4, 0.7, 0.9], atol=1e-10)
    assert np.allclose(sorted(np.real(recovered.min_zeros)), [0.0, 0.6, 0.8], atol=1e-10)


def test_roots_reject_unit_circle_pole():
    model = StateSpaceModel(A=[[1.0]], B=[1.0], C=[1.0], D=1.0)
    with pytest.raises(UnitCircleRoot):
        roots_from_state_space(model)


def test_roots_accept_repeated_pole():
    # A double pole at 0.5 under a double zero at 0.5: H(z) = 1.
    model = StateSpaceModel(A=np.diag([0.5, 0.5]), B=[1.0, 1.0], C=[1.0, -1.0], D=1.0)
    zpk = roots_from_state_space(model)
    assert zpk.poles == (0.5, 0.5)
    assert closed_form_norm(zpk) == 0.0
    assert abs(subspace_norm_from_model(zpk)) <= 1e-14
    response = frequency_response(zpk, GRID_64)
    assert np.max(np.abs(response - 1.0)) <= 1e-7


def test_repeated_pole_survives_the_realization_round_trip():
    zpk = ZeroPoleGain([0.5, 0.5], [0.2], 1.0)
    recovered = roots_from_state_space(state_space_from_roots(zpk))
    assert np.allclose(recovered.poles, [0.5, 0.5], atol=1e-7)
    assert np.allclose(sorted(np.real(recovered.zeros)), [0.0, 0.2], atol=1e-12)
    assert recovered.gain == 1.0
    closed = closed_form_norm(zpk)
    assert closed_form_norm(recovered) == pytest.approx(closed, rel=1e-12)


@given(st.integers(0, 10**6))
def test_state_space_round_trip_recovers_roots(seed):
    zpk = random_balanced_min_phase(np.random.default_rng(seed))
    recovered = roots_from_state_space(state_space_from_roots(zpk))
    want_zeros = list(zpk.zeros) + [0.0] * (len(zpk.poles) - len(zpk.zeros))
    for got, want in ((recovered.poles, zpk.poles), (recovered.zeros, tuple(want_zeros))):
        got = sorted(got, key=lambda r: (round(r.real, 6), round(r.imag, 6)))
        want = sorted(want, key=lambda r: (round(r.real, 6), round(r.imag, 6)))
        assert np.allclose(got, want, atol=1e-8)
    assert recovered.gain == pytest.approx(zpk.gain)


def test_frequency_response_of_pure_gain_is_constant():
    zpk = ZeroPoleGain(gain=2.5)
    assert np.array_equal(frequency_response(zpk, GRID_64), np.full(64, 2.5 + 0.0j))


def test_frequency_response_single_pole_at_zero_frequency():
    zpk = ZeroPoleGain([0.5], [], 1.0)
    assert frequency_response(zpk, np.array([0.0]))[0] == pytest.approx(2.0)


@given(st.integers(0, 10**6))
def test_frequency_response_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    zpk = ZeroPoleGain(draw_roots(rng, 3), draw_roots(rng, 2), 1.0)
    w = rng.uniform(1e-3, np.pi - 1e-3, size=8)
    front = frequency_response(zpk, w)
    back = frequency_response(zpk, 2.0 * np.pi - w)
    assert np.max(np.abs(back - np.conj(front))) <= 1e-12


def test_frequency_response_rejects_out_of_range_grid():
    zpk = ZeroPoleGain(gain=1.0)
    with pytest.raises(ValidationError):
        frequency_response(zpk, np.array([2.0 * np.pi]))
    with pytest.raises(ValidationError):
        frequency_response(zpk, np.array([-0.1]))


@given(st.integers(0, 10**6))
# |H| reaches 996 on this grid; the routes differ there by 1.3e-13 of it.
@example(36624)
def test_state_space_response_matches_root_form(seed):
    zpk = random_balanced_min_phase(np.random.default_rng(seed))
    model = state_space_from_roots(zpk)
    h_roots = frequency_response(roots_from_state_space(model), GRID_64)
    h_state = frequency_response_state_space(model, GRID_64)
    # Both routes round relative to |H|: 1e-10 absolute where |H| <= 1.
    assert np.all(np.abs(h_roots - h_state) <= 1e-10 * np.maximum(1.0, np.abs(h_roots)))


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_simulated_inverse_reconstructs_input(seed):
    # Inverse dynamics are stable only when the model is minimum phase.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    zpk = ZeroPoleGain(draw_roots(rng, n), draw_roots(rng, n), 1.2)
    model = state_space_from_roots(zpk)
    u = Signal(rng.standard_normal(512))
    y = simulate(model, u)
    u_back = simulate(invert(model), y)
    err = np.linalg.norm(u_back.samples - u.samples) / np.linalg.norm(u.samples)
    assert err <= 1e-8


def test_state_space_rejects_more_zeros_than_poles():
    zpk = ZeroPoleGain([0.5], [0.3, -0.2], 1.0)
    with pytest.raises(ValidationError):
        state_space_from_roots(zpk)


def test_spectral_radius():
    assert spectral_radius(ONE_POLE) == pytest.approx(0.5)
    empty = StateSpaceModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), 1.0)
    assert spectral_radius(empty) == 0.0


def test_example_systems_root_partitions():
    systems = example_systems()
    minimum = systems["minimum_phase"]
    assert sorted(np.real(minimum.stable_poles)) == [0.4, 0.7, 0.9]
    assert sorted(np.real(minimum.min_zeros)) == [0.0, 0.6, 0.8]
    maximum = systems["maximum_phase"]
    assert minimum.is_minimum_phase and not minimum.is_maximum_phase
    assert maximum.is_maximum_phase and not maximum.is_minimum_phase
    assert np.allclose(sorted(np.real(maximum.unstable_poles)), [1 / 0.9, 1 / 0.7, 1 / 0.4])
    mixed = systems["mixed"]
    assert len(mixed.stable_poles) == 2 and len(mixed.unstable_poles) == 1
    assert len(mixed.min_zeros) == 2 and len(mixed.max_zeros) == 1


def test_zpk_folding_reflects_outside_roots():
    zpk = ZeroPoleGain([2.0], [1 / 0.8], 1.0)
    assert np.allclose(zpk.folded_poles(), [0.5])
    assert np.allclose(zpk.folded_zeros(), [0.8])
    assert zpk.folded_radius() == pytest.approx(0.8)


def test_zpk_partition_is_validated():
    with pytest.raises(ValidationError):
        ZeroPoleGain(gain=0.0)
    with pytest.raises(UnitCircleRoot):
        ZeroPoleGain([1.0], [], 1.0)
    with pytest.raises(ValidationError):
        # A lone complex root cannot belong to a real-coefficient system.
        ZeroPoleGain([0.5j], [], 1.0)


def _shuffled_roots(rng, count):
    """Roots on both sides of the circle, conjugate pairs kept, in random order."""
    outside = int(rng.integers(0, count + 1))
    roots = draw_roots(rng, count - outside) + draw_roots(rng, outside, outside=True)
    return [roots[k] for k in rng.permutation(len(roots))]


@given(st.integers(0, 10**6))
def test_zpk_stores_inside_roots_first_in_the_given_order(seed):
    rng = np.random.default_rng(seed)
    poles = _shuffled_roots(rng, int(rng.integers(1, 6)))
    zeros = _shuffled_roots(rng, int(rng.integers(0, 6)))
    gain = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    zpk = ZeroPoleGain(poles, zeros, gain)
    for given, stored, inside, outside in (
        (poles, zpk.poles, zpk.stable_poles, zpk.unstable_poles),
        (zeros, zpk.zeros, zpk.min_zeros, zpk.max_zeros),
    ):
        assert inside == tuple(r for r in given if abs(r) < 1.0)
        assert outside == tuple(r for r in given if abs(r) > 1.0)
        assert stored == inside + outside
    assert zpk.gain == gain
    stored = ZeroPoleGain(list(zpk.poles), list(zpk.zeros), gain)
    assert stored.folded_poles() == zpk.folded_poles()
    assert closed_form_norm(stored) == closed_form_norm(zpk)
    first, second = (power_cepstrum_from_zpk(model, 32) for model in (zpk, stored))
    assert np.array_equal(first.positive, second.positive)
    assert first.zeroth == second.zeroth


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(np.inf, 0)])
def test_zpk_refuses_non_finite_roots_and_gains(bad):
    for poles, zeros, gain in (([bad, 0.5], [0.2], 1), ([0.5], [0.2, bad], 1), ([0.5], [0.2], bad)):
        with pytest.raises(ValidationError, match="finite"):
            ZeroPoleGain(poles=poles, zeros=zeros, gain=gain)


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: ZeroPoleGain(["0.5"], ["1+2j", "1-2j"], "2"),
            "poles must hold only numbers, got '0.5'",
        ),
        (
            lambda: ZeroPoleGain([0.5], ["1+2j", "1-2j"], 2),
            "zeros must hold only numbers, got '1+2j'",
        ),
        (lambda: ZeroPoleGain([0.5], [], True), "gain must hold only numbers, got True"),
        (lambda: ZeroPoleGain([0.5], [], "2"), "gain must hold only numbers, got '2'"),
        (
            lambda: ZeroPoleGain([np.bool_(True)], [], 1),
            f"poles must hold only numbers, got {np.bool_(True)!r}",
        ),
        (
            lambda: ZeroPoleGain(np.array([0.5, True], dtype=object)),
            "poles must hold only numbers, got True",
        ),
        (lambda: ZeroPoleGain("0.5"), "poles must hold only numbers, got '0.5'"),
        (
            lambda: StateSpaceModel([["0.5"]], ["1"], [True], "1"),
            "A must hold only numbers, got '0.5'",
        ),
        (lambda: StateSpaceModel([[0.5]], ["1"], [1], 1), "B must hold only numbers, got '1'"),
        (
            lambda: StateSpaceModel([[0.5]], [1], np.array([True]), 1),
            "C must hold only numbers, got True",
        ),
        (lambda: StateSpaceModel([[0.5]], [1], [1], False), "D must hold only numbers, got False"),
    ],
)
def test_model_constructors_refuse_strings_and_booleans(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ZeroPoleGain([0.5], [], [1.0]), "gain has [1.0] where a number belongs"),
        (lambda: ZeroPoleGain([[0.5, 0.1]]), "poles has [0.5, 0.1] where a number belongs"),
        (lambda: ZeroPoleGain(0.5), "poles has 0.5 where a list belongs"),
        (lambda: StateSpaceModel([[0.5]], [1], [1], [1.0]), "D has [1.0] where a number belongs"),
        (
            lambda: StateSpaceModel([[0.5], [0.1, 0.2]], [1, 1], [1, 1], 1.0),
            "A has rows of unequal lengths [1, 2]",
        ),
    ],
    ids=["list-gain", "nested-poles", "number-poles", "list-D", "ragged-A"],
)
def test_model_constructors_refuse_the_wrong_nesting(build, message):
    with pytest.raises(DimensionMismatch) as info:
        build()
    assert str(info.value) == message


def test_model_constructors_take_numbers_of_any_numeric_type():
    zpk = ZeroPoleGain(np.array([0.5, 2]), (np.complex128(0.1),), np.int64(3))
    assert zpk.poles == (0.5, 2.0) and zpk.zeros == (0.1,) and zpk.gain == 3.0
    a = np.array([[0.5]], dtype=np.float32)
    model = StateSpaceModel(a, (1,), [np.int64(2)], np.float64(1))
    assert model.C.tolist() == [2.0] and model.D == 1.0


@given(st.integers(0, 10**6))
def test_zpk_root_lists_are_conjugate_closed(seed):
    rng = np.random.default_rng(seed)
    zpk = ZeroPoleGain(draw_roots(rng, 4), draw_roots(rng, 4, outside=True), 1.0)
    for group in (zpk.stable_poles, zpk.unstable_poles, zpk.min_zeros, zpk.max_zeros):
        for root in group:
            assert any(abs(np.conj(root) - other) <= 1e-12 for other in group)


def test_signal_validation():
    with pytest.raises(ValidationError):
        Signal(np.array([]))
    with pytest.raises(ValidationError):
        Signal(np.array([1.0, np.inf]))
    with pytest.raises(DimensionMismatch):
        Signal(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        Signal(np.ones(4), sample_period=0.0)


def test_example_signals_shapes_and_period():
    sine, cosine, noise = make_example_signals(0.995, 44)
    assert len(sine) == len(cosine) == len(noise) == 1101
    assert sine.sample_period == pytest.approx(0.01)


def test_example_signals_without_damping_are_pure_sinusoids():
    sine, cosine, _ = make_example_signals(1.0, 0)
    t = 0.01 * np.arange(1101)
    assert np.allclose(sine.samples, np.sin(10.0 * t), atol=1e-12)
    assert np.allclose(cosine.samples, np.cos(10.0 * t), atol=1e-12)


def test_example_sine_and_cosine_are_nearly_orthogonal():
    sine, cosine, _ = make_example_signals(0.995, 44)
    assert abs(cosine_similarity(sine, cosine)) < 0.05


def test_example_signals_seeded_noise_is_deterministic():
    _, _, first = make_example_signals(0.995, 7)
    _, _, second = make_example_signals(0.995, 7)
    _, _, third = make_example_signals(0.995, 8)
    assert np.array_equal(first.samples, second.samples)
    assert not np.array_equal(first.samples, third.samples)


def test_example_signals_reject_bad_damping():
    with pytest.raises(ValidationError):
        make_example_signals(0.0, 0)
    with pytest.raises(ValidationError):
        make_example_signals(1.5, 0)

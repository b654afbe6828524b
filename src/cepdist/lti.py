"""Discrete-time SISO linear models, signals, and simulation.

Two model forms are supported. ``StateSpaceModel`` holds the usual
(A, B, C, D) quadruple. ``ZeroPoleGain`` holds poles, zeros and a real
gain, with the transfer function read as

    H(z) = gain * prod(1 - zero_i / z) / prod(1 - pole_i / z)

so a system with fewer zeros than poles in polynomial form is represented
here with explicit roots at the origin. A root that is not finite, or lies
on (or numerically near) the unit circle, is rejected everywhere: the
log-spectrum methods this package is built on are undefined for it. The
phase split (which roots lie inside the circle) is derived from the roots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    NotInvertible,
    SimulationOverflow,
    UnitCircleRoot,
    UnstableSimulation,
    ValidationError,
)

# Roots closer than this to |z| = 1 are treated as on the unit circle.
EPS_CIRCLE = 1e-6
# Feedthrough terms smaller than this count as zero (model not invertible).
TAU_D = 1e-12
# Roots closer together than this count as one: a complex root and its
# conjugate partner, or a pole and a zero that a cascade cancels. It also
# bounds the imaginary part of a real gain. Repeated roots are accepted.
TAU_MULT = 1e-8
# Scale of the demo white-noise signal; chosen to match the root-mean-square
# amplitude of a unit sinusoid so all three demo signals have comparable power.
NOISE_SCALE = 2.0 ** -0.5
# Samples per step of the block-lifted recursion in ``simulate``. Each step
# costs O(SIM_BLOCK^2 + SIM_BLOCK * order) work in matrix products instead
# of SIM_BLOCK Python iterations.
SIM_BLOCK = 64
# Largest entry of a power A^j within one step of that recursion. A step's
# rounding grows with these powers; past this the step is shortened. They
# grow large only for a state-space file's own A, such as a companion form
# of repeated or clustered poles: no power of the A that
# ``state_space_from_roots`` builds has an entry above 1.
SIM_GROWTH = 32.0
# A record whose largest magnitude lies outside [1 / SAFE_PEAK, SAFE_PEAK] is
# scaled by a power of two before it is transformed: the squares that
# spectra and norms sum overflow for a larger record and underflow for a
# much smaller one. The scaling is exact, and a record inside the range
# keeps every bit.
SAFE_PEAK = 2.0**128
# Relative difference under which two sample periods, or two time steps of
# one file, count as equal: times read back from a file carry its rounding.
TIME_JITTER_RTOL = 1e-6


def check_numbers(value, key: str, depth: int):
    """``value``, once it is numbers nested ``depth`` lists, tuples or arrays
    deep (0 for a bare number): a string or boolean is refused, not converted,
    and so is a list where a number belongs, a number where a list belongs,
    or rows of unequal lengths."""
    entries = value.tolist() if isinstance(value, np.ndarray) else value
    nested = isinstance(entries, (list, tuple))
    if not nested and (isinstance(entries, bool) or not isinstance(entries, numbers.Number)):
        raise ValidationError(f"{key} must hold only numbers, got {entries!r}")
    if nested != (depth > 0):
        belongs = "a list" if depth else "a number"
        raise DimensionMismatch(f"{key} has {entries!r} where {belongs} belongs")
    for entry in entries if nested else ():
        check_numbers(entry, key, depth - 1)
    lengths = [len(entry) for entry in entries] if depth > 1 else []
    if len(set(lengths)) > 1:
        raise DimensionMismatch(f"{key} has rows of unequal lengths {lengths}")
    return value


def _to_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Signal:
    """A finite, uniformly sampled scalar signal."""

    samples: np.ndarray
    sample_period: float = 1.0

    def __post_init__(self) -> None:
        arr = _to_vector(self.samples, "samples")
        if arr.size == 0:
            raise ValidationError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("signal samples must be finite")
        if not (float(self.sample_period) > 0.0):
            raise ValidationError(f"sample_period must be positive, got {self.sample_period}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_period", float(self.sample_period))

    def __len__(self) -> int:
        return int(self.samples.size)


def check_pair(input_signal: Signal, output_signal: Signal) -> None:
    """Refuse an (input, output) pair whose signals differ in length or sample period."""
    if len(input_signal) != len(output_signal):
        raise LengthMismatch(
            f"input and output lengths differ: {len(input_signal)} vs {len(output_signal)}"
        )
    if not same_period(input_signal.sample_period, output_signal.sample_period):
        raise ValidationError("input and output sample periods differ")


def same_period(first: float, second: float) -> bool:
    """Whether two sample periods agree, within TIME_JITTER_RTOL of each other."""
    return math.isclose(first, second, rel_tol=TIME_JITTER_RTOL)


def range_exponent(*arrays: np.ndarray) -> int:
    """The e for which the arrays are divided by 2**e before a transform.

    When the largest magnitude over all the arrays lies outside
    [1 / SAFE_PEAK, SAFE_PEAK], e brings it into [0.5, 1); otherwise, and
    for all-zero arrays, e is 0. A route that scales by it puts the scale
    back in its result: a cepstrum adds its log to c(0), the only
    coefficient that a gain moves.
    """
    peak = max(float(np.max(np.abs(a))) for a in arrays)
    if 1.0 / SAFE_PEAK <= peak <= SAFE_PEAK:
        return 0
    return int(np.frexp(peak)[1])


@dataclass(frozen=True)
class StateSpaceModel:
    """State-space quadruple x(t+1) = A x(t) + B u(t), y(t) = C x(t) + D u(t)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float

    def __post_init__(self) -> None:
        for name, depth in (("A", 2), ("B", 1), ("C", 1), ("D", 0)):
            check_numbers(getattr(self, name), name, depth)
        a = np.asarray(self.A, dtype=float)
        b = _to_vector(self.B, "B")
        c = _to_vector(self.C, "C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {a.shape}")
        n = a.shape[0]
        if b.size != n or c.size != n:
            raise DimensionMismatch(
                f"B and C must have length {n} to match A, got {b.size} and {c.size}"
            )
        d = float(self.D)
        for name, arr in (("A", a), ("B", b), ("C", c)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must contain only finite entries")
        if not np.isfinite(d):
            raise ValidationError("D must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", d)

    @property
    def order(self) -> int:
        return int(self.A.shape[0])

    @property
    def is_invertible(self) -> bool:
        return abs(self.D) > TAU_D


def _check_off_circle(roots: Sequence[complex], what: str) -> None:
    for r in roots:
        if abs(abs(r) - 1.0) <= EPS_CIRCLE:
            raise UnitCircleRoot(f"{what} {r} lies within {EPS_CIRCLE} of the unit circle")


def _check_conjugate_closed(roots: Sequence[complex], what: str) -> None:
    # Real-coefficient systems only: complex roots must appear in conjugate pairs.
    pending = [r for r in roots if abs(r.imag) > TAU_MULT]
    while pending:
        r = pending.pop()
        for k, s in enumerate(pending):
            if abs(s - np.conj(r)) <= TAU_MULT * max(1.0, abs(r)):
                pending.pop(k)
                break
        else:
            raise ValidationError(f"{what} {r} has no conjugate partner")


@dataclass(frozen=True)
class ZeroPoleGain:
    """Poles, zeros and real gain of a rational transfer function.

    Each root list is stored with the roots inside the unit circle first,
    then those outside, each group in the order given. ``stable_poles`` and
    ``min_zeros`` are the inside groups, ``unstable_poles`` and
    ``max_zeros`` the outside ones.
    """

    poles: tuple[complex, ...] = ()
    zeros: tuple[complex, ...] = ()
    gain: float = 1.0

    def __post_init__(self) -> None:
        for name, what in (("poles", "pole"), ("zeros", "zero")):
            roots = [complex(r) for r in check_numbers(getattr(self, name), name, 1)]
            if not all(np.isfinite(r) for r in roots):
                raise ValidationError(f"{name} must contain only finite roots")
            _check_off_circle(roots, what)
            # A stable sort: the inside roots first, each group in the given order.
            roots = tuple(sorted(roots, key=lambda r: abs(r) > 1.0))
            _check_conjugate_closed(roots, what)
            object.__setattr__(self, name, roots)
        g = complex(check_numbers(self.gain, "gain", 0))
        if not np.isfinite(g):
            raise ValidationError(f"gain must be finite, got {self.gain}")
        if abs(g.imag) > TAU_MULT * max(1.0, abs(g)):
            raise ValidationError(f"gain must be real, got {g}")
        if abs(g.real) <= TAU_D:
            raise ValidationError("gain must be nonzero")
        object.__setattr__(self, "gain", float(g.real))

    @property
    def stable_poles(self) -> tuple[complex, ...]:
        return tuple(p for p in self.poles if abs(p) < 1.0)

    @property
    def unstable_poles(self) -> tuple[complex, ...]:
        return tuple(p for p in self.poles if abs(p) > 1.0)

    @property
    def min_zeros(self) -> tuple[complex, ...]:
        return tuple(z for z in self.zeros if abs(z) < 1.0)

    @property
    def max_zeros(self) -> tuple[complex, ...]:
        return tuple(z for z in self.zeros if abs(z) > 1.0)

    @property
    def is_minimum_phase(self) -> bool:
        return not self.unstable_poles and not self.max_zeros

    @property
    def is_maximum_phase(self) -> bool:
        return not self.stable_poles and not self.min_zeros

    def folded_poles(self) -> tuple[complex, ...]:
        """All poles reflected into the unit disc (r outside maps to 1/conj(r))."""
        return self.stable_poles + tuple(1.0 / np.conj(p) for p in self.unstable_poles)

    def folded_zeros(self) -> tuple[complex, ...]:
        """All zeros reflected into the unit disc."""
        return self.min_zeros + tuple(1.0 / np.conj(z) for z in self.max_zeros)

    def folded_radius(self) -> float:
        """Largest folded root magnitude; bounds the cepstral decay rate."""
        folded = self.folded_poles() + self.folded_zeros()
        return max((abs(r) for r in folded), default=0.0)


def _lifted(model: StateSpaceModel, block: int) -> tuple[np.ndarray, ...]:
    """Matrices that advance ``model`` by ``block`` samples per step.

    For the state x at the start of a block and the block's inputs u, the
    block's outputs are ``obs @ x + toeplitz @ u`` and the next state is
    ``power @ x + ctr @ u``: obs stacks C A^j, ctr holds A^(block-1-j) B,
    power is A^block, and toeplitz is lower triangular with the Markov
    parameters D, CB, CAB, ... on its diagonals.
    """
    a, b = model.A, model.B
    obs = np.empty((block, model.order))
    ctr = np.empty((model.order, block))
    row, col = model.C, b
    for j in range(block):
        obs[j] = row
        ctr[:, block - 1 - j] = col
        row = row @ a
        col = a @ col
    markov = np.concatenate(([model.D], obs[:-1] @ b))
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    toeplitz = np.where(lag >= 0, markov[np.abs(lag)], 0.0)
    return obs, ctr, np.linalg.matrix_power(a, block), toeplitz


def _power_peaks(a: np.ndarray, block: int) -> np.ndarray:
    """Entry i - 1 is the largest entry magnitude of A^j over 1 <= j <= i."""
    powers = a[None]
    while len(powers) < block:
        powers = np.concatenate([powers, powers @ powers[-1]])
    return np.maximum.accumulate(np.abs(powers[:block]).max(axis=(1, 2), initial=0.0))


def simulate(model: StateSpaceModel, input_signal: Signal, initial_state=None) -> Signal:
    """Run the state recursion over an input signal.

    The state starts at zero unless ``initial_state`` is given. Raises
    ``SimulationOverflow`` if the output leaves the finite range, which is
    the typical outcome for unstable models driven long enough.

    The recursion is stepped SIM_BLOCK samples at a time through the
    block-lifted matrices of ``_lifted``, so each step is a few small matrix
    products; fewer where the powers of A overflow or grow past SIM_GROWTH
    within a block. The outputs agree with the per-sample recursion to
    rounding.
    """
    u = input_signal.samples
    n = model.order
    if initial_state is None:
        x = np.zeros(n)
    else:
        x = _to_vector(initial_state, "initial_state").copy()
        if x.size != n:
            raise DimensionMismatch(f"initial_state must have length {n}, got {x.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        block = SIM_BLOCK
        peaks = _power_peaks(model.A, block)
        lifted = _lifted(model, block)
        # A fast-growing model can overflow A^j within one block even where
        # the recursion's outputs stay finite, and powers that grow past
        # SIM_GROWTH amplify the rounding of a step: shorten the block until
        # the lifted matrices are finite and the powers stay within it. At
        # one sample they are A, B, C and D.
        while block > 1 and not (
            peaks[block - 1] <= SIM_GROWTH and all(np.all(np.isfinite(m)) for m in lifted)
        ):
            block //= 2
            lifted = _lifted(model, block)
        obs, ctr, power, toeplitz = lifted
        steps = -(-len(u) // block)
        inputs = np.zeros(steps * block)
        inputs[: len(u)] = u
        inputs = inputs.reshape(steps, block)
        drive = inputs @ ctr.T
        states = np.empty((steps, n))
        for k in range(steps):
            states[k] = x
            x = power @ x + drive[k]
        y = (states @ obs.T + inputs @ toeplitz.T).ravel()[: len(u)]
    if not np.all(np.isfinite(y)):
        raise SimulationOverflow("simulation output left the finite range")
    return Signal(y, input_signal.sample_period)


def invert(model: StateSpaceModel) -> StateSpaceModel:
    """Return the state-space model of the inverse system (swap input and output)."""
    if not model.is_invertible:
        raise NotInvertible(f"|D| = {abs(model.D)} is below {TAU_D}; system has no inverse")
    d = model.D
    return StateSpaceModel(
        A=model.A - np.outer(model.B, model.C) / d,
        B=model.B / d,
        C=-model.C / d,
        D=1.0 / d,
    )


def roots_from_state_space(model: StateSpaceModel) -> ZeroPoleGain:
    """Poles, zeros, and gain of an invertible state-space model.

    Poles are the eigenvalues of A; zeros are the eigenvalues of the inverse
    system's A matrix. Both counts equal the model order, with zeros at the
    origin standing in for excess poles.
    """
    if not model.is_invertible:
        raise NotInvertible(f"|D| = {abs(model.D)} is below {TAU_D}; zeros are undefined")
    poles = np.linalg.eigvals(model.A) if model.order else np.array([], dtype=complex)
    if model.order:
        zeros = np.linalg.eigvals(invert(model).A)
    else:
        zeros = np.array([], dtype=complex)
    return ZeroPoleGain(poles, zeros, gain=model.D)


def output_normal(roots: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) of a real cascade of lossless sections, one per real root and
    one per conjugate pair of a conjugate-closed root list inside the unit
    circle; roots within TAU_MULT of the real axis count as real.

    A^T A + c^T c = I, so the observability Gramian is the identity and no
    power of A has an entry above 1 in magnitude. The observability range
    is the (confluent, for repeated roots) Vandermonde range of the roots
    (De Cock & De Moor 2002). A real root r is the reflection
    [[r, s], [s, -r]], s = sqrt(1 - r^2). A pair r, conj(r) is a normalized
    lattice section (Gray & Markel 1975): the reflection by
    k1 = -2 Re r / (1 + |r|^2) in the plane of its two states times the one
    by k2 = -|r|^2 in the plane of its first state and its input/output.
    Each section reads the output of those before it, so A is lower
    triangular apart from one 2x2 diagonal block per pair.
    """
    # Sorted by imaginary part, a pair's upper root comes first and its
    # partner, of negative imaginary part, among the last: dropping as many
    # of the last as there are pairs keeps one state per root, even where a
    # partner lies within TAU_MULT of the real axis.
    ordered = sorted((complex(r) for r in roots), key=lambda r: -r.imag)
    pairs = sum(r.imag > TAU_MULT for r in ordered)
    n = len(ordered)
    a = np.zeros((n, n))
    c = np.zeros(n)
    start = 0
    for i, r in enumerate(ordered[: n - pairs]):
        if i < pairs:
            k1, k2 = -2.0 * r.real / (1.0 + abs(r) ** 2), -abs(r) ** 2
            s1, s2 = math.sqrt(1.0 - k1 * k1), math.sqrt(1.0 - k2 * k2)
            section = np.array([[k1 * k2, s1, k1 * s2], [s1 * k2, -k1, s1 * s2], [s2, 0.0, -k2]])
        else:
            s = math.sqrt(1.0 - r.real**2)
            section = np.array([[r.real, s], [s, -r.real]])
        # States first, the section's input/output last.
        end = start + len(section) - 1
        a[start:end, :start] = np.outer(section[:-1, -1], c[:start])
        a[start:end, start:end] = section[:-1, :-1]
        c[:start] *= section[-1, -1]
        c[start:end] = section[-1, :-1]
        start = end
    return a, c


def solve_stein(left: np.ndarray, right: np.ndarray, const: np.ndarray) -> np.ndarray:
    """X with X = left @ X @ right + const, for ``right`` lower triangular
    apart from 2x2 diagonal blocks (marked by a nonzero entry just above the
    diagonal) and every product of an eigenvalue of ``left`` with one of
    ``right`` off 1.

    Column block J of X depends only on the blocks after it, so the blocks
    are solved one at a time from the last, each as one dense system of
    order n or 2n: at most m solves in O(n^2 + nm) memory, where the
    nm x nm system of the whole equation takes O(n^2 m^2).
    """
    n, m = const.shape
    x = np.zeros(const.shape, dtype=np.result_type(left, right, const))
    stop = m
    while stop:
        start = stop - 2 if stop > 1 and right[stop - 2, stop - 1] != 0 else stop - 1
        block = right[start:stop, start:stop]
        rhs = const[:, start:stop] + left @ (x[:, stop:] @ right[stop:, start:stop])
        # Column-major vec(left @ X_J @ block) = kron(block^T, left) vec(X_J).
        system = np.eye(n * len(block)) - np.kron(block.T, left)
        x[:, start:stop] = np.linalg.solve(system, rhs.T.ravel()).reshape(-1, n).T
        stop = start
    return x


def state_space_from_roots(zpk: ZeroPoleGain) -> StateSpaceModel:
    """The output-normal realization of a root-form model whose poles lie
    inside the unit circle: the only realization of roots in the package.

    (A, C) is ``output_normal`` of the poles, so no power of A has an entry
    above 1 and ``simulate`` keeps whole blocks; D is the gain. B carries
    the zeros. The cascade of first-order sections (z - z_i) / (z - p_i),
    with the zeros padded by roots at the origin, is realized as (F, 1, h, 1):
    F lower triangular with the poles on its diagonal, and the input
    entering every state. The cross Gramian X = A^T X F + C^T h maps its
    Markov parameters onto the pole range, which holds them, so
    B = gain * Re(X 1). Raises ``UnstableSimulation`` for a pole outside the
    circle, where no output-normal form exists, and ``ValidationError`` for
    more zeros than poles.
    """
    poles = np.asarray(zpk.poles, dtype=complex)
    p, q = len(zpk.poles), len(zpk.zeros)
    if q > p:
        raise ValidationError(
            f"cannot realize {q} zeros with only {p} poles; add poles or drop zeros"
        )
    if zpk.unstable_poles:
        raise UnstableSimulation(
            f"pole {zpk.unstable_poles[0]} lies outside the unit circle; "
            "a model with an unstable pole has no output-normal realization"
        )
    a, c = output_normal(zpk.poles)
    step = poles - np.concatenate([zpk.zeros, np.zeros(p - q)])
    sections = np.diag(poles) + np.tril(np.broadcast_to(step, (p, p)), -1)
    cross = solve_stein(a.T, sections, np.outer(c, step))
    return StateSpaceModel(a, zpk.gain * cross.sum(axis=1).real, c, zpk.gain)


def spectral_radius(model: StateSpaceModel) -> float:
    if model.order == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(model.A))))


def frequency_response(zpk: ZeroPoleGain, grid: np.ndarray) -> np.ndarray:
    """Evaluate H on the unit circle at angular frequencies in [0, 2*pi)."""
    w = _to_vector(grid, "grid")
    if np.any(w < 0.0) or np.any(w >= 2.0 * np.pi):
        raise ValidationError("frequency grid points must lie in [0, 2*pi)")
    zinv = np.exp(-1j * w)
    num = np.full(w.shape, zpk.gain, dtype=complex)
    for z in zpk.zeros:
        num *= 1.0 - z * zinv
    den = np.ones(w.shape, dtype=complex)
    for p in zpk.poles:
        den *= 1.0 - p * zinv
    return num / den


def example_systems() -> dict[str, ZeroPoleGain]:
    """Three third-order demo systems: one of each phase type.

    The maximum phase and mixed entries are built by inverting roots of the
    minimum phase one; an inverted origin zero is approximated by a very
    large real zero.
    """
    far = 1e15
    minimum = ZeroPoleGain(poles=[0.9, 0.7, 0.4], zeros=[0.8, 0.6, 0.0], gain=1.0)
    maximum = ZeroPoleGain(
        poles=[1 / 0.9, 1 / 0.7, 1 / 0.4], zeros=[1 / 0.8, 1 / 0.6, far], gain=1.0
    )
    mixed = ZeroPoleGain(poles=[0.9, 0.7, 1 / 0.4], zeros=[1 / 0.8, 0.6, 0.0], gain=1.0)
    return {"minimum_phase": minimum, "maximum_phase": maximum, "mixed": mixed}


def make_example_signals(damping: float, seed: int) -> tuple[Signal, Signal, Signal]:
    """The three demo signals: damped sine, damped cosine, damped white noise.

    All share a 0.01 s sample period, an 11 s duration, a 10 rad/s carrier
    for the two sinusoids, and the same exponential envelope. Pointwise
    measures see the sine and cosine as far apart (quadrature) while the
    noise sits between them; dynamics-aware measures group the sinusoids.
    """
    if not (0.0 < damping <= 1.0):
        raise ValidationError(f"damping must be in (0, 1], got {damping}")
    dt = 0.01
    t = np.arange(1101) * dt
    envelope = float(damping) ** np.arange(t.size)
    rng = np.random.default_rng(seed)
    sine = Signal(envelope * np.sin(10.0 * t), dt)
    cosine = Signal(envelope * np.cos(10.0 * t), dt)
    noise = Signal(envelope * NOISE_SCALE * rng.standard_normal(t.size), dt)
    return sine, cosine, noise

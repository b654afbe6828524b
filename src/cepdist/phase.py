"""Phase-type classification from complex cepstra.

Roots inside the unit circle only feed the positive quefrencies of the
complex cepstrum, roots outside only the negative ones. Comparing the
energy in the two halves over a short test range therefore reveals whether
the generating system was minimum phase, maximum phase, or mixed, without
identifying the system. Data-driven verdicts use a looser tolerance than
model-derived ones because estimated cepstra carry leakage and noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import KindMismatch, ValidationError
from .lti import Signal, StateSpaceModel, ZeroPoleGain, roots_from_state_space
from .spectral import (
    CepstrumSequence,
    complex_cepstrum_from_zpk,
    transfer_complex_cepstrum_from_io,
)

MINIMUM_PHASE = "MinimumPhaseStable"
MAXIMUM_PHASE = "MaximumPhaseUnstable"
MIXED_PHASE = "Mixed"
INDETERMINATE = "Indeterminate"
VERDICT_KINDS = (MINIMUM_PHASE, MAXIMUM_PHASE, MIXED_PHASE, INDETERMINATE)

# Guards the energy-share comparison when both halves are essentially zero.
_ENERGY_FLOOR = 1e-30


@dataclass(frozen=True)
class PhaseVerdict:
    kind: str
    positive_energy: float
    negative_energy: float
    order_tested: int
    tolerance: float

    @property
    def energy_ratio(self) -> float:
        """Share of the total test energy on the negative-quefrency side."""
        total = self.positive_energy + self.negative_energy
        if total == 0.0:
            return 0.0
        return self.negative_energy / total


def classify(
    cepstrum: CepstrumSequence,
    order: int = RunConfig.K_test,
    tolerance: float = RunConfig.tol_model,
) -> PhaseVerdict:
    """Phase verdict from the two-sided energies of a complex cepstrum.

    A side counts as empty when its energy over lags 1..order is at most
    ``tolerance`` times the total. Both sides empty means the system is
    all-pass-like (possibly a pure gain): indeterminate.
    """
    if cepstrum.kind != "complex":
        raise KindMismatch("phase classification needs a complex cepstrum, not a power one")
    if not (0.0 < tolerance < 1.0):
        raise ValidationError(f"tolerance must lie in (0, 1), got {tolerance}")
    if order < 1 or order > cepstrum.order:
        raise ValidationError(
            f"test order must lie in [1, {cepstrum.order}], got {order}"
        )
    positive_energy = float(np.sum(cepstrum.positive[:order] ** 2))
    negative_energy = float(np.sum(cepstrum.negative[:order] ** 2))
    total = positive_energy + negative_energy
    positive_small = positive_energy <= tolerance * total + _ENERGY_FLOOR
    negative_small = negative_energy <= tolerance * total + _ENERGY_FLOOR
    if positive_small and negative_small:
        kind = INDETERMINATE
    elif negative_small:
        kind = MINIMUM_PHASE
    elif positive_small:
        kind = MAXIMUM_PHASE
    else:
        kind = MIXED_PHASE
    return PhaseVerdict(kind, positive_energy, negative_energy, order, tolerance)


def classify_from_io(
    input_signal: Signal, output_signal: Signal, config: RunConfig
) -> PhaseVerdict:
    """Phase verdict for the system behind one input/output record, from
    ``K_test`` lags of its ``transfer_complex_cepstrum_from_io``."""
    cepstrum = transfer_complex_cepstrum_from_io(input_signal, output_signal, config, config.K_test)
    return classify(cepstrum, config.K_test, config.tol_estimated)


def classify_from_model(
    model: ZeroPoleGain | StateSpaceModel, config: RunConfig
) -> PhaseVerdict:
    """Phase verdict for a known model, at the tight model tolerance."""
    zpk = roots_from_state_space(model) if isinstance(model, StateSpaceModel) else model
    cepstrum = complex_cepstrum_from_zpk(zpk, config.K_test)
    return classify(cepstrum, config.K_test, config.tol_model)

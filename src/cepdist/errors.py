"""Exception hierarchy shared by the library and the command-line tool.

Every error carries a process exit code so the CLI can translate failures
uniformly: 2 for invalid input, 3 for a tolerance or convergence failure,
4 for a refusal by one of the phase gates.
"""

from contextlib import contextmanager

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_PHASE_GATE = 4


class CepdistError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_VALIDATION


class ValidationError(CepdistError):
    """Malformed input: bad shapes, bad values, bad file contents."""

    exit_code = EXIT_VALIDATION


class DimensionMismatch(ValidationError):
    """Matrix or vector dimensions are inconsistent."""


class LengthMismatch(ValidationError):
    """Two sequences that must share a length do not."""


class NotInvertible(ValidationError):
    """The model has (numerically) zero feedthrough, so no inverse exists."""


class UnitCircleRoot(ValidationError):
    """A pole or zero sits on or too close to the unit circle."""


class NonSimpleRoot(ValidationError):
    """Two input/output records whose systems share a root.

    A pole of one system equal to a zero of the other leaves their combined
    data span rank deficient: the confluent direction of the repeated root
    is not in the data. Models take repeated roots on every route.
    """


class LogOfNonpositive(ValidationError):
    """A logarithm was requested of a zero or negative spectral value."""


class SpectralNull(ValidationError):
    """A spectrum touches zero, so its logarithm is unusable."""


class RankDeficient(ValidationError):
    """A matrix has lower rank than the operation requires."""


class InsufficientData(ValidationError):
    """The signal is too short for the requested block sizes."""


class KindMismatch(ValidationError):
    """Mixing cepstrum sequences of different kinds (power vs complex)."""


class SimulationOverflow(ValidationError):
    """State or output left the representable range during simulation."""


class ConfigError(ValidationError):
    """Unknown configuration key or a value of the wrong type or range."""


class ToleranceViolation(CepdistError):
    """A numerical check failed at its stated tolerance."""

    exit_code = EXIT_TOLERANCE


class ConvergenceNotReached(ToleranceViolation):
    """A truncated computation did not settle at the requested tolerance."""


class PhaseGateRefusal(CepdistError):
    """An operation declined to run because of the phase content of its input."""

    exit_code = EXIT_PHASE_GATE


class MixedPhaseUnsupported(PhaseGateRefusal):
    """The subspace route requires a purely minimum or purely maximum phase model."""


class UnstableSimulation(PhaseGateRefusal):
    """Time-domain simulation refused for a model with unstable poles."""


@contextmanager
def naming(path: str):
    """Prefix a refusal raised inside with the name of its file, as every
    refusal of a file's contents is. Wrap the work on the contents, not the
    opening of the file, whose refusals name it in their own words."""
    try:
        yield
    except CepdistError as exc:
        raise type(exc)(f"{path}: {exc}") from exc

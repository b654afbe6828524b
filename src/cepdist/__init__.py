"""Dynamics-aware distances between time series.

The package measures how far apart the linear dynamics behind two signals
are, rather than how far apart the samples sit: weighted cepstral
distances, their closed forms in model roots, the equivalent
subspace-angle norms, phase-type classification, and clustering on top of
the distances. See the README for the mathematical picture and the CLI.
"""

from .cluster import (
    ClusterResult,
    DistanceMatrix,
    agglomerative_cluster,
    distance_matrix,
)
from .config import RunConfig, load_config, parse_config_value
from .errors import (
    CepdistError,
    ConfigError,
    ConvergenceNotReached,
    DimensionMismatch,
    InsufficientData,
    KindMismatch,
    LengthMismatch,
    LogOfNonpositive,
    MixedPhaseUnsupported,
    NonSimpleRoot,
    NotInvertible,
    PhaseGateRefusal,
    RankDeficient,
    SimulationOverflow,
    SpectralNull,
    ToleranceViolation,
    UnitCircleRoot,
    UnstableSimulation,
    ValidationError,
)
from .lti import (
    Signal,
    StateSpaceModel,
    ZeroPoleGain,
    example_systems,
    frequency_response,
    invert,
    make_example_signals,
    roots_from_state_space,
    simulate,
    spectral_radius,
    state_space_from_roots,
)
from .metrics import (
    SignalStats,
    WeightedCepstralResult,
    cascade,
    closed_form_norm,
    cosine_similarity,
    euclidean_distance,
    hs_hankel_norm,
    signal_statistics,
    weighted_cepstral_distance,
    weighted_cepstral_norm,
)
from .phase import (
    INDETERMINATE,
    MAXIMUM_PHASE,
    MINIMUM_PHASE,
    MIXED_PHASE,
    PhaseVerdict,
    classify,
    classify_from_io,
    classify_from_model,
)
from .sigio import (
    canonical_json,
    format_cepstrum_csv,
    format_matrix_csv,
    format_pair_csv,
    format_signal_csv,
    pair_csv_rows,
    read_model_json,
    read_signal_csv,
)
from .spectral import (
    CepstrumSequence,
    complex_cepstrum,
    complex_cepstrum_from_response,
    complex_cepstrum_from_zpk,
    estimate_spectrum,
    power_cepstrum_from_psd,
    power_cepstrum_from_zpk,
    power_cepstrum_of_signal,
    transfer_cepstrum_from_io,
    transfer_complex_cepstrum_from_io,
)
from .subspace import (
    projected_bases,
    subspace_distance_between_models,
    subspace_distance_from_bases,
    subspace_distance_from_data,
    subspace_norm_from_data,
    subspace_norm_from_model,
)
from .verify import run_verify

__version__ = "0.1.0"

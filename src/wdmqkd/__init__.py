"""Polarization-entangled pair-source model for wavelength-multiplexed QKD.

The package models a down-conversion source whose two-photon polarization
state varies across its emission spectrum, and provides the analysis chain
used to characterize such a source: analytic coincidence statistics and
fringe peaks, Monte Carlo polarizer scans with Poisson counting noise,
weighted sinusoid fits, CHSH optimization, and per-channel BBM92 key rates
with multiplexed totals.
"""

from .biphoton import (
    BiphotonPureState,
    JointOutcomeDistribution,
    MeasurementSetting,
    PairState,
    ProductState,
    coincidence_probability,
    coincidence_probabilities,
    correlation_E,
    joint_outcome_distribution,
    rate_expanded,
)
from .config import (
    ConfigError,
    RunConfig,
    SourceConfig,
    config_to_dict,
    default_run_config,
    load_config,
    loads_config,
    source_channels,
)
from .correlation import (
    ChshSettings,
    FEstimate,
    ShiftEntry,
    ThetaMaxResult,
    chsh_optimize,
    chsh_value,
    estimate_f,
    find_theta_max,
    scan_coefficients,
    shift_table,
    signed_angle_difference,
    visibility,
)
from .detection import (
    DetectionConfig,
    ScanData,
    angle_stream_key,
    derive_stream,
    expected_mean,
    scan_to_csv,
    simulate_scan,
    simulate_scans,
)
from .qkd import (
    ChannelKeyReport,
    ProtocolConfig,
    WdmSummary,
    binary_entropy,
    derive_flips,
    report_to_dict,
    reports_to_csv,
    run_bbm92,
    secret_fraction,
    wdm_aggregate,
)
from .scanfit import (
    FitResult,
    ScanMetrics,
    fit_result_to_dict,
    fit_scan,
    fit_scans,
    fit_sinusoid,
    scan_metrics,
)
from .spectral import (
    DEFAULT_CHANNEL_COUNT,
    DEFAULT_CHANNEL_RANGE_NM,
    DEFAULT_PUMP_NM,
    RATIO_CONVENTIONS,
    SpectralChannel,
    SpectralProfile,
    TabulatedSpectrum,
    build_channels,
    build_channels_from_table,
    channel_state,
    default_profiles,
    idler_wavelength,
)

__version__ = "0.1.0"

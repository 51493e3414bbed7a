"""Velocity estimation bounds for large-aperture array radar.

Core objects are re-exported here; the experiment sweeps live in
:mod:`nfvel.experiments` and the command-line front end in :mod:`nfvel.cli`.
"""

from .bounds import (
    CrlbResult,
    FisherInfo,
    closed_form_bounds,
    crlb_from_fisher,
    crossover_distance,
    fisher_info_closed_form,
    fisher_info_numeric,
    radial_crlb_far_field,
    radial_info_boresight,
    transverse_info_boresight,
    transverse_info_boresight_approx,
    transverse_info_half_wavelength,
)
from .constants import BOLTZMANN_CONSTANT, REFERENCE_TEMPERATURE, SPEED_OF_LIGHT
from .estimator import (
    MatchedFilter,
    MlSearchConfig,
    MonteCarloReport,
    Scenario,
    VelocityEstimate,
    ml_estimate,
    monte_carlo_mse,
    monte_carlo_reports,
)
from .geometry import (
    ArrayGeometry,
    DegenerateGeometryError,
    TargetState,
    distance_to_element,
    element_distances,
    radial_projection_coeff,
    radial_projection_coeffs,
    symmetric_index_grid,
    transverse_projection_coeff,
    transverse_projection_coeffs,
)
from .waveform import (
    ChannelNoise,
    ObservationCube,
    WaveformConfig,
    add_noise,
    doppler_shifts,
    round_trip_delays,
    snr_from_link_budget,
    subcarrier_frequencies,
    synthesize_noise_free,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "BOLTZMANN_CONSTANT",
    "ChannelNoise",
    "CrlbResult",
    "DegenerateGeometryError",
    "FisherInfo",
    "MatchedFilter",
    "MlSearchConfig",
    "MonteCarloReport",
    "ObservationCube",
    "REFERENCE_TEMPERATURE",
    "SPEED_OF_LIGHT",
    "Scenario",
    "TargetState",
    "VelocityEstimate",
    "WaveformConfig",
    "add_noise",
    "closed_form_bounds",
    "crlb_from_fisher",
    "crossover_distance",
    "distance_to_element",
    "doppler_shifts",
    "element_distances",
    "fisher_info_closed_form",
    "fisher_info_numeric",
    "ml_estimate",
    "monte_carlo_mse",
    "monte_carlo_reports",
    "radial_crlb_far_field",
    "radial_info_boresight",
    "radial_projection_coeff",
    "radial_projection_coeffs",
    "round_trip_delays",
    "snr_from_link_budget",
    "subcarrier_frequencies",
    "symmetric_index_grid",
    "synthesize_noise_free",
    "transverse_info_boresight",
    "transverse_info_boresight_approx",
    "transverse_info_half_wavelength",
    "transverse_projection_coeff",
    "transverse_projection_coeffs",
    "__version__",
]

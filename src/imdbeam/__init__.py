"""Line-spectrum simulator for beamformed intermodulation distortion in
multi-antenna transmitters.

A memoryless polynomial device fed with a steered multi-tone produces
distortion lines whose per-antenna phases are deterministic functions of the
steering phases, so the distortion is correlated across antennas and is
beamformed: into the steered direction for single-user beamforming, into
distinct closed-form directions for multi-user beamforming.  The package
computes this exactly on an integer frequency grid and contrasts it with the
independent-per-antenna distortion-noise model, which radiates flat.
"""

__version__ = "0.28.0"

from .array import (
    ArrayGeometry,
    DistortionDirections,
    Pattern,
    SteeringAssignment,
    delay_to_angle,
    distortion_delays,
    far_field_receive,
    fold_delay,
    pattern_sweep,
    steer_tones,
    transmit,
)
from .baseline import (
    NoiseModelConfig,
    independent_noise_transmit,
    matched_noise_config,
    mean_pattern,
    uniform_phase,
)
from .errors import (
    AliasingError,
    ConfigError,
    DegenerateFrequencyPlanError,
    GridMismatchError,
    GridRangeError,
    LeakageError,
    MissingLineError,
)
from .metrics import MetricsReport, array_gain, port_vs_ota_report
from .nonlinearity import (
    BandDefinition,
    PolynomialNonlinearity,
    apply_polynomial,
    band_filter,
)
from .spectra import (
    PRUNE_THRESHOLD,
    ArraySignal,
    FrequencyGrid,
    LineSpectrum,
    SampledWaveform,
    estimate_lines,
    sample_waveform,
    tone,
)

__all__ = [
    "__version__",
    "AliasingError",
    "ArrayGeometry",
    "ArraySignal",
    "BandDefinition",
    "ConfigError",
    "DegenerateFrequencyPlanError",
    "DistortionDirections",
    "FrequencyGrid",
    "GridMismatchError",
    "GridRangeError",
    "LeakageError",
    "LineSpectrum",
    "MetricsReport",
    "MissingLineError",
    "NoiseModelConfig",
    "Pattern",
    "PolynomialNonlinearity",
    "PRUNE_THRESHOLD",
    "SampledWaveform",
    "SteeringAssignment",
    "apply_polynomial",
    "array_gain",
    "band_filter",
    "delay_to_angle",
    "distortion_delays",
    "estimate_lines",
    "far_field_receive",
    "fold_delay",
    "independent_noise_transmit",
    "matched_noise_config",
    "mean_pattern",
    "pattern_sweep",
    "port_vs_ota_report",
    "sample_waveform",
    "steer_tones",
    "tone",
    "transmit",
    "uniform_phase",
]

"""The stable public interface: the names ``imdbeam`` exports and the nested
key layout of ``report.json``."""

import json

import numpy as np

import imdbeam
from imdbeam.cli import main

# the scenario config shown in the README, without its output_dir
README_CONFIG = {
    "grid": {"base_rate": 2 * np.pi, "max_index": 64},
    "tones": [
        {"index": 9, "amplitude": 1.0, "phase": 0.0},
        {"index": 11, "amplitude": 1.0, "phase": 0.0},
    ],
    "targets": [{"index": 9, "tau": 0.2}, {"index": 11, "tau": 0.3}],
    "geometry": {"num_antennas": 2, "element_delay": 0.5},
    "nonlinearity": {"coefficients": [1.0, 0.0, 0.1]},
    "band": {"in_band": [8, 12], "adjacent_width": 4},
    "sweep_points": 1024,
    "seed": 1234,
    "baseline": {"trials": 10000},
}

PUBLIC_NAMES = [
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
    "ModelContrast",
    "NoiseModelConfig",
    "Pattern",
    "PolynomialNonlinearity",
    "PRUNE_THRESHOLD",
    "SampledWaveform",
    "SteeringAssignment",
    "aclr",
    "add",
    "apply_polynomial",
    "array_gain",
    "band_filter",
    "delay_to_angle",
    "distortion_delays",
    "distortion_terms_near_band",
    "estimate_lines",
    "evm",
    "far_field_receive",
    "fold_delay",
    "independent_noise_transmit",
    "matched_noise_config",
    "mean_pattern",
    "model_contrast_report",
    "pattern_sweep",
    "port_vs_ota_report",
    "sample_waveform",
    "steer_tones",
    "tone",
    "transmit",
    "two_tone_third_order_terms",
    "uniform_phase",
]

# Leaves are None; a list holds the layout shared by all of its elements.
PATTERN_SUMMARY = {
    key: None
    for key in (
        "contrast", "csv", "freq_index", "mean_power", "multi_peaked", "peak_gain",
        "peak_power", "peak_tau", "points", "tau_start", "tau_stop",
    )
} | {"peak_taus": [None]}
METRICS = {"aclr_lower_db": None, "aclr_upper_db": None, "evm": None, "location": None}
PRODUCT = {"line_index": None, "modulus": None, "tau": None}
REPORT_LAYOUT = {
    "baseline": {
        "contrast": [
            {
                key: None
                for key in (
                    "baseline_contrast", "baseline_directive", "baseline_flatness",
                    "baseline_peak_tau", "behavioral_contrast", "behavioral_directive",
                    "behavioral_flatness", "behavioral_peak_tau", "freq_index", "note",
                    "peak_power_ratio",
                )
            }
        ],
        "line_indices": [None],
        "patterns": [PATTERN_SUMMARY],
        "per_antenna_line_power": None,
        "seed": None,
        "trials": None,
    },
    "config": {
        "band": {
            "adjacent_lower": [None],
            "adjacent_upper": [None],
            "in_band": [None],
            "keep_window": [None],
        },
        "baseline": {"line_indices": None, "trials": None},
        "geometry": {"element_delay": None, "num_antennas": None},
        "grid": {"base_rate": None, "max_index": None},
        "nonlinearity": {"coefficients": [None]},
        "seed": None,
        "sweep_points": None,
        "targets": [{"index": None, "tau": None}],
        "tones": [{"amplitude": None, "index": None, "phase": None}],
    },
    "directions": [
        METRICS
        | {
            "array_gain_by_line": {"7": None, "9": None, "11": None, "13": None},
            "kind": None,
            "tau": None,
        }
    ],
    "distortion_directions": {"lower": PRODUCT, "upper": PRODUCT},
    "notes": [],
    "patterns": [PATTERN_SUMMARY],
    "ports": [METRICS],
    "provenance": {"config_sha256": None, "seed": None, "version": None},
    "steering": {
        "amplitudes": [None],
        "phases": [[None]],
        "targets": [None],
        "tone_indices": [None],
    },
}


def layout(doc):
    if isinstance(doc, dict):
        return {key: layout(value) for key, value in doc.items()}
    if isinstance(doc, list):
        shapes = [layout(value) for value in doc]
        assert all(s == shapes[0] for s in shapes)
        return shapes[:1]
    return None


def test_public_names():
    assert imdbeam.__all__ == PUBLIC_NAMES
    assert all(hasattr(imdbeam, name) for name in PUBLIC_NAMES)


def test_report_key_layout_of_readme_config(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(README_CONFIG))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert layout(report) == REPORT_LAYOUT

"""The stable public interface: the names ``imdbeam`` exports and the nested
key layout of ``report.json``."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import imdbeam
from imdbeam import (
    ArrayGeometry,
    BandDefinition,
    FrequencyGrid,
    NoiseModelConfig,
    PolynomialNonlinearity,
)
from imdbeam.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

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

# Leaves are None; a list holds the layout shared by all of its elements.
PATTERN_SUMMARY = {
    key: None
    for key in (
        "contrast", "csv", "flatness", "freq_index", "mean_power", "multi_peaked",
        "peak_gain", "peak_power", "peak_tau", "points", "tau_start", "tau_stop",
    )
} | {"peak_taus": [None]}
METRICS = {"aclr_lower_db": None, "aclr_upper_db": None, "evm": None}
PRODUCT = {"line_index": None, "modulus": None, "tau": None}
REPORT_LAYOUT = {
    "baseline": {
        "line_indices": [None],
        "patterns": [PATTERN_SUMMARY],
        "per_antenna_line_power": None,
        "seed": None,
        "trials": None,
    },
    "config": {
        "band": {
            "adjacent_width": None,
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
        "base_phases": [None],
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


# library records built with a field that is not a whole or not a finite
# number: a bool, NaN or infinity where an integer belongs, or a non-finite float
BAD_FIELDS = [
    (BandDefinition, ((8, math.inf), 4), "in_band"),
    (BandDefinition, ((True, 12), 1), "in_band"),
    (BandDefinition, ((8, 12), 4, (0, math.inf)), "keep_window"),
    (BandDefinition, ((8, 12), math.nan), "adjacent_width"),
    (BandDefinition, ((8, 12), math.inf), "adjacent_width"),
    (BandDefinition, ((8, 12), True), "adjacent_width"),
    (ArrayGeometry, (math.inf, 0.5), "num_antennas"),
    (ArrayGeometry, (math.nan, 0.5), "num_antennas"),
    (ArrayGeometry, (True, 0.5), "num_antennas"),
    (ArrayGeometry, (4, math.inf), "element_delay"),
    (ArrayGeometry, (4, math.nan), "element_delay"),
    (FrequencyGrid, (1.0, math.inf), "max_index"),
    (FrequencyGrid, (1.0, True), "max_index"),
    (FrequencyGrid, (math.inf, 10), "base_rate"),
    (FrequencyGrid, (math.nan, 10), "base_rate"),
    # line indices are int64, and a device needs a usable coefficient
    (FrequencyGrid, (1.0, 2**63), "max_index"),
    (PolynomialNonlinearity, ((0.0, 0.0),), "coefficients"),
    (PolynomialNonlinearity, ((1.0,) * 10,), "coefficients"),
    (NoiseModelConfig, ((math.inf,), 1.0, 10, 0), "distortion_line_indices"),
    (NoiseModelConfig, ((7.5,), 1.0, 10, 0), "distortion_line_indices"),
    (NoiseModelConfig, ((7,), math.nan, 10, 0), "per_antenna_line_power"),
    (NoiseModelConfig, ((7,), math.inf, 10, 0), "per_antenna_line_power"),
    (NoiseModelConfig, ((7,), 1.0, math.inf, 0), "trials"),
    (NoiseModelConfig, ((7,), 1.0, True, 0), "trials"),
    (NoiseModelConfig, ((7,), 1.0, 10, math.nan), "seed"),
    (NoiseModelConfig, ((7,), 1.0, 10, 0.5), "seed"),
]


@pytest.mark.parametrize(
    "record, args, field", BAD_FIELDS, ids=[f"{r.__name__}{a}" for r, a, _ in BAD_FIELDS]
)
def test_record_rejects_a_bad_field_by_name(record, args, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        record(*args)


def test_report_key_layout_of_readme_config(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(README_CONFIG))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert layout(report) == REPORT_LAYOUT


# the README config, and two users with unequal amplitudes, nonzero phases
# and targets listed in the other order
MULTI_USER_CONFIG = {
    key: value for key, value in README_CONFIG.items() if key != "baseline"
} | {
    "tones": [
        {"index": 9, "amplitude": 1.0, "phase": 0.7},
        {"index": 11, "amplitude": 0.25, "phase": -2.1},
    ],
    "targets": [{"index": 11, "tau": -0.15}, {"index": 9, "tau": 0.35}],
    "sweep_points": 64,
}


@pytest.mark.parametrize("doc", [README_CONFIG, MULTI_USER_CONFIG], ids=["readme", "multi_user"])
def test_report_steering_is_the_config_tone_plan(tmp_path, doc):
    # per tone and in tone order, each target by its tone's index
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    steering = json.loads((tmp_path / "out" / "report.json").read_text())["steering"]
    tau = {t["index"]: t["tau"] for t in doc["targets"]}
    assert steering == {
        "tone_indices": [t["index"] for t in doc["tones"]],
        "amplitudes": [t["amplitude"] for t in doc["tones"]],
        "base_phases": [t["phase"] for t in doc["tones"]],
        "targets": [tau[t["index"]] for t in doc["tones"]],
    }


def test_report_and_compare_keys_in_string_order(tmp_path):
    # every object's keys sorted as strings, the line indices of
    # array_gain_by_line too: "11" and "13" before "7" and "9"
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    for name in ("report.json", "compare.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    compare = json.loads((out / "compare.json").read_text())
    assert layout(compare) == {k: REPORT_LAYOUT[k] for k in ("baseline", "patterns")}
    directions = json.loads((out / "report.json").read_text())["directions"]
    assert all(set(d["array_gain_by_line"]) == {"7", "9", "11", "13"} for d in directions)


def readme_block(language):
    """The one fenced ``language`` code block of the README."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)
    return block


def test_readme_config_block_is_readme_config():
    config = json.loads(readme_block("json"))
    assert config.pop("output_dir") == "results"
    assert config == README_CONFIG


def test_readme_library_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(readme_block("python"), {})
    gain = float(out.getvalue().splitlines()[-1])
    assert abs(gain - 2.0) <= 1e-9

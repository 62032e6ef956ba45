"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines on
passing runs; tolerances are pinned to the values the criteria state.
"""

from contextlib import contextmanager

import json

import numpy as np
import pytest

from imdbeam import (
    ArrayGeometry,
    BandDefinition,
    FrequencyGrid,
    NoiseModelConfig,
    PolynomialNonlinearity,
    apply_polynomial,
    array_gain,
    band_filter,
    distortion_delays,
    estimate_lines,
    independent_noise_transmit,
    matched_noise_config,
    mean_pattern,
    pattern_sweep,
    port_vs_ota_report,
    sample_waveform,
    steer_tones,
    tone,
    transmit,
)
from imdbeam.cli import config_to_jsonable, main, parse_config
from imdbeam.metrics import _aclr_rows, _evm_rows
from imdbeam.spectra import SampledWaveform

GRID = FrequencyGrid(2 * np.pi, 64)
BAND = BandDefinition((8, 12), 4)

EXPANSION_01 = {9: 1.225, 11: 1.225, 13: 0.075, 7: 0.075,
                31: 0.075, 29: 0.075, 27: 0.025, 33: 0.025}

SU_GEO = ArrayGeometry(2, 1.0 / 26.0)
SU_TAU = 0.01
MU_GEO = ArrayGeometry(2, 0.5)
MU_TAU1, MU_TAU2 = 0.2, 0.3

TRIALS = 10_000
SEED = 20240117


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def unit_two_tone(alpha):
    x = tone(GRID, 1.0, 9) + tone(GRID, 1.0, 11)
    return x, apply_polynomial(x, PolynomialNonlinearity.third_order(alpha))


def single_user_signal(alpha=0.1):
    assignment = steer_tones(GRID, SU_GEO, {9: SU_TAU, 11: SU_TAU})
    return assignment, transmit(assignment, PolynomialNonlinearity.third_order(alpha), BAND)


def multi_user_signal(num_antennas=2):
    geo = ArrayGeometry(num_antennas, 0.5)
    assignment = steer_tones(GRID, geo, {9: MU_TAU1, 11: MU_TAU2})
    return assignment, transmit(assignment, PolynomialNonlinearity.third_order(0.1), BAND), geo


def test_criterion_1_third_order_expansion():
    with criterion(1, "third-order two-tone expansion"):
        x, y = unit_two_tone(0.1)
        assert y.line_indices() == tuple(sorted(EXPANSION_01))
        for k, amp in EXPANSION_01.items():
            assert y.amplitude(k) == pytest.approx(amp, rel=1e-12)
        # independent oracle: pointwise polynomial on coherent samples, DFT
        w = sample_waveform(x, 1, 256)
        f = PolynomialNonlinearity.third_order(0.1)
        est = estimate_lines(SampledWaveform(f.evaluate(w.samples), w.sample_rate), GRID)
        assert est.line_indices() == tuple(sorted(EXPANSION_01))
        for k, amp in EXPANSION_01.items():
            assert est.amplitude(k) == pytest.approx(amp, rel=1e-9)


def test_criterion_2_second_order_null():
    with criterion(2, "second-order near-band null"):
        band = BandDefinition((8, 12), 3)
        x = tone(GRID, 1.0, 9) + tone(GRID, 1.0, 11)
        for alpha in (0.01, 0.1, 0.5):
            y = apply_polynomial(x, PolynomialNonlinearity((1.0, alpha)))
            residual = band_filter(y, band) + x.scaled(-1.0)
            assert residual.total_power() < 1e-24


def test_criterion_3_single_user_co_beamforming():
    with criterion(3, "single-user co-beamformed distortion"):
        assignment, signal = single_user_signal()
        pattern = pattern_sweep(signal, 13, SU_GEO, 1024)
        assert abs(pattern.nearest_peak(SU_TAU) - SU_TAU) <= pattern.taus[1] - pattern.taus[0]
        # gain at the peak direction (the sweep grid only localizes it)
        assert array_gain(signal, 13, SU_TAU) == pytest.approx(2.0, abs=1e-9)
        ports, (receiver,) = port_vs_ota_report(signal, assignment, BAND, [SU_TAU])
        assert receiver.aclr_lower_db == pytest.approx(ports.aclr_lower_db[0], abs=1e-9)
        assert receiver.aclr_upper_db == pytest.approx(ports.aclr_upper_db[0], abs=1e-9)


def test_criterion_4_multi_user_distortion_directions():
    with criterion(4, "multi-user distortion directions"):
        assignment, signal, geo = multi_user_signal()
        dd = distortion_delays(assignment)
        assert dd.upper.tau == pytest.approx(4.8 / 13, rel=1e-12)
        assert dd.lower.tau == pytest.approx(3.0 / 70, rel=1e-12)
        for k, tau in ((13, dd.upper.tau), (7, dd.lower.tau)):
            pattern = pattern_sweep(signal, k, geo, 1024)
            assert abs(pattern.nearest_peak(tau) - tau) <= pattern.taus[1] - pattern.taus[0]
            for user_tau in (MU_TAU1, MU_TAU2):
                assert array_gain(signal, k, user_tau) <= 2.0 - 0.1


def test_criterion_5_full_array_gain_at_user_directions():
    with criterion(5, "full array gain at the user directions"):
        for m in (2, 4, 8):
            _, signal, _ = multi_user_signal(m)
            assert array_gain(signal, 9, MU_TAU1) == pytest.approx(m, abs=1e-9)
            assert array_gain(signal, 11, MU_TAU2) == pytest.approx(m, abs=1e-9)
        _, signal, _ = multi_user_signal(2)
        gain_db = 10 * np.log10(array_gain(signal, 9, MU_TAU1))
        assert gain_db == pytest.approx(3.0103, abs=1e-3)


def test_criterion_6_aclr_and_evm_arithmetic():
    with criterion(6, "ACLR and EVM arithmetic"):
        _, y_small = unit_two_tone(0.01)
        _, (upper,) = _aclr_rows(y_small.support, y_small.phasors, BAND)
        assert upper == pytest.approx(10 * np.log10(5.625e-5 / 2 / 1.04550625), abs=0.01)
        # the unit two-tone input is the EVM reference
        x, y = unit_two_tone(0.1)
        wide = BandDefinition((7, 13), 4)
        (value,) = _evm_rows(y.support, y.phasors, x.support, x.phasors, wide)
        assert value == pytest.approx(0.075 / 1.225, rel=1e-9)


def test_criterion_7_independent_noise_contrast():
    with criterion(7, "independent-noise model contrast"):
        assignment, signal = single_user_signal()
        desired = transmit(assignment, PolynomialNonlinearity((1.0,)), BAND)
        cfg = matched_noise_config(signal, (13, 7), TRIALS, SEED)
        baseline = mean_pattern(cfg, desired, SU_GEO, 13, 1024)
        assert abs(baseline.contrast - 1.0) <= 0.1
        behavioral = pattern_sweep(signal, 13, SU_GEO, 1024)
        assert behavioral.contrast >= 1.9
        noisy = independent_noise_transmit(desired, cfg, 0)
        for m in range(2):
            for k in (13, 7):
                assert noisy.per_antenna[m].line_powers(k)[0] == pytest.approx(
                    signal.per_antenna[m].line_powers(k)[0], rel=1e-9
                )


def test_criterion_8_determinism_and_round_trips(tmp_path):
    with criterion(8, "determinism and round trips"):
        # identical (config, seed) -> byte-identical outputs
        doc = {
            "grid": {"base_rate": 2 * np.pi, "max_index": 64},
            "tones": [
                {"index": 9, "amplitude": 1.0, "phase": 0.0},
                {"index": 11, "amplitude": 1.0, "phase": 0.0},
            ],
            "targets": [{"index": 9, "tau": MU_TAU1}, {"index": 11, "tau": MU_TAU2}],
            "geometry": {"num_antennas": 2, "element_delay": 0.5},
            "nonlinearity": {"coefficients": [1.0, 0.0, 0.1]},
            "band": {"in_band": [8, 12], "adjacent_width": 4},
            "sweep_points": 256,
            "seed": SEED,
            "baseline": {"trials": 1000},
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        for out in ("a", "b"):
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
        for name in (
            "report.json",
            "pattern_9.csv",
            "pattern_13.csv",
            "pattern_13_baseline.csv",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

        # spectra survive the sampling / DFT round trip
        cfg = parse_config(cfg_path.read_text())
        _, signal, _ = multi_user_signal()
        for spec in signal.per_antenna:
            est = estimate_lines(sample_waveform(spec, 1, 256), GRID)
            assert est.allclose(spec, rtol=1e-9)
        assert parse_config(json.dumps(config_to_jsonable(cfg))) == cfg

        # a rerun of the Monte Carlo baseline matches the first run bit-exactly
        assignment, behavioral = single_user_signal()
        desired = transmit(assignment, PolynomialNonlinearity((1.0,)), BAND)
        ncfg = matched_noise_config(behavioral, (13, 7), TRIALS, SEED)
        first = mean_pattern(ncfg, desired, SU_GEO, 13, 1024)
        second = mean_pattern(ncfg, desired, SU_GEO, 13, 1024)
        assert np.array_equal(first.powers, second.powers)
        assert first.peak_tau == second.peak_tau

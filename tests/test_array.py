"""Steering, transmit chain, far-field reception, pattern sweeps, and the
closed-form distortion directions, cross-checked against a delayed
time-domain oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imdbeam import (
    ArrayGeometry,
    ArraySignal,
    BandDefinition,
    DegenerateFrequencyPlanError,
    FrequencyGrid,
    GridMismatchError,
    LineSpectrum,
    MissingLineError,
    PolynomialNonlinearity,
    SteeringAssignment,
    array_gain,
    band_filter,
    delay_to_angle,
    distortion_delays,
    estimate_lines,
    far_field_receive,
    fold_delay,
    pattern_sweep,
    sample_waveform,
    steer_tones,
    tone,
    transmit,
)
from imdbeam.spectra import SampledWaveform

GRID = FrequencyGrid(2 * np.pi, 64)
BAND = BandDefinition.around((8, 12), 4)
CUBIC = PolynomialNonlinearity.third_order(0.1)

# worked multi-user plan: tones (9, 11) steered at 0.2 s and 0.3 s
GEO_MU = ArrayGeometry(2, 0.5)
TAU1, TAU2 = 0.2, 0.3

# single-user plan: grating-lobe-free spacing, both tones at 0.01 s
GEO_SU = ArrayGeometry(2, 1.0 / 26.0)
TAU_SU = 0.01


def multi_user_signal(num_antennas=2):
    geo = ArrayGeometry(num_antennas, 0.5)
    assignment = steer_tones(GRID, geo, {9: TAU1, 11: TAU2})
    return assignment, transmit(assignment, CUBIC, BAND), geo


def single_user_signal():
    assignment = steer_tones(GRID, GEO_SU, {9: TAU_SU, 11: TAU_SU})
    return assignment, transmit(assignment, CUBIC, BAND)


class TestArrayGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0, 0.1)
        with pytest.raises(ValueError):
            ArrayGeometry(2, 0.0)

    def test_grating_lobe_flag(self):
        geo = ArrayGeometry(2, 1.0 / 26.0)
        assert geo.grating_lobe_free(GRID.omega(12))
        assert geo.grating_lobe_free(GRID.omega(13))  # exactly half wavelength
        assert not geo.grating_lobe_free(GRID.omega(14))


class TestSteerTones:
    def test_single_antenna_keeps_base_phases(self):
        a = steer_tones(
            GRID, ArrayGeometry(1, 0.1), {9: 0.02, 11: 0.02},
            base_phases={9: 0.3, 11: -0.4},
        )
        assert a.phases == ((0.3, pytest.approx(-0.4 % (2 * np.pi))),)

    def test_single_user_phase_leads(self):
        a = steer_tones(GRID, GEO_SU, {9: TAU_SU, 11: TAU_SU})
        lead1 = (a.phases[1][0] - a.phases[0][0]) % (2 * np.pi)
        lead2 = (a.phases[1][1] - a.phases[0][1]) % (2 * np.pi)
        assert lead1 == pytest.approx(2 * np.pi * 0.09, rel=1e-12)
        assert lead2 == pytest.approx(2 * np.pi * 0.11, rel=1e-12)

    def test_multi_user_phase_leads_reduced(self):
        a = steer_tones(GRID, GEO_MU, {9: TAU1, 11: TAU2})
        lead1 = (a.phases[1][0] - a.phases[0][0]) % (2 * np.pi)
        lead2 = (a.phases[1][1] - a.phases[0][1]) % (2 * np.pi)
        assert lead1 == pytest.approx(1.6 * np.pi, rel=1e-12)
        assert lead2 == pytest.approx(0.6 * np.pi, rel=1e-12)

    def test_targets_recorded_in_tone_order(self):
        a = steer_tones(GRID, GEO_MU, {11: TAU2, 9: TAU1})
        assert a.tone_indices == (9, 11)
        assert a.targets == (TAU1, TAU2)

    def test_off_grid_tone_rejected(self):
        with pytest.raises(ValueError):
            steer_tones(GRID, GEO_MU, {9: 0.1, 65: 0.1})

    def test_antenna_spectrum(self):
        a = steer_tones(GRID, GEO_MU, {9: TAU1, 11: TAU2}, amplitudes={9: 2.0, 11: 0.5})
        s = a.antenna_spectrum(1)
        assert s.amplitude(9) == pytest.approx(2.0)
        assert s.amplitude(11) == pytest.approx(0.5)
        assert s.phase(9) % (2 * np.pi) == pytest.approx(a.phases[1][0], rel=1e-12)


class TestTransmit:
    def test_identity_device_returns_steered_tones(self):
        assignment, _, _ = multi_user_signal()
        sig = transmit(assignment, PolynomialNonlinearity.identity(), BAND)
        for m in range(2):
            assert sig.per_antenna[m] == assignment.antenna_spectrum(m)

    def test_port_spectrum_independent_of_steering(self):
        _, sig_mu, _ = multi_user_signal()
        _, sig_su = single_user_signal()
        for k in (7, 9, 11, 13):
            for m in range(2):
                assert sig_mu.per_antenna[m].amplitude(k) == pytest.approx(
                    sig_su.per_antenna[m].amplitude(k), rel=1e-12
                )

    def test_upper_product_phase_lead(self):
        assignment, sig, _ = multi_user_signal()
        (p11, p12), (p21, p22) = assignment.phases
        expected = ((2 * p22 - p21) - (2 * p12 - p11)) % (2 * np.pi)
        lead = (sig.per_antenna[1].phase(13) - sig.per_antenna[0].phase(13)) % (2 * np.pi)
        assert lead == pytest.approx(expected, rel=1e-9)


class TestArraySignal:
    def test_grid_mismatch_rejected(self):
        other = FrequencyGrid(1.0, 64)
        with pytest.raises(GridMismatchError):
            ArraySignal((tone(GRID, 1.0, 9), tone(other, 1.0, 9)))

    def test_indices_and_coefficients(self):
        _, sig, _ = multi_user_signal()
        assert sig.line_indices() == (7, 9, 11, 13)
        assert sig.has_line(13) and not sig.has_line(14)
        assert sig.coefficients(13).shape == (2,)
        assert sig.port_line_power_total(9) == pytest.approx(2 * 1.225**2 / 2, rel=1e-12)

    def test_union_support_and_rows(self):
        a = tone(GRID, 1.0, 9, 0.3)
        b = tone(GRID, 0.5, 11, -0.2) + LineSpectrum(GRID, {0: 0.25})
        sig = ArraySignal((a, b))
        assert sig.line_indices() == (0, 9, 11)
        assert sig.phasors.shape == (2, 3)
        assert sig.per_antenna == (a, b)
        assert sig.coefficients(-9)[0] == a.coefficient(-9)
        assert sig.coefficients(11)[0] == 0j and not sig.has_line(10)
        assert sig.port_line_power_total(0) == b.line_power(0)


@st.composite
def transmit_plans(draw):
    """Random two-tone plan, device of degree <= 9 and array of M <= 8."""
    k1 = draw(st.integers(1, 12))
    k2 = k1 + draw(st.integers(1, 8))
    coefficients = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9))
    assume(any(abs(a) > 1e-3 for a in coefficients))
    width = draw(st.integers(1, k1))
    max_index = max(len(coefficients) * k2, k2 + width) + draw(st.integers(0, 5))
    grid = FrequencyGrid(2 * np.pi, max_index)
    geo = ArrayGeometry(draw(st.integers(1, 8)), draw(st.floats(0.01, 0.5)))
    tau = st.floats(-geo.element_delay, geo.element_delay)
    assignment = steer_tones(
        grid,
        geo,
        {k1: draw(tau), k2: draw(tau)},
        base_phases={k1: draw(st.floats(-np.pi, np.pi)), k2: draw(st.floats(-np.pi, np.pi))},
        amplitudes={k1: draw(st.floats(0.1, 1.5)), k2: draw(st.floats(0.1, 1.5))},
    )
    keep = (0, max_index) if draw(st.booleans()) else None
    band = BandDefinition.around((k1, k2), width, keep)
    return assignment, PolynomialNonlinearity(tuple(coefficients)), band


class TestTransmitProperties:
    @settings(max_examples=60, deadline=None)
    @given(transmit_plans())
    def test_matches_time_domain_per_antenna(self, plan):
        # each antenna against the independent path: coherent samples of its
        # input, the polynomial applied pointwise, DFT, then the band filter
        assignment, f, band = plan
        sig = transmit(assignment, f, band)
        grid = assignment.grid
        scale = sum(abs(a) * sum(assignment.amplitudes) ** p for p, a in enumerate(f.coefficients, 1))
        for m, spec in enumerate(sig.per_antenna):
            w = sample_waveform(assignment.antenna_spectrum(m), 1, 2 * grid.max_index + 2)
            distorted = SampledWaveform(f.evaluate(w.samples), w.sample_rate)
            oracle = band_filter(estimate_lines(distorted, grid), band)
            assert spec.allclose(oracle, rtol=1e-9, atol=1e-11 * scale)

    def test_huge_grid_allocates_nothing_grid_sized(self):
        # one dense row over this grid would take 2e13 phasors; the shared
        # support holds only the lines the device produces
        grid = FrequencyGrid(2 * np.pi * 1e-6, 10**13)
        geo = ArrayGeometry(64, 0.5)
        k1, k2 = 1_000_001, 1_000_003
        assignment = steer_tones(grid, geo, {k1: 0.1, k2: 0.2})
        f = PolynomialNonlinearity((1.0, 0.0, 0.1, 0.0, 0.01, 0.0, 0.001, 0.0, 1e-4))
        sig = transmit(assignment, f, BandDefinition.around((k1, k2), 8))
        dd = distortion_delays(k1, k2, assignment)
        pattern = pattern_sweep(sig, dd.upper_index, geo)
        assert array_gain(sig, dd.upper_index, dd.upper_tau) == pytest.approx(64, rel=1e-9)
        assert abs(pattern.nearest_peak(dd.upper_tau) - dd.upper_tau) <= pattern.step


class TestFarFieldReceive:
    def test_single_antenna_identity(self):
        sig = ArraySignal((tone(GRID, 1.0, 9, 0.4),))
        assert far_field_receive(sig, 0.123) == sig.per_antenna[0]

    def test_coherent_doubling(self):
        tau = 0.01
        lead = GRID.omega(9) * tau
        sig = ArraySignal((tone(GRID, 1.0, 9, 0.0), tone(GRID, 1.0, 9, lead)))
        rx = far_field_receive(sig, tau)
        assert rx.amplitude(9) == pytest.approx(2.0, rel=1e-12)

    def test_anti_phase_null(self):
        tau = 0.01
        lead = GRID.omega(9) * tau + np.pi
        sig = ArraySignal((tone(GRID, 1.0, 9, 0.0), tone(GRID, 1.0, 9, lead)))
        rx = far_field_receive(sig, tau)
        assert rx.coefficient(9) == 0j


class TestDistortionDelays:
    def test_single_user_collapses_to_target(self):
        geo = ArrayGeometry(2, 0.2)
        for tau in (0.01, -0.05, 0.13):
            a = steer_tones(GRID, geo, {9: tau, 11: tau}, base_phases={9: 0.7, 11: -0.2})
            dd = distortion_delays(9, 11, a)
            assert dd.upper_tau == pytest.approx(tau, rel=1e-12, abs=1e-15)
            assert dd.lower_tau == pytest.approx(tau, rel=1e-12, abs=1e-15)

    def test_worked_multi_user_plan(self):
        assignment, _, _ = multi_user_signal()
        dd = distortion_delays(9, 11, assignment)
        assert dd.upper_index == 13 and dd.lower_index == 7
        assert dd.upper_tau == pytest.approx(4.8 / 13, rel=1e-12)
        assert dd.lower_tau == pytest.approx(3.0 / 70, rel=1e-12)
        assert dd.upper_modulus == pytest.approx(1.0 / 13, rel=1e-12)
        assert dd.lower_modulus == pytest.approx(1.0 / 7, rel=1e-12)

    def test_generic_targets_give_new_directions(self):
        a = steer_tones(GRID, GEO_MU, {9: 0.11, 11: -0.07})
        dd = distortion_delays(9, 11, a)
        for tau in (0.11, -0.07):
            assert abs(dd.upper_tau - tau) > 1e-6
            assert abs(dd.lower_tau - tau) > 1e-6

    def test_phase_fallback_without_targets(self):
        a = steer_tones(GRID, GEO_SU, {9: TAU_SU, 11: TAU_SU})
        bare = SteeringAssignment(
            GRID, GEO_SU, a.tone_indices, a.amplitudes, a.phases, targets=None
        )
        dd = distortion_delays(9, 11, bare)
        assert dd.upper_tau == pytest.approx(TAU_SU, rel=1e-12)
        assert dd.lower_tau == pytest.approx(TAU_SU, rel=1e-12)

    def test_degenerate_plan_rejected(self):
        a = steer_tones(GRID, GEO_MU, {5: 0.1, 10: 0.2})
        with pytest.raises(DegenerateFrequencyPlanError):
            distortion_delays(5, 10, a)

    def test_preconditions(self):
        a = steer_tones(GRID, ArrayGeometry(1, 0.5), {9: 0.1, 11: 0.1})
        with pytest.raises(ValueError):
            distortion_delays(9, 11, a)
        b = steer_tones(GRID, GEO_MU, {9: 0.1, 11: 0.1})
        with pytest.raises(ValueError):
            distortion_delays(9, 12, b)


class TestPatternSweep:
    def test_broadside_peak(self):
        a = steer_tones(GRID, GEO_SU, {9: 0.0, 11: 0.0})
        sig = transmit(a, CUBIC, BAND)
        p = pattern_sweep(sig, 9, GEO_SU, 512)
        assert abs(p.peak_tau) <= p.step

    def test_single_user_product_peak_and_gain(self):
        _, sig = single_user_signal()
        p = pattern_sweep(sig, 13, GEO_SU, 1024)
        assert abs(p.peak_tau - TAU_SU) <= p.step
        assert not p.multi_peaked
        assert p.peak_gain == pytest.approx(2.0, abs=2e-3)  # grid-resolution gain

    def test_multi_user_product_peaks_match_solver(self):
        assignment, sig, geo = multi_user_signal()
        dd = distortion_delays(9, 11, assignment)
        p13 = pattern_sweep(sig, 13, geo, 1024)
        assert p13.multi_peaked  # spatially aliased line reports every lobe
        assert abs(p13.nearest_peak(dd.upper_tau) - dd.upper_tau) <= p13.step
        p7 = pattern_sweep(sig, 7, geo, 1024)
        assert abs(p7.nearest_peak(dd.lower_tau) - dd.lower_tau) <= p7.step

    def test_missing_line(self):
        _, sig = single_user_signal()
        with pytest.raises(MissingLineError):
            pattern_sweep(sig, 14, GEO_SU)

    def test_point_count_minimum(self):
        _, sig = single_user_signal()
        with pytest.raises(ValueError):
            pattern_sweep(sig, 13, GEO_SU, 8)

    def test_antenna_count_mismatch(self):
        _, sig = single_user_signal()
        with pytest.raises(ValueError):
            pattern_sweep(sig, 13, ArrayGeometry(3, 0.1))


class TestSteeringInvariants:
    def test_fundamental_peaks_and_power(self):
        assignment, sig, geo = multi_user_signal()
        for k, tau in ((9, TAU1), (11, TAU2)):
            p = pattern_sweep(sig, k, geo, 2048)
            assert abs(p.nearest_peak(tau) - tau) <= p.step
            rx = far_field_receive(sig, tau)
            per_antenna = sig.per_antenna[0].line_power(k)
            assert rx.line_power(k) == pytest.approx(4 * per_antenna, rel=1e-12)

    def test_single_user_coherence_exact(self):
        for m_count in (2, 3, 5):
            geo = ArrayGeometry(m_count, 1.0 / 26.0)
            a = steer_tones(GRID, geo, {9: TAU_SU, 11: TAU_SU}, base_phases={9: 0.3, 11: 1.1})
            sig = transmit(a, CUBIC, BAND)
            rx = far_field_receive(sig, TAU_SU)
            per_antenna_amp = sig.per_antenna[0].amplitude(13)
            assert rx.amplitude(13) == pytest.approx(m_count * per_antenna_amp, rel=1e-12)

    def test_multi_user_non_coherence(self):
        assignment, sig, _ = multi_user_signal()
        dd = distortion_delays(9, 11, assignment)
        per_antenna = sig.per_antenna[0].line_power(13)
        coherent = 4 * per_antenna
        for tau in (TAU1, TAU2):
            received = far_field_receive(sig, tau).line_power(13)
            assert received < coherent * (1 - 1e-6)
        at_dd = far_field_receive(sig, dd.upper_tau).line_power(13)
        assert at_dd == pytest.approx(coherent, rel=1e-12)

    def test_reciprocity_with_delayed_time_oracle(self):
        # pattern from the phasor path must match delaying each antenna's
        # time-domain waveform, summing, and reading the line off a DFT
        assignment, sig, geo = multi_user_signal()
        p = pattern_sweep(sig, 13, geo, 16)
        spp = 256
        rate = spp / GRID.fundamental_period
        ts = np.arange(spp) / rate
        for i, tau_rx in enumerate(p.taus):
            summed = np.zeros(spp)
            for m, spec in enumerate(sig.per_antenna):
                summed += spec.evaluate(ts - m * tau_rx)
            est = estimate_lines(SampledWaveform(summed, rate), GRID)
            assert est.line_power(13) == pytest.approx(p.powers[i], rel=1e-6, abs=1e-12)

    def test_modular_equivalence(self):
        _, sig, _ = multi_user_signal()
        modulus = 1.0 / 13.0
        for tau in (0.05, -0.11, 0.3):
            base = far_field_receive(sig, tau).line_power(13)
            for n in (-2, 1, 3):
                shifted = far_field_receive(sig, tau + n * modulus).line_power(13)
                assert shifted == pytest.approx(base, rel=1e-9)


class TestDelayHelpers:
    def test_fold_delay(self):
        folded = fold_delay(4.8 / 13, 1.0 / 13, 0.03)
        assert folded == pytest.approx(-0.2 / 13, rel=1e-9)
        assert fold_delay(0.0, 1.0, 0.5) == 0.0
        with pytest.raises(ValueError):
            fold_delay(0.4, 1.0, 0.05)

    def test_delay_to_angle(self):
        assert delay_to_angle(0.05, 0.1) == pytest.approx(np.pi / 6, rel=1e-12)
        assert delay_to_angle(0.1, 0.1) == pytest.approx(np.pi / 2, rel=1e-12)
        with pytest.raises(ValueError):
            delay_to_angle(0.2, 0.1)

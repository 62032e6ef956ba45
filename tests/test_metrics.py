"""EVM / ACLR / array-gain metrics at ports and over the air."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imdbeam import (
    ArrayGeometry,
    ArraySignal,
    BandDefinition,
    FrequencyGrid,
    LineSpectrum,
    MissingLineError,
    PolynomialNonlinearity,
    apply_polynomial,
    array_gain,
    far_field_receive,
    port_vs_ota_report,
    steer_tones,
    tone,
    transmit,
)
from imdbeam.metrics import _aclr_rows, _evm_rows

GRID = FrequencyGrid(2 * np.pi, 64)
BAND = BandDefinition((8, 12), 4)
CUBIC = PolynomialNonlinearity.third_order(0.1)
GEO_SU = ArrayGeometry(2, 1.0 / 26.0)
TAU_SU = 0.01


def two_tone(phi1=0.0, phi2=0.0):
    return tone(GRID, 1.0, 9, phi1) + tone(GRID, 1.0, 11, phi2)


def aligned_signal(m_count, k=9, tau=0.005, extra_phases=None):
    """Array signal with one line whose phases align exactly at tau."""
    omega = GRID.omega(k)
    specs = []
    for m in range(m_count):
        phase = m * omega * tau + (extra_phases[m] if extra_phases else 0.0)
        specs.append(tone(GRID, 1.0, k, phase))
    return ArraySignal(tuple(specs))


class TestArrayGain:
    def test_two_antennas_coherent(self):
        sig = aligned_signal(2)
        assert array_gain(sig, 9, 0.005) == pytest.approx(2.0, rel=1e-12)

    def test_anti_phase_null(self):
        sig = aligned_signal(2, extra_phases=[0.0, np.pi])
        assert array_gain(sig, 9, 0.005) == pytest.approx(0.0, abs=1e-24)

    def test_four_antennas_coherent(self):
        sig = aligned_signal(4)
        assert array_gain(sig, 9, 0.005) == pytest.approx(4.0, rel=1e-12)

    def test_absent_line(self):
        sig = aligned_signal(2)
        with pytest.raises(MissingLineError):
            array_gain(sig, 10, 0.0)

    def test_common_phase_rotation_invariance(self):
        rng = np.random.default_rng(31)
        sig = aligned_signal(3, tau=0.004)
        for theta in rng.uniform(0, 2 * np.pi, size=5):
            rotated = ArraySignal(
                tuple(
                    LineSpectrum(GRID, {9: s.coefficients(9)[0] * np.exp(1j * theta)})
                    for s in sig.per_antenna
                )
            )
            for tau_rx in (-0.01, 0.0, 0.004):
                assert array_gain(rotated, 9, tau_rx) == pytest.approx(
                    array_gain(sig, 9, tau_rx), rel=1e-12
                )

    def test_mean_gain_over_full_period_is_one(self):
        # cross terms average out exactly over one full delay period
        rng = np.random.default_rng(32)
        k = 9
        period = 2 * np.pi / GRID.omega(k)
        taus = np.arange(128) * (period / 128)  # endpoint-exclusive
        for m_count in (2, 4):
            phases = rng.uniform(0, 2 * np.pi, size=m_count)
            sig = ArraySignal(tuple(tone(GRID, 1.0, k, p) for p in phases))
            mean_gain = np.mean([array_gain(sig, k, t) for t in taus])
            assert mean_gain == pytest.approx(1.0, rel=1e-12)


class TestAclr:
    def test_worked_two_tone_value(self):
        # amplitudes 1.0225 in-band and 0.0075 per near product at alpha=0.01
        y = apply_polynomial(two_tone(), PolynomialNonlinearity.third_order(0.01))
        (lower,), (upper,) = _aclr_rows(y.support, y.phasors, BAND)
        expected = 10 * np.log10((0.0075**2 / 2) / (2 * (1.0225**2 / 2)))
        assert upper == pytest.approx(expected, abs=1e-9)
        assert lower == pytest.approx(expected, abs=1e-9)

    def test_linear_device_is_clean(self):
        y = apply_polynomial(two_tone(), PolynomialNonlinearity((1.0,)))
        lower, upper = _aclr_rows(y.support, y.phasors, BAND)
        assert lower.tolist() == upper.tolist() == [float("-inf")]

    def test_dc_line_carries_its_squared_amplitude(self):
        # a constant of amplitude 0.5 carries 0.25, a cosine of amplitude 1 0.5
        spectrum = LineSpectrum(GRID, {0: 0.5, 9: 0.5})
        band = BandDefinition((8, 12), 8)
        (lower,), (upper,) = _aclr_rows(spectrum.support, spectrum.phasors, band)
        assert lower == pytest.approx(10 * np.log10(0.25 / 0.5), abs=1e-12)
        assert upper == float("-inf")

    def test_zero_in_band_power(self):
        y = tone(GRID, 1.0, 20)
        with pytest.raises(ValueError):
            _aclr_rows(y.support, y.phasors, BAND)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("tau", [0.0, 0.01, -0.02])
    def test_single_user_receiver_equals_port(self, alpha, tau):
        geo = ArrayGeometry(2, 0.05)
        a = steer_tones(GRID, geo, {9: tau, 11: tau})
        sig = transmit(a, PolynomialNonlinearity.third_order(alpha), BAND)
        port, _, rx = port_vs_ota_report(sig, a, BAND, [tau])
        assert rx.aclr_lower_db == pytest.approx(port.aclr_lower_db, abs=1e-9)
        assert rx.aclr_upper_db == pytest.approx(port.aclr_upper_db, abs=1e-9)

    @pytest.mark.parametrize("plan", [(0.2, 0.3), (-0.1, 0.25)])
    def test_multi_user_receiver_improves(self, plan):
        # representative multi-user plans (near modular coincidences the
        # product can re-align with a user direction and the bound fails)
        t1, t2 = plan
        geo = ArrayGeometry(2, 0.5)
        a = steer_tones(GRID, geo, {9: t1, 11: t2})
        sig = transmit(a, CUBIC, BAND)
        port, _, *at_users = port_vs_ota_report(sig, a, BAND, [t1, t2])
        for rx in at_users:
            assert rx.aclr_lower_db < port.aclr_lower_db
            assert rx.aclr_upper_db < port.aclr_upper_db


class TestEvm:
    # the unit two-tone input is the reference
    REF = two_tone()

    def evm(self, y, band, ref=REF):
        (value,) = _evm_rows(y.support, y.phasors, ref.support, ref.phasors, band)
        return value

    def test_linear_device_zero(self):
        y = apply_polynomial(two_tone(), PolynomialNonlinearity((1.0,)))
        assert self.evm(y, BAND) == 0.0

    def test_products_outside_band_do_not_count(self):
        # with in_band [8, 12] the products at 7 and 13 hit the ACLR instead
        y = apply_polynomial(two_tone(), CUBIC)
        assert self.evm(y, BAND) == 0.0

    def test_products_declared_in_band(self):
        y = apply_polynomial(two_tone(), CUBIC)
        wide = BandDefinition((7, 13), 4)
        assert self.evm(y, wide) == pytest.approx(0.075 / 1.225, rel=1e-9)

    def test_scaling_invariance(self):
        y = apply_polynomial(two_tone(), CUBIC)
        wide = BandDefinition((7, 13), 4)
        baseline_value = self.evm(y, wide)
        g = 0.37 * np.exp(1.2j)
        scaled = LineSpectrum(
            GRID, {k: g * c for k, c in y.items() if k > 0}
        )
        assert self.evm(scaled, wide) == pytest.approx(baseline_value, rel=1e-12)

    def test_reference_outside_band_rejected(self):
        y = apply_polynomial(two_tone(), CUBIC)
        with pytest.raises(ValueError):
            self.evm(y, BAND, tone(GRID, 1.0, 7))

    def test_zero_reference_rejected(self):
        y = apply_polynomial(two_tone(), CUBIC)
        with pytest.raises(ValueError):
            self.evm(y, BAND, tone(GRID, 0.0, 9))

    def test_zero_fitted_signal_rejected(self):
        # only an unreferenced in-band line: the fitted gain is zero
        with pytest.raises(ValueError, match="observed in-band signal is zero"):
            self.evm(tone(GRID, 1.0, 10), BAND)


class TestPortVsOtaReport:
    def test_single_user_reports(self):
        a = steer_tones(GRID, GEO_SU, {9: TAU_SU, 11: TAU_SU})
        sig = transmit(a, CUBIC, BAND)
        reports = port_vs_ota_report(sig, a, BAND, [TAU_SU])
        ports, (direction,) = reports[:2], reports[2:]
        assert ports[0].evm == pytest.approx(ports[1].evm, abs=1e-15)
        assert ports[0].aclr_upper_db == pytest.approx(ports[1].aclr_upper_db, rel=1e-12)
        # at the steered direction every line gets the full gain
        for k in (7, 9, 11, 13):
            assert direction.array_gain_by_line[k] == pytest.approx(2.0, rel=1e-9)
        assert direction.aclr_upper_db == pytest.approx(ports[0].aclr_upper_db, abs=1e-9)
        assert direction.evm == pytest.approx(ports[0].evm, abs=1e-12)

    def test_multi_user_receiver_gains(self):
        geo = ArrayGeometry(2, 0.5)
        a = steer_tones(GRID, geo, {9: 0.2, 11: 0.3})
        sig = transmit(a, CUBIC, BAND)
        reports = port_vs_ota_report(sig, a, BAND, [0.2, 0.3])
        at_t1, at_t2 = reports[2], reports[3]
        assert at_t1.array_gain_by_line[9] == pytest.approx(2.0, rel=1e-9)
        assert at_t2.array_gain_by_line[11] == pytest.approx(2.0, rel=1e-9)
        for rep in (at_t1, at_t2):
            assert rep.array_gain_by_line[13] < 1.9
            assert rep.array_gain_by_line[7] < 1.9
            assert rep.aclr_upper_db < reports[0].aclr_upper_db

    def test_reference_tone_outside_band_rejected(self):
        # the band's in-band interval (8, 10) leaves out the tone at 11
        a = steer_tones(GRID, GEO_SU, {9: TAU_SU, 11: TAU_SU})
        sig = transmit(a, CUBIC, BAND)
        with pytest.raises(ValueError, match="index 11 lies outside the in-band"):
            port_vs_ota_report(sig, a, BandDefinition((8, 10), 4), [TAU_SU])

    def test_direction_far_from_beams(self):
        a = steer_tones(GRID, GEO_SU, {9: TAU_SU, 11: TAU_SU})
        sig = transmit(a, CUBIC, BAND)
        (report,) = port_vs_ota_report(sig, a, BAND, [-0.03])[2:]
        assert all(g < 1.0 for g in report.array_gain_by_line.values())


@st.composite
def port_scenarios(draw):
    """Random two-tone plan, device of degree <= 9, array of M <= 8 and up to
    three receive directions."""
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
    band = BandDefinition((k1, k2), width, keep)
    directions = draw(st.lists(tau, max_size=3))
    return assignment, PolynomialNonlinearity(tuple(coefficients)), band, directions


def loop_interval_power(spectrum, interval):
    lo, hi = interval
    return sum(spectrum.line_powers(k)[0] for k in spectrum.line_indices() if lo <= k <= hi)


def loop_aclr(spectrum, band):
    """Reference ACLR: a Python loop over the lines of one spectrum."""
    p_in = loop_interval_power(spectrum, band.in_band)
    if p_in <= 0.0:
        raise ValueError("in-band power is zero")
    sides = (loop_interval_power(spectrum, iv) for iv in (band.adjacent_lower, band.adjacent_upper))
    return tuple(10.0 * math.log10(p / p_in) if p > 0.0 else float("-inf") for p in sides)


def loop_evm(spectrum, reference_tones, band):
    """Reference EVM: the least-squares gain fit as a Python loop over the
    lines of one spectrum."""
    refs = {}
    for k, amp, phase in reference_tones:
        refs[k] = refs.get(k, 0j) + 0.5 * amp * cmath.exp(1j * phase)
    ref_power = sum(abs(c) ** 2 for c in refs.values())
    g = sum(refs[k].conjugate() * spectrum.coefficients(k)[0] for k in refs) / ref_power
    lo, hi = band.in_band
    in_band = set(refs) | {k for k in spectrum.line_indices() if lo <= k <= hi}
    err = sum(abs(spectrum.coefficients(k)[0] - g * refs.get(k, 0j)) ** 2 for k in in_band)
    sig = sum(abs(g * c) ** 2 for c in refs.values())
    if sig == 0.0:
        raise ValueError("observed in-band signal is zero")
    return math.sqrt(err / sig)


def assert_same_metric(got, expected):
    assert got == expected or got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestReportMatchesLoopMetrics:
    @settings(max_examples=60, deadline=None)
    @given(port_scenarios())
    def test_matrix_metrics_equal_loop_metrics(self, scenario):
        # the matrix path against Python loops over the lines of each port's
        # (and each received) spectrum
        assignment, f, band, directions = scenario
        sig = transmit(assignment, f, band)
        s = assignment
        tones = list(zip(s.tone_indices, s.amplitudes, s.base_phases, s.targets))

        def refs(m):
            # the steered phase by the independent formula, base + m * omega * tau
            return [(k, a, b + m * s.grid.omega(k) * tau) for k, a, b, tau in tones]

        located = [(spec, refs(m)) for m, spec in enumerate(sig.per_antenna)]
        located += [(far_field_receive(sig, tau), refs(0)) for tau in directions]
        try:
            expected = [(loop_evm(spec, r, band), *loop_aclr(spec, band)) for spec, r in located]
        except ValueError:
            with pytest.raises(ValueError):
                port_vs_ota_report(sig, assignment, band, directions)
            return
        reports = port_vs_ota_report(sig, assignment, band, directions)
        assert len(reports) == len(expected)
        for report, reference in zip(reports, expected):
            got = (report.evm, report.aclr_lower_db, report.aclr_upper_db)
            for a, b in zip(got, reference):
                assert_same_metric(a, b)

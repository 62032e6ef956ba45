"""Steering, transmit chain, far-field reception, pattern sweeps, and the
closed-form distortion directions, cross-checked against a delayed
time-domain oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imdbeam import (
    ArrayGeometry,
    ArraySignal,
    BandDefinition,
    DegenerateFrequencyPlanError,
    FrequencyGrid,
    GridMismatchError,
    GridRangeError,
    LineSpectrum,
    MissingLineError,
    PolynomialNonlinearity,
    SteeringAssignment,
    apply_polynomial,
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
from imdbeam.array import _build_pattern, steering
from imdbeam.spectra import PRUNE_THRESHOLD, SampledWaveform, _line_factor

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

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(1e-3, 1e3),
        st.integers(1, 64),
        st.lists(
            st.tuples(
                st.floats(-np.pi, np.pi),
                st.one_of(st.floats(-1.0, 1.0), st.floats(-1e12, 1e12)),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_phase_table_is_the_scalar_formula(self, base_rate, m_count, tones):
        grid = FrequencyGrid(base_rate, 64)
        targets = {k: tau for k, (_, tau) in enumerate(tones, start=7)}
        base = {k: b for k, (b, _) in enumerate(tones, start=7)}
        a = steer_tones(grid, ArrayGeometry(m_count, 0.5), targets, base_phases=base)
        expected = tuple(
            tuple(
                (base[k] + m * grid.omega(k) * targets[k]) % (2 * np.pi)
                for k in sorted(targets)
            )
            for m in range(m_count)
        )
        assert a.phases == expected  # bit for bit
        assert all(type(p) is float for row in a.phases for p in row)

    def test_non_finite_phase_rejected_without_warning(self):
        with pytest.raises(ValueError, match="phases must be finite"):
            steer_tones(GRID, GEO_MU, {9: 1e308, 11: 0.1})

    @pytest.mark.parametrize(
        "changes, message",
        [
            (lambda a: {"phases": a.phases[:1]}, "one row per antenna"),
            (lambda a: {"phases": (a.phases[0], a.phases[1][:1])}, "phase rows"),
            (lambda a: {"targets": a.targets[:1]}, "targets"),
            (lambda a: {"tone_indices": (0, 11)}, "positive"),
            (lambda a: {"tone_indices": (11, 9)}, "strictly increasing"),
            (lambda a: {"amplitudes": (np.nan, 1.0)}, "amplitudes must be finite"),
            (lambda a: {"amplitudes": (1.0, np.inf)}, "amplitudes must be finite"),
            (lambda a: {"targets": (np.nan, TAU2)}, "targets must be finite"),
        ],
        ids=[
            "missing-row",
            "short-row",
            "targets-length",
            "tone-index-0",
            "tone-order",
            "nan-amplitude",
            "inf-amplitude",
            "nan-target",
        ],
    )
    def test_malformed_assignment_rejected(self, changes, message):
        a = steer_tones(GRID, GEO_MU, {9: TAU1, 11: TAU2})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(a, **changes(a))

    def test_antenna_input(self):
        a = steer_tones(GRID, GEO_MU, {9: TAU1, 11: TAU2}, amplitudes={9: 2.0, 11: 0.5})
        s = a.input_signal().per_antenna[1]
        assert s.amplitude(9) == pytest.approx(2.0)
        assert s.amplitude(11) == pytest.approx(0.5)
        assert s.phase(9) % (2 * np.pi) == pytest.approx(a.phases[1][0], rel=1e-12)


class TestTransmit:
    def test_identity_device_returns_steered_tones(self):
        assignment, _, _ = multi_user_signal()
        sig = transmit(assignment, PolynomialNonlinearity.identity(), BAND)
        for m in range(2):
            assert sig.per_antenna[m] == assignment.input_signal().per_antenna[m]

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

    def test_grid_must_hold_every_product(self):
        # called directly, not through parse_config: degree * k_top = 33 > 32
        grid = FrequencyGrid(2 * np.pi, 32)
        assignment = steer_tones(grid, GEO_MU, {9: TAU1, 11: TAU2})
        with pytest.raises(GridRangeError, match="cannot hold degree-3"):
            transmit(assignment, CUBIC, BAND)
        # a top tone too weak to survive pruning produces nothing, as in the
        # per-antenna convolution
        quiet = steer_tones(grid, GEO_MU, {9: TAU1, 11: TAU2}, amplitudes={11: 1e-15})
        direct = band_filter(apply_polynomial(quiet.input_signal(), CUBIC), BAND)
        assert transmit(quiet, CUBIC, BAND).line_indices() == direct.line_indices() == (9,)

    @pytest.mark.parametrize(
        "coefficients, tones", [((1.0,), 40), ((1.0, 0.0, 0.1), 23), ((0.0,) * 8 + (1.0,), 15)]
    )
    def test_too_many_tones_for_a_64_bit_order_index(self, coefficients, tones):
        # mixing orders of K tones at degree P are indexed in base 2P+1, so
        # (2P+1)**K must stay below 2**63
        grid = FrequencyGrid(2 * np.pi, 1000)
        assignment = steer_tones(grid, ArrayGeometry(2, 0.5), {k: 0.1 for k in range(1, tones + 1)})
        with pytest.raises(GridRangeError, match=rf"\*\*{tones}, beyond 64 bits"):
            transmit(assignment, PolynomialNonlinearity(coefficients), BAND)

    def test_most_tones_a_64_bit_order_index_holds(self):
        # 3**39 < 2**63: 39 tones through a linear device pass unchanged
        grid = FrequencyGrid(2 * np.pi, 64)
        assignment = steer_tones(grid, ArrayGeometry(3, 0.5), {k: 0.01 * k for k in range(1, 40)})
        band = BandDefinition.around((1, 39), 1, (0, 64))
        sig = transmit(assignment, PolynomialNonlinearity.identity(), band)
        assert sig.line_indices() == tuple(range(1, 40))
        assert np.abs(sig.phasors - assignment.input_signal().phasors).max() <= 1e-15


class TestArraySignal:
    def test_grid_mismatch_rejected(self):
        other = FrequencyGrid(1.0, 64)
        with pytest.raises(GridMismatchError):
            ArraySignal((tone(GRID, 1.0, 9), tone(other, 1.0, 9)))

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: ArraySignal.from_phasors(GRID, [65], [[1.0]]), GridRangeError),
            # beyond 64 bits: the index conversion itself overflows
            (lambda: ArraySignal.from_phasors(GRID, [2**64], [[1.0]]), GridRangeError),
            (lambda: ArraySignal(()), ValueError),
        ],
        ids=["above-max-index", "index-2**64", "no-antennas"],
    )
    def test_invalid_input_rejected(self, build, error):
        with pytest.raises(error):
            build()

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
            w = sample_waveform(
                assignment.input_signal().per_antenna[m], 1, 2 * grid.max_index + 2
            )
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
        dd = distortion_delays(assignment)
        pattern = pattern_sweep(sig, dd.upper.line_index, geo)
        assert array_gain(sig, dd.upper.line_index, dd.upper.tau) == pytest.approx(64, rel=1e-9)
        assert abs(pattern.nearest_peak(dd.upper.tau) - dd.upper.tau) <= pattern.step


@st.composite
def colliding_plans(draw):
    """One to three small tone indices, harmonically related (k2 = 2*k1) in
    half of the draws, through a device of degree >= k1 + k2 where 9 allows:
    distinct mixing orders then share lines, and some reach line 0.  Tone
    amplitudes of at least 0.25 and nonzero device coefficients of at least
    0.05 put every order that does not cancel exactly far above
    ``PRUNE_THRESHOLD``, so pruning the order table before colliding orders
    are summed drops none of them.  Arrays of up to 64 antennas."""
    num_tones = draw(st.integers(1, 3))
    if draw(st.booleans()):
        k1 = draw(st.integers(1, 2))
        tones = [k1 * (j + 1) for j in range(num_tones)]
    else:
        tones = sorted(
            draw(st.lists(st.integers(1, 6), min_size=num_tones, max_size=num_tones, unique=True))
        )
    degree = draw(st.integers(min(sum(tones[:2]), 9), 9))
    nonzero = st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)
    coefficients = draw(st.lists(st.just(0.0) | nonzero, min_size=degree, max_size=degree))
    assume(any(coefficients))
    width = draw(st.integers(1, tones[0]))
    max_index = max(degree * tones[-1], tones[-1] + width) + draw(st.integers(0, 3))
    grid = FrequencyGrid(2 * np.pi, max_index)
    geo = ArrayGeometry(draw(st.integers(1, 64)), draw(st.floats(0.01, 0.5)))
    tau = st.floats(-geo.element_delay, geo.element_delay)
    assignment = steer_tones(
        grid,
        geo,
        {k: draw(tau) for k in tones},
        base_phases={k: draw(st.floats(-np.pi, np.pi)) for k in tones},
        amplitudes={k: draw(st.floats(0.25, 1.5)) for k in tones},
    )
    keep = (0, max_index) if draw(st.booleans()) else None
    band = BandDefinition.around((tones[0], tones[-1]), width, keep)
    return assignment, PolynomialNonlinearity(tuple(coefficients)), band


def order_table_l1(assignment, f) -> float:
    """``sum_n |C_n|`` over every signed mixing order ``n``, from the
    one-antenna expansion with tone ``j`` alone at index ``(2*degree + 1)**j``."""
    base = 2 * f.degree + 1
    grid = FrequencyGrid(1.0, f.degree * base ** (len(assignment.tone_indices) - 1))
    tones = [(base**j, a, 0.0) for j, a in enumerate(assignment.amplitudes)]
    table = apply_polynomial(LineSpectrum.from_real_tones(grid, tones), f)
    return float(np.sum(_line_factor(table.support) * np.abs(table.phasors[0])))


# tones 1 and 2 through a cubic: the order (2, -1) sits on line 0 and its
# mirror (-2, 1) has no line of its own in the order table
DC_PLAN = (
    steer_tones(
        FrequencyGrid(2 * np.pi, 6), ArrayGeometry(3, 0.25), {1: 0.05, 2: -0.1}, {1: 0.7, 2: -1.9}
    ),
    PolynomialNonlinearity((1.0, 0.3, 0.4)),
    BandDefinition.around((1, 2), 1, (0, 6)),
)


class TestTransmitMatchesConvolution:
    @settings(max_examples=60, deadline=None)
    @given(colliding_plans())
    @example(DC_PLAN)
    def test_orders_rotated_per_antenna_match_per_antenna_convolution(self, plan):
        # the rounding of each line is relative to the orders summed on it,
        # so the bound is the order table's l1 norm sum_n |C_n|
        assignment, f, band = plan
        sig = transmit(assignment, f, band)
        direct = band_filter(apply_polynomial(assignment.input_signal(), f), band)
        np.testing.assert_array_equal(sig.support, direct.support)
        error = np.abs(sig.phasors - direct.phasors).max(initial=0.0)
        assert error <= 1e-12 * order_table_l1(assignment, f)


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
            dd = distortion_delays(a)
            assert dd.upper.tau == pytest.approx(tau, rel=1e-12, abs=1e-15)
            assert dd.lower.tau == pytest.approx(tau, rel=1e-12, abs=1e-15)

    def test_worked_multi_user_plan(self):
        assignment, _, _ = multi_user_signal()
        dd = distortion_delays(assignment)
        assert dd.upper.line_index == 13 and dd.lower.line_index == 7
        assert dd.upper.tau == pytest.approx(4.8 / 13, rel=1e-12)
        assert dd.lower.tau == pytest.approx(3.0 / 70, rel=1e-12)
        assert dd.upper.modulus == pytest.approx(1.0 / 13, rel=1e-12)
        assert dd.lower.modulus == pytest.approx(1.0 / 7, rel=1e-12)

    def test_generic_targets_give_new_directions(self):
        a = steer_tones(GRID, GEO_MU, {9: 0.11, 11: -0.07})
        dd = distortion_delays(a)
        for tau in (0.11, -0.07):
            assert abs(dd.upper.tau - tau) > 1e-6
            assert abs(dd.lower.tau - tau) > 1e-6

    def test_no_phase_fallback_without_targets(self):
        # reduced phases fix no direction; only the steering delays do
        a = steer_tones(GRID, GEO_SU, {9: TAU_SU, 11: TAU_SU})
        bare = SteeringAssignment(
            GRID, GEO_SU, a.tone_indices, a.amplitudes, a.phases, targets=None
        )
        with pytest.raises(ValueError, match="targets"):
            distortion_delays(bare)

    def test_degenerate_plan_rejected(self):
        a = steer_tones(GRID, GEO_MU, {5: 0.1, 10: 0.2})
        with pytest.raises(DegenerateFrequencyPlanError):
            distortion_delays(a)

    def test_preconditions(self):
        a = steer_tones(GRID, ArrayGeometry(1, 0.5), {9: 0.1, 11: 0.1})
        with pytest.raises(ValueError, match="2 antennas"):
            distortion_delays(a)
        for targets in ({9: 0.1}, {9: 0.1, 11: 0.1, 12: 0.1}):
            b = steer_tones(GRID, GEO_MU, targets)
            with pytest.raises(ValueError, match="exactly two tones"):
                distortion_delays(b)


@st.composite
def product_plans(draw):
    """Two tones at random targets under the tone-plan conditions of the
    benchmark scenarios: ``k1 > 2 * degree`` and ``gcd(k1, k2) = 1`` put
    every mixing order of the device on its own line, and ``k2 < 1.25 * k1``
    lets the element delay lie between half a wavelength and one wavelength
    at both product lines.  Returns the plan and a sweep length of 4 to 16
    points per antenna."""
    degree = draw(st.integers(3, 9))
    k1 = draw(st.integers(2 * degree + 1, 3 * degree + 8))
    k2 = k1 + draw(st.integers(1, (k1 - 1) // 4))
    assume(math.gcd(k1, k2) == 1)
    base_rate = 2 * np.pi * draw(st.floats(0.5, 2.0))
    lower, upper = 2 * k1 - k2, 2 * k2 - k1
    half_wave, full_wave = np.pi / (lower * base_rate), 2 * np.pi / (upper * base_rate)
    delta = half_wave + draw(st.floats(0.0, 1.0)) * (full_wave - half_wave)
    m_count = draw(st.integers(2, 64))
    tau = st.floats(-delta, delta)
    assignment = steer_tones(
        FrequencyGrid(base_rate, degree * k2 + draw(st.integers(0, 4))),
        ArrayGeometry(m_count, delta),
        {k1: draw(tau), k2: draw(tau)},
        base_phases={k1: draw(st.floats(-np.pi, np.pi)), k2: draw(st.floats(-np.pi, np.pi))},
        amplitudes={k1: draw(st.floats(0.25, 1.0)), k2: draw(st.floats(0.25, 1.0))},
    )
    nonzero = st.floats(0.01, 0.08) | st.floats(-0.08, -0.01)
    f = PolynomialNonlinearity((1.0, *(draw(nonzero) for _ in range(degree - 1))))
    keep = (0, assignment.grid.max_index) if draw(st.booleans()) else None
    band = BandDefinition.around((k1, k2), draw(st.integers(1, k2 - k1 + 2)), keep)
    return assignment, f, band, draw(st.integers(max(16, 4 * m_count), 16 * m_count))


class TestProductDirections:
    @settings(max_examples=60, deadline=None)
    @given(product_plans())
    def test_kept_products_beamform_at_their_direction(self, plan):
        # each product the chain keeps has a direction in the swept interval;
        # the array gain there is M, and the line's sweep has a lobe there
        assignment, f, band, points = plan
        sig = transmit(assignment, f, band)
        geo = assignment.geometry
        dd = distortion_delays(assignment)
        kept = [p for p in (dd.upper, dd.lower) if sig.has_line(p.line_index)]
        assume(kept)
        m_count = geo.num_antennas
        for p in kept:
            tau = fold_delay(p.tau, p.modulus, geo.element_delay)
            assert array_gain(sig, p.line_index, tau) == pytest.approx(m_count, abs=1e-9 * m_count)
            pattern = pattern_sweep(sig, p.line_index, geo, points)
            offsets = (np.array(pattern.peak_taus) - tau) % p.modulus
            nearest = np.minimum(offsets, p.modulus - offsets).min()
            assert nearest <= pattern.step * (1 + 1e-9)


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
        dd = distortion_delays(assignment)
        p13 = pattern_sweep(sig, 13, geo, 1024)
        assert p13.multi_peaked  # spatially aliased line reports every lobe
        assert abs(p13.nearest_peak(dd.upper.tau) - dd.upper.tau) <= p13.step
        p7 = pattern_sweep(sig, 7, geo, 1024)
        assert abs(p7.nearest_peak(dd.lower.tau) - dd.lower.tau) <= p7.step

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

    def test_dc_line_sweep(self):
        # the constant carries |c|**2, not 2|c|**2, and is direction-flat: its
        # pattern is array_gain everywhere, with one peak
        geo = ArrayGeometry(4, 1.0 / 26.0)
        a = steer_tones(GRID, geo, {9: TAU_SU, 11: TAU_SU})
        band = BandDefinition((8, 12), (4, 7), (13, 16), (0, 40))
        sig = transmit(a, PolynomialNonlinearity.second_order(0.2), band)
        p = pattern_sweep(sig, 0, geo, 64)
        received = far_field_receive(sig, 0.3).line_power(0)
        assert p.peak_power == pytest.approx(0.64, rel=1e-12)
        assert p.peak_power == pytest.approx(received, rel=1e-12)
        assert p.peak_gain == pytest.approx(4.0, rel=1e-12)
        assert p.peak_gain == pytest.approx(array_gain(sig, 0, p.peak_tau), rel=1e-12)
        assert p.peak_taus == (p.peak_tau,) and not p.multi_peaked

    def test_flat_pattern_reports_one_peak(self):
        taus = np.linspace(-0.5, 0.5, 64)
        for powers in (np.full(64, 0.25), np.zeros(64), 1.0 + 1e-12 * np.sin(7 * taus)):
            p = _build_pattern(9, taus, powers, 1.0, 1e-9)
            assert p.peak_taus == (p.peak_tau,) == (taus[np.argmax(powers)],)
            assert not p.multi_peaked

    def test_negative_power_rejected(self):
        taus = np.linspace(-0.5, 0.5, 16)
        with pytest.raises(ValueError, match="non-negative"):
            _build_pattern(9, taus, np.full(16, -1e-3), 1.0, 1e-9)


class TestSweepMatchesReception:
    @settings(max_examples=60, deadline=None)
    @given(transmit_plans(), st.integers(16, 160))
    @example(
        (
            steer_tones(
                FrequencyGrid(2 * np.pi, 54),
                ArrayGeometry(6, 0.5),
                {1: 0.015625, 9: 0.2757959105285317},
            ),
            PolynomialNonlinearity((0.0, 0.0, 0.0, 0.0, 0.0, 1.0)),
            BandDefinition((1, 9), (0, 0), (10, 10), (0, 54)),
        ),
        16,
    )
    @example(
        (
            steer_tones(
                FrequencyGrid(2 * np.pi, 20), ArrayGeometry(2, 0.5), {3: 0.5, 5: 0.0}
            ),
            PolynomialNonlinearity((0.0, 0.0, 0.0, 1.0)),
            BandDefinition((3, 5), (2, 2), (6, 6), (0, 20)),
        ),
        19,
    )
    @example(
        # every sweep point of line 5 is a null, so the weak-line path and
        # far_field_receive must sum the same rounding residue the same way
        (
            steer_tones(FrequencyGrid(2 * np.pi, 32), ArrayGeometry(6, 0.5), {1: 0.0, 4: 0.0}),
            PolynomialNonlinearity((0.0,) * 7 + (1.0,)),
            BandDefinition((1, 4), (0, 0), (5, 5), (0, 5)),
        ),
        16,
    )
    def test_sweep_is_array_gain_and_reception(self, plan, points):
        # every present line, DC included: the sweep's peak gain is the array
        # gain at its peak, and its powers are what far_field_receive gives
        assignment, f, band = plan
        sig = transmit(assignment, f, band)
        geo = assignment.geometry
        m_count = geo.num_antennas
        sampled = np.linspace(0, points - 1, 7).astype(int)
        for k in sig.line_indices():
            p = pattern_sweep(sig, k, geo, points)
            gain = array_gain(sig, k, p.peak_tau)
            assert p.peak_gain == pytest.approx(gain, rel=1e-12, abs=0.0)
            assert 0.0 <= p.peak_gain <= m_count * (1 + 1e-12)
            # far_field_receive drops received coefficients below PRUNE_THRESHOLD
            atol = 1e-12 * p.peak_power + 2 * PRUNE_THRESHOLD**2
            for i in sampled:
                received = far_field_receive(sig, p.taus[i]).line_power(k)
                assert abs(p.powers[i] - received) <= atol

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 64),
        st.integers(1, 6),
        st.floats(-1.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_array_gain_is_reception_exactly(self, m_count, num_lines, tau, seed):
        # array_gain and far_field_receive share one sum, so every line the
        # reception keeps agrees bit for bit; a pairwise and a sequential sum
        # of the same terms differ from 8 antennas up.  The gain is compared
        # with the quotient, since gain * total need not round back to power
        rng = np.random.default_rng(seed)
        lines = rng.choice(GRID.max_index + 1, num_lines, replace=False)
        phasors = rng.normal(size=(m_count, num_lines)) + 1j * rng.normal(size=(m_count, num_lines))
        sig = ArraySignal.from_phasors(GRID, lines, phasors)
        received = far_field_receive(sig, tau)
        for k in received.line_indices():
            power = received.line_power(k)
            assert array_gain(sig, k, tau) == power / sig.port_line_power_total(k)


def lobe_signal(m_count, k, base_rate, element_delay, tau0, spread, seed):
    """Line ``k`` on ``m_count`` antennas steered to ``tau0``, each coefficient
    perturbed by complex Gaussian noise of relative size ``spread``."""
    grid = FrequencyGrid(base_rate, k + 1)
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=m_count) + 1j * rng.normal(size=m_count)
    lead = np.exp(1j * np.arange(m_count) * grid.omega(k) * tau0)
    sig = ArraySignal.from_phasors(grid, [k], (lead * (1.0 + spread * noise))[:, None])
    return sig, ArrayGeometry(m_count, element_delay)


def direct_sweep(sig, k, geo, points):
    """Sweep powers from the M x points exponential matrix."""
    taus = np.linspace(-geo.element_delay, geo.element_delay, points)
    received = sig.coefficients(k) @ steering(geo.num_antennas, sig.grid.omega(k) * taus)
    return _line_factor(k) * np.abs(received) ** 2


class TestSweepMatchesDirectProduct:
    BASE, K = 2 * np.pi * 1.3, 31

    @pytest.mark.parametrize(
        "m_count, points, span",
        # span is omega * element_delay: about 5 rad in a degree-9 wide array;
        # then one antenna at the fewest points, M + points - 1 at a power of
        # two (128) and one above it, and a long sweep whose chirp phases
        # reach 1e5 rad, so a chirp or step rounded as one product shows
        [(1024, 4096, 5.0), (1, 16, 5.0), (17, 112, 5.0), (18, 112, 5.0), (4, 4096, 8 * np.pi)],
    )
    def test_lobe_with_perturbations(self, m_count, points, span):
        delay = span / (self.BASE * self.K)
        sig, geo = lobe_signal(m_count, self.K, self.BASE, delay, 0.37 * delay, 0.1, 5)
        reference = direct_sweep(sig, self.K, geo, points)
        p = pattern_sweep(sig, self.K, geo, points)
        assert np.max(np.abs(p.powers - reference)) <= 1e-12 * reference.max()

    def test_forms_no_antenna_by_delay_matrix(self):
        # one complex (M, points) matrix would take 64 MB here
        sig, geo = lobe_signal(1024, self.K, self.BASE, 0.02, 0.0, 0.1, 6)
        tracemalloc.start()
        try:
            pattern_sweep(sig, self.K, geo, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 4096 * 16 // 8

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 64),
        st.integers(16, 2048),
        st.integers(0, 40),
        st.floats(1e-4, 1e3),
        st.floats(0.01, 4 * np.pi),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 2.0),
        st.integers(0, 2**32 - 1),
    )
    def test_random_shapes(self, m_count, points, k, delay, span, lobe, spread, seed):
        # span is omega * element_delay, the largest phase between neighbouring
        # antennas that the sweep reaches
        base_rate = span / (k * delay) if k else 1.0
        sig, geo = lobe_signal(m_count, k, base_rate, delay, lobe * delay, spread, seed)
        reference = direct_sweep(sig, k, geo, points)
        p = pattern_sweep(sig, k, geo, points)
        assert np.max(np.abs(p.powers - reference)) <= 1e-12 * reference.max()


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
        dd = distortion_delays(assignment)
        per_antenna = sig.per_antenna[0].line_power(13)
        coherent = 4 * per_antenna
        for tau in (TAU1, TAU2):
            received = far_field_receive(sig, tau).line_power(13)
            assert received < coherent * (1 - 1e-6)
        at_dd = far_field_receive(sig, dd.upper.tau).line_power(13)
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
        # an in-range delay is kept, even where another representative lies
        # nearer zero (0.045 - 1/13), and is not rounded by a round trip
        for tau in (0.045, -0.05, 0.1 / 7):
            assert fold_delay(tau, 1.0 / 13, 0.05) == tau
        with pytest.raises(ValueError):
            fold_delay(0.4, 1.0, 0.05)
        with pytest.raises(ValueError, match="modulus"):
            fold_delay(0.4, 0.0, 0.05)

    @pytest.mark.parametrize("scale", [1e-20, 1e-9, 1e9])
    def test_fold_delay_is_independent_of_units(self, scale):
        folded = fold_delay(4.8 / 13 * scale, scale / 13, 0.03 * scale)
        assert folded == pytest.approx(-0.2 / 13 * scale, rel=1e-9)
        with pytest.raises(ValueError):
            fold_delay(0.4 * scale, scale, 0.05 * scale)

    @pytest.mark.parametrize(
        "args",
        [(np.inf, 1.0, 0.5), (-np.inf, 1.0, 0.5), (np.nan, 1.0, 0.5), (1e300, 1e-300, 0.5)],
        ids=["inf", "-inf", "nan", "overflowing-turns"],
    )
    def test_fold_delay_rejects_a_delay_with_no_representative(self, args):
        with pytest.raises(ValueError, match="no representative"):
            fold_delay(*args)

    def test_delay_to_angle(self):
        assert delay_to_angle(0.05, 0.1) == pytest.approx(np.pi / 6, rel=1e-12)
        assert delay_to_angle(0.1, 0.1) == pytest.approx(np.pi / 2, rel=1e-12)
        with pytest.raises(ValueError):
            delay_to_angle(0.2, 0.1)

    @pytest.mark.parametrize(
        "tau, element_delay",
        [(0.1, 0.0), (0.1, -0.5), (0.1, np.inf), (0.1, np.nan), (np.nan, 1.0), (np.inf, 1.0)],
    )
    def test_delay_to_angle_rejects_bad_input(self, tau, element_delay):
        with pytest.raises(ValueError, match="finite"):
            delay_to_angle(tau, element_delay)

"""Polynomial device models: exact convolution path and the transmit-chain
band filter, cross-checked against a time-domain oracle (pointwise
polynomial on coherent samples, then DFT) and against a hand-derived
two-tone table, which also pins the mixing-order table ``imdbeam expand``
prints."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imdbeam import (
    ArrayGeometry,
    BandDefinition,
    ConfigError,
    FrequencyGrid,
    GridRangeError,
    LineSpectrum,
    PRUNE_THRESHOLD,
    PolynomialNonlinearity,
    apply_polynomial,
    band_filter,
    estimate_lines,
    sample_waveform,
    steer_tones,
    tone,
    transmit,
)
from imdbeam.cli import _build_parser, _expand_table
from imdbeam.spectra import _I64_MAX, SampledWaveform

GRID = FrequencyGrid(2 * np.pi, 64)
BAND = BandDefinition((8, 12), 4)

# Closed-form amplitudes of a unit two-tone at (9, 11) through x + 0.1*x**3.
EXPANSION_01 = {9: 1.225, 11: 1.225, 13: 0.075, 7: 0.075,
                31: 0.075, 29: 0.075, 27: 0.025, 33: 0.025}


def two_tone(phi1=0.0, phi2=0.0, k1=9, k2=11):
    return tone(GRID, 1.0, k1, phi1) + tone(GRID, 1.0, k2, phi2)


def two_tone_third_order_terms(k1, k2, phi1, phi2, alpha):
    """Closed-form term table for a unit two-tone at ``k1 < k2`` through
    ``x + alpha*x**3``, derived by hand: the independent reference.

    Returns ``(index, amplitude, phase)`` triples, where ``amplitude`` is
    the signed cosine coefficient: the fundamentals scaled by ``1 + 9*alpha/4``,
    four mixing products at ``3*alpha/4`` and the two third harmonics at
    ``alpha/4``.  A negative difference index ``k2 - 2*k1`` is folded to its
    positive mirror with the phase negated (the signal is real), and
    zero-amplitude terms are omitted, so ``alpha = 0`` yields just the two
    unit fundamentals.
    """
    # scaled by exact binary fractions, so no product overflows before a division
    a_fund = 1.0 + 2.25 * alpha
    a_mix = 0.75 * alpha
    a_harm = 0.25 * alpha
    diff = k2 - 2 * k1
    diff_phase = phi2 - 2.0 * phi1
    if diff < 0:
        diff, diff_phase = -diff, -diff_phase
    raw = [
        (k1, a_fund, phi1),
        (k2, a_fund, phi2),
        (2 * k2 + k1, a_mix, 2.0 * phi2 + phi1),
        (2 * k2 - k1, a_mix, 2.0 * phi2 - phi1),
        (k2 + 2 * k1, a_mix, phi2 + 2.0 * phi1),
        (diff, a_mix, diff_phase),
        (3 * k1, a_harm, 3.0 * phi1),
        (3 * k2, a_harm, 3.0 * phi2),
    ]
    return [(k, amp, phase) for k, amp, phase in raw if amp != 0.0]


def time_domain_spectrum(x, f, samples_per_period=256):
    """Independent oracle: apply the polynomial pointwise to coherent samples
    of the input, then recover the lines by DFT."""
    w = sample_waveform(x, 1, samples_per_period)
    distorted = SampledWaveform(f.evaluate(w.samples), w.sample_rate)
    return estimate_lines(distorted, x.grid)


class TestPolynomialNonlinearity:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialNonlinearity(())
        with pytest.raises(ValueError):
            PolynomialNonlinearity((0.0, 0.0))
        with pytest.raises(ValueError):
            PolynomialNonlinearity(tuple([1.0] + [0.0] * 9))  # degree 10

    def test_constructors(self):
        assert PolynomialNonlinearity.third_order(0.1).coefficients == (1.0, 0.0, 0.1)

    def test_pointwise_evaluation(self):
        f = PolynomialNonlinearity((1.0, 0.0, 0.1))
        x = np.array([-1.0, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(f.evaluate(x), x + 0.1 * x**3, rtol=1e-15)


class TestApplyPolynomial:
    def test_identity_returns_input(self):
        x = two_tone(0.3, -0.8)
        assert apply_polynomial(x, PolynomialNonlinearity((1.0,))) == x

    def test_pure_cube_of_cosine(self):
        # cos^3 = (3/4) cos + (1/4) cos(3.)
        y = apply_polynomial(tone(GRID, 1.0, 5), PolynomialNonlinearity((0.0, 0.0, 1.0)))
        assert y.line_indices() == (5, 15)
        assert y.amplitude(5) == pytest.approx(0.75, rel=1e-14)
        assert y.amplitude(15) == pytest.approx(0.25, rel=1e-14)

    def test_third_order_two_tone_amplitudes(self):
        y = apply_polynomial(two_tone(), PolynomialNonlinearity.third_order(0.1))
        assert y.line_indices() == tuple(sorted(EXPANSION_01))
        for k, amp in EXPANSION_01.items():
            assert y.amplitude(k) == pytest.approx(amp, rel=1e-12)

    def test_intermediate_powers_are_not_pruned(self):
        # x**3 of 1e-5 tones has coefficients below PRUNE_THRESHOLD; only the
        # sum, where a_3 = 100 lifts them above it, is pruned
        x = tone(GRID, 1e-5, 9) + tone(GRID, 1e-5, 11)
        y = apply_polynomial(x, PolynomialNonlinearity((1.0, 0.0, 100.0)))
        assert y.line_indices() == tuple(sorted(EXPANSION_01))
        for k in (7, 13):
            assert y.amplitude(k) == pytest.approx(75.0 * 1e-15, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
    def test_second_order_null_near_band(self, alpha):
        # after the transmit chain, a second-order device adds nothing near
        # the tone band beyond a copy of the input
        band = BandDefinition((8, 12), 3)
        x = two_tone(0.4, -0.2)
        y = band_filter(
            apply_polynomial(x, PolynomialNonlinearity((1.0, alpha))), band
        )
        residual = y + x.scaled(-1.0)
        assert residual.total_power() < 1e-24

    def test_grid_overflow(self):
        small = FrequencyGrid(2 * np.pi, 10)
        with pytest.raises(GridRangeError):
            apply_polynomial(tone(small, 1.0, 9), PolynomialNonlinearity.third_order(0.1))

    def test_empty_input(self):
        y = apply_polynomial(LineSpectrum(GRID), PolynomialNonlinearity.third_order(0.1))
        assert not y.line_indices()

    def test_even_degree_parity(self):
        # even powers of an odd-index tone only reach even multiples of it
        f = PolynomialNonlinearity((0.0, 1.0, 0.0, 0.3))
        y = apply_polynomial(tone(GRID, 1.0, 9, 0.7), f)
        assert all(k % 18 == 0 for k in y.line_indices())

    def test_parseval_against_time_oracle(self):
        rng = np.random.default_rng(21)
        f = PolynomialNonlinearity((1.0, 0.2, 0.1))
        x = tone(GRID, 1.3, 5, rng.uniform(-np.pi, np.pi))
        x += tone(GRID, 0.6, 7, rng.uniform(-np.pi, np.pi))
        y = apply_polynomial(x, f)
        w = sample_waveform(x, 1, 512)
        assert np.mean(f.evaluate(w.samples) ** 2) == pytest.approx(
            y.total_power(), rel=1e-9
        )


class TestTwoToneThirdOrderTerms:
    def test_reference_amplitudes(self):
        terms = two_tone_third_order_terms(9, 11, 0.0, 0.0, 0.1)
        by_index = {k: amp for k, amp, _ in terms}
        assert by_index == pytest.approx(EXPANSION_01, rel=1e-12)

    def test_linear_device_keeps_only_fundamentals(self):
        terms = two_tone_third_order_terms(9, 11, 0.3, 0.5, 0.0)
        assert [(k, amp) for k, amp, _ in terms] == [(9, 1.0), (11, 1.0)]
        assert [phase for _, _, phase in terms] == [0.3, 0.5]

    def test_upper_product_phase_combination(self):
        for alpha in (0.1, 0.37, -0.2):
            terms = two_tone_third_order_terms(9, 11, 0.3, 0.5, alpha)
            phase_13 = next(p for k, _, p in terms if k == 13)
            assert phase_13 == pytest.approx(2 * 0.5 - 0.3, rel=1e-12)

    def test_negative_difference_folded(self):
        # k2 - 2*k1 = -7: the real line sits at +7 with the phase negated
        terms = two_tone_third_order_terms(9, 11, 0.3, 0.5, 0.1)
        phase_7 = next(p for k, _, p in terms if k == 7)
        assert phase_7 == pytest.approx(-(0.5 - 2 * 0.3), rel=1e-12)

    def test_order_contract(self):
        terms = two_tone_third_order_terms(9, 11, 0.0, 0.0, 0.1)
        assert [k for k, _, _ in terms] == [9, 11, 31, 13, 29, 7, 27, 33]
        # at alpha = -4/9 gain compression cancels both fundamentals exactly,
        # so the table starts with the products
        terms = two_tone_third_order_terms(10, 13, 0.0, 0.0, -4 / 9)
        assert [k for k, _, _ in terms] == [36, 16, 33, 7, 30, 39]


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("alpha", [-1.0, -0.5, -0.1, 0.01, 0.1, 0.5, 1.0])
    def test_convolution_vs_closed_form_vs_dft(self, alpha):
        phi1, phi2 = 0.35, -1.1
        x = two_tone(phi1, phi2)
        f = PolynomialNonlinearity.third_order(alpha)
        via_convolution = apply_polynomial(x, f)
        # the table's amplitudes are signed, so its cosines are not tones
        terms = two_tone_third_order_terms(9, 11, phi1, phi2, alpha)
        via_closed_form = LineSpectrum.from_phasors(
            GRID, [k for k, _, _ in terms], [[a / 2 * np.exp(1j * p) for _, a, p in terms]]
        )
        via_time_domain = time_domain_spectrum(x, f)
        assert via_convolution.allclose(via_closed_form, rtol=1e-12, atol=1e-13)
        assert via_convolution.allclose(via_time_domain, rtol=1e-9, atol=1e-11)


@st.composite
def tone_pairs(draw):
    """``k1 < k2`` with ``3 * k2`` in 64 bits, often with ``k2`` at
    ``2 * k1`` (the difference product on line 0) or ``3 * k1`` (products
    sharing lines)."""
    k1 = draw(st.integers(1, _I64_MAX // 9))
    multiple = st.sampled_from([2 * k1, 3 * k1])
    return k1, draw(st.one_of(multiple, st.integers(k1 + 1, _I64_MAX // 3)))


def expand_table(k1, k2, alpha, phi1, phi2):
    """The rows of ``imdbeam expand``, each float passed as its repr."""
    flags = [f"--k1={k1}", f"--k2={k2}", f"--alpha={alpha!r}"]
    flags += [f"--phi1={phi1!r}", f"--phi2={phi2!r}"]
    return _expand_table(_build_parser().parse_args(["expand", *flags]))


class TestExpandTable:
    @settings(max_examples=300, deadline=None)
    @given(
        tone_pairs(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e300, 1e300),
        st.floats(-1e300, 1e300),
    )
    @example((9, 11), 0.1, 0.35, -1.1)
    @example((4, 8), -0.3, 0.5, 0.25)
    @example((4, 12), 2.0, -0.7, 1.9)
    @example((9, 11), 8e307, 0.0, 0.0)
    def test_rows_equal_the_closed_form(self, tones, alpha, phi1, phi2):
        # as a multiset and bit for bit up to the sign of a zero, less the
        # rows whose phasor (half the amplitude) lies below PRUNE_THRESHOLD;
        # an overflowing amplitude is a usage error instead
        k1, k2 = tones
        reference = two_tone_third_order_terms(k1, k2, phi1, phi2, alpha)
        if not all(np.isfinite([amp for _, amp, _ in reference])):
            with pytest.raises(ConfigError, match="^--alpha: "):
                expand_table(k1, k2, alpha, phi1, phi2)
            return

        def bits(rows):
            # adding 0.0 turns -0.0 into 0.0 and changes no other float
            return sorted((k, (amp + 0.0).hex(), (phase + 0.0).hex()) for k, amp, phase in rows)

        kept = [row for row in reference if abs(row[1]) / 2 >= PRUNE_THRESHOLD]
        lines, amplitudes, phases = expand_table(k1, k2, alpha, phi1, phi2)
        assert lines == sorted(lines)
        assert bits(zip(lines, amplitudes, phases)) == bits(kept)

    @pytest.mark.parametrize("k1, k2", [(9, 11), (4, 8), (4, 12)])
    def test_one_antenna_transmit_carries_the_table(self, k1, k2):
        # the library path to the table: transmit on one antenna, keeping every line
        phi1, phi2, alpha = 0.35, -1.1, 0.1
        grid = FrequencyGrid(1.0, 3 * k2)
        geometry = ArrayGeometry(1, 1.0)
        assignment = steer_tones(grid, geometry, {k1: 0.0, k2: 0.0}, {k1: phi1, k2: phi2})
        band = BandDefinition((k1, k2), 1, keep_window=(0, 3 * k2))
        f = PolynomialNonlinearity.third_order(alpha)
        (signal,) = transmit(assignment, f, band).per_antenna
        lines, amplitudes, phases = map(np.array, expand_table(k1, k2, alpha, phi1, phi2))
        phasors = amplitudes / np.where(lines == 0, 1.0, 2.0) * np.exp(1j * phases)
        table = LineSpectrum.from_phasors(grid, lines, [phasors])
        assert signal.allclose(table, rtol=1e-14, atol=1e-16)


class TestBandDefinition:
    def test_around(self):
        band = BandDefinition((8, 12), 4)
        assert band.adjacent_lower == (4, 7)
        assert band.adjacent_upper == (13, 16)
        assert band.keep_window == (4, 16)

    def test_explicit_keep_window(self):
        band = BandDefinition((8, 12), 4, keep_window=(0, 40))
        assert band.keep_window == (0, 40)

    def test_invariants(self):
        with pytest.raises(ValueError, match="cover"):  # keep window too small
            BandDefinition((8, 12), 3, (8, 12))
        with pytest.raises(ValueError, match="adjacent_width"):  # below index zero
            BandDefinition((2, 4), 3)
        with pytest.raises(ValueError, match="integers"):
            BandDefinition((8.5, 12), 3, (5, 15))
        with pytest.raises(ValueError, match="lo <= hi"):  # reversed interval
            BandDefinition((12, 8), 3, (5, 15))
        with pytest.raises(ValueError, match="cover"):  # misses the upper band
            BandDefinition((8, 12), 3, (5, 14))
        with pytest.raises(ValueError, match="adjacent_width"):
            BandDefinition((8, 12), 0)
        # rejected, not truncated to (8, 12)
        with pytest.raises(ValueError, match="in_band bounds must be integers"):
            BandDefinition((8.5, 12.9), 4)
        with pytest.raises(ValueError, match="^adjacent_width must be an integer"):
            BandDefinition((8, 12), 2.5)


class TestBandFilter:
    def test_third_order_output_keeps_near_band(self):
        y = apply_polynomial(two_tone(), PolynomialNonlinearity.third_order(0.1))
        kept = band_filter(y, BandDefinition((8, 12), 3))  # keep [5, 15]
        assert kept.line_indices() == (7, 9, 11, 13)

    def test_empty_input(self):
        assert not band_filter(LineSpectrum(GRID), BAND).line_indices()

    def test_full_window_is_identity(self):
        y = apply_polynomial(two_tone(), PolynomialNonlinearity.third_order(0.1))
        band = BandDefinition((8, 12), 4, keep_window=(0, 64))
        assert band_filter(y, band) == y


class TestSpectrumInSpectrumOut:
    def test_line_spectrum_stays_a_line_spectrum(self):
        x = two_tone()
        y = apply_polynomial(x, PolynomialNonlinearity.third_order(0.1))
        assert type(y) is LineSpectrum
        assert type(band_filter(y, BAND)) is LineSpectrum
        assert type(band_filter(x, BAND)) is LineSpectrum

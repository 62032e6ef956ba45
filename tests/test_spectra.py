"""Line-spectrum algebra and the coherent sampling / DFT oracle path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdbeam import (
    PRUNE_THRESHOLD,
    AliasingError,
    FrequencyGrid,
    GridMismatchError,
    GridRangeError,
    LeakageError,
    LineSpectrum,
    SampledWaveform,
    estimate_lines,
    sample_waveform,
    tone,
)
from imdbeam.spectra import _superpose

GRID = FrequencyGrid(2 * np.pi, 64)


def random_spectrum(rng, grid=GRID, max_lines=6):
    ks = rng.choice(np.arange(1, grid.max_index + 1), size=max_lines, replace=False)
    tones = (
        tone(grid, float(rng.uniform(0.1, 2.0)), int(k), float(rng.uniform(-np.pi, np.pi)))
        for k in ks
    )
    return sum(tones, LineSpectrum(grid))


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, 8)
        with pytest.raises(ValueError):
            FrequencyGrid(-1.0, 8)
        with pytest.raises(ValueError):
            FrequencyGrid(1.0, 0)

    def test_omega_and_period(self):
        grid = FrequencyGrid(2 * np.pi, 8)
        assert grid.omega(3) == pytest.approx(6 * np.pi)
        assert grid.omega(-3) == pytest.approx(-6 * np.pi)
        assert grid.fundamental_period == pytest.approx(1.0)


class TestTone:
    def test_cosine_phasor_decomposition(self):
        s = tone(GRID, 1.0, 9, 0.0)
        assert s.coefficients(9)[0] == 0.5
        assert s.coefficients(-9)[0] == 0.5
        assert s.line_indices() == (9,)

    def test_phase_rotation(self):
        s = tone(GRID, 1.0, 11, np.pi / 2)
        assert s.coefficients(11)[0] == pytest.approx(0.5j, abs=1e-15)
        assert s.coefficients(-11)[0] == pytest.approx(-0.5j, abs=1e-15)

    def test_zero_amplitude_prunes_to_empty(self):
        assert not tone(GRID, 0.0, 9, 0.3).line_indices()

    def test_amplitude_and_phase_readback(self):
        s = tone(GRID, 1.7, 5, 0.4)
        assert s.amplitude(5) == pytest.approx(1.7)
        assert s.phase(5) == pytest.approx(0.4)

    def test_index_out_of_range(self):
        with pytest.raises(GridRangeError):
            tone(GRID, 1.0, 65)
        with pytest.raises(GridRangeError):
            tone(GRID, 1.0, 0)
        with pytest.raises(GridRangeError):
            tone(GRID, 1.0, -3)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            tone(GRID, -1.0, 9)

    @pytest.mark.parametrize(
        "amplitude, phase",
        [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.inf), (1.0, np.nan)],
        ids=["nan-amplitude", "inf-amplitude", "inf-phase", "nan-phase"],
    )
    def test_non_finite_rejected(self, amplitude, phase):
        # rejected before numpy computes (and warns about) a NaN coefficient
        with pytest.raises(ValueError, match="finite"):
            tone(GRID, amplitude, 9, phase)


class TestAdd:
    def test_two_tone_superposition(self):
        s = tone(GRID, 1.0, 9) + tone(GRID, 1.0, 11)
        assert s.line_indices() == (9, 11)
        assert s.coefficients(9)[0] == 0.5
        assert s.coefficients(11)[0] == 0.5

    def test_additive_identity(self):
        s = tone(GRID, 1.0, 9, 0.2)
        assert s + LineSpectrum(GRID) == s

    def test_cancellation(self):
        s = tone(GRID, 1.0, 9, 0.0) + tone(GRID, 1.0, 9, np.pi)
        assert not s.line_indices()

    def test_grid_mismatch(self):
        other = FrequencyGrid(1.0, 64)
        with pytest.raises(GridMismatchError):
            tone(GRID, 1.0, 9) + tone(other, 1.0, 9)

    def test_commutative_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = random_spectrum(rng), random_spectrum(rng)
            assert a + b == b + a

    def test_associative_up_to_prune(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b, c = (random_spectrum(rng) for _ in range(3))
            assert ((a + b) + c).allclose(a + (b + c), rtol=1e-12, atol=1e-13)


class TestConstruction:
    def test_symmetry_violation_rejected(self):
        with pytest.raises(ValueError, match="conjugate symmetry"):
            LineSpectrum(GRID, {3: 1.0 + 0j, -3: 1.0 + 0.5j})

    def test_one_sided_input_mirrored(self):
        s = LineSpectrum(GRID, {3: 1.0 + 2.0j})
        assert s.coefficients(-3)[0] == 1.0 - 2.0j

    def test_dc_must_be_real(self):
        with pytest.raises(ValueError, match="zero-frequency"):
            LineSpectrum(GRID, {0: 1.0 + 1.0j})
        s = LineSpectrum(GRID, {0: 2.0})
        assert s.line_powers(0)[0] == pytest.approx(4.0)

    def test_immutable(self):
        s = tone(GRID, 1.0, 9)
        with pytest.raises(AttributeError):
            s.grid = GRID

    def test_prune_threshold(self):
        s = LineSpectrum(GRID, {3: 1e-15})
        assert not s.line_indices()

    def test_superpose_of_distinct_sorted_lines_is_a_new_matrix(self):
        # such lines skip the merge but not the copy, since _store writes
        # into the result; -0.0 becomes +0.0 as on the merge path
        phasors = np.array([[1.0 + 2.0j, complex(-0.0, -0.0)]])
        lines, merged = _superpose(np.array([3, 5]), phasors)
        assert not np.shares_memory(merged, phasors)
        _, reference = _superpose(np.array([5, 3]), phasors[:, ::-1])
        assert lines.tolist() == [3, 5]
        assert merged.tobytes() == reference.tobytes()

    def test_non_finite_mapping_coefficient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LineSpectrum(GRID, {9: np.nan})

    def test_non_finite_phasor_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LineSpectrum.from_phasors(GRID, [9, 11], [[1.0, complex(0.0, np.inf)]])

    def test_scaled_by_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            tone(GRID, 1.0, 9).scaled(np.nan)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LineSpectrum(GRID, {9.5: 1.0}),
            lambda: tone(GRID, 1.0, 9.5),
            lambda: LineSpectrum.from_phasors(GRID, [9.7], [[1.0]]),
            lambda: LineSpectrum.from_phasors(GRID, [True], [[1.0]]),
            lambda: LineSpectrum.from_phasors(GRID, [np.nan], [[1.0]]),
            lambda: LineSpectrum.from_phasors(GRID, np.array([9.0, 11.5]), [[1.0, 1.0]]),
            # numpy would cast a bool among numbers to line 1
            lambda: LineSpectrum.from_phasors(GRID, [9, True], [[1.0, 1.0]]),
            lambda: LineSpectrum.from_phasors(GRID, [9.0, True], [[1.0, 1.0]]),
            # int(True) == True, so tone would otherwise build line 1
            lambda: tone(GRID, 1.0, True),
            lambda: LineSpectrum(GRID, {True: 1.0}),
        ],
        ids=[
            "mapping",
            "tone",
            "phasors",
            "bool",
            "nan",
            "float-array",
            "int-and-bool",
            "float-and-bool",
            "tone-bool",
            "mapping-bool",
        ],
    )
    def test_non_whole_line_index_rejected(self, build):
        # the index is checked as given, not truncated to a line it does not name
        with pytest.raises(GridRangeError, match="whole numbers"):
            build()

    def test_whole_float_line_index_kept(self):
        s = LineSpectrum.from_phasors(GRID, [9.0, 11.0], [[1.0, 2.0]])
        assert s.support.tolist() == [9, 11] and s.support.dtype == np.int64


class TestPower:
    def test_line_power_convention(self):
        # a cosine of amplitude A carries mean-square power A**2/2
        s = tone(GRID, 2.0, 9)
        assert s.line_powers(9)[0] == pytest.approx(2.0)
        assert s.total_power() == pytest.approx(2.0)

    def test_parseval_against_samples(self):
        rng = np.random.default_rng(10)
        s = random_spectrum(rng)
        w = sample_waveform(s, 1, 256)
        assert np.mean(w.samples**2) == pytest.approx(s.total_power(), rel=1e-12)


class TestSampleWaveform:
    def test_empty_spectrum_gives_zeros(self):
        w = sample_waveform(LineSpectrum(GRID), 1, 256)
        assert np.all(w.samples == 0.0)
        assert w.samples.size == 256

    def test_direct_evaluation(self):
        grid = FrequencyGrid(2 * np.pi, 3)
        w = sample_waveform(tone(grid, 1.0, 1, 0.0), 1, 8)
        expected = np.cos(2 * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(w.samples, expected, atol=1e-14)

    def test_two_tone_bounded_by_two(self):
        s = tone(GRID, 1.0, 9) + tone(GRID, 1.0, 11)
        w = sample_waveform(s, 3, 256)
        assert np.max(np.abs(w.samples)) <= 2.0 + 1e-12

    def test_nyquist_violation(self):
        with pytest.raises(AliasingError):
            sample_waveform(tone(GRID, 1.0, 9), 1, 128)

    def test_bad_periods(self):
        with pytest.raises(ValueError):
            sample_waveform(tone(GRID, 1.0, 9), 0, 256)

    @pytest.mark.parametrize(
        "periods, samples_per_period, field",
        [(1, 200.5, "samples_per_period"), (True, 256, "periods"), (1.5, 256, "periods")],
        ids=["fractional-samples", "bool-periods", "fractional-periods"],
    )
    def test_non_whole_arguments_rejected_at_the_call(self, periods, samples_per_period, field):
        # 200.5 would give 200 samples at a rate that is not coherent, which
        # estimate_lines would only reject later as leakage
        with pytest.raises(ValueError, match=field):
            sample_waveform(tone(GRID, 1.0, 9), periods, samples_per_period)

    def test_bad_sample_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            SampledWaveform(np.zeros(8), 0.0)

    def test_samples_read_only(self):
        w = sample_waveform(tone(GRID, 1.0, 9), 1, 256)
        with pytest.raises(ValueError):
            w.samples[0] = 1.0


class TestEstimateLines:
    def test_single_tone_round_trip(self):
        s = tone(GRID, 1.0, 9, 0.3)
        est = estimate_lines(sample_waveform(s, 1, 256), GRID)
        assert est.amplitude(9) == pytest.approx(1.0, rel=1e-9)
        assert est.phase(9) == pytest.approx(0.3, rel=1e-9)

    def test_third_order_output_round_trip(self):
        # expected amplitudes from the closed-form third-order expansion of a
        # unit two-tone at (9, 11) with cubic coefficient 0.1
        from imdbeam import PolynomialNonlinearity, apply_polynomial

        x = tone(GRID, 1.0, 9) + tone(GRID, 1.0, 11)
        y = apply_polynomial(x, PolynomialNonlinearity.third_order(0.1))
        est = estimate_lines(sample_waveform(y, 1, 256), GRID)
        expected = {9: 1.225, 11: 1.225, 13: 0.075, 7: 0.075,
                    31: 0.075, 29: 0.075, 27: 0.025, 33: 0.025}
        assert est.line_indices() == tuple(sorted(expected))
        for k, amp in expected.items():
            assert est.amplitude(k) == pytest.approx(amp, rel=1e-9)

    def test_all_zero_samples(self):
        w = SampledWaveform(np.zeros(256), 256 / GRID.fundamental_period)
        assert not estimate_lines(w, GRID).line_indices()

    def test_round_trip_property(self):
        rng = np.random.default_rng(11)
        for periods in (1, 2, 5):
            s = random_spectrum(rng)
            est = estimate_lines(sample_waveform(s, periods, 200), GRID)
            assert est.allclose(s, rtol=1e-9)

    def test_empty_waveform_rejected(self):
        with pytest.raises(LeakageError, match="empty"):
            estimate_lines(SampledWaveform(np.zeros(0), 1.0), GRID)

    def test_leakage_rejected(self):
        w = sample_waveform(tone(GRID, 1.0, 9), 1, 256)
        truncated = SampledWaveform(w.samples[:200], w.sample_rate)
        with pytest.raises(LeakageError):
            estimate_lines(truncated, GRID)

    def test_aliasing_rejected(self):
        small = FrequencyGrid(2 * np.pi, 3)
        w = sample_waveform(tone(small, 1.0, 1), 1, 8)
        with pytest.raises(AliasingError):
            estimate_lines(w, GRID)  # max_index 64 needs a far higher rate


class TestEvaluate:
    def test_matches_manual_sum(self):
        s = tone(GRID, 1.5, 9, 0.2) + tone(GRID, 0.5, 11, -0.7)
        t = np.array([0.0, 0.013, 0.2, 0.77])
        expected = 1.5 * np.cos(18 * np.pi * t + 0.2) + 0.5 * np.cos(22 * np.pi * t - 0.7)
        np.testing.assert_allclose(s.evaluate(t), expected, atol=1e-12)

    def test_scaled(self):
        s = tone(GRID, 1.0, 9, 0.2)
        assert s.scaled(2.0).amplitude(9) == pytest.approx(2.0)
        assert s.scaled(-1.0).coefficients(9)[0] == -s.coefficients(9)[0]


SMALL_GRID = FrequencyGrid(2 * np.pi, 16)


class DictSpectrum:
    """Reference model of a line spectrum as a signed ``index -> coefficient``
    dict: one- or two-sided input (the first value seen for ``|k|`` wins),
    the conjugate mirrored to ``-k``, the coefficient at 0 made real, lines
    below PRUNE_THRESHOLD dropped, and every operation done per signed line."""

    def __init__(self, lines):
        half = {}
        for k, c in lines.items():
            half.setdefault(abs(k), complex(c) if k >= 0 else complex(c).conjugate())
        self.lines = {}
        for k, c in half.items():
            c = complex(c.real, 0.0) if k == 0 else c
            if abs(c) >= PRUNE_THRESHOLD:
                self.lines[k] = c
                if k:
                    self.lines[-k] = c.conjugate()

    def __add__(self, other):
        merged = dict(self.lines)
        for k, c in other.lines.items():
            merged[k] = merged.get(k, 0j) + c
        return DictSpectrum(merged)

    def scaled(self, factor):
        return DictSpectrum({k: factor * c for k, c in self.lines.items()})

    def items(self):
        return sorted(self.lines.items())

    def line_power(self, k):
        c = self.lines.get(abs(k), 0j)
        mag2 = c.real * c.real + c.imag * c.imag
        return mag2 if k == 0 else 2.0 * mag2

    def evaluate(self, t):
        out = np.zeros(t.shape)
        for k, c in self.items():
            if k == 0:
                out += c.real
            elif k > 0:
                out += 2.0 * (c * np.exp(1j * SMALL_GRID.omega(k) * t)).real
        return out


SMALL = st.sampled_from([0.0, 1e-16, 5e-15, 2e-14])  # below and just above the threshold
PART = st.one_of(SMALL, st.floats(-2.0, 2.0))


@st.composite
def line_maps(draw):
    """One-sided line map on SMALL_GRID (the DC imaginary part within the
    realness tolerance) and a conjugate-symmetric two-sided version of it in
    shuffled order."""
    ks = draw(st.lists(st.integers(0, SMALL_GRID.max_index), max_size=6, unique=True))
    one_sided = {
        k: complex(draw(PART), draw(st.sampled_from([0.0, 1e-12])) if k == 0 else draw(PART))
        for k in ks
    }
    pairs = list(one_sided.items())
    pairs += [(-k, c.conjugate()) for k, c in one_sided.items() if k and draw(st.booleans())]
    return one_sided, dict(draw(st.permutations(pairs)))


class TestAgainstDictReference:
    @settings(max_examples=200, deadline=None)
    @given(line_maps(), line_maps(), st.floats(-3.0, 3.0))
    def test_matches_dict_model(self, maps_a, maps_b, factor):
        (one_a, two_a), (one_b, _) = maps_a, maps_b
        a, b = LineSpectrum(SMALL_GRID, one_a), LineSpectrum(SMALL_GRID, one_b)
        ref_a, ref_b = DictSpectrum(one_a), DictSpectrum(one_b)
        assert LineSpectrum(SMALL_GRID, two_a) == a
        assert list(DictSpectrum(two_a).items()) == ref_a.items()
        t = np.linspace(0.0, 1.0, 7)
        for got, ref in ((a, ref_a), (a + b, ref_a + ref_b), (a.scaled(factor), ref_a.scaled(factor))):
            assert list(got.items()) == ref.items()
            assert got.line_indices() == tuple(k for k, _ in ref.items() if k >= 0)
            for k in range(-SMALL_GRID.max_index, SMALL_GRID.max_index + 1):
                assert got.line_powers(k)[0] == ref.line_power(k)
                assert got.coefficients(k)[0] == ref.lines.get(k, 0j)
            np.testing.assert_array_equal(got.evaluate(t), ref.evaluate(t))

"""Independent-distortion-noise model: determinism, port-power matching,
direction-flat mean patterns, and their contrast with the behavioral
model's pattern of the same line."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imdbeam import (
    ArrayGeometry,
    ArraySignal,
    BandDefinition,
    FrequencyGrid,
    NoiseModelConfig,
    PolynomialNonlinearity,
    independent_noise_transmit,
    matched_noise_config,
    mean_pattern,
    pattern_sweep,
    steer_tones,
    transmit,
    uniform_phase,
)
from imdbeam.array import steering
from imdbeam.baseline import (
    PHASE_BITS,
    PHASE_STEP,
    TRIAL_CHUNK,
    _lag_sums,
    _noise,
    _phase_from_hash,
    _phasor_table,
)
from imdbeam.spectra import TWO_PI

GRID = FrequencyGrid(2 * np.pi, 64)
BAND = BandDefinition((8, 12), 4)
CUBIC = PolynomialNonlinearity.third_order(0.1)
GEO = ArrayGeometry(2, 1.0 / 26.0)
TAU = 0.01


def scenario():
    assignment = steer_tones(GRID, GEO, {9: TAU, 11: TAU})
    behavioral = transmit(assignment, CUBIC, BAND)
    desired = transmit(assignment, PolynomialNonlinearity((1.0,)), BAND)
    return behavioral, desired


class TestNoiseModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModelConfig((13,), -1.0, 10, 0)
        with pytest.raises(ValueError):
            NoiseModelConfig((13,), 1.0, 0, 0)
        with pytest.raises(ValueError):
            NoiseModelConfig((0,), 1.0, 10, 0)
        with pytest.raises(ValueError):
            NoiseModelConfig((13,), 1.0, 10, 2**63)


class TestUniformPhase:
    def test_deterministic_and_in_range(self):
        a = uniform_phase(42, 3, 1, 13)
        assert a == uniform_phase(42, 3, 1, 13)
        assert 0.0 <= a < 2 * np.pi

    def test_keys_decorrelate(self):
        base = uniform_phase(42, 3, 1, 13)
        assert base != uniform_phase(43, 3, 1, 13)
        assert base != uniform_phase(42, 4, 1, 13)
        assert base != uniform_phase(42, 3, 0, 13)
        assert base != uniform_phase(42, 3, 1, 7)

    def test_negative_seed_allowed(self):
        assert 0.0 <= uniform_phase(-5, 0, 0, 13) < 2 * np.pi


class TestIndependentNoiseTransmit:
    def test_zero_power_returns_desired(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.0, 5, 7)
        assert independent_noise_transmit(desired, cfg, 0) is desired

    def test_same_key_reproduces(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13, 7), 0.004, 5, 7)
        a = independent_noise_transmit(desired, cfg, 2)
        b = independent_noise_transmit(desired, cfg, 2)
        for m in range(2):
            assert a.per_antenna[m] == b.per_antenna[m]

    def test_desired_lines_untouched(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13, 7), 0.004, 5, 7)
        noisy = independent_noise_transmit(desired, cfg, 0)
        for k in (9, 11):
            assert np.array_equal(noisy.coefficients(k), desired.coefficients(k))

    def test_port_line_power_is_configured_power(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.004, 5, 7)
        for trial in range(5):
            noisy = independent_noise_transmit(desired, cfg, trial)
            for m in range(2):
                assert noisy.per_antenna[m].line_powers(13)[0] == pytest.approx(
                    0.004, rel=1e-12
                )

    def test_trial_bounds(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.004, 5, 7)
        with pytest.raises(ValueError):
            independent_noise_transmit(desired, cfg, 5)

    def test_monte_carlo_mean_received_power_is_flat(self):
        # expected received power at any direction is M * per-antenna power
        _, desired = scenario()
        power = 0.0028125
        cfg = NoiseModelConfig((13,), power, 10_000, 314)
        pattern = mean_pattern(cfg, desired, GEO, 13, 64)
        np.testing.assert_allclose(pattern.powers, 2 * power, rtol=0.1)


class TestMeanPattern:
    @pytest.mark.parametrize("seed", [1, 2, 6, 42])
    def test_single_trial_matches_sweep(self, seed):
        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.005, 1, seed)
        mp = mean_pattern(cfg, desired, GEO, 13, 64)
        sp = pattern_sweep(independent_noise_transmit(desired, cfg, 0), 13, GEO, 64)
        # both sweeps round relative to the coherent sum, so a point near a
        # deep null agrees only to the peak's precision
        np.testing.assert_allclose(mp.powers, sp.powers, rtol=0, atol=1e-12 * sp.powers.max())

    def test_contrast_near_one(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.0028125, 10_000, 1234)
        pattern = mean_pattern(cfg, desired, GEO, 13, 1024)
        assert abs(pattern.contrast - 1.0) <= 0.1

    def test_flatness_improves_like_one_over_trials(self):
        _, desired = scenario()
        power = 0.0028125
        few = NoiseModelConfig((13,), power, 500, 7)
        many = NoiseModelConfig((13,), power, 8000, 7)
        var_few = np.var(mean_pattern(few, desired, GEO, 13, 256).powers)
        var_many = np.var(mean_pattern(many, desired, GEO, 13, 256).powers)
        assert var_many < var_few / 4  # 16x the trials

    def test_starts_no_thread_and_reruns_bitwise(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("mean_pattern started a thread")

        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.0028125, 2 * TRIAL_CHUNK + 1, 99)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        serial = mean_pattern(cfg, desired, GEO, 13, 512)
        again = mean_pattern(cfg, desired, GEO, 13, 512)
        assert np.array_equal(again.powers, serial.powers)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_zero_desired_line_within_eight_sigma_of_expectation(self, seed):
        # the benchmark checker's baseline_expectation gate: with no desired
        # line, every swept power lies within 8/sqrt(trials) of M * P_line
        m_count, power, trials = 64, 0.003, 10_000
        geometry = ArrayGeometry(m_count, 1.0 / 26.0)
        desired = ArraySignal.from_phasors(GRID, [9], np.ones((m_count, 1)))
        cfg = NoiseModelConfig((13,), power, trials, seed)
        mp = mean_pattern(cfg, desired, geometry, 13, 1024)
        expected = m_count * power
        assert np.max(np.abs(mp.powers - expected)) <= 8 * expected / np.sqrt(trials)

    def test_unconfigured_line_rejected(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.004, 5, 7)
        with pytest.raises(ValueError):
            mean_pattern(cfg, desired, GEO, 12, 64)


class TestMatchedNoiseConfig:
    def test_port_powers_agree_between_models(self):
        behavioral, desired = scenario()
        cfg = matched_noise_config(behavioral, (13, 7), 100, 5)
        assert cfg.per_antenna_line_power == pytest.approx(0.075**2 / 2, rel=1e-12)
        noisy = independent_noise_transmit(desired, cfg, 0)
        for m in range(2):
            for k in (13, 7):
                assert noisy.per_antenna[m].line_powers(k)[0] == pytest.approx(
                    behavioral.per_antenna[m].line_powers(k)[0], rel=1e-9
                )

    def test_unequal_powers_rejected(self):
        behavioral, _ = scenario()
        with pytest.raises(ValueError):
            matched_noise_config(behavioral, (13, 9), 100, 5)  # product vs fundamental

    def test_no_lines_rejected(self):
        behavioral, _ = scenario()
        with pytest.raises(ValueError, match="no line indices"):
            matched_noise_config(behavioral, (), 100, 5)


class TestBehavioralAgainstBaselinePattern:
    """The two models' patterns of one line: the behavioral sweep is directive,
    the matched noise model's mean pattern flat."""

    def test_behavioral_directive_baseline_not(self):
        behavioral, desired = scenario()
        cfg = matched_noise_config(behavioral, (13,), 10_000, 1234)
        bp = pattern_sweep(behavioral, 13, GEO, 1024)
        mp = mean_pattern(cfg, desired, GEO, 13, 1024)
        assert bp.contrast > 1.9
        assert abs(mp.contrast - 1.0) < 0.1
        assert bp.peak_power / mp.peak_power == pytest.approx(2.0, rel=0.05)
        assert mp.flatness < 0.05 < bp.flatness

    def test_zero_distortion_marker(self):
        _, desired = scenario()
        cfg = NoiseModelConfig((13,), 0.0, 10, 1)
        mp = mean_pattern(cfg, desired, GEO, 13, 64)
        assert mp.peak_power == 0.0
        assert (mp.contrast, mp.flatness) == (0.0, 0.0)


class TestUniformPhaseVectorised:
    """The broadcasting draw: its range, its key domain and its agreement
    with the scalar call and with both callers."""

    def test_largest_hash_maps_strictly_below_two_pi(self):
        top = _phase_from_hash(np.array([2**64 - 1], dtype=np.uint64))[0]
        assert 0.0 < top < TWO_PI
        assert _phase_from_hash(np.array([0], dtype=np.uint64))[0] == 0.0

    def test_broadcast_equals_scalar_calls_at_key_extremes(self):
        seeds = np.array([-(2**63), -5, -1, 0, 1, 2**63 - 1])
        trials = np.array([0, 1, 1023, 1024, 2**40])
        antennas = np.array([0, 1, 63, 1023])
        lines = np.array([1, 13, 10**13])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint64 overflow warnings
            grid = uniform_phase(
                seeds[:, None, None, None],
                trials[None, :, None, None],
                antennas[None, None, :, None],
                lines[None, None, None, :],
            )
            assert grid.shape == (6, 5, 4, 3)
            for (i, t, m, k), phase in np.ndenumerate(grid):
                scalar = uniform_phase(
                    int(seeds[i]), int(trials[t]), int(antennas[m]), int(lines[k])
                )
                assert np.ndim(scalar) == 0
                assert scalar == phase
        assert np.all((grid >= 0.0) & (grid < TWO_PI))
        assert np.unique(grid).size == grid.size

    def test_both_callers_draw_the_keyed_phase(self):
        _, desired = scenario()
        power = 0.004
        cfg = NoiseModelConfig((13, 7), power, 3, -77)
        half_amp = 0.5 * np.sqrt(2.0 * power)
        for trial in range(3):
            noisy = independent_noise_transmit(desired, cfg, trial)
            for m in range(2):
                for k in (13, 7):
                    expected = half_amp * np.exp(1j * uniform_phase(-77, trial, m, k))
                    assert noisy.coefficients(k)[m] == expected
        # mean_pattern over the same keys averages the per-trial sweeps
        sweeps = [
            pattern_sweep(independent_noise_transmit(desired, cfg, t), 13, GEO, 64)
            for t in range(3)
        ]
        expected = np.mean([sp.powers for sp in sweeps], axis=0)
        mp = mean_pattern(cfg, desired, GEO, 13, 64)
        np.testing.assert_allclose(
            mp.powers, expected, rtol=0, atol=1e-12 * expected.max()
        )


_MASK = 2**64 - 1
_INT64 = st.integers(-(2**63), 2**63 - 1)
_KEY_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1]


def _reference_phase(seed, trial, antenna, line):
    """Independent reference for uniform_phase in Python integers: one full
    splitmix64 step, finaliser and all, per word in the order seed, line,
    trial, antenna, then the top PHASE_BITS bits times PHASE_STEP."""
    gamma = 0x9E3779B97F4A7C15
    h = 0
    for word in (seed, line, trial, antenna):
        z = ((h ^ (word & _MASK)) * gamma + gamma) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        h = z ^ (z >> 31)
    return (h >> (64 - PHASE_BITS)) * PHASE_STEP


class TestUniformPhaseReference:
    """Every draw, scalar or broadcast, is the Python-integer splitmix64 chain
    bit for bit, so no rewrite of the numpy hash can change a phase."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=_INT64,
        line=_INT64,
        trials=st.lists(_INT64, min_size=1, max_size=4),
        antennas=st.lists(_INT64, min_size=1, max_size=4),
    )
    def test_matches_python_int_splitmix64(self, seed, line, trials, antennas):
        grid = uniform_phase(seed, np.array(trials)[:, None], np.array(antennas), line)
        assert grid.shape == (len(trials), len(antennas))
        for (t, m), phase in np.ndenumerate(grid):
            expected = _reference_phase(seed, trials[t], antennas[m], line)
            assert phase == expected
            assert uniform_phase(seed, trials[t], antennas[m], line) == expected

    def test_matches_python_int_splitmix64_at_key_extremes(self):
        keys = np.array(_KEY_EXTREMES)
        grid = uniform_phase(
            keys[:, None, None, None],
            keys[None, :, None, None],
            keys[None, None, :, None],
            keys[None, None, None, :],
        )
        for (i, t, m, k), phase in np.ndenumerate(grid):
            key = (_KEY_EXTREMES[i], _KEY_EXTREMES[t], _KEY_EXTREMES[m], _KEY_EXTREMES[k])
            expected = _reference_phase(*key)
            assert phase == expected
            assert uniform_phase(*key) == expected


class TestUniformPhaseTable:
    """One draw: the phasor table read by the noise draws is exp(1j * phase)
    of the phases uniform_phase returns, bit for bit."""

    def test_noise_on_a_full_chunk_is_exp_of_the_phase(self):
        power, seed = 0.003, -77
        cfg = NoiseModelConfig((13,), power, TRIAL_CHUNK, seed)
        trials, antennas = np.arange(TRIAL_CHUNK)[:, None], np.arange(64)
        unit = _noise(cfg, trials, antennas, 13)
        exact = np.exp(1j * uniform_phase(seed, trials, antennas, 13))
        assert unit.shape == (TRIAL_CHUNK, 64)
        assert np.array_equal(unit.view(np.uint64), exact.view(np.uint64))
        magnitude = cfg.magnitude(13)
        assert magnitude == np.sqrt(power / 2.0)
        noise, expected = magnitude * unit, magnitude * exact
        assert np.array_equal(noise.view(np.uint64), expected.view(np.uint64))

    def test_noise_into_a_buffer_matches_the_allocating_draw(self):
        cfg = NoiseModelConfig((13,), 0.003, 10, -5)
        trials, antennas = np.arange(7)[:, None], np.arange(3)
        buf = np.zeros((10, 3), complex)
        out = buf[:7]
        unit = _noise(cfg, trials, antennas, 13, out)
        assert unit is out
        expected = _noise(cfg, trials, antennas, 13)
        assert np.array_equal(buf[:7].view(np.uint64), expected.view(np.uint64))
        assert not buf[7:].any()

    def test_table_has_the_moments_of_a_uniform_phase(self):
        table = _phasor_table()
        assert table.shape == (2**PHASE_BITS,)
        assert abs(table.mean()) < 1e-15
        assert abs((table**2).mean()) < 1e-15


class TestUniformPhaseStatistics:
    """A weak mixer that correlated neighbouring keys would make the
    "independent" baseline beamform by itself; 2**17 draws per check."""

    TRIALS, ANTENNAS = 2048, 64

    def draws(self, seed=11, trial0=0, antenna0=0, line=13):
        return uniform_phase(
            seed,
            trial0 + np.arange(self.TRIALS)[:, None],
            antenna0 + np.arange(self.ANTENNAS)[None, :],
            line,
        ).ravel()

    def test_mean_and_variance_are_uniform(self):
        phases = self.draws()
        n = phases.size
        # U[0, w): mean w/2, variance w**2/12, fourth central moment w**4/80
        w = TWO_PI
        assert abs(phases.mean() - w / 2) < 5 * np.sqrt(w**2 / 12 / n)
        var_sd = w**2 * np.sqrt((1 / 80 - 1 / 144) / n)
        assert abs(phases.var() - w**2 / 12) < 5 * var_sd

    @pytest.mark.parametrize(
        "shifted",
        [
            {"seed": 12},
            {"trial0": 1},
            {"antenna0": 1},
            {"line": 14},
        ],
        ids=["seed", "trial", "antenna", "line"],
    )
    def test_keys_one_apart_are_uncorrelated(self, shifted):
        a, b = self.draws(), self.draws(**shifted)
        assert abs(np.mean(np.exp(1j * (a - b)))) < 5 / np.sqrt(a.size)


def _direct_mean_powers(cfg, desired, geometry, k, taus):
    """Reference for mean_pattern: the per-trial ``2 |c_t . s|**2`` average."""
    steer = steering(geometry.num_antennas, desired.grid.omega(k) * taus)
    c_des = desired.coefficients(k)
    half_amp = 0.5 * np.sqrt(2.0 * cfg.per_antenna_line_power)
    total = np.zeros(taus.size)
    antennas = np.arange(geometry.num_antennas)
    for t in range(cfg.trials):
        phases = uniform_phase(cfg.seed, t, antennas, k)
        received = (c_des + half_amp * np.exp(1j * phases)) @ steer
        total += 2.0 * np.abs(received) ** 2
    return total / cfg.trials


class TestLagSums:
    @pytest.mark.parametrize("m_count", [1, 2, 64, 257])
    def test_matches_bincount_over_the_lag_matrix_bitwise(self, m_count):
        # magnitudes spread over 16 decades, so a different summation order
        # rounds differently
        rng = np.random.default_rng(m_count)
        shape = (m_count, m_count)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g *= 10.0 ** rng.uniform(-8, 8, shape)
        antennas = np.arange(m_count)
        lags = np.subtract.outer(antennas, antennas)
        lag, values = lags[lags >= 0], g[lags >= 0]
        expected = np.bincount(lag, values.real) + 1j * np.bincount(lag, values.imag)
        h = _lag_sums(g)
        assert h.shape == (m_count,)
        assert np.array_equal(h.view(np.uint64), expected.view(np.uint64))


class TestCovarianceSweep:
    POINTS = 64

    @settings(max_examples=15, deadline=None)
    @given(
        m_count=st.integers(1, 8),
        trials=st.integers(1, 2 * TRIAL_CHUNK + 40).filter(lambda t: t % TRIAL_CHUNK),
        power=st.sampled_from([0.0, 1e-6, 0.003, 2.0]),
        des_re=st.floats(-1.0, 1.0),
        des_im=st.floats(-1.0, 1.0),
        null_at=st.none() | st.integers(0, POINTS - 1),
        seed=st.integers(-(2**63), 2**63 - 1),
    )
    # more than one chunk, with and without noise
    @example(
        m_count=8, trials=TRIAL_CHUNK + 1, power=0.003, des_re=0.6, des_im=-0.2,
        null_at=None, seed=5,
    )
    @example(
        m_count=8, trials=2 * TRIAL_CHUNK + 7, power=0.0, des_re=0.3, des_im=0.4,
        null_at=None, seed=-(2**63),
    )
    # a zero desired line, which skips the phasor sums, over several chunks
    @example(
        m_count=8, trials=2 * TRIAL_CHUNK + 7, power=0.003, des_re=0.0, des_im=0.0,
        null_at=None, seed=7,
    )
    # fewer trials than antennas
    @example(
        m_count=8, trials=3, power=0.003, des_re=0.6, des_im=-0.2, null_at=None, seed=11
    )
    # fewer trials than the 2 * m_count real columns: a rank-deficient update
    @example(
        m_count=8, trials=5, power=2.0, des_re=-0.4, des_im=0.9, null_at=None, seed=3
    )
    # a desired null on a sweep point, where rounding of the quadratic form
    # gave a negative power
    @example(
        m_count=2, trials=1, power=0.0, des_re=1.0, des_im=0.0, null_at=0, seed=1
    )
    def test_matches_direct_per_trial_average(
        self, m_count, trials, power, des_re, des_im, null_at, seed
    ):
        geometry = ArrayGeometry(m_count, 1.0 / 26.0)
        taus = np.linspace(-geometry.element_delay, geometry.element_delay, self.POINTS)
        # a desired line at the swept index with a phase progression across
        # the array, so the pattern has a lobe and nulls besides the noise
        c_des = (des_re + 1j * des_im) * np.exp(0.7j * np.arange(m_count))
        if null_at is not None:
            s = steering(m_count, GRID.omega(13) * taus[null_at])
            c_des = c_des - (c_des @ s) / m_count * s.conj()
        desired = ArraySignal.from_phasors(GRID, [13], c_des[:, None])
        cfg = NoiseModelConfig((13,), power, trials, seed)
        mp = mean_pattern(cfg, desired, geometry, 13, self.POINTS)
        assert np.array_equal(mp.taus, taus)
        ref = _direct_mean_powers(cfg, desired, geometry, 13, taus)
        assert np.all(mp.powers >= 0.0)
        np.testing.assert_allclose(mp.powers, ref, rtol=0, atol=1e-12 * ref.max())

    def test_wide_array_with_zero_desired_line_matches_direct(self):
        # 64 antennas and three chunks: the sized case of every benchmark
        # product line, whose desired coefficients are all zero
        geometry = ArrayGeometry(64, 1.0 / 26.0)
        desired = ArraySignal.from_phasors(GRID, [13], np.zeros((64, 1)))
        cfg = NoiseModelConfig((13,), 0.003, 2 * TRIAL_CHUNK + 3, 21)
        mp = mean_pattern(cfg, desired, geometry, 13, self.POINTS)
        ref = _direct_mean_powers(cfg, desired, geometry, 13, mp.taus)
        np.testing.assert_allclose(mp.powers, ref, rtol=0, atol=1e-12 * ref.max())

    def test_wide_array_with_few_trials_matches_direct(self):
        geometry = ArrayGeometry(64, 1.0 / 26.0)
        c_des = 0.3 * np.exp(0.7j * np.arange(64))
        desired = ArraySignal.from_phasors(GRID, [13], c_des[:, None])
        cfg = NoiseModelConfig((13,), 0.003, 4, 11)
        mp = mean_pattern(cfg, desired, geometry, 13, 512)
        ref = _direct_mean_powers(cfg, desired, geometry, 13, mp.taus)
        np.testing.assert_allclose(mp.powers, ref, rtol=0, atol=1e-12 * ref.max())

"""Independent-per-antenna distortion-noise model, for contrast with the
behavioral device model.

Each trial adds to every antenna a fixed-power line with an independent
uniform random phase at each configured distortion index, so distortion is
uncorrelated across antennas and its trial-averaged radiation is flat in
direction.  Phases come from a keyed counter-based hash in the manner of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11): every
draw is a pure function of (seed, trial, antenna, line), which makes results
reproducible across platforms and orderings.  The hash chains the four 64-bit
key words through splitmix64 steps in numpy ``uint64`` arithmetic, so one call
draws the phases of a whole trial chunk.  The last, full-size step runs in
place and skips the finaliser's closing xor-shift, which leaves the top 33
bits unchanged.  A phase is one of 2**16 points spaced evenly (so
E[e^{i phi}] = E[e^{2i phi}] = 0); its phasor is a lookup.

The trial-averaged pattern is a quadratic form in the per-trial coefficient
vectors, ``sum_t |c_t . s|^2 = s^H G s`` with ``G = sum_t conj(c_t) c_t^T``;
``mean_pattern`` assembles ``G`` from phasor sums taken serially over fixed
trial chunks, in chunk order, and sweeps its lag sums by one chirp-z.  Each
chunk's unit phasors are gathered into one reused buffer, and the chunk adds
one real symmetric rank-k update (BLAS ``syrk``) on their real view and,
unless the desired line is exactly zero, their column sums.
"""

from dataclasses import dataclass
from functools import cache
import math

import numpy as np

from .array import (
    DEFAULT_SWEEP_POINTS,
    ArrayGeometry,
    ArraySignal,
    Pattern,
    _build_pattern,
    _chirp_z,
    _sweep_grid,
)
from .errors import GridMismatchError
from .spectra import TWO_PI, _I64_MAX, _I64_MIN, _is_whole, _line_factor

# Trials per covariance chunk: caps a chunk's draws at TRIAL_CHUNK x M and
# fixes the order of the sum.
TRIAL_CHUNK = 1024

DIRECTIVE_CONTRAST = 1.5

PHASE_BITS = 16
PHASE_STEP = TWO_PI * 2.0**-PHASE_BITS


@dataclass(frozen=True)
class NoiseModelConfig:
    """Distortion-noise lines added per antenna, with Monte Carlo settings."""

    distortion_line_indices: tuple[int, ...]
    per_antenna_line_power: float
    trials: int
    seed: int

    def __post_init__(self):
        if not all(_is_whole(k) and k >= 1 for k in self.distortion_line_indices):
            raise ValueError("distortion_line_indices must be positive integers")
        indices = tuple(int(k) for k in self.distortion_line_indices)
        object.__setattr__(self, "distortion_line_indices", indices)
        if not 0 <= self.per_antenna_line_power < math.inf:
            raise ValueError("per_antenna_line_power must be finite and >= 0")
        if not _is_whole(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not (_is_whole(self.seed) and _I64_MIN <= self.seed <= _I64_MAX):
            raise ValueError("seed must be an integer that fits in 64 bits")

    def magnitude(self, line):
        """Magnitude of a noise coefficient of power ``per_antenna_line_power``."""
        return np.sqrt(self.per_antenna_line_power / _line_factor(line))


# splitmix64 (Steele, Lea and Flood, OOPSLA 2014): Weyl increment and the
# multipliers of its 64-bit finaliser
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, a bijection on ``uint64`` with full avalanche."""
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def _phase_from_hash(h: np.ndarray) -> np.ndarray:
    """Top ``PHASE_BITS`` bits of a ``uint64`` hash as ``index * PHASE_STEP``;
    the largest hash maps to ``TWO_PI - PHASE_STEP``."""
    phase = (h >> (64 - PHASE_BITS)).astype(np.float64)
    phase *= PHASE_STEP
    return phase


@cache
def _phasor_table() -> np.ndarray:
    """``exp(1j * (j * PHASE_STEP))`` at every index ``j``; built on first use."""
    return np.exp(1j * (np.arange(2**PHASE_BITS) * PHASE_STEP))


def uniform_phase(seed, trial, antenna, line):
    """Deterministic phase, uniform on the grid ``j * PHASE_STEP`` of [0, 2*pi),
    keyed by the full draw coordinate; no shared generator state.

    Each key is an int64 scalar or array.  The keys broadcast against each
    other: the result has their broadcast shape (a float for four scalars),
    and every element equals the scalar call on its coordinate.  The
    words are absorbed in the order seed, line, trial, antenna, each by one
    splitmix64 step ``h <- mix64(((h ^ word) + 1) * GAMMA)``.  The last step
    skips mix64's closing ``z ^ (z >> 31)``: it leaves the top 33 bits
    unchanged, and the phase is read from the top ``PHASE_BITS`` alone.
    """
    keys = (seed, line, trial, antenna)
    shape = np.broadcast_shapes(*(np.shape(k) for k in keys))
    # h stays an array of at least one element: uint64 ufuncs wrap silently
    # on arrays, while operations on numpy scalars warn on overflow
    h = np.zeros(1, np.uint64)
    for k in keys[:-1]:
        word = np.asarray(k, np.int64).view(np.uint64)
        h = _mix64((h ^ word) * _GAMMA + _GAMMA)
    # the last step, in place on the one full-size array h ^ word, stops before
    # mix64's closing z ^ (z >> 31), which cannot change the top PHASE_BITS
    z = h ^ np.asarray(keys[-1], np.int64).view(np.uint64)
    z *= _GAMMA
    z += _GAMMA
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    return _phase_from_hash(z).reshape(shape)[()]


def _noise(cfg: NoiseModelConfig, trial, antenna, line, out=None):
    """Unit phasor ``exp(1j * uniform_phase(...))`` of the noise at each
    (trial, antenna, line) key, read from the phasor table; the keys broadcast
    as in :func:`uniform_phase`.  The phases are turned back into table
    indices in place.  ``out``, if given, is a complex array of the keys'
    broadcast shape that receives the phasors and is returned."""
    phase = np.asarray(uniform_phase(cfg.seed, trial, antenna, line))
    index = np.rint(np.divide(phase, PHASE_STEP, out=phase), out=phase)
    # every index lies in [0, 2**PHASE_BITS), so "wrap" never wraps; with
    # out given, the default "raise" gathers through a temporary copy
    return np.take(_phasor_table(), index.astype(np.intp), out=out, mode="wrap")


def independent_noise_transmit(
    desired: ArraySignal, cfg: NoiseModelConfig, trial: int
) -> ArraySignal:
    """One realization of the noise model: the desired signal plus, on each
    antenna, a line of power ``per_antenna_line_power`` and i.i.d. uniform
    phase at every configured distortion index."""
    if not 0 <= trial < cfg.trials:
        raise ValueError(f"trial must lie in [0, {cfg.trials})")
    if cfg.per_antenna_line_power == 0.0 or not cfg.distortion_line_indices:
        return desired
    lines = np.array(cfg.distortion_line_indices)
    antennas = np.arange(desired.num_antennas)
    noise = cfg.magnitude(lines) * _noise(cfg, trial, antennas[:, None], lines[None, :])
    return ArraySignal.from_phasors(
        desired.grid,
        np.concatenate((desired.support, lines)),
        np.concatenate((desired.phasors, noise), axis=1),
    )


def _lag_sums(g: np.ndarray) -> np.ndarray:
    """``h_d = sum_m g[m + d, m]`` for ``d = 0 .. M - 1`` of a square ``g``,
    each summed in order of ``m`` from zero, one column of ``g`` at a time."""
    m_count = g.shape[0]
    h = np.zeros(m_count, g.dtype)
    for m in range(m_count):
        h[: m_count - m] += g[m:, m]
    return h


def mean_pattern(
    cfg: NoiseModelConfig,
    desired: ArraySignal,
    geometry: ArrayGeometry,
    freq_index: int,
    num_points: int = DEFAULT_SWEEP_POINTS,
) -> Pattern:
    """Trial-averaged received-power sweep of the noise line at
    ``freq_index``.

    Trials are summed serially in fixed ``TRIAL_CHUNK`` chunks, in chunk
    order, so the result is bit-identical on every run.  Each chunk gathers
    its unit phasors into the leading rows of one buffer allocated per call
    and adds ``R^T R`` for the ``2 * M``-column real view ``R`` of them, one
    BLAS ``syrk`` with no copy; the 2 x 2 blocks of the sum give their
    Gram matrix once.  Their sums, and the cross terms they carry, are taken
    only when some desired coefficient at ``freq_index`` is nonzero; at a
    zero line both are exactly zero.  The covariance
    ``sum_t conj(c_t) c_t^T`` follows once, and its lag sums are swept once,
    by chirp-z, at M**2 plus FFT cost.
    """
    if freq_index not in cfg.distortion_line_indices:
        raise ValueError(f"index {freq_index} is not a configured distortion line")
    taus, tol = _sweep_grid(desired, freq_index, geometry, num_points)
    m_count = geometry.num_antennas
    c_des = desired.coefficients(freq_index)
    antennas = np.arange(m_count)
    # a zero desired line has no cross terms, so its phasor sums go unused
    coherent = bool(np.any(c_des))
    sums = np.zeros(m_count, complex)
    # Gram matrix of the phasors' real view, whose columns are Re u_0, Im u_0,
    # Re u_1, ...: an array times its own transpose is one BLAS syrk
    real_gram = np.zeros((2 * m_count, 2 * m_count))
    update = np.empty_like(real_gram)
    chunk = np.empty((min(TRIAL_CHUNK, cfg.trials), m_count), complex)
    for lo in range(0, cfg.trials, TRIAL_CHUNK):
        trials = np.arange(lo, min(lo + TRIAL_CHUNK, cfg.trials))
        unit = _noise(cfg, trials[:, None], antennas, freq_index, chunk[: trials.size])
        if coherent:
            sums += unit.sum(axis=0)
        re_im = unit.view(np.float64)
        real_gram += np.matmul(re_im.T, re_im, out=update)
    # sum_t conj(u_t) u_t^T from the 2 x 2 blocks of real_gram
    re, im = real_gram[0::2], real_gram[1::2]
    total = np.empty((m_count, m_count), complex)
    np.add(re[:, 0::2], im[:, 1::2], out=total.real)
    np.subtract(re[:, 1::2], im[:, 0::2], out=total.imag)
    magnitude = cfg.magnitude(freq_index)
    total *= magnitude**2
    if coherent:
        cross = np.outer(c_des.conj(), magnitude * sums)
        total += cfg.trials * np.outer(c_des.conj(), c_des) + cross + cross.conj().T
    # with h_d = sum_m G[m + d, m] and h_0 halved, s^H G s = 2 Re sum_d h_d e^{i d omega tau}
    # is >= 0 exactly, so a negative value is rounding near a null
    h = _lag_sums(total)
    h[0] /= 2.0
    swept = _chirp_z(h.conj(), desired.grid.omega(freq_index), geometry.element_delay, num_points)
    powers = np.maximum(_line_factor(freq_index) * 2.0 * swept.real / cfg.trials, 0.0)
    # expected per-port line power: desired line plus the configured noise
    port_total = desired.port_line_power_total(freq_index) + (
        m_count * cfg.per_antenna_line_power
    )
    return _build_pattern(freq_index, taus, powers, port_total, tol)


def matched_noise_config(
    signal: ArraySignal,
    line_indices: tuple[int, ...],
    trials: int,
    seed: int,
) -> NoiseModelConfig:
    """Noise config whose per-antenna line power equals the behavioral
    signal's at the given indices, so the two models agree exactly at the
    ports and differ only over the air."""
    if not line_indices:
        raise ValueError("no line indices to match")
    powers = np.array([signal.line_powers(k) for k in line_indices])
    ref = float(powers[0, 0])
    if np.any(np.abs(powers - ref) > 1e-9 * max(ref, 1e-300)):
        raise ValueError(
            "behavioral line powers differ across antennas or indices; "
            "a single matched noise power is ill-defined"
        )
    return NoiseModelConfig(tuple(line_indices), ref, trials, seed)


@dataclass(frozen=True)
class ModelContrast:
    """Side-by-side directivity summary of two patterns on one sweep grid.

    ``flatness`` is the standard deviation over the sweep divided by the
    mean; a model is flagged directive when its peak-to-mean contrast
    exceeds DIRECTIVE_CONTRAST.
    """

    freq_index: int
    behavioral_peak_tau: float
    baseline_peak_tau: float
    peak_power_ratio: float | None
    behavioral_contrast: float
    baseline_contrast: float
    behavioral_flatness: float
    baseline_flatness: float
    behavioral_directive: bool
    baseline_directive: bool
    note: str | None = None


def _flatness(pattern: Pattern) -> float:
    mean = float(np.mean(pattern.powers))
    # std of the powers scaled by their mean first, so squaring cannot overflow
    return float(np.std(pattern.powers / mean)) if mean > 0 else 0.0


def model_contrast_report(behavioral: Pattern, baseline: Pattern) -> ModelContrast:
    """Compare a behavioral-model pattern with a noise-model mean pattern
    computed for the same line on the same sweep grid."""
    if behavioral.freq_index != baseline.freq_index or not np.array_equal(
        behavioral.taus, baseline.taus
    ):
        raise GridMismatchError(
            "patterns were swept on different lines or delay grids"
        )
    # two all-zero patterns have contrast, flatness and ratio 0, 0 and None
    # on this path as well; only the note tells them apart
    empty = behavioral.peak_power == 0.0 and baseline.peak_power == 0.0
    ratio = (
        behavioral.peak_power / baseline.peak_power
        if baseline.peak_power > 0.0
        else None
    )
    return ModelContrast(
        freq_index=behavioral.freq_index,
        behavioral_peak_tau=behavioral.peak_tau,
        baseline_peak_tau=baseline.peak_tau,
        peak_power_ratio=ratio,
        behavioral_contrast=behavioral.contrast,
        baseline_contrast=baseline.contrast,
        behavioral_flatness=_flatness(behavioral),
        baseline_flatness=_flatness(baseline),
        behavioral_directive=behavioral.contrast > DIRECTIVE_CONTRAST,
        baseline_directive=baseline.contrast > DIRECTIVE_CONTRAST,
        note="no distortion lines" if empty else None,
    )

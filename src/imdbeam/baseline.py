"""Independent-per-antenna distortion-noise model, for contrast with the
behavioral device model.

Each trial adds to every antenna a fixed-power line with an independent
uniform random phase at each configured distortion index, so distortion is
uncorrelated across antennas and its trial-averaged radiation is flat in
direction.  Phases come from a keyed counter-based generator: every draw is
a pure function of (seed, trial, antenna, line), which makes results
reproducible across platforms, orderings, and parallel schedules.
"""

import hashlib
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .array import (
    DEFAULT_SWEEP_POINTS,
    ArrayGeometry,
    ArraySignal,
    Pattern,
    _build_pattern,
    _sweep_grid,
)
from .errors import GridMismatchError
from .spectra import TWO_PI

# Fixed accumulation chunk; identical partial sums for any worker count.
TRIAL_CHUNK = 1024

DIRECTIVE_CONTRAST = 1.5

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class NoiseModelConfig:
    """Distortion-noise lines added per antenna, with Monte Carlo settings."""

    distortion_line_indices: tuple[int, ...]
    per_antenna_line_power: float
    trials: int
    seed: int

    def __post_init__(self):
        indices = tuple(int(k) for k in self.distortion_line_indices)
        object.__setattr__(self, "distortion_line_indices", indices)
        if any(k < 1 for k in indices):
            raise ValueError("distortion line indices must be positive")
        if self.per_antenna_line_power < 0:
            raise ValueError("per_antenna_line_power must be >= 0")
        if int(self.trials) != self.trials or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not _I64_MIN <= self.seed <= _I64_MAX:
            raise ValueError("seed must fit in 64 bits")


def uniform_phase(seed: int, trial: int, antenna: int, line: int) -> float:
    """Deterministic uniform phase on [0, 2*pi) keyed by the full draw
    coordinate; no shared generator state."""
    key = struct.pack(">4q", seed, trial, antenna, line)
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return TWO_PI * (int.from_bytes(digest, "big") / 2.0**64)


def independent_noise_transmit(
    desired: ArraySignal, cfg: NoiseModelConfig, trial: int
) -> ArraySignal:
    """One realization of the noise model: the desired signal plus, on each
    antenna, a line of power ``per_antenna_line_power`` and i.i.d. uniform
    phase at every configured distortion index."""
    if not 0 <= trial < cfg.trials:
        raise ValueError(f"trial must lie in [0, {cfg.trials})")
    amp = float(np.sqrt(2.0 * cfg.per_antenna_line_power))
    if amp == 0.0 or not cfg.distortion_line_indices:
        return desired
    lines = cfg.distortion_line_indices
    phases = np.array(
        [
            [uniform_phase(cfg.seed, trial, m, k) for k in lines]
            for m in range(desired.num_antennas)
        ]
    )
    return ArraySignal.from_phasors(
        desired.grid,
        np.concatenate((desired.support, lines)),
        np.concatenate((desired.phasors, 0.5 * amp * np.exp(1j * phases)), axis=1),
    )


def mean_pattern(
    cfg: NoiseModelConfig,
    desired: ArraySignal,
    geometry: ArrayGeometry,
    freq_index: int,
    num_points: int = DEFAULT_SWEEP_POINTS,
    workers: int = 1,
) -> Pattern:
    """Trial-averaged received-power sweep of the noise line at
    ``freq_index``.

    Trials are accumulated in fixed-size chunks in a fixed order, so the
    result is bit-identical for any ``workers`` count; chunks may be
    evaluated concurrently.
    """
    if freq_index not in cfg.distortion_line_indices:
        raise ValueError(f"index {freq_index} is not a configured distortion line")
    taus, steer, tol = _sweep_grid(desired, freq_index, geometry, num_points)
    m_count = geometry.num_antennas
    amp = float(np.sqrt(2.0 * cfg.per_antenna_line_power))
    c_des = desired.coefficients(freq_index)

    def chunk_power_sum(bounds):
        lo, hi = bounds
        phases = np.array(
            [
                [uniform_phase(cfg.seed, t, m, freq_index) for m in range(m_count)]
                for t in range(lo, hi)
            ]
        )
        coeffs = c_des[None, :] + 0.5 * amp * np.exp(1j * phases)
        received = coeffs @ steer
        return (2.0 * np.abs(received) ** 2).sum(axis=0)

    chunks = [
        (lo, min(lo + TRIAL_CHUNK, cfg.trials))
        for lo in range(0, cfg.trials, TRIAL_CHUNK)
    ]
    if workers <= 1:
        partials = [chunk_power_sum(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(chunk_power_sum, chunks))
    total = np.zeros(num_points)
    for p in partials:
        total += p
    powers = total / cfg.trials
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

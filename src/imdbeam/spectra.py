"""Exact line-spectrum algebra for real multi-tone signals.

Signals here are finite sums of real cosines whose angular frequencies sit on
an integer grid ``k * base_rate``.  Each cosine ``c*cos(k*dw*t + phi)`` is
stored as the phasor ``(c/2)*exp(1j*phi)`` at index ``+k`` together with its
conjugate at ``-k``, so superposition and products (convolutions of the line
sets) involve no floating-point frequency matching at all.

A coherently sampled time-domain path (:func:`sample_waveform` /
:func:`estimate_lines`) provides an independent numerical cross-check of the
phasor algebra.
"""

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, GridMismatchError, GridRangeError, LeakageError

TWO_PI = 2.0 * np.pi

# Coefficients below this magnitude are dropped after every operation; far
# below every tolerance used by callers, so pruning is unobservable.
PRUNE_THRESHOLD = 1e-14


@dataclass(frozen=True)
class FrequencyGrid:
    """Integer frequency grid: admissible lines are ``k * base_rate`` rad/s
    for ``|k| <= max_index``.

    ``max_index`` must leave headroom for every harmonic a caller intends to
    generate (degree-P products of lines up to ``k`` need ``P*k``).
    """

    base_rate: float
    max_index: int

    def __post_init__(self):
        if not self.base_rate > 0.0:
            raise ValueError("base_rate must be positive")
        if int(self.max_index) != self.max_index or self.max_index < 1:
            raise ValueError("max_index must be a positive integer")

    def omega(self, index: int) -> float:
        """Angular frequency of line ``index``, rad/s (signed)."""
        return index * self.base_rate

    @property
    def fundamental_period(self) -> float:
        return TWO_PI / self.base_rate


class LineSpectrum:
    """Immutable set of phasor lines of a real signal on a shared grid.

    Storage is exactly conjugate-symmetric: the coefficient at ``-k`` is the
    conjugate of the one at ``+k``, and the coefficient at 0 (when present)
    is real.  Construction accepts one-sided or two-sided maps; a two-sided
    map must already be conjugate-symmetric.
    """

    __slots__ = ("grid", "_lines")

    def __init__(self, grid: FrequencyGrid, lines: Mapping[int, complex] = ()):
        half: dict[int, complex] = {}
        for k, v in dict(lines).items():
            c = complex(v)
            kk = abs(k)
            want = c if k >= 0 else c.conjugate()
            have = half.get(kk)
            if have is None:
                half[kk] = want
            elif abs(have - want) > 1e-9 * max(abs(have), 1.0):
                raise ValueError(f"conjugate symmetry violated at index {kk}")
        stored: dict[int, complex] = {}
        for kk in sorted(half):
            c = half[kk]
            if kk > grid.max_index:
                raise GridRangeError(
                    f"line index {kk} exceeds grid max_index {grid.max_index}"
                )
            if kk == 0:
                if abs(c.imag) > 1e-9 * max(abs(c), 1.0):
                    raise ValueError("zero-frequency coefficient must be real")
                c = complex(c.real, 0.0)
            if abs(c) < PRUNE_THRESHOLD:
                continue
            stored[kk] = c
            if kk:
                stored[-kk] = c.conjugate()
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_lines", stored)

    def __setattr__(self, name, value):
        raise AttributeError("LineSpectrum is immutable")

    @classmethod
    def from_real_tones(
        cls, grid: FrequencyGrid, terms: Iterable[tuple[int, float, float]]
    ) -> "LineSpectrum":
        """Build a spectrum from ``(index, amplitude, phase)`` cosine terms.

        Repeated indices superpose.  A term at index 0 contributes the
        constant ``amplitude*cos(phase)``.
        """
        acc: dict[int, complex] = {}
        for k, amp, phase in terms:
            if k < 0:
                raise GridRangeError("tone index must be >= 0")
            if k == 0:
                acc[0] = acc.get(0, 0j) + amp * np.cos(phase)
            else:
                acc[k] = acc.get(k, 0j) + 0.5 * amp * np.exp(1j * phase)
        return cls(grid, acc)

    # -- inspection ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._lines

    def indices(self) -> tuple[int, ...]:
        """Sorted non-negative line indices present in the spectrum."""
        return tuple(sorted(k for k in self._lines if k >= 0))

    def items(self):
        """Signed ``(index, coefficient)`` pairs in ascending index order."""
        return iter(sorted(self._lines.items()))

    def coefficient(self, index: int) -> complex:
        return self._lines.get(index, 0j)

    def amplitude(self, index: int) -> float:
        """Amplitude of the real cosine at ``index >= 0`` (0 if absent)."""
        c = self.coefficient(abs(index))
        return abs(c) if index == 0 else 2.0 * abs(c)

    def phase(self, index: int) -> float:
        return float(np.angle(self.coefficient(index)))

    def as_real_tones(self) -> list[tuple[int, float, float]]:
        """``(index, amplitude, phase)`` triples, one per non-negative line."""
        return [(k, self.amplitude(k), self.phase(k)) for k in self.indices()]

    def line_power(self, index: int) -> float:
        """Mean-square power carried by the line: ``A**2/2`` for a cosine of
        amplitude A, ``A**2`` for the constant at index 0."""
        c = self.coefficient(abs(index))
        mag2 = c.real * c.real + c.imag * c.imag
        return mag2 if index == 0 else 2.0 * mag2

    def total_power(self) -> float:
        """Mean-square power of the whole signal (Parseval sum)."""
        return float(sum(abs(c) ** 2 for c in self._lines.values()))

    def conjugate_symmetry_defect(self) -> float:
        """Largest ``|c(-k) - conj(c(+k))|``; zero by construction."""
        return max(
            (
                abs(self._lines.get(-k, 0j) - c.conjugate())
                for k, c in self._lines.items()
                if k > 0
            ),
            default=0.0,
        )

    def evaluate(self, t) -> np.ndarray:
        """Evaluate the real signal at times ``t`` (seconds, array-like)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=float)
        for k, c in self._lines.items():
            if k == 0:
                out += c.real
            elif k > 0:
                out += 2.0 * (c * np.exp(1j * self.grid.omega(k) * t)).real
        return out

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LineSpectrum):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatchError("cannot add spectra on different grids")
        merged = dict(self._lines)
        for k, c in other._lines.items():
            merged[k] = merged.get(k, 0j) + c
        return LineSpectrum(self.grid, merged)

    def scaled(self, factor: float) -> "LineSpectrum":
        """Spectrum of the signal multiplied by a real factor."""
        return LineSpectrum(
            self.grid, {k: factor * c for k, c in self._lines.items()}
        )

    def allclose(self, other: "LineSpectrum", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Per-line comparison over the union of present indices."""
        if other.grid != self.grid:
            return False
        for k in set(self._lines) | set(other._lines):
            a = self._lines.get(k, 0j)
            b = other._lines.get(k, 0j)
            if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, LineSpectrum):
            return NotImplemented
        return self.grid == other.grid and self._lines == other._lines

    def __repr__(self):
        return (
            f"LineSpectrum(grid={self.grid!r}, "
            f"lines={{{', '.join(f'{k}: {self._lines[k]:.6g}' for k in self.indices())}}})"
        )


class ArraySignal:
    """Line spectra of every antenna of an array, on one grid.

    All antennas are driven by the same tones through the same device, so
    they carry lines at the same indices.  The signal is stored as one sorted
    vector ``support`` of non-negative line indices shared by all antennas
    and one complex ``(M, L)`` matrix ``phasors``: row ``m`` holds antenna
    ``m``'s coefficients at those indices, an exact zero where the antenna
    has no line.  As in :class:`LineSpectrum`, the coefficient at ``-k`` is
    the conjugate of the one at ``+k``, the one at 0 is real, and
    coefficients below ``PRUNE_THRESHOLD`` are dropped.
    """

    __slots__ = ("grid", "support", "phasors")

    def __init__(self, per_antenna: Iterable[LineSpectrum]):
        specs = tuple(per_antenna)
        if not specs:
            raise ValueError("need at least one antenna spectrum")
        grid = specs[0].grid
        if any(s.grid != grid for s in specs):
            raise GridMismatchError("antenna spectra must share one grid")
        support = sorted(set().union(*(s.indices() for s in specs)))
        phasors = [[s.coefficient(k) for k in support] for s in specs]
        self._store(grid, support, phasors)

    @classmethod
    def from_phasors(cls, grid: FrequencyGrid, support, phasors) -> "ArraySignal":
        """Signal whose antenna ``m`` has coefficient ``phasors[m, j]`` at
        line ``support[j] >= 0``; repeated indices superpose in order."""
        signal = object.__new__(cls)
        signal._store(grid, support, phasors)
        return signal

    def _store(self, grid, support, phasors):
        support = np.asarray(support, dtype=np.int64)
        phasors = np.asarray(phasors, dtype=complex)
        lines, column = np.unique(support, return_inverse=True)
        if lines.size and (lines[0] < 0 or lines[-1] > grid.max_index):
            raise GridRangeError(
                f"line indices must lie in [0, {grid.max_index}] on this grid"
            )
        merged = np.zeros((phasors.shape[0], lines.size), dtype=complex)
        np.add.at(merged, (slice(None), column), phasors)
        if lines.size and lines[0] == 0:
            merged[:, 0] = merged[:, 0].real
        merged[np.abs(merged) < PRUNE_THRESHOLD] = 0.0
        present = np.any(merged != 0.0, axis=0)
        lines, merged = lines[present], merged[:, present]
        lines.setflags(write=False)
        merged.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "support", lines)
        object.__setattr__(self, "phasors", merged)

    def __setattr__(self, name, value):
        raise AttributeError("ArraySignal is immutable")

    @property
    def num_antennas(self) -> int:
        return self.phasors.shape[0]

    @property
    def per_antenna(self) -> tuple[LineSpectrum, ...]:
        """One :class:`LineSpectrum` per antenna: the rows of ``phasors``."""
        support = self.support.tolist()
        return tuple(
            LineSpectrum(self.grid, {k: c for k, c in zip(support, row) if c})
            for row in self.phasors.tolist()
        )

    def coefficients(self, index: int) -> np.ndarray:
        """Per-antenna complex coefficient of the line at ``index``."""
        j = int(np.searchsorted(self.support, abs(index)))
        if j == self.support.size or self.support[j] != abs(index):
            return np.zeros(self.num_antennas, dtype=complex)
        column = self.phasors[:, j]
        return column.conj() if index < 0 else column

    def has_line(self, index: int) -> bool:
        return abs(index) in self.support

    def line_indices(self) -> tuple[int, ...]:
        """Sorted union of non-negative line indices across antennas."""
        return tuple(self.support.tolist())

    def line_powers(self, index: int) -> np.ndarray:
        """Per-port power of the line, as :meth:`LineSpectrum.line_power`."""
        c = self.coefficients(index)
        mag2 = c.real * c.real + c.imag * c.imag
        return mag2 if index == 0 else 2.0 * mag2

    def port_line_power_total(self, index: int) -> float:
        """Sum over antennas of the per-port power of the line."""
        return float(np.sum(self.line_powers(index)))

    def __eq__(self, other):
        if not isinstance(other, ArraySignal):
            return NotImplemented
        return (
            self.grid == other.grid
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.phasors, other.phasors)
        )


def tone(grid: FrequencyGrid, amplitude: float, freq_index: int, phase: float = 0.0) -> LineSpectrum:
    """Spectrum of ``amplitude * cos(freq_index * base_rate * t + phase)``."""
    if int(freq_index) != freq_index or freq_index < 1:
        raise GridRangeError("freq_index must be a positive integer")
    if freq_index > grid.max_index:
        raise GridRangeError(
            f"freq_index {freq_index} exceeds grid max_index {grid.max_index}"
        )
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    return LineSpectrum.from_real_tones(grid, [(int(freq_index), amplitude, phase)])


def add(a: LineSpectrum, b: LineSpectrum) -> LineSpectrum:
    """Coefficient-wise superposition (same as ``a + b``)."""
    return a + b


@dataclass(frozen=True, eq=False)
class SampledWaveform:
    """Uniformly sampled real waveform, used by the DFT verification path."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def sample_waveform(s: LineSpectrum, periods: int, samples_per_period: int) -> SampledWaveform:
    """Coherently sample ``s`` over an integer number of fundamental periods.

    ``samples_per_period`` must exceed twice the grid's ``max_index`` so that
    every representable line stays below Nyquist; coherence (an integer
    number of fundamental periods) makes the DFT analysis leakage-free.
    """
    if int(periods) != periods or periods < 1:
        raise ValueError("periods must be a positive integer")
    if samples_per_period <= 2 * s.grid.max_index:
        raise AliasingError(
            f"samples_per_period must exceed {2 * s.grid.max_index} "
            f"(twice the grid max_index)"
        )
    n = int(periods) * int(samples_per_period)
    t = np.arange(n) * (s.grid.fundamental_period / samples_per_period)
    z = np.zeros(n, dtype=complex)
    for k, c in s.items():
        z += c * np.exp(1j * s.grid.omega(k) * t)
    peak = float(np.max(np.abs(z))) if n and np.any(z) else 1.0
    if float(np.max(np.abs(z.imag), initial=0.0)) > 1e-12 * max(peak, 1e-300):
        raise ValueError("sampled waveform has a non-negligible imaginary residue")
    return SampledWaveform(z.real, samples_per_period / s.grid.fundamental_period)


def estimate_lines(w: SampledWaveform, grid: FrequencyGrid) -> LineSpectrum:
    """Recover grid-line phasors from a coherently sampled waveform.

    Round-tripping :func:`sample_waveform` recovers the input spectrum to
    better than 1e-9 per line.  Waveforms that do not span an integer number
    of fundamental periods are rejected (they would leak across bins).
    """
    samples = np.asarray(w.samples, dtype=float)
    n = samples.size
    if n == 0:
        raise LeakageError("cannot analyze an empty waveform")
    periods_f = (n / w.sample_rate) / grid.fundamental_period
    periods = int(round(periods_f))
    if periods < 1 or abs(periods_f - periods) > 1e-9 * max(periods_f, 1.0):
        raise LeakageError(
            f"waveform spans {periods_f:g} fundamental periods; "
            f"an integer count is required for leakage-free analysis"
        )
    if 2 * grid.max_index * periods >= n:
        raise AliasingError("sample rate too low for the grid max_index")
    spectrum = np.fft.fft(samples) / n
    lines = {k: spectrum[k * periods] for k in range(grid.max_index + 1)}
    return LineSpectrum(grid, lines)

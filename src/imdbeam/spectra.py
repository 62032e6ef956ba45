"""Exact line-spectrum algebra for real multi-tone signals.

Signals here are finite sums of real cosines whose angular frequencies sit on
an integer grid ``k * base_rate``.  Each cosine ``c*cos(k*dw*t + phi)`` is
the phasor ``(c/2)*exp(1j*phi)`` at index ``+k`` together with its conjugate
at ``-k``; only the first is stored.  Superposition and products
(convolutions of the line sets) involve no floating-point frequency matching
at all.

A coherently sampled time-domain path (:func:`sample_waveform` /
:func:`estimate_lines`) provides an independent numerical cross-check of the
phasor algebra.
"""

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
import math
import numbers

import numpy as np

from .errors import AliasingError, GridMismatchError, GridRangeError, LeakageError

TWO_PI = 2.0 * np.pi

# Coefficients below this magnitude are dropped, by ArraySignal._store alone.
# The threshold is absolute, not relative to the signal's scale: scaled down
# far enough (tone amplitude 1e-5 through x + 0.1*x**3), a signal loses lines
# that carry real power.
PRUNE_THRESHOLD = 1e-14

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


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
        if not 0.0 < self.base_rate < math.inf:
            raise ValueError("base_rate must be positive and finite")
        if not _is_whole(self.max_index) or self.max_index < 1:
            raise ValueError("max_index must be a positive integer")
        # line indices are int64; with degree * k_top <= max_index this also
        # bounds every mixing-order line and its partial sums in transmit
        if self.max_index > _I64_MAX:
            raise ValueError("max_index must be at most 2**63 - 1")

    def omega(self, index: int) -> float:
        """Angular frequency of line ``index``, rad/s (signed)."""
        return index * self.base_rate

    @property
    def fundamental_period(self) -> float:
        return TWO_PI / self.base_rate


def _is_whole(value) -> bool:
    """True for an integer or a finite real without a fractional part; a
    bool, a NaN or an infinity is not one, so a record check can name its
    field.  An integer of any size is whole without a float conversion."""
    if isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return True
    return isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)


def _mag2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _line_factor(index):
    """Line power per ``|coefficient|**2``, and amplitude per ``|coefficient|``,
    at an int or array ``index``: 1 for the constant at 0, 2 for a cosine
    (its conjugate at ``-index`` carries the same power)."""
    if isinstance(index, (int, np.integer)):
        return 1.0 if index == 0 else 2.0
    return np.where(np.asarray(index) == 0, 1.0, 2.0)


def _superpose(lines, phasors) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``lines`` and a new ``(M, L)`` matrix in which each
    column of ``phasors`` is added, in column order, to its line's column."""
    lines = np.asarray(lines)
    if np.all(lines[1:] > lines[:-1]):
        # already sorted and distinct; adding 0.0 copies and turns -0.0 into
        # +0.0 exactly as adding to a zero matrix does
        return lines, np.asarray(phasors, dtype=complex) + 0.0
    lines, column = np.unique(lines, return_inverse=True)
    merged = np.zeros((np.shape(phasors)[0], lines.size), dtype=complex)
    np.add.at(merged, (slice(None), column), phasors)
    return lines, merged


def _signed(support: np.ndarray, phasors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both halves of a conjugate-symmetric line set stored one-sided."""
    mirror = support > 0
    return (
        np.concatenate((-support[mirror][::-1], support)),
        np.concatenate((phasors[:, mirror][:, ::-1].conj(), phasors), axis=1),
    )


def _columns(support: np.ndarray, phasors: np.ndarray, indices) -> np.ndarray:
    """Columns of ``phasors`` (one per line of the sorted ``support``) at the
    non-negative line ``indices``, zero where a line is absent."""
    indices = np.asarray(indices, dtype=np.int64)
    j = np.searchsorted(support, indices)
    hit = np.append(support, -1)[j] == indices
    out = np.zeros((phasors.shape[0], indices.size), dtype=complex)
    out[:, hit] = phasors[:, j[hit]]
    return out


class ArraySignal:
    """Line spectra of every antenna of an array, on one grid.

    All antennas are driven by the same tones through the same device, so
    they carry lines at the same indices.  The signal is stored as one sorted
    vector ``support`` of non-negative line indices shared by all antennas
    and one complex ``(M, L)`` matrix ``phasors``: row ``m`` holds antenna
    ``m``'s coefficients at those indices, an exact zero where the antenna
    has no line.  The coefficient at ``-k`` is the conjugate of the one at
    ``+k`` and is not stored.  :meth:`_store` is the one place where the
    coefficient at 0 is made real, the grid range is checked, a non-finite
    coefficient is rejected and coefficients below ``PRUNE_THRESHOLD`` are
    dropped; repeated lines superpose through :func:`_superpose`, as in
    ``apply_polynomial``.
    """

    __slots__ = ("grid", "support", "phasors")

    def __init__(self, per_antenna: Iterable["LineSpectrum"]):
        specs = tuple(per_antenna)
        if not specs:
            raise ValueError("need at least one antenna spectrum")
        grid = specs[0].grid
        if any(s.grid != grid for s in specs):
            raise GridMismatchError("antenna spectra must share one grid")
        support = np.unique(np.concatenate([s.support for s in specs]))
        columns = [_columns(s.support, s.phasors, support) for s in specs]
        self._store(grid, support, np.concatenate(columns))

    @classmethod
    def from_phasors(cls, grid: FrequencyGrid, support, phasors) -> "ArraySignal":
        """Signal whose antenna ``m`` has coefficient ``phasors[m, j]`` at
        line ``support[j] >= 0``; repeated indices superpose in order.  A
        :class:`LineSpectrum` takes one row."""
        signal = object.__new__(cls)
        signal._store(grid, support, phasors)
        return signal

    def _store(self, grid, support, phasors):
        lines = np.asarray(support)
        # numpy casts a bool among numbers, so only an integer ndarray is
        # taken without a look at each entry
        if not (isinstance(support, np.ndarray) and lines.dtype.kind in "iu"):
            entries = lines.tolist() if isinstance(support, np.ndarray) else list(support)
            if not all(map(_is_whole, entries)):
                raise GridRangeError("line indices must be whole numbers")
        try:
            lines = lines.astype(np.int64, copy=False)
            in_range = not lines.size or 0 <= lines.min() <= lines.max() <= grid.max_index
        except OverflowError:  # an index beyond 64 bits
            in_range = False
        if not in_range:
            raise GridRangeError(
                f"line indices must lie in [0, {grid.max_index}] on this grid"
            )
        lines, merged = _superpose(lines, phasors)
        if not np.isfinite(merged).all():
            raise ValueError("line coefficients must be finite")
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
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def num_antennas(self) -> int:
        return self.phasors.shape[0]

    @property
    def per_antenna(self) -> tuple["LineSpectrum", ...]:
        """One :class:`LineSpectrum` per antenna: the rows of ``phasors``."""
        return tuple(
            LineSpectrum.from_phasors(self.grid, self.support, row[None])
            for row in self.phasors
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
        """Per-port mean-square power of the line: ``A**2/2`` for a cosine
        of amplitude A, ``A**2`` for the constant at index 0."""
        return _line_factor(index) * _mag2(self.coefficients(index))

    def port_line_power_total(self, index: int) -> float:
        """Sum over antennas of the per-port power of the line."""
        return float(self.line_powers(index).sum())

    def __eq__(self, other):
        if not isinstance(other, ArraySignal):
            return NotImplemented
        return (
            self.grid == other.grid
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.phasors, other.phasors)
        )


class LineSpectrum(ArraySignal):
    """Immutable set of phasor lines of a real signal on a shared grid: the
    one-antenna :class:`ArraySignal`, whose ``(1, L)`` matrix ``phasors``
    holds the coefficients at the non-negative lines ``support``.

    The coefficient at ``-k`` is the conjugate of the one at ``+k``, and the
    coefficient at 0 (when present) is real.  Construction accepts one-sided
    or two-sided maps; a two-sided map must already be conjugate-symmetric.
    """

    __slots__ = ()

    def __init__(self, grid: FrequencyGrid, lines: Mapping[int, complex] = ()):
        half: dict[int, complex] = {}
        for k, v in dict(lines).items():
            want = complex(v) if k >= 0 else complex(v).conjugate()
            # not abs(k), which turns True into 1 before _store sees it
            have = half.setdefault(k if k >= 0 else -k, want)
            if abs(have - want) > 1e-9 * max(abs(have), 1.0):
                raise ValueError(f"conjugate symmetry violated at index {abs(k)}")
        dc = half.get(0, 0j)
        if abs(dc.imag) > 1e-9 * max(abs(dc), 1.0):
            raise ValueError("zero-frequency coefficient must be real")
        self._store(grid, list(half), [list(half.values())])

    # -- inspection ---------------------------------------------------------

    def items(self):
        """Signed ``(index, coefficient)`` pairs in ascending index order."""
        lines, phasors = _signed(self.support, self.phasors)
        return zip(lines.tolist(), phasors[0].tolist())

    def amplitude(self, index: int) -> float:
        """Amplitude of the real cosine at ``index >= 0`` (0 if absent)."""
        return _line_factor(index) * float(abs(self.coefficients(abs(index))[0]))

    def phase(self, index: int) -> float:
        return float(np.angle(self.coefficients(index)[0]))

    def total_power(self) -> float:
        """Mean-square power of the whole signal (Parseval sum)."""
        return float(sum(float(self.line_powers(k)[0]) for k in self.line_indices()))

    def evaluate(self, t) -> np.ndarray:
        """Evaluate the real signal at times ``t`` (seconds, array-like)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=float)
        for k, c in zip(self.support.tolist(), self.phasors[0].tolist()):
            out += _line_factor(k) * (c * np.exp(1j * self.grid.omega(k) * t)).real
        return out

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LineSpectrum):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatchError("cannot add spectra on different grids")
        return LineSpectrum.from_phasors(
            self.grid,
            np.concatenate((self.support, other.support)),
            np.concatenate((self.phasors, other.phasors), axis=1),
        )

    def scaled(self, factor: float) -> "LineSpectrum":
        """Spectrum of the signal multiplied by a real factor."""
        return LineSpectrum.from_phasors(self.grid, self.support, factor * self.phasors)

    def allclose(self, other: "LineSpectrum", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Per-line comparison over the union of present indices."""
        if other.grid != self.grid:
            return False
        support = np.union1d(self.support, other.support)
        a, b = (_columns(s.support, s.phasors, support) for s in (self, other))
        return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))))

    def __repr__(self):
        lines = ", ".join(
            f"{k}: {c:.6g}" for k, c in zip(self.support.tolist(), self.phasors[0].tolist())
        )
        return f"LineSpectrum(grid={self.grid!r}, lines={{{lines}}})"


def tone(grid: FrequencyGrid, amplitude: float, freq_index: int, phase: float = 0.0) -> LineSpectrum:
    """Spectrum of ``amplitude * cos(freq_index * base_rate * t + phase)``."""
    if freq_index < 1:
        raise GridRangeError("freq_index must be a positive integer")
    if freq_index > grid.max_index:
        raise GridRangeError(
            f"freq_index {freq_index} exceeds grid max_index {grid.max_index}"
        )
    # checked before numpy would warn on them
    if not (math.isfinite(amplitude) and math.isfinite(phase)):
        raise ValueError("amplitude and phase must be finite")
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    # the index as given, so that _store rejects one that is not whole
    return LineSpectrum.from_phasors(grid, [freq_index], [[amplitude / 2 * np.exp(1j * phase)]])


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


def sample_waveform(s: LineSpectrum, periods: int, samples_per_period: int) -> SampledWaveform:
    """Coherently sample ``s`` over an integer number of fundamental periods.

    ``samples_per_period`` must exceed twice the grid's ``max_index`` so that
    every representable line stays below Nyquist; coherence (an integer
    number of fundamental periods) makes the DFT analysis leakage-free.
    """
    if not _is_whole(periods) or periods < 1:
        raise ValueError("periods must be a positive integer")
    if not _is_whole(samples_per_period):
        raise ValueError("samples_per_period must be a whole number")
    if samples_per_period <= 2 * s.grid.max_index:
        raise AliasingError(
            f"samples_per_period must exceed {2 * s.grid.max_index} "
            f"(twice the grid max_index)"
        )
    n = int(periods) * int(samples_per_period)
    t = np.arange(n) * (s.grid.fundamental_period / samples_per_period)
    return SampledWaveform(s.evaluate(t), samples_per_period / s.grid.fundamental_period)


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
    lines = np.arange(grid.max_index + 1)
    return LineSpectrum.from_phasors(grid, lines, spectrum[None, lines * periods])

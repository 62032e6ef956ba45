"""Memoryless polynomial device models applied exactly to line spectra.

The spectrum of ``x(t)**p`` is the p-fold convolution of the signed line set
of ``x``, so a polynomial device maps a finite line set to a finite line set
with no time-domain approximation.  Every antenna of an array shares one line
support, so the convolution runs once for all antennas.  A closed-form term
table for the third-order two-tone case and the brick-wall transmit-chain
filter live here as well.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridRangeError
from .spectra import ArraySignal, LineSpectrum

MAX_DEGREE = 9

Interval = tuple[int, int]


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """``f(x) = sum_p coefficients[p-1] * x**p`` with degree 1..9.

    There is no constant term: a quiescent device emits nothing.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not 1 <= len(coeffs) <= MAX_DEGREE:
            raise ValueError(f"polynomial degree must be between 1 and {MAX_DEGREE}")
        if not any(coeffs):
            raise ValueError("at least one coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @classmethod
    def identity(cls) -> "PolynomialNonlinearity":
        return cls((1.0,))

    @classmethod
    def third_order(cls, alpha: float) -> "PolynomialNonlinearity":
        """The flagship device ``f(x) = x + alpha*x**3``."""
        return cls((1.0, 0.0, float(alpha)))

    @classmethod
    def second_order(cls, alpha: float) -> "PolynomialNonlinearity":
        """``f(x) = x + alpha*x**2``; its near-band distortion is empty."""
        return cls((1.0, float(alpha)))

    def evaluate(self, x):
        """Pointwise ``f(x)`` on an array, for time-domain cross-checks."""
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for a in reversed(self.coefficients):
            acc = acc * x + a
        return acc * x


@dataclass(frozen=True)
class BandDefinition:
    """Allocated band, its two adjacent bands, and the transmit-chain window.

    All intervals are inclusive ``(lo, hi)`` pairs of non-negative indices.
    The adjacent bands have equal width and adjoin the in-band interval; the
    keep window covers all three and models which lines the transmit chain
    lets through at all.
    """

    in_band: Interval
    adjacent_lower: Interval
    adjacent_upper: Interval
    keep_window: Interval

    def __post_init__(self):
        for name in ("in_band", "adjacent_lower", "adjacent_upper", "keep_window"):
            lo, hi = getattr(self, name)
            iv = (int(lo), int(hi))
            if iv != (lo, hi):
                raise ValueError(f"{name} bounds must be integers")
            if iv[0] < 0 or iv[0] > iv[1]:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi")
            object.__setattr__(self, name, iv)
        lower_w = self.adjacent_lower[1] - self.adjacent_lower[0]
        upper_w = self.adjacent_upper[1] - self.adjacent_upper[0]
        if lower_w != upper_w:
            raise ValueError("adjacent bands must have equal width")
        if self.adjacent_lower[1] + 1 != self.in_band[0]:
            raise ValueError("adjacent_lower must adjoin in_band from below")
        if self.in_band[1] + 1 != self.adjacent_upper[0]:
            raise ValueError("adjacent_upper must adjoin in_band from above")
        if not (
            self.keep_window[0] <= self.adjacent_lower[0]
            and self.keep_window[1] >= self.adjacent_upper[1]
        ):
            raise ValueError("keep_window must cover both adjacent bands")

    @classmethod
    def around(
        cls,
        in_band: Interval,
        adjacent_width: int,
        keep_window: Interval | None = None,
    ) -> "BandDefinition":
        """Adjacent bands of ``adjacent_width`` indices on both sides of
        ``in_band``; keep window defaults to exactly their union."""
        lo, hi = int(in_band[0]), int(in_band[1])
        if adjacent_width < 1:
            raise ValueError("adjacent_width must be >= 1")
        if lo - adjacent_width < 0:
            raise ValueError("adjacent_lower would extend below index 0")
        lower = (lo - adjacent_width, lo - 1)
        upper = (hi + 1, hi + adjacent_width)
        if keep_window is None:
            keep_window = (lower[0], upper[1])
        return cls((lo, hi), lower, upper, keep_window)


def _contains(interval: Interval, k: int) -> bool:
    return interval[0] <= k <= interval[1]


def _signed(support: np.ndarray, phasors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both halves of a conjugate-symmetric line set stored one-sided."""
    mirror = support > 0
    return (
        np.concatenate((-support[mirror][::-1], support)),
        np.concatenate((phasors[:, mirror][:, ::-1].conj(), phasors), axis=1),
    )


def apply_polynomial(
    x: LineSpectrum | ArraySignal, f: PolynomialNonlinearity
) -> LineSpectrum | ArraySignal:
    """Exact line spectrum of ``f(x(t))``, per antenna for an
    :class:`ArraySignal`; a :class:`LineSpectrum` runs as a one-antenna
    signal and comes back as one.

    Each power ``x**p`` is the direct convolution of ``x**(p-1)`` with the
    signed lines of ``x``: one scatter-add over all antennas of every
    pairwise product, so lines no product reaches stay exact zeros.  Only
    the non-negative half of a power is formed; its negative half is the
    conjugate.  The grid must be able to hold the highest product:
    ``degree * k_top`` where ``k_top`` is the largest index present in ``x``.
    """
    signal = x if isinstance(x, ArraySignal) else ArraySignal((x,))
    k_top = int(signal.support[-1]) if signal.support.size else 0
    if f.degree * k_top > signal.grid.max_index:
        raise GridRangeError(
            f"grid max_index {signal.grid.max_index} cannot hold degree-{f.degree} "
            f"products of lines up to index {k_top}"
        )
    base_k, base_c = _signed(signal.support, signal.phasors)
    power_k, power_c = signal.support, signal.phasors
    terms_k, terms_c = [], []
    for p, a in enumerate(f.coefficients, start=1):
        if p > 1:
            prev_k, prev_c = _signed(power_k, power_c)
            sums = (prev_k[:, None] + base_k[None, :]).ravel()
            products = (prev_c[:, :, None] * base_c[:, None, :]).reshape(
                signal.num_antennas, -1
            )
            half = sums >= 0
            power_k, column = np.unique(sums[half], return_inverse=True)
            power_c = np.zeros((signal.num_antennas, power_k.size), dtype=complex)
            np.add.at(power_c, (slice(None), column), products[:, half])
        if a:
            terms_k.append(power_k)
            terms_c.append(a * power_c)
    y = ArraySignal.from_phasors(
        signal.grid, np.concatenate(terms_k), np.concatenate(terms_c, axis=1)
    )
    return y if signal is x else y.per_antenna[0]


def two_tone_third_order_terms(
    k1: int, k2: int, phi1: float, phi2: float, alpha: float
) -> list[tuple[int, float, float]]:
    """Closed-form term table for a unit two-tone through ``x + alpha*x**3``.

    Returns ``(index, amplitude, phase)`` triples where ``amplitude`` is the
    signed cosine coefficient: the fundamentals scaled by ``1 + 9*alpha/4``,
    four mixing products at ``3*alpha/4`` and the two third harmonics at
    ``alpha/4``.  A negative difference index ``k2 - 2*k1`` is folded to its
    positive mirror with the phase negated (the signal is real), and
    zero-amplitude terms are omitted, so ``alpha = 0`` yields just the two
    unit fundamentals.
    """
    if int(k1) != k1 or int(k2) != k2 or k1 < 1:
        raise GridRangeError("tone indices must be positive integers")
    if not k1 < k2:
        raise ValueError("tone indices must satisfy k1 < k2")
    a_fund = 1.0 + 9.0 * alpha / 4.0
    a_mix = 3.0 * alpha / 4.0
    a_harm = alpha / 4.0
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


def distortion_terms_near_band(
    expansion: list[tuple[int, float, float]], band: BandDefinition
) -> list[tuple[int, float, float]]:
    """Distortion terms of a two-tone expansion that survive the transmit
    chain (indices inside ``band.keep_window``); the leading fundamental
    entries are excluded.  Expansions from a linear device yield an empty
    list."""
    return [t for t in expansion[2:] if _contains(band.keep_window, t[0])]


def band_filter(
    x: LineSpectrum | ArraySignal, band: BandDefinition
) -> LineSpectrum | ArraySignal:
    """Brick-wall transmit-chain filter: delete every line with ``|index|``
    outside ``band.keep_window``; unit gain inside.  Works per antenna on an
    :class:`ArraySignal` and on a :class:`LineSpectrum` as one antenna."""
    signal = x if isinstance(x, ArraySignal) else ArraySignal((x,))
    lo, hi = band.keep_window
    kept = (signal.support >= lo) & (signal.support <= hi)
    y = ArraySignal.from_phasors(
        signal.grid, signal.support[kept], signal.phasors[:, kept]
    )
    return y if signal is x else y.per_antenna[0]

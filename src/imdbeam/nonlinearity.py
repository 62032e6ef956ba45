"""Memoryless polynomial device models applied exactly to line spectra.

The spectrum of ``x(t)**p`` is the p-fold convolution of the signed line set
of ``x``, so a polynomial device maps a finite line set to a finite line set
with no time-domain approximation.  :func:`apply_polynomial` convolves every
antenna of an array at once over their shared line support.  A steered array
needs only one antenna's expansion: steering changes phases, not amplitudes,
so the distortion is correlated across the antennas (the source paper's
argument).  ``array`` expands the device once into a table of mixing orders,
which ``transmit`` rotates per antenna and ``imdbeam expand`` prints.  The
brick-wall transmit-chain filter lives here as well.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridRangeError
from .spectra import ArraySignal, _is_whole, _signed, _superpose

MAX_DEGREE = 9

Interval = tuple[int, int]


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """``f(x) = sum_p coefficients[p-1] * x**p`` with degree 1..9.

    There is no constant term: a quiescent device emits nothing.  Each
    error message starts with the field it rejects.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not 1 <= len(coeffs) <= MAX_DEGREE:
            raise ValueError(f"coefficients must hold 1 to {MAX_DEGREE} values, one per degree")
        if not any(coeffs):
            raise ValueError("coefficients must not all be zero")

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @classmethod
    def third_order(cls, alpha: float) -> "PolynomialNonlinearity":
        """The flagship device ``f(x) = x + alpha*x**3``."""
        return cls((1.0, 0.0, float(alpha)))

    def evaluate(self, x):
        """Pointwise ``f(x)`` on an array, for time-domain cross-checks."""
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for a in reversed(self.coefficients):
            acc = acc * x + a
        return acc * x


def _index_pair(name: str, interval) -> Interval:
    lo, hi = interval
    if not (_is_whole(lo) and _is_whole(hi)):
        raise ValueError(f"{name} bounds must be integers")
    if lo < 0 or lo > hi:
        raise ValueError(f"{name} must satisfy 0 <= lo <= hi")
    return int(lo), int(hi)


@dataclass(frozen=True)
class BandDefinition:
    """Allocated band, its two adjacent bands, and the transmit-chain window.

    ``in_band`` and ``keep_window`` are inclusive ``(lo, hi)`` index pairs.
    The adjacent bands are the ``adjacent_width`` indices on either side of
    ``in_band``.  The keep window, which models the lines the transmit chain
    lets through at all, defaults to the union of the three bands and must
    cover it.  Each error message starts with the field it rejects.
    """

    in_band: Interval
    adjacent_width: int
    keep_window: Interval | None = None

    def __post_init__(self):
        w = self.adjacent_width
        if not _is_whole(w) or w < 1:
            raise ValueError("adjacent_width must be an integer >= 1")
        lo, hi = _index_pair("in_band", self.in_band)
        if lo - w < 0:
            raise ValueError("adjacent_width must not exceed the lower bound of in_band")
        union = (lo - w, hi + w)
        keep = union if self.keep_window is None else _index_pair("keep_window", self.keep_window)
        if keep[0] > union[0] or keep[1] < union[1]:
            raise ValueError("keep_window must cover both adjacent bands")
        object.__setattr__(self, "in_band", (lo, hi))
        object.__setattr__(self, "adjacent_width", int(w))
        object.__setattr__(self, "keep_window", keep)

    @property
    def adjacent_lower(self) -> Interval:
        return (self.in_band[0] - self.adjacent_width, self.in_band[0] - 1)

    @property
    def adjacent_upper(self) -> Interval:
        return (self.in_band[1] + 1, self.in_band[1] + self.adjacent_width)


def _contains(interval: Interval, k):
    """Whether the index ``k``, or each index of an array ``k``, lies in
    ``interval``."""
    return (interval[0] <= k) & (k <= interval[1])


def apply_polynomial(x: ArraySignal, f: PolynomialNonlinearity) -> ArraySignal:
    """Exact line spectrum of ``f(x(t))`` per antenna, of the same type as
    ``x`` (a :class:`LineSpectrum` is the one-antenna case).

    Each power ``x**p`` is the direct convolution of ``x**(p-1)`` with the
    signed lines of ``x``: one scatter-add over all antennas of every
    pairwise product (``spectra._superpose``, which prunes nothing), so
    lines no product reaches stay exact zeros.  Only the non-negative half
    of a power is formed; its negative half is the conjugate.  The grid
    must be able to hold the highest product: ``degree * k_top`` where
    ``k_top`` is the largest index present in ``x``.
    """
    k_top = int(x.support[-1]) if x.support.size else 0
    if f.degree * k_top > x.grid.max_index:
        raise GridRangeError(
            f"grid max_index {x.grid.max_index} cannot hold degree-{f.degree} "
            f"products of lines up to index {k_top}"
        )
    base_k, base_c = _signed(x.support, x.phasors)
    power_k, power_c = x.support, x.phasors
    terms_k, terms_c = [], []
    for p, a in enumerate(f.coefficients, start=1):
        if p > 1:
            prev_k, prev_c = _signed(power_k, power_c)
            sums = (prev_k[:, None] + base_k[None, :]).ravel()
            products = (prev_c[:, :, None] * base_c[:, None, :]).reshape(
                x.num_antennas, -1
            )
            half = sums >= 0
            power_k, power_c = _superpose(sums[half], products[:, half])
        if a:
            terms_k.append(power_k)
            terms_c.append(a * power_c)
    return type(x).from_phasors(
        x.grid, np.concatenate(terms_k), np.concatenate(terms_c, axis=1)
    )


def band_filter(x: ArraySignal, band: BandDefinition) -> ArraySignal:
    """Brick-wall transmit-chain filter: delete every line with ``|index|``
    outside ``band.keep_window``; unit gain inside.  Works per antenna and
    returns the type of ``x``."""
    kept = _contains(band.keep_window, x.support)
    return type(x).from_phasors(x.grid, x.support[kept], x.phasors[:, kept])

"""Uniform linear array: per-tone steering, the transmit chain, exact
far-field reception, pattern sweeps, and the closed-form directions into
which two-tone third-order products recombine.

Directions are parameterized by the inter-element propagation delay ``tau``
(seconds): a line at angular frequency ``omega`` radiated with a per-antenna
phase lead of ``m * omega * tau`` combines coherently at the far-field
direction whose adjacent-element path difference is ``tau``.  Angles are a
derived annotation only (:func:`delay_to_angle`).

A pattern sweep evaluates the array polynomial ``sum_m c_m z**m`` at points
spaced evenly along an arc of the unit circle, so it is computed as a chirp
z-transform on FFTs (:func:`_chirp_z`) rather than from an
antennas-by-delays exponential matrix.  Where the pattern's peak amplitude
is at least half of ``sum_m |c_m|``, its powers agree with the direct sum
within 1e-12 of the pattern's peak (about 2.5e-13 at 1024 antennas and 4096
delays); a weaker line is summed directly, one delay at a time.
"""

from dataclasses import dataclass
from collections.abc import Mapping
import math

import numpy as np

from .errors import DegenerateFrequencyPlanError, GridRangeError, MissingLineError
from .nonlinearity import (
    BandDefinition,
    PolynomialNonlinearity,
    _contains,
    apply_polynomial,
    band_filter,
)
from .spectra import TWO_PI, ArraySignal, FrequencyGrid, LineSpectrum, _line_factor, _mag2

DEFAULT_SWEEP_POINTS = 1024


def steering(num_antennas: int, phase_step) -> np.ndarray:
    """Far-field steering phasors ``exp(-1j * m * phase_step)``, one row per
    antenna ``m``; ``phase_step`` is ``omega * tau`` in radians, a scalar or
    a vector (then one column per entry)."""
    phasors = -1j * np.multiply.outer(np.arange(num_antennas), phase_step)
    return np.exp(phasors, out=phasors)


def _coherence_tolerance(num_antennas: int, omega: float, step: float) -> float:
    """Relative power droop a fully coherent lobe can suffer from landing
    between sweep grid points.  Local maxima within twice this of the global
    peak are reported as coherent directions; true sidelobes of a uniform
    array sit far below that."""
    psi = abs(omega) * step / 2.0
    den = num_antennas * np.sin(psi / 2.0)
    droop = 1.0 - (np.sin(num_antennas * psi / 2.0) / den) ** 2 if den else 0.0
    return float(max(2.0 * droop, 1e-9))


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array of ``num_antennas`` elements whose spacing
    corresponds to a propagation delay of ``element_delay`` seconds."""

    num_antennas: int
    element_delay: float

    def __post_init__(self):
        if int(self.num_antennas) != self.num_antennas or self.num_antennas < 1:
            raise ValueError("num_antennas must be a positive integer")
        if not self.element_delay > 0:
            raise ValueError("element_delay must be positive")

    def grating_lobe_free(self, omega: float) -> bool:
        """True when a line at ``omega`` has a single coherent direction in
        the principal interval (spacing at most half a wavelength)."""
        return omega * self.element_delay <= np.pi * (1.0 + 1e-12)


@dataclass(frozen=True)
class SteeringAssignment:
    """Per-antenna, per-tone phases realizing direction targets.

    Antenna 0 is the phase reference; ``phases[m][j]`` is the phase of tone
    ``tone_indices[j]`` (positive, increasing) on antenna ``m``, reduced mod
    2*pi; every number is finite.  ``targets`` holds the steering delay per
    tone when the assignment was produced by :func:`steer_tones`;
    :func:`distortion_delays` needs them, since the reduced phases do not
    determine a direction.
    """

    grid: FrequencyGrid
    geometry: ArrayGeometry
    tone_indices: tuple[int, ...]
    amplitudes: tuple[float, ...]
    phases: tuple[tuple[float, ...], ...]
    targets: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.phases) != self.geometry.num_antennas:
            raise ValueError("phases must have one row per antenna")
        k = len(self.tone_indices)
        if len(self.amplitudes) != k or any(len(row) != k for row in self.phases):
            raise ValueError("amplitudes and phase rows must match tone_indices")
        if self.targets is not None and len(self.targets) != k:
            raise ValueError("targets must match tone_indices")
        if not all(a < b for a, b in zip((0, *self.tone_indices), self.tone_indices)):
            raise ValueError("tone indices must be positive and strictly increasing")
        for name in ("phases", "amplitudes", "targets"):
            if not np.isfinite(getattr(self, name) or ()).all():
                raise ValueError(f"{name} must be finite")

    def input_signal(self) -> ArraySignal:
        """Multi-tone inputs of all antennas' devices: row ``m`` drives the
        device of antenna ``m``."""
        factors = _line_factor(np.array(self.tone_indices))
        return ArraySignal.from_phasors(
            self.grid,
            self.tone_indices,
            np.array(self.amplitudes) / factors * np.exp(1j * np.array(self.phases)),
        )


def steer_tones(
    grid: FrequencyGrid,
    geometry: ArrayGeometry,
    targets: Mapping[int, float],
    base_phases: Mapping[int, float] | None = None,
    amplitudes: Mapping[int, float] | None = None,
) -> SteeringAssignment:
    """Phase assignment pointing each tone at its target delay.

    Tone ``k`` on antenna ``m`` gets ``base + m * (k*base_rate) * tau_k``,
    reduced mod 2*pi; single-user steering is the special case of all
    targets equal.
    """
    tone_indices = tuple(sorted(int(k) for k in targets))
    for k in tone_indices:
        if k < 1 or k > grid.max_index:
            raise GridRangeError(f"tone index {k} is not on the grid")
    base_phases = dict(base_phases or {})
    amplitudes = dict(amplitudes or {})
    base = np.array([float(base_phases.get(k, 0.0)) for k in tone_indices])
    amps = tuple(float(amplitudes.get(k, 1.0)) for k in tone_indices)
    taus = tuple(float(targets[k]) for k in tone_indices)
    omegas = np.array([grid.omega(k) for k in tone_indices])
    m = np.arange(geometry.num_antennas)[:, None]
    # a non-finite phase is reported by SteeringAssignment, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        table = (base + m * omegas * np.array(taus)) % TWO_PI
    phases = tuple(map(tuple, table.tolist()))
    return SteeringAssignment(grid, geometry, tone_indices, amps, phases, taus)


def transmit(
    assignment: SteeringAssignment,
    f: PolynomialNonlinearity,
    band: BandDefinition,
) -> ArraySignal:
    """Drive every antenna with its steered multi-tone input, apply the
    polynomial device, and band-filter what the chain radiates.  Device
    characteristics are identical on all antennas.

    Every antenna gets the same tone amplitudes and steering changes phases
    only, so the distortion is correlated across the array (the source
    paper's argument): the mixing order ``n`` (``n[j]`` signed copies of tone
    ``j``, at line ``n . k``) has one coefficient ``C_n`` for all antennas,
    and antenna ``m`` rotates it by ``exp(1j * n . phases[m])``.  The table
    of ``C_n`` is ``apply_polynomial`` of one virtual antenna with tone ``j``
    at index ``B**j``, ``B = 2 * degree + 1``, where the balanced base-``B``
    digits of each line are its order.  Only orders whose line ``|n . k|``
    lies in ``band.keep_window`` are rotated; orders sharing a line superpose
    in ``from_phasors``.  The table is pruned at ``PRUNE_THRESHOLD`` before
    that sum, so a line may differ from a per-antenna convolution by the
    threshold once per order on it.  Raises :class:`GridRangeError` when the
    grid cannot hold ``degree * k_top``, or when ``B**K`` for ``K`` tones
    exceeds 64 bits (more than 14 tones at degree 9, 22 at degree 3).
    """
    k = np.array(assignment.tone_indices, dtype=np.int64)
    base = 2 * f.degree + 1
    span = base**k.size  # every order index lies within (-span/2, span/2)
    if span > np.iinfo(np.int64).max:
        raise GridRangeError(
            f"{k.size} tones through a degree-{f.degree} device need mixing-order "
            f"indices up to {base}**{k.size}, beyond 64 bits"
        )
    powers = base ** np.arange(k.size, dtype=np.int64)
    virtual = LineSpectrum.from_phasors(
        FrequencyGrid(1.0, span), powers, [np.array(assignment.amplitudes) / _line_factor(k)]
    )
    k_top = int(k[np.searchsorted(powers, virtual.support)].max(initial=0))
    if f.degree * k_top > assignment.grid.max_index:
        raise GridRangeError(
            f"grid max_index {assignment.grid.max_index} cannot hold degree-{f.degree} "
            f"products of lines up to index {k_top}"
        )
    table = apply_polynomial(virtual, f)
    # balanced digits: plain base-B digits of the index plus sum_j P * B**j
    orders = (table.support[:, None] + span // 2) // powers % base - f.degree
    lines = orders @ k
    # an order below zero enters as its mirror, the conjugate at |n . k|
    orders[lines < 0] *= -1
    lines = np.abs(lines)
    kept = np.flatnonzero(_contains(band.keep_window, lines))
    # in line order, so that orders which share no line need no merging
    kept = kept[np.argsort(lines[kept], kind="stable")]
    # a nonzero order on line 0 stands for itself and its mirror: 2 Re(.)
    weights = np.where((lines[kept] == 0) & (table.support[kept] > 0), 2.0, 1.0)
    # n . phases[m] for every antenna m and kept order n
    rotations = np.exp(1j * (np.array(assignment.phases)[:, None, :] * orders[kept]).sum(-1))
    signal = ArraySignal.from_phasors(
        assignment.grid, lines[kept], table.phasors[0, kept].real * weights * rotations
    )
    # changes nothing (kept orders lie in the keep window), but the benchmark tracer needs its span
    return band_filter(signal, band)


def _receive(rows: np.ndarray, phase_step) -> np.ndarray:
    """``sum_m c_m * exp(-1j * m * phase_step)`` for each row of antenna
    coefficients ``rows`` (a vector is one row), with one ``phase_step`` per
    row.  Each row's terms are summed as one contiguous vector, so a line
    received alone and a line received with others get the same bits."""
    terms = np.multiply(rows, steering(rows.shape[-1], phase_step).T, order="C")
    return terms.sum(axis=-1)


def far_field_receive(signal: ArraySignal, tau_rx: float) -> LineSpectrum:
    """Received spectrum at the direction with inter-element delay ``tau_rx``.

    Per line: ``sum_m c_m(k) * exp(-1j * m * omega_k * tau_rx)``.  Free-space
    loss and the absolute propagation delay are normalized out; only relative
    inter-element phase matters.
    """
    omegas = signal.grid.base_rate * signal.support
    received = _receive(signal.phasors.T, omegas * tau_rx)
    return LineSpectrum.from_phasors(signal.grid, signal.support, received[None])


def _received_power(signal: ArraySignal, freq_index: int, tau_rx: float) -> float:
    """Far-field power of line ``freq_index`` at the delay ``tau_rx``.  The
    sum is :func:`far_field_receive`'s, so the two agree bit for bit
    wherever ``far_field_receive`` does not prune the received line."""
    received = _receive(signal.coefficients(freq_index), signal.grid.omega(freq_index) * tau_rx)
    return _line_factor(freq_index) * _mag2(received)


def _phasors(phase: float, q: np.ndarray) -> np.ndarray:
    """``exp(-1j * phase * q)`` for the whole numbers ``0 <= q < 2**53``
    (held as floats).

    ``phase`` is split into a head with few enough bits that ``head * q`` is
    exact, so no rounding of a large argument enters the phase; only the
    product of the small rest with ``q`` is rounded.
    """
    bits = 53 - int(q.max()).bit_length()
    mantissa, exponent = math.frexp(phase)
    head = math.ldexp(math.trunc(math.ldexp(mantissa, bits)), exponent - bits)
    return np.exp(-1j * (head * q)) * np.exp(-1j * ((phase - head) * q))


def _chirp_z(coefficients: np.ndarray, omega: float, half_width: float, num_points: int):
    """``sum_m c_m * exp(-1j * m * omega * tau_n)`` at the sweep delays
    ``tau_n = -half_width + n * step``, ``step = 2 * half_width / (num_points - 1)``.

    Bluestein's chirp-z transform (Rabiner, Schafer and Rader, 1969): with
    ``theta = omega * step`` and the chirp ``w(j) = exp(-1j * theta * j**2 / 2)``,
    ``exp(-1j * theta * m * n) = w(m) * w(n) * conj(w(n - m))``, so the sum is
    one linear convolution, done with FFTs of the next power of two at least
    ``M + num_points - 1``.  Every phase is formed by :func:`_phasors` from
    the float64 products ``theta / 2`` and ``-omega * half_width``; the
    powers then agree with a long-double evaluation of the sum within about
    2.5e-13 of the peak at M=1024 and 4096 points.
    """
    m_count = coefficients.size
    j = np.arange(max(m_count, num_points), dtype=float)
    theta = omega * (2.0 * half_width / (num_points - 1))
    chirp = _phasors(theta / 2.0, j * j)
    start = _phasors(-omega * half_width, j[:m_count])
    size = 1 << (m_count + num_points - 2).bit_length()
    # row 0 the chirped input, row 1 the kernel conj(w(j)) at j and size - j
    rows = np.zeros((2, size), dtype=complex)
    rows[0, :m_count] = coefficients * start * chirp[:m_count]
    rows[1, :num_points] = chirp[:num_points].conj()
    rows[1, size - m_count + 1 :] = chirp[m_count - 1 : 0 : -1].conj()
    spectra = np.fft.fft(rows)
    return np.fft.ifft(spectra[0] * spectra[1])[:num_points] * chirp[:num_points]


@dataclass(frozen=True)
class ProductDirection:
    """Delay ``tau``, modulo ``modulus`` (one full phase turn at the line's
    frequency), at which the distortion product on line ``line_index``
    recombines.  ``tau`` is the quotient of the unreduced steering phase
    differences, so single-user steering reproduces the target delay exactly;
    :func:`fold_delay` moves it into a principal interval."""

    line_index: int
    tau: float
    modulus: float


@dataclass(frozen=True)
class DistortionDirections:
    """The two near-band third-order products of :func:`distortion_delays`:
    ``upper`` is the order ``(-1, 2)``, ``lower`` the order ``(-2, 1)``."""

    upper: ProductDirection
    lower: ProductDirection


def distortion_delays(assignment: SteeringAssignment) -> DistortionDirections:
    """Directions of coherent recombination for the products at ``2*k2 - k1``
    and ``|k2 - 2*k1|`` of the assignment's two tones ``k1 < k2``.

    One order rule: the order ``n`` (``n[j]`` signed copies of tone ``j``) at
    line ``n . k`` combines at ``tau_n = sum_j n_j k_j t_j / (n . k)`` for the
    steering delays ``t_j``, modulo ``2*pi / (|n . k| * base_rate)``; the
    products are ``n = (-1, 2)`` and ``(-2, 1)``, and equal targets make both
    collapse to the common steering delay.  The assignment must carry its
    ``targets``.
    """
    if assignment.geometry.num_antennas < 2:
        raise ValueError("distortion directions need at least 2 antennas")
    if len(assignment.tone_indices) != 2:
        raise ValueError("distortion directions need exactly two tones")
    if assignment.targets is None:
        raise ValueError("distortion directions need the assignment's steering targets")
    (k1, k2), (t1, t2) = assignment.tone_indices, assignment.targets
    if k2 == 2 * k1:
        raise DegenerateFrequencyPlanError(
            "k2 = 2*k1 places the difference product at zero frequency"
        )

    def product(n1: int, n2: int) -> ProductDirection:
        line = n1 * k1 + n2 * k2  # signed; the physical line sits at |line|
        tau = (n1 * k1 * t1 + n2 * k2 * t2) / line
        return ProductDirection(abs(line), tau, TWO_PI / (abs(line) * assignment.grid.base_rate))

    return DistortionDirections(upper=product(-1, 2), lower=product(-2, 1))


def fold_delay(tau: float, modulus: float, half_width: float) -> float:
    """Congruent representative of ``tau`` (mod ``modulus``) inside
    ``[-half_width, half_width]``, ``tau`` itself when it lies there; raises
    ``ValueError`` when none exists (a non-finite ``tau`` has none)."""
    if not modulus > 0:
        raise ValueError("modulus must be positive")
    if -half_width <= tau <= half_width:
        return float(tau)
    turns = tau / modulus
    r = tau - round(turns) * modulus if math.isfinite(turns) else math.inf
    if abs(r) <= half_width * (1.0 + 1e-12):
        return float(min(max(r, -half_width), half_width))
    raise ValueError(
        f"no representative of {tau:g} (mod {modulus:g}) lies within "
        f"[-{half_width:g}, {half_width:g}]"
    )


def delay_to_angle(tau: float, element_delay: float) -> float:
    """Broadside-referenced direction angle ``arcsin(tau / element_delay)``
    in radians, valid for ``|tau| <= element_delay``."""
    if not (math.isfinite(tau) and 0 < element_delay < math.inf):
        raise ValueError("tau must be finite and element_delay positive and finite")
    ratio = tau / element_delay
    if abs(ratio) > 1.0 + 1e-12:
        raise ValueError("|tau| exceeds the element delay; no physical angle")
    return float(np.arcsin(min(max(ratio, -1.0), 1.0)))


@dataclass(frozen=True, eq=False)
class Pattern:
    """Received line power versus receive delay over the principal interval.

    ``peak_taus`` lists every local maximum within grid-quantization tolerance
    of the global peak (a flat pattern: its argmax alone), so an aliased line
    reports all its coherent directions; ``peak_tau`` is the one nearest
    broadside, where ``peak_power`` and ``peak_gain``, the received-to-summed-
    port power ratio (array gain at grid resolution), are taken.
    """

    freq_index: int
    taus: np.ndarray
    powers: np.ndarray
    peak_tau: float
    peak_power: float
    peak_gain: float
    mean_power: float
    contrast: float
    peak_taus: tuple[float, ...]
    multi_peaked: bool

    def __post_init__(self):
        for name in ("taus", "powers"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.powers < 0):
            raise ValueError("received power must be non-negative")

    @property
    def step(self) -> float:
        return float(self.taus[1] - self.taus[0])

    def nearest_peak(self, tau: float) -> float:
        """Reported coherent direction closest to ``tau``."""
        return min(self.peak_taus, key=lambda p: abs(p - tau))


def _sweep_grid(
    signal: ArraySignal, freq_index: int, geometry: ArrayGeometry, num_points: int
) -> tuple[np.ndarray, float]:
    """Delays ``[-element_delay, +element_delay]`` (endpoints included) of a
    sweep of line ``freq_index`` and the sweep's coherence tolerance."""
    if num_points < 16:
        raise ValueError("num_points must be >= 16")
    if geometry.num_antennas != signal.num_antennas:
        raise ValueError("geometry and signal disagree on the antenna count")
    taus = np.linspace(-geometry.element_delay, geometry.element_delay, num_points)
    omega = signal.grid.omega(freq_index)
    return taus, _coherence_tolerance(geometry.num_antennas, omega, float(taus[1] - taus[0]))


def _build_pattern(
    freq_index: int,
    taus: np.ndarray,
    powers: np.ndarray,
    port_power_total: float,
    peak_rel_tol: float,
) -> Pattern:
    ipk = int(np.argmax(powers))
    mean_power = float(np.mean(powers))
    floor = float(powers[ipk]) * (1.0 - peak_rel_tol)
    peaks = [ipk]  # flat (all-zero included): one peak, no lobes
    if powers.min() < floor:
        left = np.concatenate(([-np.inf], powers[:-1]))
        right = np.concatenate((powers[1:], [-np.inf]))
        peaks = np.flatnonzero((powers >= left) & (powers >= right) & (powers >= floor))
        # equal lobes differ by rounding: the one nearest broadside, negative first
        ipk = min(peaks, key=lambda i: (abs(taus[i]), taus[i]), default=ipk)
    peak_power = float(powers[ipk])
    peak_taus = tuple(float(t) for t in taus[peaks])
    return Pattern(
        freq_index=freq_index,
        taus=taus,
        powers=powers,
        peak_tau=float(taus[ipk]),
        peak_power=peak_power,
        peak_gain=peak_power / port_power_total if port_power_total > 0 else 0.0,
        mean_power=mean_power,
        contrast=peak_power / mean_power if mean_power > 0 else 0.0,
        peak_taus=peak_taus,
        multi_peaked=len(peak_taus) > 1,
    )


def pattern_sweep(
    signal: ArraySignal,
    freq_index: int,
    geometry: ArrayGeometry,
    num_points: int = DEFAULT_SWEEP_POINTS,
) -> Pattern:
    """Received power of one line swept over ``num_points`` delays spanning
    ``[-element_delay, +element_delay]`` (endpoints included)."""
    taus, tol = _sweep_grid(signal, freq_index, geometry, num_points)
    if not signal.has_line(freq_index):
        raise MissingLineError(f"no antenna carries a line at index {freq_index}")
    coefficients = signal.coefficients(freq_index)
    received = _chirp_z(
        coefficients, signal.grid.omega(freq_index), geometry.element_delay, num_points
    )
    # the chirp-z error scales with sum |c_m|, not the peak: a line peaking
    # below half of it is summed delay by delay, exactly as array_gain sums it
    amplitudes = np.abs(received)
    if amplitudes.max() < 0.5 * np.abs(coefficients).sum():
        powers = np.array([_received_power(signal, freq_index, tau) for tau in taus])
    else:
        powers = _line_factor(freq_index) * amplitudes**2
    return _build_pattern(
        freq_index, taus, powers, signal.port_line_power_total(freq_index), tol
    )

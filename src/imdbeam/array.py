"""Uniform linear array: per-tone steering, the transmit chain, exact
far-field reception, pattern sweeps, and the closed-form directions into
which two-tone third-order products recombine.

Directions are parameterized by the inter-element propagation delay ``tau``
(seconds): a line at angular frequency ``omega`` radiated with a per-antenna
phase lead of ``m * omega * tau`` combines coherently at the far-field
direction whose adjacent-element path difference is ``tau``.  Angles are a
derived annotation only (:func:`delay_to_angle`).

A pattern sweep evaluates the array polynomial ``sum_m c_m z**m`` on an arc
of the unit circle, so every line is swept as one chirp z-transform on FFTs
(:func:`_chirp_z`).  Each power lies within ``32 * eps * (1 + M * omega_k *
element_delay) * lf(k) * (sum_m |c_m|)**2`` of the exact power at its delay
(float64 ``eps``, line power factor ``lf``), for a weak line as for a strong.
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
from .spectra import (
    TWO_PI, ArraySignal, FrequencyGrid, LineSpectrum, _is_whole, _line_factor, _mag2
)

DEFAULT_SWEEP_POINTS = 1024

# Most antennas, and most sweep points: every chirp index j below it has
# j**2 < 2**53, on which _phasors forms phases exactly
MAX_CHIRP_LENGTH = 2**26


def steering(num_antennas: int, phase_step) -> np.ndarray:
    """Steering phasors ``exp(-1j * m * phase_step)``, one row per antenna
    ``m``, for a scalar or vector ``phase_step`` (then one column per entry):
    reception weights at ``omega * tau``, a transmitted lead at minus that."""
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
        if not (_is_whole(self.num_antennas) and 1 <= self.num_antennas <= MAX_CHIRP_LENGTH):
            raise ValueError("num_antennas must be a whole number from 1 to 2**26")
        if not 0 < self.element_delay < math.inf:
            raise ValueError("element_delay must be positive and finite")


@dataclass(frozen=True)
class SteeringAssignment:
    """What the array is asked to radiate: tone ``tone_indices[j]`` (a
    line of ``grid``, increasing) with amplitude ``amplitudes[j]`` and phase
    ``base_phases[j]`` on antenna 0, steered at delay ``targets[j]``.

    Steering changes phases only: tone ``j`` leads by its phase step
    ``omega_j * targets[j]`` from one antenna to the next, so antenna ``m``
    carries it at phase ``base + m * step``.  Every number, the derived
    ``phase_steps`` included, is finite.  A step reduced mod 2*pi does not
    determine a direction, so :func:`distortion_delays` reads ``targets``.
    """

    grid: FrequencyGrid
    geometry: ArrayGeometry
    tone_indices: tuple[int, ...]
    amplitudes: tuple[float, ...]
    base_phases: tuple[float, ...]
    targets: tuple[float, ...]

    def __post_init__(self):
        for name in ("amplitudes", "base_phases", "targets"):
            if len(getattr(self, name)) != len(self.tone_indices):
                raise ValueError(f"{name} must match tone_indices")
        for k in self.tone_indices:
            if not _is_whole(k) or not 1 <= k <= self.grid.max_index:
                raise GridRangeError(
                    f"tone index {k} is not on the grid: tone indices must be "
                    f"positive whole numbers up to max_index {self.grid.max_index}"
                )
        object.__setattr__(self, "tone_indices", tuple(map(int, self.tone_indices)))
        if not all(a < b for a, b in zip(self.tone_indices, self.tone_indices[1:])):
            raise ValueError("tone indices must be strictly increasing")
        for name in ("amplitudes", "base_phases", "targets", "phase_steps"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def phase_steps(self) -> np.ndarray:
        """Per-antenna phase lead ``omega_k * tau_k`` of each tone, radians."""
        # Python floats: a product beyond float range is inf, not a warning
        return np.array([self.grid.omega(k) * t for k, t in zip(self.tone_indices, self.targets)])

    def input_signal(self) -> ArraySignal:
        """Multi-tone inputs of all antennas' devices: row ``m`` drives the
        device of antenna ``m``."""
        factors = _line_factor(np.array(self.tone_indices))
        tones = np.array(self.amplitudes) / factors * np.exp(1j * np.array(self.base_phases))
        leads = steering(self.geometry.num_antennas, -(self.phase_steps % TWO_PI))
        return ArraySignal.from_phasors(self.grid, self.tone_indices, tones * leads)


def steer_tones(
    grid: FrequencyGrid,
    geometry: ArrayGeometry,
    targets: Mapping[int, float],
    base_phases: Mapping[int, float] | None = None,
    amplitudes: Mapping[int, float] | None = None,
) -> SteeringAssignment:
    """Assignment pointing each tone ``k`` of ``targets`` at its delay
    ``targets[k]``, in tone order; a tone absent from ``base_phases`` starts
    at phase 0, one absent from ``amplitudes`` has amplitude 1.  Single-user
    steering is the special case of all targets equal.  The record checks
    the tones: one off the grid raises :class:`GridRangeError`.
    """
    tone_indices = tuple(sorted(targets))
    base_phases = dict(base_phases or {})
    amplitudes = dict(amplitudes or {})
    return SteeringAssignment(
        grid,
        geometry,
        tone_indices,
        tuple(float(amplitudes.get(k, 1.0)) for k in tone_indices),
        tuple(float(base_phases.get(k, 0.0)) for k in tone_indices),
        tuple(float(targets[k]) for k in tone_indices),
    )


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
    ``j``, at line ``n . k``) has one coefficient ``C_n`` for all antennas.
    Antenna 0 rotates it by ``exp(1j * n . base_phases)``, and each next
    antenna leads by ``n . phase_steps``, both reduced mod 2*pi.  The table
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
    # reduced before an order or an antenna index multiplies them: every phase is finite
    base_turns = orders[kept] @ (np.array(assignment.base_phases) % TWO_PI)
    leads = (orders[kept] @ (assignment.phase_steps % TWO_PI)) % TWO_PI
    rotations = np.exp(1j * base_turns) * steering(assignment.geometry.num_antennas, -leads)
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
    error left is bounded in :func:`pattern_sweep`.
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
    collapse to the common steering delay.
    """
    if assignment.geometry.num_antennas < 2:
        raise ValueError("distortion directions need at least 2 antennas")
    if len(assignment.tone_indices) != 2:
        raise ValueError("distortion directions need exactly two tones")
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

    def nearest_peak(self, tau: float) -> float:
        """Reported coherent direction closest to ``tau``."""
        return min(self.peak_taus, key=lambda p: abs(p - tau))


def _sweep_grid(
    signal: ArraySignal, freq_index: int, geometry: ArrayGeometry, num_points: int
) -> tuple[np.ndarray, float]:
    """Delays ``[-element_delay, +element_delay]`` (endpoints included) of a
    sweep of line ``freq_index`` and the sweep's coherence tolerance."""
    if not 16 <= num_points <= MAX_CHIRP_LENGTH:
        raise ValueError("num_points must be between 16 and 2**26")
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
    """Received power of one line swept by chirp z over ``num_points`` delays
    spanning ``[-element_delay, +element_delay]`` (endpoints included).

    Each power lies within ``C * eps * (1 + M * omega_k * element_delay) *
    lf(k) * (sum_m |c_m|)**2``, ``C = 32``, of the exact power at its delay,
    ``eps`` the float64 epsilon.  Against a long-double sum (M <= 1024, 4096
    points) the largest C needed was 14, at M = 1 (FFT rounding).
    """
    taus, tol = _sweep_grid(signal, freq_index, geometry, num_points)
    if not signal.has_line(freq_index):
        raise MissingLineError(f"no antenna carries a line at index {freq_index}")
    omega = signal.grid.omega(freq_index)
    received = _chirp_z(signal.coefficients(freq_index), omega, geometry.element_delay, num_points)
    powers = _line_factor(freq_index) * _mag2(received)
    return _build_pattern(
        freq_index, taus, powers, signal.port_line_power_total(freq_index), tol
    )

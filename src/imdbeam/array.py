"""Uniform linear array: per-tone steering, the transmit chain, exact
far-field reception, pattern sweeps, and the closed-form directions into
which two-tone third-order products recombine.

Directions are parameterized by the inter-element propagation delay ``tau``
(seconds): a line at angular frequency ``omega`` radiated with a per-antenna
phase lead of ``m * omega * tau`` combines coherently at the far-field
direction whose adjacent-element path difference is ``tau``.  Angles are a
derived annotation only (:func:`delay_to_angle`).
"""

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from .errors import DegenerateFrequencyPlanError, GridRangeError, MissingLineError
from .nonlinearity import BandDefinition, PolynomialNonlinearity, apply_polynomial, band_filter
from .spectra import TWO_PI, ArraySignal, FrequencyGrid, LineSpectrum

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
    if psi <= 0.0:
        return 1e-9
    den = num_antennas * np.sin(psi / 2.0)
    if den == 0.0:
        return 1e-9
    droop = 1.0 - (np.sin(num_antennas * psi / 2.0) / den) ** 2
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
    ``tone_indices[j]`` on antenna ``m``, reduced mod 2*pi.  ``targets``
    holds the steering delay per tone when the assignment was produced by
    :func:`steer_tones`, which lets the distortion-direction solver work
    with exact (unreduced) phase differences.
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
        if any(k < 1 for k in self.tone_indices):
            raise ValueError("tone indices must be positive")
        for row in self.phases:
            if not all(np.isfinite(row)):
                raise ValueError("phases must be finite")

    def phase(self, antenna: int, tone_index: int) -> float:
        return self.phases[antenna][self.tone_indices.index(tone_index)]

    def antenna_spectrum(self, antenna: int) -> LineSpectrum:
        """Multi-tone input driving the given antenna's device."""
        row = self.phases[antenna]
        return LineSpectrum.from_real_tones(
            self.grid,
            [(k, a, p) for k, a, p in zip(self.tone_indices, self.amplitudes, row)],
        )

    def input_signal(self) -> ArraySignal:
        """Multi-tone inputs of all antennas' devices: row ``m`` is
        :meth:`antenna_spectrum` of antenna ``m``."""
        return ArraySignal.from_phasors(
            self.grid,
            self.tone_indices,
            0.5 * np.array(self.amplitudes) * np.exp(1j * np.array(self.phases)),
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
    base = tuple(float(base_phases.get(k, 0.0)) for k in tone_indices)
    amps = tuple(float(amplitudes.get(k, 1.0)) for k in tone_indices)
    taus = tuple(float(targets[k]) for k in tone_indices)
    phases = tuple(
        tuple(
            (b + m * grid.omega(k) * t) % TWO_PI
            for k, b, t in zip(tone_indices, base, taus)
        )
        for m in range(geometry.num_antennas)
    )
    return SteeringAssignment(grid, geometry, tone_indices, amps, phases, taus)


def transmit(
    assignment: SteeringAssignment,
    f: PolynomialNonlinearity,
    band: BandDefinition,
) -> ArraySignal:
    """Drive every antenna with its steered multi-tone input, apply the
    polynomial device, and band-filter what the chain radiates.  Device
    characteristics are identical on all antennas."""
    return band_filter(apply_polynomial(assignment.input_signal(), f), band)


def far_field_receive(signal: ArraySignal, tau_rx: float) -> LineSpectrum:
    """Received spectrum at the direction with inter-element delay ``tau_rx``.

    Per line: ``sum_m c_m(k) * exp(-1j * m * omega_k * tau_rx)``.  Free-space
    loss and the absolute propagation delay are normalized out; only relative
    inter-element phase matters.
    """
    omegas = signal.grid.base_rate * signal.support
    steer = steering(signal.num_antennas, omegas * tau_rx)
    received = np.sum(signal.phasors * steer, axis=0)
    return LineSpectrum(signal.grid, dict(zip(signal.support.tolist(), received.tolist())))


@dataclass(frozen=True)
class DistortionDirections:
    """Delays at which the two near-band third-order products recombine.

    Each delay is defined modulo its ``modulus`` (one full phase turn at the
    product's frequency); the stored value is the quotient of the unreduced
    steering phase differences, so single-user steering reproduces the target
    delay exactly.  Use :func:`fold_delay` to move a value into a principal
    interval.
    """

    upper_index: int
    upper_tau: float
    upper_modulus: float
    lower_index: int
    lower_tau: float
    lower_modulus: float


def distortion_delays(k1: int, k2: int, assignment: SteeringAssignment) -> DistortionDirections:
    """Directions of coherent recombination for the products at ``2*k2 - k1``
    and ``|k2 - 2*k1|``.

    With per-tone steering delays ``t1, t2`` the products combine at
    ``(2*k2*t2 - k1*t1) / (2*k2 - k1)`` and ``(k2*t2 - 2*k1*t1) / (k2 - 2*k1)``;
    equal targets make both collapse to the common steering delay.  For a
    hand-built assignment without targets the delays are recovered from the
    first two antennas' phases (mod-2*pi ambiguity then applies).
    """
    if assignment.geometry.num_antennas < 2:
        raise ValueError("distortion directions need at least 2 antennas")
    if not k1 < k2:
        raise ValueError("tone indices must satisfy k1 < k2")
    if assignment.tone_indices != (k1, k2):
        raise ValueError("assignment must steer exactly the tones (k1, k2)")
    if k2 == 2 * k1:
        raise DegenerateFrequencyPlanError(
            "k2 = 2*k1 places the difference product at zero frequency"
        )
    dw = assignment.grid.base_rate
    up_k = 2 * k2 - k1
    lo_k = k2 - 2 * k1  # signed; the physical line sits at |lo_k|
    if assignment.targets is not None:
        t1, t2 = assignment.targets
        up_tau = (2.0 * k2 * t2 - k1 * t1) / up_k
        lo_tau = (k2 * t2 - 2.0 * k1 * t1) / lo_k
    else:
        (p11, p12), (p21, p22) = assignment.phases[0], assignment.phases[1]
        up_tau = ((2.0 * p22 - p21) - (2.0 * p12 - p11)) / (up_k * dw)
        lo_tau = ((p22 - 2.0 * p21) - (p12 - 2.0 * p11)) / (lo_k * dw)
    return DistortionDirections(
        upper_index=up_k,
        upper_tau=up_tau,
        upper_modulus=TWO_PI / (abs(up_k) * dw),
        lower_index=abs(lo_k),
        lower_tau=lo_tau,
        lower_modulus=TWO_PI / (abs(lo_k) * dw),
    )


def fold_delay(tau: float, modulus: float, half_width: float) -> float:
    """Congruent representative of ``tau`` (mod ``modulus``) inside
    ``[-half_width, half_width]``; raises when none exists."""
    if not modulus > 0:
        raise ValueError("modulus must be positive")
    r = tau - round(tau / modulus) * modulus
    if abs(r) <= half_width * (1.0 + 1e-12) + 1e-18:
        return float(min(max(r, -half_width), half_width))
    raise ValueError(
        f"no representative of {tau:g} (mod {modulus:g}) lies within "
        f"[-{half_width:g}, {half_width:g}]"
    )


def delay_to_angle(tau: float, element_delay: float) -> float:
    """Broadside-referenced direction angle ``arcsin(tau / element_delay)``
    in radians, valid for ``|tau| <= element_delay``."""
    ratio = tau / element_delay
    if abs(ratio) > 1.0 + 1e-12:
        raise ValueError("|tau| exceeds the element delay; no physical angle")
    return float(np.arcsin(min(max(ratio, -1.0), 1.0)))


@dataclass(frozen=True, eq=False)
class Pattern:
    """Received line power versus receive delay over the principal interval.

    ``peak_gain`` is the received-to-summed-port power ratio at the argmax
    grid point (array gain at grid resolution); ``peak_taus`` lists every
    local maximum within grid-quantization tolerance of the global peak, so
    spatially aliased lines report all of their coherent directions instead
    of pretending uniqueness.
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
) -> tuple[np.ndarray, np.ndarray, float]:
    """Delays ``[-element_delay, +element_delay]`` (endpoints included) of a
    sweep of line ``freq_index``, their ``(M, num_points)`` steering matrix,
    and the sweep's coherence tolerance."""
    if num_points < 16:
        raise ValueError("num_points must be >= 16")
    if geometry.num_antennas != signal.num_antennas:
        raise ValueError("geometry and signal disagree on the antenna count")
    taus = np.linspace(-geometry.element_delay, geometry.element_delay, num_points)
    omega = signal.grid.omega(freq_index)
    tol = _coherence_tolerance(geometry.num_antennas, omega, float(taus[1] - taus[0]))
    return taus, steering(geometry.num_antennas, omega * taus), tol


def _build_pattern(
    freq_index: int,
    taus: np.ndarray,
    powers: np.ndarray,
    port_power_total: float,
    peak_rel_tol: float = 1e-9,
) -> Pattern:
    ipk = int(np.argmax(powers))
    peak_power = float(powers[ipk])
    mean_power = float(np.mean(powers))
    if peak_power > 0.0:
        floor = peak_power * (1.0 - peak_rel_tol)
        left = np.concatenate(([-np.inf], powers[:-1]))
        right = np.concatenate((powers[1:], [-np.inf]))
        is_peak = (powers >= left) & (powers >= right) & (powers >= floor)
        peak_taus = tuple(float(t) for t in taus[is_peak])
    else:
        peak_taus = (float(taus[ipk]),)
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
    taus, steer, tol = _sweep_grid(signal, freq_index, geometry, num_points)
    if not signal.has_line(freq_index):
        raise MissingLineError(f"no antenna carries a line at index {freq_index}")
    powers = 2.0 * np.abs(signal.coefficients(freq_index) @ steer) ** 2
    return _build_pattern(
        freq_index, taus, powers, signal.port_line_power_total(freq_index), tol
    )

"""EVM, ACLR and array-gain metrics at the transmitter ports and at
arbitrary far-field directions.

EVM is defined on line spectra: a single common complex gain is fitted to
the reference tones by least squares (the fundamentals are the desired
signal up to a constant), and the in-band residual power is referenced to
the fitted signal power.  ACLR is adjacent-band over in-band line power per
side, in dB, with an explicit ``-inf`` for a clean adjacent band.
"""

from dataclasses import dataclass

import numpy as np

from .array import ArraySignal, SteeringAssignment, far_field_receive, steering
from .errors import MissingLineError
from .nonlinearity import BandDefinition, _contains
from .spectra import LineSpectrum


@dataclass(frozen=True)
class MetricsReport:
    """EVM/ACLR (and, for directions, per-line array gain) at one location."""

    location: str
    evm: float
    aclr_lower_db: float
    aclr_upper_db: float
    array_gain_by_line: dict[int, float] | None = None


def array_gain(signal: ArraySignal, freq_index: int, tau_rx: float) -> float:
    """``|sum_m c_m e^{-i m omega tau}|**2 / sum_m |c_m|**2``; lies in
    ``[0, M]`` and equals M exactly when the per-antenna phases align at
    ``tau_rx``."""
    cm = signal.coefficients(freq_index)
    denom = float(np.sum(np.abs(cm) ** 2))
    if denom == 0.0:
        raise MissingLineError(
            f"no line at index {freq_index}; array gain undefined"
        )
    omega = signal.grid.omega(freq_index)
    steer = steering(signal.num_antennas, omega * tau_rx)
    return float(np.abs(np.sum(cm * steer)) ** 2 / denom)


def _interval_power(spectrum: LineSpectrum, interval: tuple[int, int]) -> float:
    return sum(
        spectrum.line_power(k) for k in spectrum.indices() if _contains(interval, k)
    )


def aclr(spectrum: LineSpectrum, band: BandDefinition) -> tuple[float, float]:
    """(lower, upper) adjacent-band leakage in dB relative to total in-band
    power.  An empty adjacent band reports ``-inf``."""
    p_in = _interval_power(spectrum, band.in_band)
    if p_in <= 0.0:
        raise ValueError("in-band power is zero; ACLR undefined")
    sides = []
    for interval in (band.adjacent_lower, band.adjacent_upper):
        p_adj = _interval_power(spectrum, interval)
        sides.append(
            float(10.0 * np.log10(p_adj / p_in)) if p_adj > 0.0 else float("-inf")
        )
    return sides[0], sides[1]


def evm(
    spectrum: LineSpectrum,
    reference_tones: list[tuple[int, float, float]],
    band: BandDefinition,
) -> float:
    """In-band error vector magnitude against ``(index, amplitude, phase)``
    reference tones after fitting one common complex gain.

    In-band lines without a reference count entirely as error; the fitted
    gain makes the result invariant to any common scaling of the observed
    spectrum.
    """
    refs: dict[int, complex] = {}
    for k, amp, phase in reference_tones:
        if not _contains(band.in_band, k):
            raise ValueError(
                f"reference tone at index {k} lies outside the in-band interval"
            )
        refs[k] = refs.get(k, 0j) + 0.5 * amp * np.exp(1j * phase)
    ref_power = sum(abs(c) ** 2 for c in refs.values())
    if ref_power == 0.0:
        raise ValueError("reference power is zero; EVM undefined")
    g = sum(refs[k].conjugate() * spectrum.coefficient(k) for k in refs) / ref_power
    in_band = sorted(
        set(refs) | {k for k in spectrum.indices() if _contains(band.in_band, k)}
    )
    err = sum(abs(spectrum.coefficient(k) - g * refs.get(k, 0j)) ** 2 for k in in_band)
    sig = sum(abs(g * c) ** 2 for c in refs.values())
    if sig == 0.0:
        raise ValueError("observed in-band signal is zero; EVM undefined")
    return float(np.sqrt(err / sig))


def port_vs_ota_report(
    signal: ArraySignal,
    assignment: SteeringAssignment,
    band: BandDefinition,
    directions: list[float],
) -> list[MetricsReport]:
    """Per-port reports for every antenna followed by one report per
    direction (far-field reception then the same metrics, plus the array
    gain of every radiated line at that direction).

    Port references use each port's own steered phases; direction references
    use the first antenna's phases, whose common offset the EVM gain fit
    absorbs.  In multi-user steering a direction report's EVM therefore also
    picks up the other user's partially combined tone.
    """
    reports = []
    tones = list(zip(assignment.tone_indices, assignment.amplitudes))
    for m, spec in enumerate(signal.per_antenna):
        refs = [(k, a, assignment.phases[m][j]) for j, (k, a) in enumerate(tones)]
        lo, hi = aclr(spec, band)
        reports.append(
            MetricsReport(
                location=f"port {m + 1}",
                evm=evm(spec, refs, band),
                aclr_lower_db=lo,
                aclr_upper_db=hi,
            )
        )
    lines = [k for k in signal.line_indices() if k > 0]
    base_refs = [(k, a, assignment.phases[0][j]) for j, (k, a) in enumerate(tones)]
    for tau in directions:
        rx = far_field_receive(signal, tau)
        lo, hi = aclr(rx, band)
        reports.append(
            MetricsReport(
                location=f"direction tau={tau:.12g}",
                evm=evm(rx, base_refs, band),
                aclr_lower_db=lo,
                aclr_upper_db=hi,
                array_gain_by_line={k: array_gain(signal, k, tau) for k in lines},
            )
        )
    return reports

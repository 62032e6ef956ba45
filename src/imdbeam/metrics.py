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

from .array import ArraySignal, SteeringAssignment, _receive, far_field_receive
from .errors import MissingLineError
from .nonlinearity import BandDefinition, _contains
from .spectra import _columns, _line_factor, _mag2


@dataclass(frozen=True)
class MetricsReport:
    """EVM/ACLR (and, for directions, per-line array gain) of one row of
    :func:`port_vs_ota_report`, which identifies a row by its position."""

    evm: float
    aclr_lower_db: float
    aclr_upper_db: float
    array_gain_by_line: dict[int, float] | None = None


def array_gain(signal: ArraySignal, freq_index: int, tau_rx: float) -> float:
    """``|sum_m c_m e^{-i m omega tau}|**2 / sum_m |c_m|**2``; lies in
    ``[0, M]`` and equals M exactly when the per-antenna phases align at
    ``tau_rx``.  It takes :func:`far_field_receive`'s sum and power rule, so
    the two agree bit for bit wherever the reception does not prune the line."""
    port_total = signal.port_line_power_total(freq_index)
    if port_total == 0.0:
        raise MissingLineError(
            f"no line at index {freq_index}; array gain undefined"
        )
    received = _receive(signal.coefficients(freq_index), signal.grid.omega(freq_index) * tau_rx)
    return float(_line_factor(freq_index) * _mag2(received) / port_total)


def _interval_powers(support, phasors, interval: tuple[int, int]) -> np.ndarray:
    """Per-row power of the lines of ``support`` inside ``interval``."""
    inside = _contains(interval, support)
    return np.sum(_line_factor(support[inside]) * _mag2(phasors[:, inside]), axis=1)


def _aclr_rows(support, phasors, band: BandDefinition) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (lower, upper) adjacent-band leakage in dB of the rows of
    ``phasors``, whose columns are the lines ``support``."""
    p_in = _interval_powers(support, phasors, band.in_band)
    if np.any(p_in <= 0.0):
        raise ValueError("in-band power is zero; ACLR undefined")
    with np.errstate(divide="ignore"):  # a clean adjacent band gives -inf
        lower, upper = (
            10.0 * np.log10(_interval_powers(support, phasors, side) / p_in)
            for side in (band.adjacent_lower, band.adjacent_upper)
        )
    return lower, upper


def _evm_rows(support, phasors, ref_indices, refs: np.ndarray, band: BandDefinition) -> np.ndarray:
    """Per-row EVM of the rows of ``phasors`` (columns at the lines
    ``support``) against the reference phasors ``refs`` (one row for all, or
    one row each) at the lines ``ref_indices``, which must be in-band."""
    ref_indices = np.asarray(ref_indices, dtype=np.int64)
    outside = ref_indices[~_contains(band.in_band, ref_indices)]
    if outside.size:
        raise ValueError(
            f"reference tone at index {outside[0]} lies outside the in-band interval"
        )
    ref_power = np.sum(_mag2(refs), axis=1)
    if np.any(ref_power == 0.0):
        raise ValueError("reference power is zero; EVM undefined")
    observed = _columns(support, phasors, ref_indices)
    g = np.sum(refs.conj() * observed, axis=1) / ref_power
    unreferenced = _contains(band.in_band, support) & ~np.isin(support, ref_indices)
    err = np.sum(_mag2(observed - g[:, None] * refs), axis=1)
    err += np.sum(_mag2(phasors[:, unreferenced]), axis=1)
    sig = _mag2(g) * ref_power
    if np.any(sig == 0.0):
        raise ValueError("observed in-band signal is zero; EVM undefined")
    return np.sqrt(err / sig)


def port_vs_ota_report(
    signal: ArraySignal,
    assignment: SteeringAssignment,
    band: BandDefinition,
    directions: list[float],
) -> list[MetricsReport]:
    """Per-port reports for every antenna followed by one report per
    direction (far-field reception then the same metrics, plus the array
    gain of every radiated line at that direction).  Rows carry no label:
    row ``m`` is antenna ``m`` for ``m < M``, and row ``M + j`` is
    ``directions[j]``.

    Port references use each port's own steered phases; direction references
    use the first antenna's phases, whose common offset the EVM gain fit
    absorbs.  In multi-user steering a direction report's EVM therefore also
    picks up the other user's partially combined tone.
    """
    received = [far_field_receive(signal, tau) for tau in directions]
    # one row per port, then one per direction, all on the signal's lines
    rows = np.concatenate(
        [signal.phasors, *(_columns(rx.support, rx.phasors, signal.support) for rx in received)]
    )
    ref = assignment.input_signal()
    refs = np.concatenate([ref.phasors, np.repeat(ref.phasors[:1], len(received), axis=0)])
    lower, upper = _aclr_rows(signal.support, rows, band)
    evms = _evm_rows(signal.support, rows, ref.support, refs, band)
    lines = [k for k in signal.line_indices() if k > 0]
    gains = [None] * signal.num_antennas
    gains += [{k: array_gain(signal, k, tau) for k in lines} for tau in directions]
    return [
        MetricsReport(*fields)
        for fields in zip(evms.tolist(), lower.tolist(), upper.tolist(), gains)
    ]

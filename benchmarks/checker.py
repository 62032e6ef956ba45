"""Output checker for one ``imdbeam run``, independent of the package.

Everything expected is derived from the scenario config with plain numpy and
the closed forms; nothing here imports ``imdbeam``.  ``check_scenario``
returns one ``(check, passed, detail)`` triple per applicable check.

Tolerances:

* product-line array gain at its closed-form direction: ``1e-9 * M``;
* nearest reported sweep peak: one sweep step of that direction;
* port EVM and linear ACLR ratios against a coherent time-domain sample of the
  steered input, pointwise polynomial and FFT: relative ``1e-9`` plus absolute
  ``1e-12``;
* baseline mean pattern at every sweep point: within ``BASELINE_SIGMAS``
  standard errors ``M * P_line / sqrt(trials)`` of its exact expectation
  ``M * P_line`` (``P_line`` the per-antenna power of the product line).
"""

import json
import math
import os

import numpy as np

REPORT_KEYS = frozenset(
    {
        "baseline",
        "config",
        "directions",
        "distortion_directions",
        "notes",
        "patterns",
        "ports",
        "provenance",
        "steering",
    }
)
GAIN_RTOL = 1e-9
CROSS_RTOL, CROSS_ATOL = 1e-9, 1e-12
BASELINE_SIGMAS = 8.0


class ReportError(ValueError):
    """The report cannot be read well enough to run the checks."""


def _reject_constant(name):
    raise ReportError(f"non-finite JSON constant {name}")


def load_report(path: str) -> dict:
    """Parse ``report.json`` rejecting ``NaN`` and ``Infinity`` literals."""
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def _number(v) -> float:
    """Report numbers are floats or the explicit markers ``"inf"``/``"-inf"``."""
    if isinstance(v, str):
        if v not in ("inf", "-inf"):
            raise ReportError(f"unexpected number marker {v!r}")
        return float(v)
    return float(v)


def product_lines(cfg: dict) -> list[tuple[int, float, float]]:
    """``(line, tau, modulus)`` of the two near-band third-order products,
    from the tone plan and steering targets alone."""
    (k1, k2) = (t["index"] for t in cfg["tones"])
    tau = {t["index"]: t["tau"] for t in cfg["targets"]}
    t1, t2 = tau[k1], tau[k2]
    dw = cfg["grid"]["base_rate"]
    out = []
    for n1, n2 in ((-1, 2), (2, -1)):
        line = n1 * k1 + n2 * k2
        direction = (n1 * k1 * t1 + n2 * k2 * t2) / line
        out.append((abs(line), direction, 2.0 * math.pi / (abs(line) * dw)))
    return out


def _circular(a: float, b: float, modulus: float) -> float:
    d = (a - b) % modulus
    return min(d, modulus - d)


def _steered_tones(cfg: dict, antenna: int) -> list[tuple[int, float, float]]:
    """``(index, amplitude, phase)`` of each tone driving one antenna."""
    dw = cfg["grid"]["base_rate"]
    tau = {t["index"]: t["tau"] for t in cfg["targets"]}
    return [
        (
            t["index"],
            t.get("amplitude", 1.0),
            t.get("phase", 0.0) + antenna * t["index"] * dw * tau[t["index"]],
        )
        for t in cfg["tones"]
    ]


def antenna_lines(cfg: dict, antenna: int) -> np.ndarray:
    """Phasors ``c_k`` (k = 0..max_index) of one antenna's band-filtered
    output: coherent sample of its steered two-tone input over one
    fundamental period, pointwise polynomial, FFT."""
    max_index = cfg["grid"]["max_index"]
    n = 2 * max_index + 2
    theta = 2.0 * math.pi * np.arange(n) / n
    x = np.zeros(n)
    for k, amplitude, phase in _steered_tones(cfg, antenna):
        x += amplitude * np.cos(k * theta + phase)
    y = np.zeros(n)
    for a in reversed(cfg["nonlinearity"]["coefficients"]):
        y = (y + a) * x
    c = np.fft.rfft(y)[: max_index + 1] / n
    band = cfg["band"]
    lo, hi = band["in_band"]
    w = band["adjacent_width"]
    keep = np.zeros(max_index + 1, dtype=bool)
    keep[lo - w : hi + w + 1] = True
    return np.where(keep, c, 0.0)


def _port_reference(cfg: dict, antenna: int) -> tuple[float, float, float]:
    """(evm, lower ACLR ratio, upper ACLR ratio) of one port, linear."""
    c = antenna_lines(cfg, antenna)
    power = 2.0 * np.abs(c) ** 2
    lo, hi = cfg["band"]["in_band"]
    w = cfg["band"]["adjacent_width"]
    p_in = power[lo : hi + 1].sum()
    lower = power[lo - w : lo].sum() / p_in
    upper = power[hi + 1 : hi + w + 1].sum() / p_in
    ref = np.zeros(hi + 1, dtype=complex)
    for k, amplitude, phase in _steered_tones(cfg, antenna):
        ref[k] += 0.5 * amplitude * np.exp(1j * phase)
    r = ref[lo : hi + 1]
    obs = c[lo : hi + 1]
    g = np.vdot(r, obs) / np.vdot(r, r).real
    err = np.sum(np.abs(obs - g * r) ** 2)
    sig = np.sum(np.abs(g * r) ** 2)
    return float(math.sqrt(err / sig)), float(lower), float(upper)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= CROSS_RTOL * max(abs(got), abs(want)) + CROSS_ATOL


def _read_csv_powers(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    return np.array([float(r.split(",")[1]) for r in rows])


def check_scenario(cfg: dict, out_dir: str) -> list[tuple[str, bool, str]]:
    """Run every check that applies to the scenario ``cfg`` whose outputs are
    in ``out_dir``; each result is ``(check, passed, detail)``."""
    try:
        report = load_report(os.path.join(out_dir, "report.json"))
    except (OSError, ValueError) as e:
        return [("report_keys", False, f"report.json unreadable: {e}")]
    keys = set(report) if isinstance(report, dict) else set()
    if keys != REPORT_KEYS:
        return [("report_keys", False, f"top-level keys {sorted(keys)}")]
    results = [("report_keys", True, "")]
    try:
        results += _check_physics(cfg, report, out_dir)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as e:
        results.append(("report_layout", False, f"{type(e).__name__}: {e}"))
    return results


def _check_physics(cfg: dict, report: dict, out_dir: str) -> list[tuple[str, bool, str]]:
    results = []
    m_count = cfg["geometry"]["num_antennas"]
    products = product_lines(cfg)

    gain_errors = []
    for line, tau, modulus in products:
        entry = min(report["directions"], key=lambda d: _circular(d["tau"], tau, modulus))
        dist = _circular(entry["tau"], tau, modulus)
        if dist > GAIN_RTOL * modulus:
            gain_errors.append(f"line {line}: no direction reported near tau={tau!r}")
            continue
        gain = _number(entry["array_gain_by_line"][str(line)])
        if not abs(gain - m_count) <= GAIN_RTOL * m_count:
            gain_errors.append(f"line {line}: gain {gain!r} at tau={tau!r}, want {m_count}")
    results.append(("product_gain", not gain_errors, "; ".join(gain_errors)))

    peak_errors = []
    patterns = {p["freq_index"]: p for p in report["patterns"]}
    for line, tau, modulus in products:
        p = patterns.get(line)
        if p is None:
            peak_errors.append(f"line {line}: no sweep")
            continue
        step = (p["tau_stop"] - p["tau_start"]) / (p["points"] - 1)
        nearest = min(_circular(t, tau, modulus) for t in p["peak_taus"])
        if not nearest <= step * (1.0 + 1e-9):
            peak_errors.append(f"line {line}: nearest peak {nearest:.3g} from tau, step {step:.3g}")
    results.append(("sweep_peak", not peak_errors, "; ".join(peak_errors)))

    antenna = m_count - 1
    evm, lower, upper = _port_reference(cfg, antenna)
    port = report["ports"][antenna]
    got_lower = 10.0 ** (_number(port["aclr_lower_db"]) / 10.0)
    got_upper = 10.0 ** (_number(port["aclr_upper_db"]) / 10.0)
    cross = [
        (name, got, want)
        for name, got, want in (
            ("evm", _number(port["evm"]), evm),
            ("aclr_lower", got_lower, lower),
            ("aclr_upper", got_upper, upper),
        )
        if not _close(got, want)
    ]
    results.append(
        (
            "port_crosscheck",
            not cross,
            "; ".join(f"port {antenna + 1} {n}: report {g!r}, numpy {w!r}" for n, g, w in cross),
        )
    )

    if cfg.get("baseline") is not None:
        results.append(_check_baseline(cfg, report, out_dir, antenna, products))
    return results


def _check_baseline(cfg, report, out_dir, antenna, products) -> tuple[str, bool, str]:
    m_count = cfg["geometry"]["num_antennas"]
    trials = cfg["baseline"]["trials"]
    c = antenna_lines(cfg, antenna)
    errors = []
    base = report["baseline"]
    p_line = _number(base["per_antenna_line_power"])
    lines = [line for line, _, _ in products]
    if sorted(base["line_indices"]) != sorted(lines):
        errors.append(f"baseline lines {base['line_indices']}, want {lines}")
    for line in lines:
        want = 2.0 * abs(c[line]) ** 2
        if not _close(p_line, want):
            errors.append(f"line {line}: per-antenna power {p_line!r}, numpy {want!r}")
    expected = m_count * p_line
    tol = BASELINE_SIGMAS * expected / math.sqrt(trials)
    for p in base["patterns"]:
        powers = _read_csv_powers(os.path.join(out_dir, p["csv"]))
        if powers.size != p["points"]:
            errors.append(f"{p['csv']}: {powers.size} rows, want {p['points']}")
            continue
        dev = float(np.max(np.abs(powers - expected)))
        if not dev <= tol:
            errors.append(
                f"line {p['freq_index']}: max deviation {dev:.4g} from M*P_line "
                f"{expected:.4g} exceeds {BASELINE_SIGMAS:g}/sqrt(trials) ({tol:.4g})"
            )
    return ("baseline_expectation", not errors, "; ".join(errors))

"""Scenario front end: JSON config in, JSON report and CSV pattern sweeps out.

Subcommands:

* ``run``     full scenario: transmit, port and over-the-air metrics,
              distortion directions, pattern sweeps, and (when configured)
              the independent-noise comparison.
* ``expand``  closed-form third-order two-tone term table.
* ``sweep``   pattern sweep of a single line.
* ``compare`` behavioral vs independent-noise mean pattern for the
              near-band products.

All physical quantities in the config are SI (rad/s, seconds); grid indices
are the only dimensionless inputs.  Identical (config, seed) pairs produce
byte-identical outputs.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass

from . import __version__
from .array import (
    DEFAULT_SWEEP_POINTS,
    ArrayGeometry,
    ArraySignal,
    DistortionDirections,
    Pattern,
    SteeringAssignment,
    distortion_delays,
    fold_delay,
    pattern_sweep,
    steer_tones,
    transmit,
)
from .baseline import (
    _I64_MAX,
    _I64_MIN,
    ModelContrast,
    matched_noise_config,
    mean_pattern,
    model_contrast_report,
)
from .errors import ConfigError, MissingLineError
from .metrics import MetricsReport, port_vs_ota_report
from .nonlinearity import (
    BandDefinition,
    PolynomialNonlinearity,
    two_tone_third_order_terms,
)
from .spectra import FrequencyGrid

# Largest sweep work a run may ask for: a weakly radiated line is summed delay
# by delay, antennas x sweep points complex products.  With a baseline it also
# caps the antennas x antennas covariance; 2**24 complex elements take 256 MiB.
MAX_SWEEP_ELEMENTS = 2**24


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ToneSpec:
    index: int
    amplitude: float
    phase: float


@dataclass(frozen=True)
class BaselineSettings:
    trials: int
    line_indices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    grid: FrequencyGrid
    tones: tuple[ToneSpec, ...]
    targets: tuple[float, ...]  # aligned with tones
    geometry: ArrayGeometry
    device: PolynomialNonlinearity
    band: BandDefinition
    sweep_points: int = DEFAULT_SWEEP_POINTS
    seed: int = 0
    baseline: BaselineSettings | None = None
    output_dir: str | None = None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_number(v, field: str) -> float:
    if not _is_number(v):
        raise ConfigError(field, "must be a number")
    # json.loads accepts NaN and Infinity; an integer literal can exceed float
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(field, "must be a finite number")
    return x


def _as_int(v, field: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not (
        isinstance(v, int) or (isinstance(v, float) and float(v).is_integer())
    ):
        raise ConfigError(field, "must be an integer")
    n = int(v)
    if minimum is not None and n < minimum:
        raise ConfigError(field, f"must be >= {minimum}")
    return n


def _as_object(v, field: str, allowed: set[str]) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(field, "must be an object")
    for key in v:
        if key not in allowed:
            raise ConfigError(f"{field}.{key}", "unknown field")
    return v


def _as_interval(v, field: str) -> tuple[int, int]:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(field, "must be a two-element [lo, hi] array")
    lo = _as_int(v[0], f"{field}[0]", minimum=0)
    hi = _as_int(v[1], f"{field}[1]", minimum=0)
    if lo > hi:
        raise ConfigError(field, "must satisfy lo <= hi")
    return lo, hi


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            "$", f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except (ValueError, RecursionError) as e:
        # an integer literal beyond int's digit limit, or nesting beyond the
        # recursion limit
        raise ConfigError("$", f"invalid JSON: {e}") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario config document.

    Syntax errors carry line/column; semantic errors name the offending
    field and the violated constraint.
    """
    return _validate(_decode(text))


def _validate(doc) -> ScenarioConfig:
    """Validate a decoded config document (see :func:`parse_config`)."""
    top = _as_object(
        doc,
        "$",
        {
            "grid",
            "tones",
            "targets",
            "geometry",
            "nonlinearity",
            "band",
            "sweep_points",
            "seed",
            "baseline",
            "output_dir",
        },
    )
    for required in ("grid", "tones", "targets", "geometry", "nonlinearity", "band"):
        if required not in top:
            raise ConfigError(required, "missing required section")

    grid_doc = _as_object(top["grid"], "grid", {"base_rate", "max_index"})
    base_rate = _as_number(grid_doc.get("base_rate"), "grid.base_rate")
    if not base_rate > 0:
        raise ConfigError("grid.base_rate", "must be positive")
    max_index = _as_int(grid_doc.get("max_index"), "grid.max_index", minimum=1)
    grid = FrequencyGrid(base_rate, max_index)

    tones_doc = top["tones"]
    if not isinstance(tones_doc, list) or len(tones_doc) != 2:
        raise ConfigError("tones", "exactly two tones are required")
    tones = []
    for i, entry in enumerate(tones_doc):
        field = f"tones[{i}]"
        obj = _as_object(entry, field, {"index", "amplitude", "phase"})
        index = _as_int(obj.get("index"), f"{field}.index", minimum=1)
        if index > max_index:
            raise ConfigError(f"{field}.index", f"exceeds grid.max_index {max_index}")
        amplitude = _as_number(obj.get("amplitude", 1.0), f"{field}.amplitude")
        if not amplitude > 0:
            raise ConfigError(f"{field}.amplitude", "must be positive")
        phase = _as_number(obj.get("phase", 0.0), f"{field}.phase")
        tones.append(ToneSpec(index, amplitude, phase))
    tones.sort(key=lambda t: t.index)
    k1, k2 = tones[0].index, tones[1].index
    if k1 == k2:
        raise ConfigError("tones", "tone indices must be distinct")
    if k2 == 2 * k1:
        raise ConfigError(
            "tones",
            "degenerate frequency plan: the second index equals twice the first, "
            "placing a difference product at zero frequency",
        )

    geo_doc = _as_object(top["geometry"], "geometry", {"num_antennas", "element_delay"})
    # the scenario pipeline always derives distortion directions, so a
    # single-antenna geometry would violate that operation's precondition
    num_antennas = _as_int(geo_doc.get("num_antennas"), "geometry.num_antennas", minimum=2)
    element_delay = _as_number(geo_doc.get("element_delay"), "geometry.element_delay")
    if not element_delay > 0:
        raise ConfigError("geometry.element_delay", "must be positive")
    geometry = ArrayGeometry(num_antennas, element_delay)

    targets_doc = top["targets"]
    if not isinstance(targets_doc, list):
        raise ConfigError("targets", "must be an array of {index, tau} objects")
    tau_by_index: dict[int, float] = {}
    for i, entry in enumerate(targets_doc):
        field = f"targets[{i}]"
        obj = _as_object(entry, field, {"index", "tau"})
        index = _as_int(obj.get("index"), f"{field}.index", minimum=1)
        if index in tau_by_index:
            raise ConfigError(f"{field}.index", "duplicate target for this tone")
        tau = _as_number(obj.get("tau"), f"{field}.tau")
        if abs(tau) > element_delay:
            raise ConfigError(
                f"{field}.tau",
                f"|tau| must not exceed geometry.element_delay {element_delay:g}",
            )
        tau_by_index[index] = tau
    if sorted(tau_by_index) != [k1, k2]:
        raise ConfigError("targets", "must cover exactly the configured tone indices")
    targets = (tau_by_index[k1], tau_by_index[k2])

    nl_doc = _as_object(top["nonlinearity"], "nonlinearity", {"coefficients"})
    coeffs_doc = nl_doc.get("coefficients")
    if not isinstance(coeffs_doc, list) or not coeffs_doc:
        raise ConfigError("nonlinearity.coefficients", "must be a non-empty array")
    coeffs = tuple(
        _as_number(a, f"nonlinearity.coefficients[{i}]")
        for i, a in enumerate(coeffs_doc)
    )
    try:
        device = PolynomialNonlinearity(coeffs)
    except ValueError as e:
        raise ConfigError("nonlinearity.coefficients", str(e)) from None
    if device.degree * k2 > max_index:
        raise ConfigError(
            "grid.max_index",
            f"must be at least {device.degree * k2} to hold degree-{device.degree} "
            f"products of tone index {k2}",
        )

    band_doc = _as_object(
        top["band"],
        "band",
        {"in_band", "adjacent_width", "adjacent_lower", "adjacent_upper", "keep_window"},
    )
    in_band = _as_interval(band_doc.get("in_band"), "band.in_band")
    try:
        if "adjacent_width" in band_doc:
            for forbidden in ("adjacent_lower", "adjacent_upper"):
                if forbidden in band_doc:
                    raise ConfigError(
                        f"band.{forbidden}", "conflicts with band.adjacent_width"
                    )
            keep = (
                _as_interval(band_doc["keep_window"], "band.keep_window")
                if "keep_window" in band_doc
                else None
            )
            width = _as_int(band_doc["adjacent_width"], "band.adjacent_width", minimum=1)
            band = BandDefinition.around(in_band, width, keep)
        else:
            band = BandDefinition(
                in_band,
                _as_interval(band_doc.get("adjacent_lower"), "band.adjacent_lower"),
                _as_interval(band_doc.get("adjacent_upper"), "band.adjacent_upper"),
                _as_interval(band_doc.get("keep_window"), "band.keep_window"),
            )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError("band", str(e)) from None
    if band.keep_window[1] > max_index:
        raise ConfigError("band.keep_window", f"exceeds grid.max_index {max_index}")
    for t in tones:
        if not band.in_band[0] <= t.index <= band.in_band[1]:
            raise ConfigError(
                "band.in_band", f"tone index {t.index} is outside the in-band interval"
            )

    sweep_points = _as_int(
        top.get("sweep_points", DEFAULT_SWEEP_POINTS), "sweep_points", minimum=16
    )
    seed = _as_int(top.get("seed", 0), "seed")
    if not _I64_MIN <= seed <= _I64_MAX:
        raise ConfigError("seed", "must fit in 64 bits")

    baseline = None
    if top.get("baseline") is not None:
        b_doc = _as_object(top["baseline"], "baseline", {"trials", "line_indices"})
        trials = _as_int(b_doc.get("trials"), "baseline.trials", minimum=1)
        line_indices = None
        if b_doc.get("line_indices") is not None:
            raw = b_doc["line_indices"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError("baseline.line_indices", "must be a non-empty array")
            line_indices = tuple(
                _as_int(k, f"baseline.line_indices[{i}]", minimum=1)
                for i, k in enumerate(raw)
            )
            for k in line_indices:
                if k > max_index:
                    raise ConfigError(
                        "baseline.line_indices", f"index {k} exceeds grid.max_index"
                    )
            if len(set(line_indices)) != len(line_indices):
                raise ConfigError("baseline.line_indices", "indices must be distinct")
        baseline = BaselineSettings(trials, line_indices)

    if num_antennas * sweep_points > MAX_SWEEP_ELEMENTS:
        raise ConfigError(
            "sweep_points",
            f"must be at most {MAX_SWEEP_ELEMENTS // num_antennas}: a sweep may sum "
            f"{num_antennas} x sweep_points complex products",
        )
    if baseline is not None and num_antennas**2 > MAX_SWEEP_ELEMENTS:
        raise ConfigError(
            "geometry.num_antennas",
            f"must be at most {math.isqrt(MAX_SWEEP_ELEMENTS)} with a baseline, "
            "which forms num_antennas x num_antennas complex matrices",
        )

    # Every port line is at most sum_p |a_p| (A1 + A2)**p in magnitude, so no
    # received power, matched noise included, exceeds 8 * (M * peak)**2.  The
    # run sums such powers over keep-window lines and baseline trials.  It
    # also forms the angular frequency of every kept and baseline line, and the
    # chirp of a sweep (_chirp_z) has phases below
    # omega * element_delay * max(M, N)**2 / (N - 1).  A huge integer raises
    # OverflowError, which leaves the values not yet formed infinite.
    amplitude_sum = tones[0].amplitude + tones[1].amplitude
    top_line = max((band.keep_window[1], *((baseline.line_indices or ()) if baseline else ())))
    bound = top_omega = sweep_phase = math.inf
    try:
        peak = sum(abs(a) * amplitude_sum**p for p, a in enumerate(coeffs, start=1))
        trials = baseline.trials if baseline is not None else 1
        bound = 8.0 * (num_antennas * peak) ** 2 * (band.keep_window[1] + 1) * trials
        top_omega = base_rate * top_line
        chirp_span = max(num_antennas, sweep_points) ** 2 / (sweep_points - 1)
        sweep_phase = top_omega * element_delay * chirp_span
    except OverflowError:
        pass
    if not math.isfinite(bound):
        raise ConfigError(
            "nonlinearity.coefficients",
            "the device output would overflow floating point at these tone "
            "amplitudes, antenna count and trial count",
        )
    if not math.isfinite(top_omega):
        raise ConfigError("grid.base_rate", "the top line's angular frequency would overflow")
    if not math.isfinite(sweep_phase):
        raise ConfigError("geometry.element_delay", "the phases of a pattern sweep would overflow")

    output_dir = top.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir", "must be a string")

    return ScenarioConfig(
        grid=grid,
        tones=tuple(tones),
        targets=targets,
        geometry=geometry,
        device=device,
        band=band,
        sweep_points=sweep_points,
        seed=seed,
        baseline=baseline,
        output_dir=output_dir,
    )


def config_to_jsonable(cfg: ScenarioConfig) -> dict:
    """Canonical JSON form; ``parse_config`` of its serialization round-trips
    to an equal config.  Each section is a dataclass whose fields are its
    keys; the device is stored as ``nonlinearity`` and every target next to
    its tone index."""
    doc = dataclasses.asdict(cfg)
    doc["nonlinearity"] = doc.pop("device")
    doc["targets"] = [
        {"index": t.index, "tau": tau} for t, tau in zip(cfg.tones, cfg.targets)
    ]
    for optional in ("baseline", "output_dir"):
        if doc[optional] is None:
            del doc[optional]
    return doc


def config_hash(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_jsonable(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# --------------------------------------------------------------------------
# scenario orchestration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionEntry:
    tau: float
    kind: str
    report: MetricsReport


@dataclass
class ReportBundle:
    """Everything a scenario run produced, ready for serialization."""

    config: ScenarioConfig
    assignment: SteeringAssignment
    distortion: DistortionDirections
    ports: list[MetricsReport]
    directions: list[DirectionEntry]
    patterns: list[Pattern]
    baseline_patterns: list[Pattern]
    contrasts: list[ModelContrast]
    baseline_line_power: float | None
    notes: list[str]


def _scenario_signal(cfg: ScenarioConfig) -> tuple[SteeringAssignment, ArraySignal]:
    assignment = steer_tones(
        cfg.grid,
        cfg.geometry,
        {t.index: tau for t, tau in zip(cfg.tones, cfg.targets)},
        base_phases={t.index: t.phase for t in cfg.tones},
        amplitudes={t.index: t.amplitude for t in cfg.tones},
    )
    return assignment, transmit(assignment, cfg.device, cfg.band)


def run_scenario(cfg: ScenarioConfig) -> ReportBundle:
    """Deterministic end-to-end run: transmit, port metrics, distortion
    directions, pattern sweeps, over-the-air metrics at every target and
    distortion direction, and the optional independent-noise comparison."""
    notes: list[str] = []
    assignment, signal = _scenario_signal(cfg)
    dd = distortion_delays(assignment)
    planned = {p.line_index: p for p in (dd.upper, dd.lower)}
    products = {k: p for k, p in planned.items() if signal.has_line(k)}
    noise_lines = () if cfg.baseline is None else (cfg.baseline.line_indices or tuple(products))

    # every line the report shows or contrasts is swept once, here
    patterns: dict[int, Pattern] = {}
    for k in dict.fromkeys((*assignment.tone_indices, *planned, *noise_lines)):
        if signal.has_line(k):
            patterns[k] = pattern_sweep(signal, k, cfg.geometry, cfg.sweep_points)
        else:
            notes.append(f"line {k} absent after the transmit chain; sweep skipped")

    directions: list[tuple[float, str]] = []
    delta = cfg.geometry.element_delay

    def _add_direction(tau: float, kind: str):
        # directions that agree to rounding noise are one physical direction
        for i, (existing, label) in enumerate(directions):
            if abs(existing - tau) <= 1e-9 * delta:
                directions[i] = (existing, f"{label}; {kind}")
                return
        directions.append((tau, kind))

    for t, tau in zip(cfg.tones, cfg.targets):
        _add_direction(tau, f"target of tone {t.index}")
    for p in products.values():
        try:
            folded = fold_delay(p.tau, p.modulus, delta)
        except ValueError:
            notes.append(
                f"distortion direction of line {p.line_index} (tau={p.tau:.12g}) has no "
                f"representative within the principal interval; skipped"
            )
            continue
        origin = "" if folded == p.tau else f" (folded from {p.tau:.12g})"
        _add_direction(folded, f"distortion product line {p.line_index}{origin}")

    all_reports = port_vs_ota_report(
        signal, assignment, cfg.band, [tau for tau, _ in directions]
    )
    m = cfg.geometry.num_antennas
    ports = all_reports[:m]
    direction_entries = [
        DirectionEntry(tau, kind, rep)
        for (tau, kind), rep in zip(directions, all_reports[m:])
    ]

    baseline_patterns: list[Pattern] = []
    contrasts: list[ModelContrast] = []
    baseline_line_power = None
    if cfg.baseline is not None:
        if not noise_lines:
            notes.append("no distortion lines present; baseline comparison skipped")
        else:
            # parse_config keeps both tones inside band.in_band, so the
            # band filter passes the steered input unchanged
            desired = assignment.input_signal()
            ncfg = matched_noise_config(signal, noise_lines, cfg.baseline.trials, cfg.seed)
            baseline_line_power = ncfg.per_antenna_line_power
            for k in noise_lines:
                bp = mean_pattern(ncfg, desired, cfg.geometry, k, cfg.sweep_points)
                baseline_patterns.append(bp)
                if k in patterns:
                    contrasts.append(model_contrast_report(patterns[k], bp))
                else:
                    notes.append(
                        f"behavioral signal has no line {k}; contrast report skipped"
                    )

    return ReportBundle(
        config=cfg,
        assignment=assignment,
        distortion=dd,
        ports=ports,
        directions=direction_entries,
        patterns=list(patterns.values()),
        baseline_patterns=baseline_patterns,
        contrasts=contrasts,
        baseline_line_power=baseline_line_power,
        notes=notes,
    )


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _fields(x, *drop: str) -> dict:
    """A dataclass's fields by name, less those in ``drop``.  A non-finite
    float field becomes its string marker (``"-inf"``); other values are left
    as they are.  ``_dumps`` also calls it on every nested dataclass, so the
    rest of a document must already be JSON: string keys, finite floats."""
    doc = {f.name: getattr(x, f.name) for f in dataclasses.fields(x) if f.name not in drop}
    for name, v in doc.items():
        if isinstance(v, float) and not math.isfinite(v):
            doc[name] = str(v)
    return doc


def _dumps(doc) -> str:
    """The JSON text of a report, compare or sweep document."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_fields)


def _pattern_jsonable(pattern: Pattern, csv_name: str) -> dict:
    # the swept arrays go to the CSV instead
    return _fields(pattern, "taus", "powers") | {
        "points": pattern.taus.size,
        "tau_start": pattern.taus[0],
        "tau_stop": pattern.taus[-1],
        "csv": csv_name,
    }


def _pattern_csv_name(freq_index: int, baseline: bool = False) -> str:
    return f"pattern_{freq_index}_baseline.csv" if baseline else f"pattern_{freq_index}.csv"


def _baseline_jsonable(bundle: ReportBundle) -> dict:
    """The report's ``baseline`` section, which ``compare`` prints alone."""
    return {
        "trials": bundle.config.baseline.trials,
        "seed": bundle.config.seed,
        "line_indices": [p.freq_index for p in bundle.baseline_patterns],
        "per_antenna_line_power": bundle.baseline_line_power,
        "patterns": [
            _pattern_jsonable(p, _pattern_csv_name(p.freq_index, baseline=True))
            for p in bundle.baseline_patterns
        ],
        "contrast": bundle.contrasts,
    }


def bundle_to_jsonable(bundle: ReportBundle) -> dict:
    cfg = bundle.config
    return {
        "provenance": {
            "config_sha256": config_hash(cfg),
            "version": __version__,
            "seed": cfg.seed,
        },
        "steering": _fields(bundle.assignment, "grid", "geometry"),
        "distortion_directions": bundle.distortion,
        "ports": [_fields(r, "array_gain_by_line") for r in bundle.ports],
        # line indices as strings: sort_keys would order int keys by number
        "directions": [
            {"tau": d.tau, "kind": d.kind, **_fields(d.report)}
            | {"array_gain_by_line": {str(k): g for k, g in d.report.array_gain_by_line.items()}}
            for d in bundle.directions
        ],
        "patterns": [
            _pattern_jsonable(p, _pattern_csv_name(p.freq_index)) for p in bundle.patterns
        ],
        "notes": bundle.notes,
        "baseline": None if cfg.baseline is None else _baseline_jsonable(bundle),
        "config": config_to_jsonable(cfg),
    }


def _write(directory: str, name: str, data: str) -> str:
    """Write ``data`` to ``directory/name``, creating the directory, and
    return the path.  The file appears whole or not at all."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _pattern_csv(pattern: Pattern) -> str:
    """CSV rows of ``pattern``: delay, linear power and power in dB."""
    powers = pattern.powers.tolist()
    dbs = [10.0 * math.log10(p) if p > 0.0 else -math.inf for p in powers]
    rows = ["%.12g,%.12g,%.12g\n" % row for row in zip(pattern.taus.tolist(), powers, dbs)]
    return "tau_rx_seconds,power_linear,power_db\n" + "".join(rows)


def emit(bundle: ReportBundle, out_dir: str) -> list[str]:
    """Write one CSV per pattern sweep, then ``report.json``; returns the
    written paths.  Each file is written atomically, so a failed run never
    leaves a partial ``report.json``."""
    written = [
        _write(out_dir, _pattern_csv_name(p.freq_index, baseline), _pattern_csv(p))
        for baseline, patterns in ((False, bundle.patterns), (True, bundle.baseline_patterns))
        for p in patterns
    ]
    written.append(_write(out_dir, "report.json", _dumps(bundle_to_jsonable(bundle)) + "\n"))
    return written


# --------------------------------------------------------------------------
# command-line interface
# --------------------------------------------------------------------------


def _load_config(path: str, seed: int | None, points: int | None) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError("$", f"cannot read config {path}: {e.strerror}") from None
    overrides = {k: v for k, v in (("seed", seed), ("sweep_points", points)) if v is not None}
    if not overrides:
        # kept apart from the path below: the benchmark tracer needs the parse_config span
        return parse_config(text)
    doc = _decode(text)
    # the overrides replace their fields before the fields are checked
    return _validate(doc | overrides if isinstance(doc, dict) else doc)


def _run_with_context(cfg: ScenarioConfig) -> ReportBundle:
    try:
        return run_scenario(cfg)
    except (ValueError, LookupError, ArithmeticError) as e:
        raise RuntimeError(f"scenario run failed: {e}") from e


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed, args.points)
    out = args.out or cfg.output_dir
    if not out:
        raise ConfigError("output_dir", "pass --out DIR or set output_dir in the config")
    written = emit(_run_with_context(cfg), out)
    print(f"wrote {len(written)} files to {out}")
    return 0


def _cmd_expand(args) -> int:
    for flag in ("alpha", "phi1", "phi2"):
        if not math.isfinite(getattr(args, flag)):
            raise ConfigError(f"--{flag}", "must be a finite number")
    if args.k1 < 1:
        raise ConfigError("--k1", "must be a positive integer")
    if args.k2 <= args.k1:
        raise ConfigError("--k2", "must exceed --k1")
    terms = two_tone_third_order_terms(args.k1, args.k2, args.phi1, args.phi2, args.alpha)
    if not all(math.isfinite(amp) for _, amp, _ in terms):
        raise ConfigError("--alpha", "the term amplitudes overflow floating point")
    if not all(math.isfinite(phase) for _, _, phase in terms):
        raise ConfigError("--phi1/--phi2", "the term phases overflow floating point")
    print(f"{'index':>6}  {'amplitude':>16}  {'phase_rad':>16}")
    for k, amp, phase in terms:
        print(f"{k:>6}  {amp:>16.12g}  {phase:>16.12g}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed, args.points)
    if args.line < 0:
        raise ConfigError("line", "must be a non-negative line index")
    _, signal = _scenario_signal(cfg)
    try:
        pattern = pattern_sweep(signal, args.line, cfg.geometry, cfg.sweep_points)
    except MissingLineError as e:
        raise ConfigError("line", str(e)) from None
    csv_name = _pattern_csv_name(args.line)
    if args.out:
        _write(args.out, csv_name, _pattern_csv(pattern))
    print(_dumps(_pattern_jsonable(pattern, csv_name)))
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config, args.seed, args.points)
    if cfg.baseline is None:
        raise ConfigError("baseline", "compare requires baseline settings in the config")
    text = _dumps(_baseline_jsonable(_run_with_context(cfg)))
    if args.out:
        _write(args.out, "compare.json", text + "\n")
    print(text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imdbeam",
        description=(
            "Two-tone line-spectrum simulator for beamformed intermodulation "
            "distortion in antenna arrays"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--points", type=int, default=None, help="override sweep point count"
        )

    run_p = sub.add_parser("run", help="run a full scenario")
    _common(run_p)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(handler=_cmd_run)

    expand_p = sub.add_parser(
        "expand", help="print the closed-form third-order two-tone term table"
    )
    expand_p.add_argument("--k1", type=int, required=True)
    expand_p.add_argument("--k2", type=int, required=True)
    expand_p.add_argument("--alpha", type=float, required=True)
    expand_p.add_argument("--phi1", type=float, default=0.0)
    expand_p.add_argument("--phi2", type=float, default=0.0)
    # argparse before 3.14 takes "-5e307" for an option, not a negative value
    expand_p._negative_number_matcher = re.compile(r"^-\.?\d")
    expand_p.set_defaults(handler=_cmd_expand)

    sweep_p = sub.add_parser("sweep", help="pattern sweep of a single line")
    _common(sweep_p)
    sweep_p.add_argument("--line", type=int, required=True, help="line index to sweep")
    sweep_p.add_argument("--out", default=None, help="optional CSV output directory")
    sweep_p.set_defaults(handler=_cmd_sweep)

    compare_p = sub.add_parser(
        "compare", help="behavioral vs independent-noise mean pattern"
    )
    _common(compare_p)
    compare_p.add_argument("--out", default=None, help="optional JSON output directory")
    compare_p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError, LookupError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

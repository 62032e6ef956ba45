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
import itertools
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
from .spectra import _I64_MAX, _I64_MIN, FrequencyGrid

# Largest antennas x sweep points a run may ask for.  M * N <= 2**24 implies
# M + N - 1 <= 2**24, so a sweep's FFTs are at most 2**24 long.  With a baseline
# it also caps M at 2**12, where the 2M x 2M real Gram matrix and chunk update
# that sum the M x M covariance take 64 * M**2 bytes, 1 GiB.
MAX_SWEEP_ELEMENTS = 2**24


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineSettings:
    trials: int
    line_indices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    steering: SteeringAssignment  # grid, geometry, tones and targets
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
    return _as_int(v[0], f"{field}[0]"), _as_int(v[1], f"{field}[1]")


def _record(section: str, build, *args):
    """``build(*args)``, a record whose every error message starts with the
    field it rejects; a rejection becomes the ConfigError of that field."""
    try:
        return build(*args)
    except ValueError as e:
        raise ConfigError(f"{section}.{str(e).split()[0]}", str(e)) from None


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


def parse_config(text: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and fully validate a scenario config document.

    ``overrides`` replace top-level fields of the document before any field
    is checked.  Syntax errors carry line/column; semantic errors name the
    offending field and the violated constraint.
    """
    doc = _decode(text)
    if overrides and isinstance(doc, dict):
        doc = doc | overrides
    return _validate(doc)


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
    grid = _record(
        "grid",
        FrequencyGrid,
        _as_number(grid_doc.get("base_rate"), "grid.base_rate"),
        _as_int(grid_doc.get("max_index"), "grid.max_index"),
    )
    max_index = grid.max_index

    tones_doc = top["tones"]
    if not isinstance(tones_doc, list) or len(tones_doc) != 2:
        raise ConfigError("tones", "exactly two tones are required")
    amplitudes: dict[int, float] = {}
    base_phases: dict[int, float] = {}
    for i, entry in enumerate(tones_doc):
        field = f"tones[{i}]"
        obj = _as_object(entry, field, {"index", "amplitude", "phase"})
        index = _as_int(obj.get("index"), f"{field}.index", minimum=1)
        if index > max_index:
            raise ConfigError(f"{field}.index", f"exceeds grid.max_index {max_index}")
        amplitudes[index] = _as_number(obj.get("amplitude", 1.0), f"{field}.amplitude")
        if not amplitudes[index] > 0:
            raise ConfigError(f"{field}.amplitude", "must be positive")
        base_phases[index] = _as_number(obj.get("phase", 0.0), f"{field}.phase")
    if len(amplitudes) != 2:
        raise ConfigError("tones", "tone indices must be distinct")
    k1, k2 = sorted(amplitudes)
    if k2 == 2 * k1:
        raise ConfigError(
            "tones",
            "degenerate frequency plan: the second index equals twice the first, "
            "placing a difference product at zero frequency",
        )

    geo_doc = _as_object(top["geometry"], "geometry", {"num_antennas", "element_delay"})
    # the scenario pipeline always derives distortion directions, so a
    # single-antenna geometry would violate that operation's precondition
    geometry = _record(
        "geometry",
        ArrayGeometry,
        _as_int(geo_doc.get("num_antennas"), "geometry.num_antennas", minimum=2),
        _as_number(geo_doc.get("element_delay"), "geometry.element_delay"),
    )
    num_antennas, element_delay = geometry.num_antennas, geometry.element_delay

    targets_doc = top["targets"]
    if not isinstance(targets_doc, list):
        raise ConfigError("targets", "must be an array of {index, tau} objects")
    targets: dict[int, float] = {}
    for i, entry in enumerate(targets_doc):
        field = f"targets[{i}]"
        obj = _as_object(entry, field, {"index", "tau"})
        index = _as_int(obj.get("index"), f"{field}.index", minimum=1)
        if index in targets:
            raise ConfigError(f"{field}.index", "duplicate target for this tone")
        tau = _as_number(obj.get("tau"), f"{field}.tau")
        if abs(tau) > element_delay:
            raise ConfigError(
                f"{field}.tau",
                f"|tau| must not exceed geometry.element_delay {element_delay:g}",
            )
        targets[index] = tau
    if sorted(targets) != [k1, k2]:
        raise ConfigError("targets", "must cover exactly the configured tone indices")

    nl_doc = _as_object(top["nonlinearity"], "nonlinearity", {"coefficients"})
    coeffs_doc = nl_doc.get("coefficients")
    if not isinstance(coeffs_doc, list) or not coeffs_doc:
        raise ConfigError("nonlinearity.coefficients", "must be a non-empty array")
    coeffs = tuple(
        _as_number(a, f"nonlinearity.coefficients[{i}]")
        for i, a in enumerate(coeffs_doc)
    )
    device = _record("nonlinearity", PolynomialNonlinearity, coeffs)
    if device.degree * k2 > max_index:
        raise ConfigError(
            "grid.max_index",
            f"must be at least {device.degree * k2} to hold degree-{device.degree} "
            f"products of tone index {k2}",
        )

    band_doc = _as_object(top["band"], "band", {"in_band", "adjacent_width", "keep_window"})
    keep = band_doc.get("keep_window")
    band = _record(
        "band",
        BandDefinition,
        _as_interval(band_doc.get("in_band"), "band.in_band"),
        _as_int(band_doc.get("adjacent_width"), "band.adjacent_width"),
        None if keep is None else _as_interval(keep, "band.keep_window"),
    )
    if band.keep_window[1] > max_index:
        raise ConfigError("band.keep_window", f"exceeds grid.max_index {max_index}")
    for k in (k1, k2):
        if not band.in_band[0] <= k <= band.in_band[1]:
            raise ConfigError(
                "band.in_band", f"tone index {k} is outside the in-band interval"
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

    # checked first: a sweep has at least 16 points, so no sweep_points could fit
    most = MAX_SWEEP_ELEMENTS // 16 if baseline is None else math.isqrt(MAX_SWEEP_ELEMENTS)
    if num_antennas > most:
        raise ConfigError(
            "geometry.num_antennas",
            f"must be at most {most}, so that a sweep of 16 points stays within 2**24 "
            "elements and a baseline's 64 * num_antennas**2 bytes of covariance sums "
            "within 1 GiB",
        )
    if num_antennas * sweep_points > MAX_SWEEP_ELEMENTS:
        raise ConfigError(
            "sweep_points",
            f"must be at most {MAX_SWEEP_ELEMENTS // num_antennas}, so that a sweep's FFT "
            f"length {num_antennas} + sweep_points - 1 stays within 2**24",
        )

    # Every port line is at most sum_p |a_p| (A1 + A2)**p in magnitude, so no
    # received power, matched noise included, exceeds 8 * (M * peak)**2.  The
    # run sums such powers over keep-window lines and baseline trials.  It
    # also forms the angular frequency of every kept and baseline line, and the
    # chirp of a sweep (_chirp_z) has phases below omega * element_delay *
    # max(M, N)**2 / (N - 1), above every phase step omega * tau of a tone.  A
    # huge integer raises OverflowError, which leaves the values not yet formed infinite.
    amplitude_sum = amplitudes[k1] + amplitudes[k2]
    top_line = max((band.keep_window[1], *((baseline.line_indices or ()) if baseline else ())))
    bound = top_omega = sweep_phase = math.inf
    try:
        peak = sum(abs(a) * amplitude_sum**p for p, a in enumerate(coeffs, start=1))
        trials = baseline.trials if baseline is not None else 1
        bound = 8.0 * (num_antennas * peak) ** 2 * (band.keep_window[1] + 1) * trials
        top_omega = grid.base_rate * top_line
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

    # last, once the guards above keep every phase step finite
    steering = steer_tones(grid, geometry, targets, base_phases, amplitudes)
    return ScenarioConfig(steering, device, band, sweep_points, seed, baseline, output_dir)


def config_to_jsonable(cfg: ScenarioConfig) -> dict:
    """Canonical JSON form; ``parse_config`` of its serialization round-trips
    to an equal config.  Each section is a dataclass whose fields are its
    keys; the device is stored as ``nonlinearity``, and the steering record
    as its grid, geometry, tones and every target next to its tone index."""
    s = cfg.steering
    sections = {
        "grid": s.grid,
        "geometry": s.geometry,
        "nonlinearity": cfg.device,
        "band": cfg.band,
        "baseline": cfg.baseline,
    }
    doc = {name: _fields(x) for name, x in sections.items() if x is not None}
    doc["tones"] = [
        {"index": k, "amplitude": a, "phase": phase}
        for k, a, phase in zip(s.tone_indices, s.amplitudes, s.base_phases)
    ]
    doc["targets"] = [{"index": k, "tau": tau} for k, tau in zip(s.tone_indices, s.targets)]
    doc |= {"sweep_points": cfg.sweep_points, "seed": cfg.seed}
    if cfg.output_dir is not None:
        doc["output_dir"] = cfg.output_dir
    return doc


def _sha256(config: dict) -> str:
    """The hash of a config's canonical JSON form (:func:`config_to_jsonable`)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def config_hash(cfg: ScenarioConfig) -> str:
    return _sha256(config_to_jsonable(cfg))


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
    distortion: DistortionDirections
    ports: list[MetricsReport]
    directions: list[DirectionEntry]
    patterns: list[Pattern]
    baseline_patterns: list[Pattern]
    contrasts: list[ModelContrast]
    baseline_line_power: float | None
    notes: list[str]


def run_scenario(cfg: ScenarioConfig) -> ReportBundle:
    """Deterministic end-to-end run: transmit, port metrics, distortion
    directions, pattern sweeps, over-the-air metrics at every target and
    distortion direction, and the optional independent-noise comparison."""
    notes: list[str] = []
    assignment, geometry = cfg.steering, cfg.steering.geometry
    signal = transmit(assignment, cfg.device, cfg.band)
    dd = distortion_delays(assignment)
    planned = {p.line_index: p for p in (dd.upper, dd.lower)}
    products = {k: p for k, p in planned.items() if signal.has_line(k)}
    noise_lines = () if cfg.baseline is None else (cfg.baseline.line_indices or tuple(products))

    # every line the report shows or contrasts is swept once, here
    patterns: dict[int, Pattern] = {}
    for k in dict.fromkeys((*assignment.tone_indices, *planned, *noise_lines)):
        if signal.has_line(k):
            patterns[k] = pattern_sweep(signal, k, geometry, cfg.sweep_points)
        else:
            notes.append(f"line {k} absent after the transmit chain; sweep skipped")

    directions: list[tuple[float, str]] = []
    delta = geometry.element_delay

    def _add_direction(tau: float, kind: str):
        # directions that agree to rounding noise are one physical direction
        for i, (existing, label) in enumerate(directions):
            if abs(existing - tau) <= 1e-9 * delta:
                directions[i] = (existing, f"{label}; {kind}")
                return
        directions.append((tau, kind))

    for k, tau in zip(assignment.tone_indices, assignment.targets):
        _add_direction(tau, f"target of tone {k}")
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
    m = geometry.num_antennas
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
                bp = mean_pattern(ncfg, desired, geometry, k, cfg.sweep_points)
                baseline_patterns.append(bp)
                if k in patterns:
                    contrasts.append(model_contrast_report(patterns[k], bp))
                else:
                    notes.append(
                        f"behavioral signal has no line {k}; contrast report skipped"
                    )

    return ReportBundle(
        config=cfg,
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


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The field names of a dataclass, read from ``dataclasses`` once per class."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _marker(value):
    """A non-finite float as its string marker (``"-inf"``), any other value
    as it is: the report's one rule for non-finite floats."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _marked(values: list) -> list:
    """:func:`_marker` of each of ``values``.  A list with no non-finite
    float is returned itself, after passes in C."""
    floats = itertools.compress(values, map(isinstance, values, itertools.repeat(float)))
    return values if all(map(math.isfinite, floats)) else list(map(_marker, values))


def _fields(x, *drop: str) -> dict:
    """A dataclass's fields by name, less those in ``drop``, each under
    :func:`_marker`.  ``_dumps`` also calls it on every nested dataclass, so
    the rest of a document must already be JSON: string keys, finite floats."""
    return {name: _marker(getattr(x, name)) for name in _field_names(type(x)) if name not in drop}


def _rows(cls, items, *drop: str) -> list[dict]:
    """:func:`_fields` of each ``cls`` in ``items``, gathered one field at a
    time across ``items``, so that the marker rule runs once per column."""
    names = [name for name in _field_names(cls) if name not in drop]
    columns = [_marked([getattr(x, name) for x in items]) for name in names]
    return [dict(zip(names, row)) for row in zip(*columns)]


def _dumps(doc) -> str:
    """A report, compare or sweep document as one line; no ``indent`` keeps json in C."""
    return json.dumps(doc, sort_keys=True, allow_nan=False, default=_fields)


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
    config = config_to_jsonable(cfg)
    return {
        "provenance": {
            "config_sha256": _sha256(config),
            "version": __version__,
            "seed": cfg.seed,
        },
        "steering": _fields(cfg.steering, "grid", "geometry"),
        "distortion_directions": bundle.distortion,
        "ports": _rows(MetricsReport, bundle.ports, "array_gain_by_line"),
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
        "config": config,
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


def _csv_template(taus) -> str:
    """Pattern CSV text on the delays ``taus`` with a ``%.12g`` slot for each
    linear power: ``template % tuple(powers)`` fills them in one pass."""
    rows = ("%.12g,%%.12g\n" * taus.size) % tuple(taus.tolist())
    return "tau_rx_seconds,power_linear\n" + rows


def emit(bundle: ReportBundle, out_dir: str) -> list[str]:
    """Write one CSV per pattern sweep, then ``report.json``; returns the
    written paths.  Each file is written atomically, so a failed run never
    leaves a partial ``report.json``."""
    # every sweep of a run is on one _sweep_grid, and a run sweeps its tones (EVM needs them)
    csv = _csv_template(bundle.patterns[0].taus)
    written = [
        _write(out_dir, _pattern_csv_name(p.freq_index, baseline), csv % tuple(p.powers.tolist()))
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
    except UnicodeDecodeError as e:
        raise ConfigError("$", f"cannot read config {path}: {e}") from None
    overrides = {k: v for k, v in (("seed", seed), ("sweep_points", points)) if v is not None}
    return parse_config(text, overrides)


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
    signal = transmit(cfg.steering, cfg.device, cfg.band)
    try:
        pattern = pattern_sweep(signal, args.line, cfg.steering.geometry, cfg.sweep_points)
    except MissingLineError as e:
        raise ConfigError("line", str(e)) from None
    csv_name = _pattern_csv_name(args.line)
    if args.out:
        _write(args.out, csv_name, _csv_template(pattern.taus) % tuple(pattern.powers.tolist()))
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

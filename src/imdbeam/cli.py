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
import hashlib
import json
import math
import os
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


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario config document.

    Syntax errors carry line/column; semantic errors name the offending
    field and the violated constraint.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            "$", f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
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
        baseline = BaselineSettings(trials, line_indices)

    # Every port line is at most sum_p |a_p| (A1 + A2)**p in magnitude, so no
    # received power, matched noise included, exceeds 8 * (M * peak)**2.  The
    # run sums such powers over keep-window lines and baseline trials.
    amplitude_sum = tones[0].amplitude + tones[1].amplitude
    try:
        peak = sum(abs(a) * amplitude_sum**p for p, a in enumerate(coeffs, start=1))
        bound = 8.0 * (num_antennas * peak) ** 2 * (band.keep_window[1] + 1)
        bound *= baseline.trials if baseline is not None else 1
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ConfigError(
            "nonlinearity.coefficients",
            "the device output would overflow floating point at these tone "
            "amplitudes, antenna count and trial count",
        )

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
    doc = _jsonable(cfg)
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
    seed: int
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
    k1, k2 = assignment.tone_indices
    dd = distortion_delays(k1, k2, assignment)

    pattern_lines = []
    for k in (k1, k2, dd.upper_index, dd.lower_index):
        if k not in pattern_lines:
            pattern_lines.append(k)
    patterns = []
    for k in pattern_lines:
        if signal.has_line(k):
            patterns.append(pattern_sweep(signal, k, cfg.geometry, cfg.sweep_points))
        else:
            notes.append(f"line {k} absent after the transmit chain; sweep skipped")

    directions: list[tuple[float, str]] = []

    def _add_direction(tau: float, kind: str):
        # directions that agree to rounding noise are one physical direction
        for i, (existing, label) in enumerate(directions):
            if abs(existing - tau) <= 1e-9 * max(1.0, abs(existing)):
                directions[i] = (existing, f"{label}; {kind}")
                return
        directions.append((tau, kind))

    for t, tau in zip(cfg.tones, cfg.targets):
        _add_direction(tau, f"target of tone {t.index}")
    delta = cfg.geometry.element_delay
    for k, tau, modulus in (
        (dd.upper_index, dd.upper_tau, dd.upper_modulus),
        (dd.lower_index, dd.lower_tau, dd.lower_modulus),
    ):
        if not signal.has_line(k):
            continue
        if abs(tau) <= delta:
            _add_direction(tau, f"distortion product line {k}")
        else:
            try:
                folded = fold_delay(tau, modulus, delta)
            except ValueError:
                notes.append(
                    f"distortion direction of line {k} (tau={tau:.12g}) has no "
                    f"representative within the principal interval; skipped"
                )
                continue
            _add_direction(
                folded, f"distortion product line {k} (folded from {tau:.12g})"
            )

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
        products = [
            k for k in (dd.upper_index, dd.lower_index) if signal.has_line(k)
        ]
        noise_lines = cfg.baseline.line_indices or tuple(products)
        if not noise_lines:
            notes.append("no distortion lines present; baseline comparison skipped")
        else:
            # parse_config keeps both tones inside band.in_band, so the
            # band filter passes the steered input unchanged
            desired = assignment.input_signal()
            ncfg = matched_noise_config(
                signal, tuple(noise_lines), cfg.baseline.trials, cfg.seed
            )
            baseline_line_power = ncfg.per_antenna_line_power
            behavioral_by_line = {p.freq_index: p for p in patterns}
            for k in noise_lines:
                bp = mean_pattern(ncfg, desired, cfg.geometry, k, cfg.sweep_points)
                baseline_patterns.append(bp)
                behavioral = behavioral_by_line.get(k)
                if behavioral is None and signal.has_line(k):
                    behavioral = pattern_sweep(signal, k, cfg.geometry, cfg.sweep_points)
                if behavioral is not None:
                    contrasts.append(model_contrast_report(behavioral, bp))
                else:
                    notes.append(
                        f"behavioral signal has no line {k}; contrast report skipped"
                    )

    return ReportBundle(
        config=cfg,
        seed=cfg.seed,
        assignment=assignment,
        distortion=dd,
        ports=ports,
        directions=direction_entries,
        patterns=patterns,
        baseline_patterns=baseline_patterns,
        contrasts=contrasts,
        baseline_line_power=baseline_line_power,
        notes=notes,
    )


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _json_num(x):
    """Finite numbers pass through; non-finite become explicit markers."""
    x = float(x)
    return x if math.isfinite(x) else str(x)


def _jsonable(x):
    """JSON form of report values: dataclasses and mappings become objects
    with string keys, tuples become lists, floats pass through _json_num."""
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return _json_num(x) if isinstance(x, float) else x


def _report_jsonable(report: MetricsReport) -> dict:
    doc = _jsonable(report)
    if report.array_gain_by_line is None:
        del doc["array_gain_by_line"]
    return doc


def _pattern_jsonable(pattern: Pattern, csv_name: str) -> dict:
    doc = _jsonable(pattern)  # the swept arrays go to the CSV instead
    del doc["taus"], doc["powers"]
    return doc | {
        "points": int(pattern.taus.size),
        "tau_start": _json_num(pattern.taus[0]),
        "tau_stop": _json_num(pattern.taus[-1]),
        "csv": csv_name,
    }


def _pattern_csv_name(freq_index: int, baseline: bool = False) -> str:
    return f"pattern_{freq_index}_baseline.csv" if baseline else f"pattern_{freq_index}.csv"


def bundle_to_jsonable(bundle: ReportBundle) -> dict:
    cfg, assignment, dd = bundle.config, bundle.assignment, bundle.distortion
    doc = {
        "provenance": {
            "config_sha256": config_hash(cfg),
            "version": __version__,
            "seed": bundle.seed,
        },
        "config": config_to_jsonable(cfg),
        "steering": {
            "tone_indices": assignment.tone_indices,
            "amplitudes": assignment.amplitudes,
            "targets": assignment.targets,
            "phases": assignment.phases,
        },
        "distortion_directions": {
            side: {
                "line_index": getattr(dd, f"{side}_index"),
                "tau": getattr(dd, f"{side}_tau"),
                "modulus": getattr(dd, f"{side}_modulus"),
            }
            for side in ("upper", "lower")
        },
        "ports": [_report_jsonable(r) for r in bundle.ports],
        "directions": [
            {"tau": d.tau, "kind": d.kind, **_report_jsonable(d.report)}
            for d in bundle.directions
        ],
        "patterns": [
            _pattern_jsonable(p, _pattern_csv_name(p.freq_index)) for p in bundle.patterns
        ],
        "notes": bundle.notes,
        "baseline": None,
    }
    if cfg.baseline is not None:
        doc["baseline"] = {
            "trials": cfg.baseline.trials,
            "seed": bundle.seed,
            "line_indices": [p.freq_index for p in bundle.baseline_patterns],
            "per_antenna_line_power": bundle.baseline_line_power,
            "patterns": [
                _pattern_jsonable(p, _pattern_csv_name(p.freq_index, baseline=True))
                for p in bundle.baseline_patterns
            ],
            "contrast": bundle.contrasts,
        }
    return _jsonable(doc)


def _write_atomic(path: str, data: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pattern_csv(pattern: Pattern) -> str:
    rows = ["tau_rx_seconds,power_linear,power_db"]
    for tau, p in zip(pattern.taus, pattern.powers):
        db = 10.0 * math.log10(p) if p > 0.0 else float("-inf")
        rows.append(f"{tau:.12g},{p:.12g},{db:.12g}")
    return "\n".join(rows) + "\n"


def emit(bundle: ReportBundle, out_dir: str) -> list[str]:
    """Write ``report.json`` plus one CSV per pattern sweep; returns the
    written paths.  The report is written atomically, so a failed run never
    leaves a partial ``report.json``."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    sweeps = [(p, False) for p in bundle.patterns]
    for pattern, baseline in sweeps + [(p, True) for p in bundle.baseline_patterns]:
        path = os.path.join(out_dir, _pattern_csv_name(pattern.freq_index, baseline))
        _write_atomic(path, _pattern_csv(pattern))
        written.append(path)
    report = json.dumps(bundle_to_jsonable(bundle), indent=2, sort_keys=True, allow_nan=False)
    path = os.path.join(out_dir, "report.json")
    _write_atomic(path, report + "\n")
    written.append(path)
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
    cfg = parse_config(text)
    if seed is not None:
        if not _I64_MIN <= seed <= _I64_MAX:
            raise ConfigError("seed", "must fit in 64 bits")
        cfg = dataclasses.replace(cfg, seed=seed)
    if points is not None:
        if points < 16:
            raise ConfigError("sweep_points", "must be >= 16")
        cfg = dataclasses.replace(cfg, sweep_points=points)
    return cfg


def _resolve_out(args_out: str | None, cfg: ScenarioConfig) -> str:
    out = args_out or cfg.output_dir
    if not out:
        raise ConfigError("output_dir", "pass --out DIR or set output_dir in the config")
    return out


def _run_with_context(cfg: ScenarioConfig) -> ReportBundle:
    try:
        return run_scenario(cfg)
    except (ValueError, LookupError, ArithmeticError) as e:
        raise RuntimeError(f"scenario run failed: {e}") from e


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed, args.points)
    bundle = _run_with_context(cfg)
    out = _resolve_out(args.out, cfg)
    written = emit(bundle, out)
    print(f"wrote {len(written)} files to {out}")
    return 0


def _cmd_expand(args) -> int:
    terms = two_tone_third_order_terms(args.k1, args.k2, args.phi1, args.phi2, args.alpha)
    print(f"{'index':>6}  {'amplitude':>16}  {'phase_rad':>16}")
    for k, amp, phase in terms:
        print(f"{k:>6}  {amp:>16.12g}  {phase:>16.12g}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed, args.points)
    _, signal = _scenario_signal(cfg)
    try:
        pattern = pattern_sweep(signal, args.line, cfg.geometry, cfg.sweep_points)
    except MissingLineError as e:
        raise ConfigError("line", str(e)) from None
    csv_name = _pattern_csv_name(args.line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_atomic(os.path.join(args.out, csv_name), _pattern_csv(pattern))
    print(json.dumps(_pattern_jsonable(pattern, csv_name), indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config, args.seed, args.points)
    if cfg.baseline is None:
        raise ConfigError("baseline", "compare requires baseline settings in the config")
    bundle = _run_with_context(cfg)
    doc = bundle_to_jsonable(bundle)["baseline"]
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_atomic(os.path.join(args.out, "compare.json"), text + "\n")
    print(text)
    return 0


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

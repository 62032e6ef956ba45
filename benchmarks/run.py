"""End-to-end and per-layer benchmark of ``imdbeam run``.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload mc_baseline --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

The load is a closed loop from one client in this process: the scenario
generator (``scenarios.py``) writes one config file, the public CLI entry
``imdbeam.cli.main(["run", "--config", ..., "--out", ...])`` runs it, and the
next scenario starts only after the previous one returned.  Only that call is
timed; writing the config, the output checks (``checker.py``) and clean-up
happen outside the timed region.  The loop stops once the timed calls add up
to ``--seconds``.  Reported times are scaled by a speed probe run between
scenarios (``speed.py``), so that a change of the machine's speed does not
read as a change of the program; the wall times are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
scenario once untraced and once traced (``tracing.py``), in alternating order,
and prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a result file with provenance and sample counts is written under
``.bench_out/results/``.  See ``DESIGN.md`` for the choice of workloads and
metrics.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checker
import scenarios
import tracing
from speed import REF_NOMINAL_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 11  # fresh interpreters timed for setup_s, after one warm start
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "scenario_s_p50": "s",
    "scenario_s_tail": "s",
    "goodput_per_s": "1/s",
    "pass_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SELF_TIME_LAYERS = (
    "baseline.mean_pattern",
    "baseline.matched_noise_config",
    "array.transmit",
    "nonlinearity.apply_polynomial",
    "nonlinearity.band_filter",
    "array.pattern_sweep",
    "array.steer_tones",
    "array.far_field_receive",
    "metrics.port_vs_ota_report",
    "cli.main",
    "cli.parse_config",
    "cli.run_scenario",
    "cli.emit",
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "baseline.uniform_phase.calls": "count",
    "baseline.phase_draws": "count",
    "baseline.draws_per_s": "1/s",
    "array.transmit.calls": "count",
    "array.pattern_sweep.steer_elems": "count",
    "metrics.array_gain.calls": "count",
    "cli.emit.bytes": "bytes",
    "baseline.unequal_amp.failed_frac": "frac",
    "trace.overhead_s": "s",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no imdbeam sources to benchmark."""


def load_program():
    """Import ``imdbeam.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "imdbeam" / "cli.py").is_file():
        raise ProgramMissing(f"no imdbeam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import imdbeam.cli

    if Path(imdbeam.__file__).resolve().parent != (SRC / "imdbeam").resolve():
        raise ProgramMissing(f"imported imdbeam from {imdbeam.__file__}, not {SRC}")
    return imdbeam.cli


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    import imdbeam

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "imdbeam": imdbeam.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 thread of Python, baseline workers=1",
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def measure_setup() -> tuple[list[float], list[float]]:
    """(scaled, wall) seconds from spawning a fresh interpreter to ``import
    imdbeam.cli`` done, for SETUP_STARTS starts after one untimed start
    that fills the bytecode and page caches.  Each start probes its own
    speed right after the import, on the CPU it ran on, and is scaled by
    that probe."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "import imdbeam.cli; done = time.monotonic(); "
        "sys.path.insert(0, sys.argv[2]); import speed; "
        "print(done, speed.SpeedProbe().probe())"
    )
    scaled, wall = [], []
    for i in range(SETUP_STARTS + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            cwd=ROOT,
        )
        if i:
            end, probe = map(float, done.stdout.split())
            wall.append(end - start)
            scaled.append(wall[-1] * REF_NOMINAL_S / probe)
    return scaled, wall


def _run_cli(cli_main, cfg_path: Path, out_dir: Path) -> tuple[int, float, str]:
    """Timed ``imdbeam run``; returns (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        except Exception as e:  # a crash fails the scenario, not the benchmark
            rc = 1
            err.write(f"uncaught {type(e).__name__}: {e}\n")
        elapsed = time.perf_counter() - start
    return rc, elapsed, err.getvalue().strip()


class Session:
    """One benchmark run: scenario execution, checking and tallies."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.passed = 0
        self.wrong: list[str] = []  # outputs that failed a check
        self.causes: Counter = Counter()  # why scenarios failed
        self.check_counts: dict[str, list[int]] = {}
        self.determinism: dict = {"index": None, "identical": None}
        self._reference: bytes | None = None

    def execute(self, cfg: dict, tag: str, main=None) -> tuple[int, float, str, Path]:
        """Write ``cfg`` and run it timed; (exit code, seconds, stderr, outputs)."""
        cfg_path = self.work / f"{tag}.json"
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        cfg_path.write_text(json.dumps(cfg))
        rc, elapsed, err = _run_cli(main or self.cli.main, cfg_path, out)
        return rc, elapsed, err, out

    def warm_up(self):
        """Run scenarios 0, 1, ... (at most one block of the batch mix)
        untimed until one writes a report; that report is the reference for
        the byte-identity check."""
        for index in range(len(scenarios.BATCH_CATEGORIES)):
            rc, _, _, out = self.execute(scenarios.scenario(self.workload, self.seed, index), "warm")
            if rc == 0:
                self.determinism["index"] = index
                self._reference = (out / "report.json").read_bytes()
                return

    def record(self, index: int, cfg: dict, rc: int, err: str, out: Path) -> bool:
        """Check one scenario's outputs and tally it; True when it passed."""
        self.attempted += 1
        report = out / "report.json"
        if rc != 0:
            cause = err.splitlines()[-1] if err else f"exit code {rc}"
            self.causes[cause] += 1
            if report.exists():
                self.wrong.append(f"scenario {index}: exit {rc} left a report.json")
            return False
        results = checker.check_scenario(cfg, str(out))
        for name, ok, detail in results:
            tally = self.check_counts.setdefault(name, [0, 0])
            tally[0] += ok
            tally[1] += 1
            if not ok:
                self.wrong.append(f"scenario {index}: {name}: {detail}")
        if index == self.determinism["index"] and self.determinism["identical"] is None:
            self.determinism["identical"] = report.read_bytes() == self._reference
            if not self.determinism["identical"]:
                self.wrong.append(f"scenario {index}: report.json differs between two runs")
        ok = all(r[1] for r in results)
        if ok:
            self.passed += 1
        else:
            self.causes["failed a check"] += 1
        return ok

    @property
    def correct(self) -> bool:
        return not self.wrong


def _tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def run_end_to_end(session: Session, seconds: float, min_scenarios: int) -> dict:
    setup, setup_wall = measure_setup()
    session.warm_up()
    speed = SpeedProbe()
    speed.start()
    wall, passed = [], []
    timed = 0.0
    index = 0
    while timed < seconds or index < min_scenarios:
        cfg = scenarios.scenario(session.workload, session.seed, index)
        rc, elapsed, err, out = session.execute(cfg, "run")
        wall.append(elapsed)
        timed += elapsed
        passed.append(session.record(index, cfg, rc, err, out))
        speed.timed(index, elapsed)
        index += 1
    speed.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [t * speed.factor[i] for i, t in enumerate(wall)]
    # latencies are over passed scenarios; when none passed (a broken
    # program), over all of them, so the result line still reports it
    over = "passed" if any(passed) else "attempted"
    timed_set = [t for t, ok in zip(times, passed) if ok] or times
    wall_set = [t for t, ok in zip(wall, passed) if ok] or wall
    tail, tail_pct, tail_beyond = _tail(timed_set)
    metrics = {
        "scenario_s_p50": statistics.median(timed_set),
        "scenario_s_tail": tail,
        "goodput_per_s": session.passed / sum(times),
        "pass_frac": session.passed / session.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "scenario_s_p50": {"percentile": 50.0, "samples": len(timed_set), "over": over},
        "scenario_s_tail": {
            "percentile": tail_pct,
            "samples": len(timed_set),
            "samples_beyond": tail_beyond,
            "over": over,
        },
        "setup_s": {"percentile": 50.0, "samples": len(setup)},
        "goodput_per_s": {"passed": session.passed, "scaled_s": sum(times)},
        "pass_frac": {"passed": session.passed, "attempted": session.attempted},
    }
    notes = [
        f"unscaled wall clock: scenario p50 {statistics.median(wall_set):.6g} s, "
        f"setup p50 {statistics.median(setup_wall):.6g} s; speed probe p50 "
        f"{statistics.median(speed.samples) * 1e3:.4g} ms over {len(speed.samples)} probes "
        f"(times are scaled to a {REF_NOMINAL_S * 1e3:g} ms probe)"
    ]
    return {
        "metrics": metrics,
        "samples": samples,
        "notes": notes,
        "raw": {
            "scenario_s": times,
            "scenario_wall_s": wall,
            "setup_s": setup,
            "setup_wall_s": setup_wall,
            "probe_s": speed.samples,
            "probe_parts_s": speed.parts,
            "failed_frac": 1.0 - metrics["pass_frac"],
        },
    }


def count_draws(session: Session, count: int) -> dict:
    """Phase draws of scenarios 0 .. count-1, in an untimed pass that
    counts ``uniform_phase`` calls and the ``mean_pattern`` calls they are
    drawn for; ``phase_draws`` is trials x M x patterns."""
    counter = tracing.Tracer(tracing.DRAW_POINTS)
    draws = 0
    for index in range(count):
        cfg = scenarios.scenario(session.workload, session.seed, index)
        patterns = counter.counts["baseline.mean_pattern"]
        counter.install()
        try:
            session.execute(cfg, "count")
        finally:
            counter.uninstall()
        patterns = counter.counts["baseline.mean_pattern"] - patterns
        if patterns:
            draws += patterns * cfg["baseline"]["trials"] * cfg["geometry"]["num_antennas"]
    counter.check_coverage(has_baseline=True)
    return {
        "scenarios": count,
        "uniform_phase_calls": counter.counts["baseline.uniform_phase"] / count,
        "phase_draws": draws / count,
    }


def unequal_baseline_failures(session: Session) -> float:
    """Share of ``scenarios.unequal_baseline`` configs, run untimed, that exit
    nonzero or fail a check.  They are kept out of the timed mix, so they
    count here and not in the result line's ``failed``."""
    failed = 0
    for index in range(scenarios.UNEQUAL_BASELINE_PROBES):
        cfg = scenarios.unequal_baseline(session.seed, index)
        rc, _, _, out = session.execute(cfg, "probe")
        failed += rc != 0 or not all(ok for _, ok, _ in checker.check_scenario(cfg, str(out)))
    return failed / scenarios.UNEQUAL_BASELINE_PROBES


def run_traced(session: Session, seconds: float, min_scenarios: int) -> dict:
    has_baseline = scenarios.WORKLOADS[session.workload]["has_baseline"]
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT_SPAN, session.cli.main)
    session.warm_up()
    unequal_failed = unequal_baseline_failures(session)
    counted = (
        count_draws(session, min_scenarios)
        if has_baseline
        else {"scenarios": 0, "uniform_phase_calls": 0.0, "phase_draws": 0.0}
    )
    speed = SpeedProbe()
    speed.start()
    plain_wall, traced_wall, configs = [], [], []
    timed = emitted = 0.0
    index = 0
    while timed < seconds or index < min_scenarios:
        cfg = scenarios.scenario(session.workload, session.seed, index)
        runs = {}
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.scenario = index
                tracer.install()
                try:
                    runs[True] = session.execute(cfg, "traced", traced_main)
                finally:
                    tracer.uninstall()
            else:
                runs[False] = session.execute(cfg, "plain")
            speed.timed((index, with_trace), runs[with_trace][1])
        (rc, t_plain, err, out), (rc_t, t_traced, _, out_t) = runs[False], runs[True]
        plain_wall.append(t_plain)
        traced_wall.append(t_traced)
        timed += t_plain + t_traced
        session.record(index, cfg, rc, err, out)
        if rc != rc_t or (rc == 0 and (out / "report.json").read_bytes() != (out_t / "report.json").read_bytes()):
            session.wrong.append(f"scenario {index}: tracing changed the outcome")
        configs.append(cfg)
        if rc_t == 0:
            emitted += sum(p.stat().st_size for p in out_t.iterdir())
        index += 1
    speed.close()
    tracer.check_coverage(has_baseline)
    plain = [t * speed.factor[i, False] for i, t in enumerate(plain_wall)]
    traced = [t * speed.factor[i, True] for i, t in enumerate(traced_wall)]
    summary = tracer.summary({i: speed.factor[i, True] for i in range(len(traced))})
    n = index
    baseline_calls = tracer.calls_by_scenario("baseline.mean_pattern")
    sweep_calls = tracer.calls_by_scenario("array.pattern_sweep")
    draws = steer_elems = 0
    for i, cfg in enumerate(configs):
        m_count = cfg["geometry"]["num_antennas"]
        if cfg.get("baseline"):
            draws += baseline_calls.get(i, 0) * cfg["baseline"]["trials"] * m_count
        steer_elems += sweep_calls.get(i, 0) * m_count * cfg["sweep_points"]

    def per(name, field):
        return summary.get(name, {}).get(field, 0) / n

    metrics = {f"{layer}.self_s": per(layer, "self_s") for layer in SELF_TIME_LAYERS}
    mean_pattern_busy = summary.get("baseline.mean_pattern", {}).get("busy_s", 0.0)
    metrics.update(
        {
            "baseline.uniform_phase.calls": counted["uniform_phase_calls"],
            "baseline.phase_draws": counted["phase_draws"],
            "baseline.draws_per_s": draws / mean_pattern_busy if mean_pattern_busy else 0.0,
            "array.transmit.calls": per("array.transmit", "calls"),
            "array.pattern_sweep.steer_elems": steer_elems / n,
            "metrics.array_gain.calls": per("metrics.array_gain", "calls"),
            "cli.emit.bytes": emitted / n,
            "baseline.unequal_amp.failed_frac": unequal_failed,
            # the wall-time difference within a pair, scaled once: the probes'
            # own error would swamp a difference this small
            "trace.overhead_s": statistics.median(
                (t - p) * (speed.factor[i, False] + speed.factor[i, True]) / 2
                for i, (t, p) in enumerate(zip(traced_wall, plain_wall))
            ),
        }
    )
    notes = [
        f"tracing overhead: untraced p50 {statistics.median(plain):.6g} s, "
        f"traced p50 {statistics.median(traced):.6g} s; no layer waits on another "
        "(single thread, baseline workers=1), so self time is busy time",
        f"uniform_phase calls and phase draws are counted untraced over scenarios "
        f"0..{counted['scenarios'] - 1}" if counted["scenarios"] else
        "no baseline on this workload: uniform_phase calls and phase draws are 0",
        f"unequal tone amplitudes with a baseline, kept out of the timed mix: "
        f"{unequal_failed:.0%} of {scenarios.UNEQUAL_BASELINE_PROBES} untimed configs failed",
    ]
    return {
        "metrics": metrics,
        "samples": {
            "trace.overhead_s": {"percentile": 50.0, "samples": len(plain)},
            "baseline.unequal_amp.failed_frac": {"configs": scenarios.UNEQUAL_BASELINE_PROBES},
            "baseline.uniform_phase.calls": {"scenarios": counted["scenarios"]},
            "baseline.phase_draws": {"scenarios": counted["scenarios"]},
        },
        "notes": notes,
        "raw": {
            "untraced_s": plain,
            "traced_s": traced,
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "probe_s": speed.samples,
            "probe_parts_s": speed.parts,
            "layers": summary,
        },
        "spans": tracer.to_jsonable(),
    }


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def run_one(args) -> int:
    try:
        cli = load_program()
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    spec = scenarios.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    session = Session(cli, args.workload, args.seed, work)
    try:
        if args.trace:
            result = run_traced(session, args.seconds, spec["min_scenarios"])
            units = PER_LAYER_UNITS
        else:
            result = run_end_to_end(session, args.seconds, spec["min_scenarios"])
            units = END_TO_END_UNITS
    except tracing.TraceCoverageError as e:
        print(f"error: trace coverage: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"[{args.workload} seed={args.seed}]"
    for name, unit in units.items():
        extra = result["samples"].get(name, {})
        note = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in extra.items())
        print(f"{tag} {name} = {result['metrics'][name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    for note in result["notes"]:
        print(f"{tag} {note}")
    for name, (ok, total) in sorted(session.check_counts.items()):
        print(f"{tag} check {name}: {ok}/{total} passed")
    det = session.determinism
    print(f"{tag} check byte-identical rerun of scenario {det['index']}: {det['identical']}")
    for cause, count in session.causes.most_common():
        print(f"{tag} failed {count}/{session.attempted}: {cause}")
    for line in session.wrong[:20]:
        print(f"{tag} WRONG {line}")

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    doc = {
        "provenance": provenance(args),
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
        "samples": result["samples"],
        "checks": {
            "correct": session.correct,
            "counts": session.check_counts,
            "determinism": det,
            "wrong": session.wrong,
            "failure_causes": dict(session.causes),
        },
        "raw": result["raw"],
    }
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1))
    if args.trace:
        Path(f"{stem}_spans.json").write_text(json.dumps(result["spans"]))
    print(
        json.dumps(
            {
                "correct": session.correct,
                "attempted": session.attempted,
                "failed": session.attempted - session.passed,
                "metrics": doc["metrics"],
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in scenarios.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*scenarios.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

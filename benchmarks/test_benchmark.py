"""Tests of the benchmark itself: generator, checker, tracer and result line.

Run from the repository root with ``python -m pytest benchmarks``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from imdbeam import ArraySignal, LineSpectrum  # noqa: E402
import imdbeam.array  # noqa: E402
from imdbeam import cli  # noqa: E402


def _batch_index(seed, multi_user, unequal, baseline):
    """First scenario_batch index of the given category."""
    for i in range(len(scenarios.BATCH_CATEGORIES)):
        cfg = scenarios.scenario("scenario_batch", seed, i)
        t1, t2 = (t["tau"] for t in cfg["targets"])
        a1, a2 = (t["amplitude"] for t in cfg["tones"])
        if ((t1 != t2), (a1 != a2), ("baseline" in cfg)) == (multi_user, unequal, baseline):
            return i
    raise AssertionError("category missing from the first block")


def _run(cfg, tmp_path, name="out", main=None):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert (main or cli.main)(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def _failed(results):
    return {name for name, ok, _ in results if not ok}


# --------------------------------------------------------------------------
# generator
# --------------------------------------------------------------------------


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_generator_is_a_function_of_the_seed(workload):
    first = [json.dumps(scenarios.scenario(workload, 7, i)) for i in range(10)]
    again = [json.dumps(scenarios.scenario(workload, 7, i)) for i in range(10)]
    other = [json.dumps(scenarios.scenario(workload, 8, i)) for i in range(10)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_batch_blocks_hold_every_category_once():
    for seed in (1, 2):
        for block in range(4):
            seen = set()
            size = len(scenarios.BATCH_CATEGORIES)
            for i in range(size * block, size * block + size):
                cfg = scenarios.scenario("scenario_batch", seed, i)
                t1, t2 = (t["tau"] for t in cfg["targets"])
                a1, a2 = (t["amplitude"] for t in cfg["tones"])
                seen.add((t1 != t2, a1 != a2, "baseline" in cfg))
            assert seen == set(scenarios.BATCH_CATEGORIES)


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_generated_plans_meet_the_checker_preconditions(workload):
    for i in range(40):
        cfg = scenarios.scenario(workload, 3, i)
        parsed = cli.parse_config(json.dumps(cfg))
        degree = parsed.device.degree
        k1, k2 = (t["index"] for t in cfg["tones"])
        delta = cfg["geometry"]["element_delay"]
        for line, _, modulus in checker.product_lines(cfg):
            # exactly one mixing order reaches each product line
            orders = [
                (n1, n2)
                for n1 in range(-degree, degree + 1)
                for n2 in range(-degree, degree + 1)
                if abs(n1) + abs(n2) <= degree and n1 * k1 + n2 * k2 == line
            ]
            assert len(orders) == 1, (i, line, orders)
            # a representative of the direction lies in the swept interval
            assert delta <= modulus <= 2.0 * delta * (1.0 + 1e-12)


# --------------------------------------------------------------------------
# checker
# --------------------------------------------------------------------------


def test_checker_accepts_real_runs(tmp_path):
    for category in ((True, False, True), (False, True, False)):
        cfg = scenarios.scenario("scenario_batch", 5, _batch_index(5, *category))
        results = checker.check_scenario(cfg, str(_run(cfg, tmp_path, str(category))))
        assert not _failed(results), results
        expected = {"report_keys", "product_gain", "sweep_peak", "port_crosscheck"}
        if category[2]:
            expected.add("baseline_expectation")
        assert {name for name, _, _ in results} == expected


def test_checker_rejects_flipped_product_phase(tmp_path, monkeypatch):
    cfg = scenarios.scenario("scenario_batch", 5, _batch_index(5, True, False, False))
    upper = checker.product_lines(cfg)[0][0]
    original = cli.transmit

    def flipped(assignment, device, band):
        signal = original(assignment, device, band)
        specs = []
        for spec in signal.per_antenna:
            lines = dict(spec.items())
            lines[upper], lines[-upper] = lines[-upper], lines[upper]
            specs.append(LineSpectrum(spec.grid, lines))
        return ArraySignal(tuple(specs))

    monkeypatch.setattr(cli, "transmit", flipped)
    results = checker.check_scenario(cfg, str(_run(cfg, tmp_path)))
    assert {"product_gain", "sweep_peak"} <= _failed(results)


def _edit_report(out, edit):
    path = out / "report.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2))


def test_checker_rejects_planted_report_errors(tmp_path):
    cfg = scenarios.scenario("scenario_batch", 5, _batch_index(5, True, False, True))
    out = _run(cfg, tmp_path)
    pristine = (out / "report.json").read_text()
    upper = str(checker.product_lines(cfg)[0][0])

    def wrong_gain(doc):
        for d in doc["directions"]:
            d["array_gain_by_line"][upper] *= 1.0 - 1e-6

    def wrong_aclr(doc):
        doc["ports"][-1]["aclr_upper_db"] += 1e-3

    def moved_peak(doc):
        for p in doc["patterns"]:
            if str(p["freq_index"]) == upper:
                p["peak_taus"] = [-t for t in p["peak_taus"]]

    def dropped_key(doc):
        del doc["notes"]

    for edit, check in (
        (wrong_gain, "product_gain"),
        (wrong_aclr, "port_crosscheck"),
        (moved_peak, "sweep_peak"),
        (dropped_key, "report_keys"),
    ):
        (out / "report.json").write_text(pristine)
        _edit_report(out, edit)
        assert check in _failed(checker.check_scenario(cfg, str(out))), check

    (out / "report.json").write_text(pristine.replace('"notes": []', '"notes": NaN'))
    assert _failed(checker.check_scenario(cfg, str(out))) == {"report_keys"}

    (out / "report.json").write_text(pristine)
    csv = out / f"pattern_{upper}_baseline.csv"
    rows = csv.read_text().splitlines()
    doubled = [rows[0]] + [
        ",".join([r.split(",")[0], repr(2.0 * float(r.split(",")[1])), "0"]) for r in rows[1:]
    ]
    csv.write_text("\n".join(doubled) + "\n")
    assert _failed(checker.check_scenario(cfg, str(out))) == {"baseline_expectation"}


def test_numpy_cross_check_matches_closed_form_two_tone():
    """x + a3*x**3 on a unit two-tone: the upper product has amplitude 3*a3/4."""
    cfg = scenarios.scenario("mc_baseline", 1, 0)
    cfg["tones"][0]["amplitude"] = cfg["tones"][1]["amplitude"] = 1.0
    cfg["nonlinearity"]["coefficients"] = [1.0, 0.0, 0.1]
    upper = checker.product_lines(cfg)[0][0]
    c = checker.antenna_lines(cfg, 3)
    assert math.isclose(2.0 * abs(c[upper]), 0.075, rel_tol=1e-12)
    assert abs(c[3 * cfg["tones"][1]["index"]]) < 1e-15  # outside the keep window


# --------------------------------------------------------------------------
# tracer and result line
# --------------------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run._tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_trace_records_nested_spans_and_restores_functions(tmp_path):
    tracer = tracing.Tracer()
    before = cli.run_scenario
    cfg = scenarios.scenario("scenario_batch", 5, _batch_index(5, True, False, True))
    tracer.scenario = 0
    tracer.install()
    try:
        _run(cfg, tmp_path, main=tracer.wrap(tracing.ROOT_SPAN, cli.main))
    finally:
        tracer.uninstall()
    assert cli.run_scenario is before
    tracer.check_coverage(has_baseline=True)
    summary = tracer.summary()
    m_count = cfg["geometry"]["num_antennas"]
    assert summary["nonlinearity.apply_polynomial"]["calls"] == 2 * m_count
    names = tracer.names
    parents = {names[s[0]]: names[tracer.spans[s[3]][0]] for s in tracer.spans if s[3] >= 0}
    assert parents["array.transmit"] == "cli.run_scenario"
    assert parents["nonlinearity.apply_polynomial"] == "array.transmit"
    for layer in summary.values():
        assert layer["self_s"] <= layer["busy_s"] + 1e-12


def test_draw_counter_counts_every_phase_draw(tmp_path):
    counter = tracing.Tracer(tracing.DRAW_POINTS)
    cfg = scenarios.scenario("scenario_batch", 5, _batch_index(5, True, False, True))
    counter.install()
    try:
        _run(cfg, tmp_path)
    finally:
        counter.uninstall()
    counter.check_coverage(has_baseline=True)
    draws = cfg["geometry"]["num_antennas"] * cfg["baseline"]["trials"]
    assert counter.counts == {"baseline.uniform_phase": 2 * draws, "baseline.mean_pattern": 2}


def test_speed_probe_scales_work_between_two_probes():
    probe = speed.SpeedProbe()
    probe.start()
    probe.timed("a", 0.1)
    assert "a" not in probe.factor  # waits for more work before probing
    probe.timed("b", 0.2)
    probe.timed("c", 0.0)
    probe.close()
    assert len(probe.samples) == 3
    first = speed.REF_NOMINAL_S / ((probe.samples[0] + probe.samples[1]) / 2)
    assert probe.factor["a"] == probe.factor["b"] == first
    assert probe.factor["c"] == speed.REF_NOMINAL_S / ((probe.samples[1] + probe.samples[2]) / 2)


def test_coverage_guard_fails_on_renamed_or_bypassed_layers(tmp_path, monkeypatch):
    cfg = scenarios.scenario("scenario_batch", 5, _batch_index(5, True, False, False))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # a caller that no longer looks the function up in imdbeam.cli
        cli.pattern_sweep = imdbeam.array.pattern_sweep
        _run(cfg, tmp_path)
    finally:
        tracer.uninstall()
    with pytest.raises(tracing.TraceCoverageError, match="array.pattern_sweep"):
        tracer.check_coverage(has_baseline=False)
    with pytest.raises(tracing.TraceCoverageError, match="baseline.mean_pattern"):
        tracer.check_coverage(has_baseline=True)

    monkeypatch.delattr(cli, "run_scenario")
    with pytest.raises(tracing.TraceCoverageError, match="run_scenario"):
        tracing.Tracer()


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace, capsys):
    assert run.main(["--workload", "scenario_batch", "--seed", "4", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= len(scenarios.BATCH_CATEGORIES) and last["failed"] == 0
    if trace:
        # the known failure: unequal tone amplitudes with a baseline configured
        assert last["metrics"]["baseline.unequal_amp.failed_frac"]["value"] == 1.0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(np.isfinite(v["value"]) for v in last["metrics"].values())

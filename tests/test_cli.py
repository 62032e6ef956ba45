"""Config parsing, scenario orchestration, report/CSV emission, and the
command-line entry point."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import imdbeam
from imdbeam import cli
from imdbeam.cli import (
    MAX_SWEEP_ELEMENTS,
    ScenarioConfig,
    _build_parser,
    _dumps,
    _ports_text,
    bundle_to_jsonable,
    config_to_jsonable,
    emit,
    main,
    parse_config,
    run_scenario,
)
from imdbeam.errors import ConfigError
from imdbeam.metrics import MetricsReport


def base_config(**overrides):
    doc = {
        "grid": {"base_rate": 2 * np.pi, "max_index": 64},
        "tones": [
            {"index": 9, "amplitude": 1.0, "phase": 0.0},
            {"index": 11, "amplitude": 1.0, "phase": 0.0},
        ],
        "targets": [{"index": 9, "tau": 0.01}, {"index": 11, "tau": 0.01}],
        "geometry": {"num_antennas": 2, "element_delay": 1.0 / 26.0},
        "nonlinearity": {"coefficients": [1.0, 0.0, 0.1]},
        "band": {"in_band": [8, 12], "adjacent_width": 4},
    }
    doc.update(overrides)
    return doc


def multi_user_config(**overrides):
    return base_config(
        targets=[{"index": 9, "tau": 0.2}, {"index": 11, "tau": 0.3}],
        geometry={"num_antennas": 2, "element_delay": 0.5},
        **overrides,
    )


def parse(doc) -> ScenarioConfig:
    return parse_config(json.dumps(doc))


def asdict_config_echo(cfg: ScenarioConfig) -> dict:
    """The config echo with each flat section built by ``dataclasses.asdict``:
    the reference for the sections ``config_to_jsonable`` writes."""
    sections = {
        "grid": cfg.steering.grid,
        "geometry": cfg.steering.geometry,
        "nonlinearity": cfg.device,
        "band": cfg.band,
        "baseline": cfg.baseline,
    }
    asdict = {name: dataclasses.asdict(x) for name, x in sections.items() if x is not None}
    return config_to_jsonable(cfg) | asdict


def canonical_sha256(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse(base_config())
        assert cfg.sweep_points == 1024
        assert cfg.seed == 0
        assert cfg.baseline is None
        assert cfg.band.keep_window == (4, 16)
        assert cfg.steering.tone_indices == (9, 11)

    def test_tone_defaults(self):
        doc = base_config(tones=[{"index": 9}, {"index": 11, "amplitude": 0.5}])
        cfg = parse(doc)
        assert cfg.steering.amplitudes[0] == 1.0 and cfg.steering.base_phases[0] == 0.0
        assert cfg.steering.amplitudes[1] == 0.5

    def test_degenerate_frequency_plan_rejected(self):
        doc = base_config(
            tones=[{"index": 5, "amplitude": 1.0}, {"index": 10, "amplitude": 1.0}],
            targets=[{"index": 5, "tau": 0.01}, {"index": 10, "tau": 0.02}],
            band={"in_band": [4, 11], "adjacent_width": 4},
        )
        with pytest.raises(ConfigError, match="degenerate") as err:
            parse(doc)
        assert err.value.field == "tones"

    def test_negative_element_delay_names_field(self):
        doc = base_config(geometry={"num_antennas": 2, "element_delay": -0.5})
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert err.value.field == "geometry.element_delay"

    def test_overrides_replace_fields_before_checks(self):
        text = json.dumps(base_config(sweep_points=8))
        assert parse_config(text, {"sweep_points": 64}).sweep_points == 64
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(base_config()), {"seed": 2**63})
        assert err.value.field == "seed"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            parse_config('{"grid": {')

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("band"), "band"),
            (lambda d: d.update(unknown=1), "$.unknown"),
            (lambda d: d["grid"].update(max_index=20), "grid.max_index"),
            (lambda d: d.update(tones=d["tones"][:1]), "tones"),
            (
                lambda d: d.update(targets=[{"index": 9, "tau": 0.01}]),
                "targets",
            ),
            (
                lambda d: d.update(
                    targets=[{"index": 9, "tau": 0.2}, {"index": 11, "tau": 0.01}]
                ),
                "targets[0].tau",
            ),
            (
                lambda d: d.update(band={"in_band": [10, 12], "adjacent_width": 4}),
                "band.in_band",
            ),
            (lambda d: d.update(sweep_points=8), "sweep_points"),
            (
                lambda d: d.update(geometry={"num_antennas": 1, "element_delay": 0.1}),
                "geometry.num_antennas",
            ),
            (lambda d: d.update(baseline={"trials": 0}), "baseline.trials"),
            (
                lambda d: d["tones"][0].update(amplitude=0.0),
                "tones[0].amplitude",
            ),
            (
                lambda d: d.update(
                    band={
                        "in_band": [8, 12],
                        "adjacent_width": 4,
                        "adjacent_lower": [4, 7],
                    }
                ),
                "band.adjacent_lower",
            ),
            # an integer literal beyond float's range
            (lambda d: d["geometry"].update(element_delay=10**400), "geometry.element_delay"),
            pytest.param(
                lambda d: d.update(band={"in_band": [12, 8], "adjacent_width": 4}),
                "band.in_band",
                id="reversed-band.in_band",
            ),
            (lambda d: d["grid"].update(base_rate=0), "grid.base_rate"),
            (lambda d: d["tones"][1].update(index=65), "tones[1].index"),
            pytest.param(lambda d: d["tones"][1].update(index=9), "tones", id="duplicate-tones"),
            pytest.param(
                lambda d: d.update(targets={"9": 0.01, "11": 0.01}),
                "targets",
                id="mapping-targets",
            ),
            (lambda d: d["targets"][1].update(index=9), "targets[1].index"),
            (lambda d: d["nonlinearity"].update(coefficients=[]), "nonlinearity.coefficients"),
            (
                lambda d: d["nonlinearity"].update(coefficients=[1.0] + [0.0] * 9),
                "nonlinearity.coefficients",
            ),
            (
                lambda d: d["nonlinearity"].update(coefficients=[0.0, 0.0, 0.0]),
                "nonlinearity.coefficients",
            ),
            # the lower adjacent band would start below index 0
            pytest.param(
                lambda d: d.update(band={"in_band": [2, 12], "adjacent_width": 4}),
                "band.adjacent_width",
                id="below-zero-band",
            ),
            pytest.param(
                lambda d: d.update(band={"in_band": [8, 12], "adjacent_width": 9}),
                "band.adjacent_width",
                id="too-wide-band.adjacent_width",
            ),
            pytest.param(
                lambda d: d["band"].update(keep_window=[5, 20]),
                "band.keep_window",
                id="uncovering-band.keep_window",
            ),
            (
                lambda d: d.update(
                    band={"in_band": [8, 12], "adjacent_width": 4, "keep_window": [0, 65]}
                ),
                "band.keep_window",
            ),
            (
                lambda d: d.update(baseline={"trials": 10, "line_indices": []}),
                "baseline.line_indices",
            ),
            (
                lambda d: d.update(baseline={"trials": 10, "line_indices": [65]}),
                "baseline.line_indices",
            ),
            (lambda d: d.update(output_dir=3), "output_dir"),
            # the output bound itself overflows while it is computed
            (
                lambda d: [t.update(amplitude=1e200) for t in d["tones"]],
                "nonlinearity.coefficients",
            ),
            pytest.param(
                lambda d: d.update(baseline={"trials": 10, "line_indices": [13, 13]}),
                "baseline.line_indices",
                id="repeated-baseline.line_indices",
            ),
            # the keep window's top line would have an infinite angular frequency
            pytest.param(
                lambda d: d["grid"].update(base_rate=1e308),
                "grid.base_rate",
                id="overflowing-grid.base_rate",
            ),
            # the chirp phases of a pattern sweep would overflow
            pytest.param(
                lambda d: d["geometry"].update(element_delay=1e305),
                "geometry.element_delay",
                id="overflowing-geometry.element_delay",
            ),
            # integers beyond float's range and beyond int64 line indices
            pytest.param(
                lambda d: d["grid"].update(max_index=10**400),
                "grid.max_index",
                id="huge-grid.max_index",
            ),
            pytest.param(
                lambda d: d["grid"].update(max_index=2**63),
                "grid.max_index",
                id="int64-grid.max_index",
            ),
            pytest.param(
                lambda d: d["band"].update(adjacent_width=10**400),
                "band.adjacent_width",
                id="huge-band.adjacent_width",
            ),
            pytest.param(
                lambda d: d["band"].update(in_band=[8, 10**400]),
                "band.keep_window",
                id="huge-band.in_band",
            ),
            pytest.param(
                lambda d: d["band"].update(keep_window=[0, 10**400]),
                "band.keep_window",
                id="huge-band.keep_window",
            ),
            pytest.param(
                lambda d: d["geometry"].update(num_antennas=10**400),
                "geometry.num_antennas",
                id="huge-geometry.num_antennas",
            ),
            # too many antennas for a sweep of even the fewest 16 points
            pytest.param(
                lambda d: d.update(
                    geometry={"num_antennas": 2**21, "element_delay": 1.0}, sweep_points=16
                ),
                "geometry.num_antennas",
                id="sweepless-geometry.num_antennas",
            ),
        ],
    )
    def test_semantic_errors_name_fields(self, mutate, field):
        doc = base_config()
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert err.value.field == field

    def test_huge_base_phase_runs_to_a_finite_report(self, tmp_path):
        # a base phase near the float limit, and phase steps near it too: each
        # is reduced mod 2*pi before an antenna index multiplies it
        doc = base_config(
            tones=[{"index": 9, "phase": 1.79e308}, {"index": 11}],
            targets=[{"index": 9, "tau": 5e305}, {"index": 11, "tau": 0.0}],
            geometry={"num_antennas": 2, "element_delay": 5e305},
            grid={"base_rate": 1.0, "max_index": 64},
            sweep_points=16,
        )
        assert parse(doc).steering.base_phases == (1.79e308, 0.0)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        for path in (tmp_path / "out").iterdir():
            text = path.read_text()
            assert not re.search(r"\bnan\b|infinity", text, re.IGNORECASE), path.name

    def test_sweep_points_bounded(self):
        # a bound on antennas x sweep points, and with a baseline on its
        # antennas x antennas covariance: the benchmark's largest arrays fit,
        # a sweep the size of 1e18 points does not
        def geometry(m):
            return {"num_antennas": m, "element_delay": 1.0 / 26.0}

        wide = base_config(geometry=geometry(1024))
        assert parse(dict(wide, sweep_points=4096)).sweep_points == 4096
        mc = base_config(geometry=geometry(64), baseline={"trials": 10**4})
        assert parse(mc).sweep_points == 1024
        # the baseline's trial chunks form no trials x sweep points matrix
        doc = base_config(sweep_points=2**14 + 1, baseline={"trials": 1024})
        assert parse(doc).sweep_points == 2**14 + 1
        huge = base_config(geometry=geometry(2**17), sweep_points=16)
        assert parse(huge).steering.geometry.num_antennas == 2**17
        assert parse(dict(huge, geometry=geometry(4096), baseline={"trials": 1}))
        for doc, field in (
            (base_config(sweep_points=1e18), "sweep_points"),
            (dict(wide, sweep_points=2**14 + 1), "sweep_points"),
            # a 2**17 x 2**17 covariance would take 256 GiB
            (dict(huge, baseline={"trials": 1}), "geometry.num_antennas"),
            (dict(huge, baseline={"trials": 1}, geometry=geometry(4097)), "geometry.num_antennas"),
        ):
            with pytest.raises(ConfigError) as err:
                parse(doc)
            assert err.value.field == field
        # the reason is the length of the sweep's FFTs
        fft = r"at most 16384, so that a sweep's FFT length 1024 \+ sweep_points - 1 stays"
        with pytest.raises(ConfigError, match=fft):
            parse(dict(wide, sweep_points=2**14 + 1))

    def test_round_trip(self):
        for doc in (
            base_config(),
            multi_user_config(baseline={"trials": 50}, seed=77, sweep_points=256),
            base_config(baseline={"trials": 9, "line_indices": [13]}, output_dir="o"),
        ):
            cfg = parse(doc)
            again = parse_config(json.dumps(config_to_jsonable(cfg)))
            assert again == cfg
            echo = config_to_jsonable(again)
            assert canonical_sha256(echo) == canonical_sha256(config_to_jsonable(cfg))

    def test_readme_config_echo_and_hash_match_the_asdict_reference(self):
        cfg = parse(
            multi_user_config(
                baseline={"trials": 10000}, sweep_points=1024, seed=1234, output_dir="results"
            )
        )
        reference = asdict_config_echo(cfg)
        report = bundle_to_jsonable(run_scenario(cfg))
        assert json.dumps(report["config"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert report["provenance"]["config_sha256"] == canonical_sha256(reference)

    def test_hash_changes_with_config(self):
        a = parse(base_config())
        b = parse(base_config(seed=1))
        assert canonical_sha256(config_to_jsonable(a)) != canonical_sha256(config_to_jsonable(b))


@st.composite
def config_docs(draw):
    """Valid scenario documents: with and without a baseline and a band
    keep window, and within the sweep bound."""
    k1 = draw(st.integers(1, 20))
    k2 = draw(st.integers(k1 + 1, k1 + 12).filter(lambda k: k != 2 * k1))
    coefficients = draw(
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9).filter(any)
    )
    width = draw(st.integers(1, k1))
    lo, hi = draw(st.integers(width, k1)), draw(st.integers(k2, k2 + 5))
    keep = (
        draw(st.integers(0, lo - width)),
        hi + width + draw(st.integers(0, 6)),
    )
    max_index = max(len(coefficients) * k2, keep[1]) + draw(st.integers(0, 5))
    num_antennas = draw(st.integers(2, 64))
    delay = draw(st.floats(1e-3, 10.0))
    tau = st.floats(-delay, delay)
    amplitude, phase = st.floats(0.01, 10.0), st.floats(-10.0, 10.0)
    tones = [
        {"index": k, "amplitude": draw(amplitude), "phase": draw(phase)}
        for k in draw(st.permutations([k1, k2]))
    ]
    band = {"in_band": [lo, hi], "adjacent_width": width}
    if draw(st.booleans()):
        band["keep_window"] = list(keep)
    doc = {
        "grid": {"base_rate": draw(st.floats(1e-3, 1e6)), "max_index": max_index},
        "tones": tones,
        "targets": [{"index": k, "tau": draw(tau)} for k in (k2, k1)],
        "geometry": {"num_antennas": num_antennas, "element_delay": delay},
        "nonlinearity": {"coefficients": coefficients},
        "band": band,
        "sweep_points": draw(st.integers(16, MAX_SWEEP_ELEMENTS // num_antennas)),
        "seed": draw(st.integers(-(2**63), 2**63 - 1)),
    }
    if draw(st.booleans()):
        doc["baseline"] = {"trials": draw(st.integers(1, 10**6))}
        if draw(st.booleans()):
            lines = st.lists(st.integers(1, max_index), min_size=1, max_size=4, unique=True)
            doc["baseline"]["line_indices"] = draw(lines)
    if draw(st.booleans()):
        doc["output_dir"] = draw(st.text(max_size=8))
    return doc


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, 10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


def node_paths(node, prefix=()):
    """Paths to every node of a JSON document, the root first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, prefix + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestConfigProperties:
    @settings(max_examples=150, deadline=None)
    @given(config_docs())
    def test_round_trip(self, doc):
        cfg = parse(doc)
        again = parse_config(json.dumps(config_to_jsonable(cfg)))
        assert again == cfg
        echo = config_to_jsonable(again)
        assert canonical_sha256(echo) == canonical_sha256(config_to_jsonable(cfg))

    @settings(max_examples=100, deadline=None)
    @given(config_docs())
    def test_config_echo_matches_the_asdict_reference(self, doc):
        cfg = parse(doc)
        reference = asdict_config_echo(cfg)
        assert json.dumps(config_to_jsonable(cfg), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    @settings(max_examples=300, deadline=None)
    @given(config_docs(), st.data())
    def test_fuzzed_document_parses_or_raises_config_error(self, valid, data):
        doc = copy.deepcopy(valid)
        paths = list(node_paths(doc))
        kind = data.draw(st.sampled_from(["replace", "remove", "add"]))
        if kind == "add":
            dicts = [p for p in paths if isinstance(node_at(doc, p), dict)]
            node = node_at(doc, data.draw(st.sampled_from(dicts)))
            node[data.draw(st.text(max_size=12))] = data.draw(JSON_VALUES)
        else:
            path = data.draw(st.sampled_from(paths[1:]))
            parent = node_at(doc, path[:-1])
            if kind == "replace":
                parent[path[-1]] = data.draw(JSON_VALUES)
            else:
                del parent[path[-1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                parse(doc)  # json.dumps writes NaN and Infinity literals
            except ConfigError:
                pass

    @pytest.mark.parametrize(
        "text",
        ['{"seed": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["long-int", "deep-nesting"],
    )
    def test_undecodable_json_is_a_config_error(self, text):
        # beyond int's digit limit, and beyond the recursion limit
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.field == "$"


class TestRunScenario:
    def test_single_user_bundle(self):
        bundle = run_scenario(parse(base_config()))
        assert bundle.distortion.upper.tau == pytest.approx(0.01, rel=1e-12)
        assert bundle.distortion.lower.tau == pytest.approx(0.01, rel=1e-12)
        assert [p.freq_index for p in bundle.patterns] == [9, 11, 13, 7]
        for column in (bundle.ports.evm, bundle.ports.aclr_lower_db, bundle.ports.aclr_upper_db):
            assert column.shape == (2,)
        # all four roles collapse onto one physical direction
        assert len(bundle.directions) == 1
        entry = bundle.directions[0]
        assert "target of tone 9" in entry.kind
        assert "distortion product line 13" in entry.kind
        assert entry.report.array_gain_by_line[13] == pytest.approx(2.0, rel=1e-9)

    def test_multi_user_bundle(self):
        bundle = run_scenario(parse(multi_user_config()))
        assert bundle.distortion.upper.tau == pytest.approx(4.8 / 13, rel=1e-12)
        assert bundle.distortion.lower.tau == pytest.approx(3.0 / 70, rel=1e-12)
        taus = [d.tau for d in bundle.directions]
        assert taus[:2] == [0.2, 0.3]
        assert taus[2] == pytest.approx(4.8 / 13, rel=1e-12)
        assert taus[3] == pytest.approx(3.0 / 70, rel=1e-12)

    def test_linear_device_scenario(self):
        cfg = parse(
            base_config(
                nonlinearity={"coefficients": [1.0]},
                baseline={"trials": 10},
            )
        )
        bundle = run_scenario(cfg)
        assert [p.freq_index for p in bundle.patterns] == [9, 11]
        assert bundle.ports.evm.tolist() == [0.0, 0.0]
        assert bundle.ports.aclr_lower_db.tolist() == [float("-inf")] * 2
        assert bundle.ports.aclr_upper_db.tolist() == [float("-inf")] * 2
        assert any("absent" in n for n in bundle.notes)
        assert any("baseline comparison skipped" in n for n in bundle.notes)
        assert bundle.baseline_patterns == []

    def test_baseline_comparison(self):
        cfg = parse(multi_user_config(baseline={"trials": 400}, seed=11))
        bundle = run_scenario(cfg)
        assert [p.freq_index for p in bundle.baseline_patterns] == [13, 7]
        behavioral = {p.freq_index: p for p in bundle.patterns}
        for bp in bundle.baseline_patterns:
            assert behavioral[bp.freq_index].contrast > 1.5 > bp.contrast
        assert bundle.baseline_line_power == pytest.approx(0.075**2 / 2, rel=1e-9)

    def test_unfoldable_product_direction_is_noted(self):
        # the lower product sits at line 1; its direction tau = -3.5 is no
        # multiple of its modulus away from the principal interval
        cfg = parse(
            base_config(
                tones=[{"index": 9}, {"index": 17}],
                targets=[{"index": 9, "tau": -0.1}, {"index": 17, "tau": 0.1}],
                geometry={"num_antennas": 2, "element_delay": 0.1},
                band={"in_band": [8, 18], "adjacent_width": 2, "keep_window": [0, 40]},
            )
        )
        bundle = run_scenario(cfg)
        assert bundle.notes == [
            "distortion direction of line 1 (tau=-3.5) has no representative "
            "within the principal interval; skipped"
        ]
        assert len(bundle.directions) == 3

    def test_off_plan_baseline_lines_are_swept_and_reported(self):
        # lines 29 and 31 are neither tones nor the two near-band products
        bundle = run_scenario(parse(off_plan_config()))
        indices = [p.freq_index for p in bundle.patterns]
        assert indices == [9, 11, 13, 7, 29, 31]
        assert [p.freq_index for p in bundle.baseline_patterns] == [29, 31]
        assert bundle.notes == []

    def test_absent_off_plan_baseline_line_is_noted(self):
        cfg = parse(multi_user_config(baseline={"trials": 10, "line_indices": [5]}))
        bundle = run_scenario(cfg)
        assert bundle.notes == ["line 5 absent after the transmit chain; sweep skipped"]
        assert [p.freq_index for p in bundle.baseline_patterns] == [5]
        assert bundle.baseline_line_power == 0.0
        assert [p.freq_index for p in bundle.patterns] == [9, 11, 13, 7]


def off_plan_config():
    """The README config with its baseline on lines 29 and 31, which the
    keep window [0, 40] leaves in the signal."""
    doc = multi_user_config(
        baseline={"trials": 10000, "line_indices": [29, 31]}, sweep_points=1024, seed=1234
    )
    doc["band"]["keep_window"] = [0, 40]
    return doc


def row_formatted_csv(pattern) -> str:
    """Pattern CSV formatted row by row, the delay column included."""
    rows = ["tau_rx_seconds,power_linear"]
    for tau, p in zip(pattern.taus.tolist(), pattern.powers.tolist()):
        rows.append(f"{tau:.12g},{p:.12g}")
    return "\n".join(rows) + "\n"


def port_row_reference(ports: MetricsReport) -> list[dict]:
    """One dict per antenna of the port columns, keyed by every field but the
    array gains, with each non-finite float as its string."""
    names = [f.name for f in dataclasses.fields(ports) if f.name != "array_gain_by_line"]
    rows = []
    for m in range(len(ports.evm)):
        row = {name: float(getattr(ports, name)[m]) for name in names}
        rows.append({k: v if math.isfinite(v) else str(v) for k, v in row.items()})
    return rows


def report_text(bundle, tmp_path) -> str:
    emit(bundle, str(tmp_path))
    return (tmp_path / "report.json").read_text()


class TestPortRows:
    def assert_rows_match_reference(self, doc, tmp_path) -> list[dict]:
        bundle = run_scenario(parse(doc))
        reference = port_row_reference(bundle.ports)
        assert len(reference) == bundle.config.steering.geometry.num_antennas
        assert _ports_text(bundle.ports) == json.dumps(reference, sort_keys=True, allow_nan=False)
        # the report is the one sorted dump of its sections and these rows
        doc = bundle_to_jsonable(bundle) | {"ports": reference}
        assert report_text(bundle, tmp_path) == _dumps(doc) + "\n"
        return reference

    def test_multi_user_rows(self, tmp_path):
        geometry = {"num_antennas": 64, "element_delay": 0.5}
        doc = dict(multi_user_config(), geometry=geometry)
        rows = self.assert_rows_match_reference(doc, tmp_path)
        assert all(isinstance(row["aclr_lower_db"], float) for row in rows)

    def test_linear_device_rows_carry_the_marker(self, tmp_path):
        # a linear device leaves both adjacent bands clean: every ACLR is -inf
        doc = base_config(
            nonlinearity={"coefficients": [1.0]},
            geometry={"num_antennas": 3, "element_delay": 1.0 / 26.0},
            sweep_points=64,
        )
        rows = self.assert_rows_match_reference(doc, tmp_path)
        assert {row[side] for row in rows for side in ("aclr_lower_db", "aclr_upper_db")} == {
            "-inf"
        }


# every sign of zero, infinity and NaN, and subnormals: 0.0 == -0.0 as
# dict keys, but the two print differently
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.5e-310]


@st.composite
def port_columns(draw) -> MetricsReport:
    """Three columns of 1 to 2048 antennas, each drawn from a small pool of
    floats (so values repeat) that may hold every special float."""
    m = draw(st.integers(1, 2048))
    pool = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)

    def column():
        values = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=6)))
        return draw(arrays(np.float64, m, elements=values, fill=values))

    return MetricsReport(column(), column(), column())


class TestPortsText:
    @settings(max_examples=60, deadline=None)
    @given(port_columns())
    @example(MetricsReport(*(np.array(SPECIAL_FLOATS) for _ in range(3))))
    @example(MetricsReport(np.array([-0.0, 0.0, -0.0]), np.zeros(3), np.array([0.0, -0.0, 0.0])))
    @example(MetricsReport(*(np.full(2048, v) for v in (math.nan, -math.inf, 5e-324))))
    def test_matches_the_dump_of_the_row_dicts(self, ports):
        expected = json.dumps(port_row_reference(ports), sort_keys=True, allow_nan=False)
        got = _ports_text(ports)
        # a bool and a short message: pytest's diff of two long texts would
        # take seconds in every shrink step
        same, at = got == expected, max(len(os.path.commonprefix([got, expected])) - 30, 0)
        assert same, f"{got[at : at + 60]!r} != {expected[at : at + 60]!r}"


class TestReportIsCanonicalJson:
    @pytest.mark.parametrize(
        "doc",
        [
            multi_user_config(baseline={"trials": 10000}, sweep_points=1024, seed=1234),
            # a linear device: every port's ACLR is the "-inf" marker
            base_config(nonlinearity={"coefficients": [1.0]}, baseline={"trials": 10}),
            dict(
                multi_user_config(sweep_points=256),
                geometry={"num_antennas": 1024, "element_delay": 0.5},
            ),
        ],
        ids=["readme", "linear", "m1024"],
    )
    def test_sorted_dump_of_the_parsed_report_is_the_report(self, doc, tmp_path):
        text = report_text(run_scenario(parse(doc)), tmp_path)
        assert json.dumps(json.loads(text), sort_keys=True) + "\n" == text


class TestEmit:
    def test_files_and_shapes(self, tmp_path):
        cfg = parse(multi_user_config(baseline={"trials": 60}, sweep_points=128))
        paths = emit(run_scenario(cfg), str(tmp_path))
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == [
            "pattern_11.csv",
            "pattern_13.csv",
            "pattern_13_baseline.csv",
            "pattern_7.csv",
            "pattern_7_baseline.csv",
            "pattern_9.csv",
            "report.json",
        ]
        csv = (tmp_path / "pattern_13.csv").read_text().splitlines()
        assert csv[0] == "tau_rx_seconds,power_linear"
        assert len(csv) == 129
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["provenance"]["config_sha256"] == canonical_sha256(config_to_jsonable(cfg))
        behavioral = {p["freq_index"]: p for p in doc["patterns"]}
        for bp in doc["baseline"]["patterns"]:
            assert behavioral[bp["freq_index"]]["contrast"] > 1.5 > bp["contrast"]

    def test_negative_infinity_marker(self, tmp_path):
        cfg = parse(base_config(nonlinearity={"coefficients": [1.0]}, sweep_points=64))
        emit(run_scenario(cfg), str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["ports"][0]["aclr_lower_db"] == "-inf"
        assert doc["ports"][0]["evm"] == 0.0

    def test_shared_delay_column_keeps_csv_bytes(self, tmp_path):
        # every CSV of a run, baseline sweeps too, has the row-by-row bytes
        cfg = parse(multi_user_config(baseline={"trials": 60}, sweep_points=300))
        bundle = run_scenario(cfg)
        emit(bundle, str(tmp_path))
        for patterns, suffix in ((bundle.patterns, ""), (bundle.baseline_patterns, "_baseline")):
            for p in patterns:
                csv = tmp_path / f"pattern_{p.freq_index}{suffix}.csv"
                assert csv.read_bytes() == row_formatted_csv(p).encode()

    def test_readme_outputs_read_back(self, tmp_path):
        # each CSV holds the report entry's delay grid and its sweep's powers
        # to 12 significant digits; report.json is one line
        cfg = parse(multi_user_config(baseline={"trials": 10000}, sweep_points=1024, seed=1234))
        bundle = run_scenario(cfg)
        emit(bundle, str(tmp_path))
        text = (tmp_path / "report.json").read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert '"notes": [' in text
        report = json.loads(text)
        entries = report["patterns"] + report["baseline"]["patterns"]
        sweeps = bundle.patterns + bundle.baseline_patterns
        assert [e["freq_index"] for e in entries] == [p.freq_index for p in sweeps]
        assert len(sweeps) == 6
        for entry, pattern in zip(entries, sweeps):
            header, *lines = (tmp_path / entry["csv"]).read_text().splitlines()
            assert header == "tau_rx_seconds,power_linear"
            rows = [line.split(",") for line in lines]
            assert {len(row) for row in rows} == {2}
            taus = np.linspace(entry["tau_start"], entry["tau_stop"], entry["points"])
            assert [row[0] for row in rows] == ["%.12g" % tau for tau in taus.tolist()]
            powers = np.array([float(row[1]) for row in rows])
            np.testing.assert_allclose(powers, pattern.powers, rtol=5e-12, atol=0.0)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse(multi_user_config(baseline={"trials": 200}, seed=5, sweep_points=128))
        emit(run_scenario(cfg), str(tmp_path / "a"))
        emit(run_scenario(cfg), str(tmp_path / "b"))
        for name in ("report.json", "pattern_13.csv", "pattern_13_baseline.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestMain:
    def write_config(self, tmp_path, doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(sweep_points=64))
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_run_missing_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", "o"])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--line", "13"], ["compare"]])
    def test_config_not_utf8_is_a_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"grid": 1}')
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: $: cannot read config")
        assert not (out / "report.json").exists()

    def test_run_invalid_config(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, base_config(geometry={"num_antennas": 2, "element_delay": -1})
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert "geometry.element_delay" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("baseline", "line_indices", [13, 13], "baseline.line_indices"),
            ("grid", "base_rate", 1e308, "grid.base_rate"),
            ("grid", "max_index", 10**400, "grid.max_index"),
            ("geometry", "num_antennas", 2**21, "geometry.num_antennas"),
        ],
    )
    def test_run_usage_error_names_the_field(self, tmp_path, capsys, section, key, value, field):
        doc = multi_user_config(baseline={"trials": 10000}, sweep_points=1024, seed=1234)
        doc[section][key] = value
        path = self.write_config(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert f"error: {field}: " in err

    def test_run_requires_out_dir(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        assert main(["run", "--config", path]) == 2
        assert "output" in capsys.readouterr().err

    def test_run_checks_out_dir_before_running(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise AssertionError("run_scenario called without an output directory")

        monkeypatch.setattr(cli, "run_scenario", fail)
        path = self.write_config(tmp_path, base_config())
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output_dir" in captured.err

    def test_missing_out_dir_reported_before_a_run_failure(self, tmp_path, capsys):
        # this config fails at run time (see
        # test_runtime_failure_carries_scenario_context) but never gets there
        doc = multi_user_config(baseline={"trials": 10, "line_indices": [9, 13]})
        path = self.write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "output_dir" in err
        assert "scenario run failed" not in err

    def test_failed_write_leaves_no_report_or_temporary_file(
        self, tmp_path, capsys, monkeypatch
    ):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        path = self.write_config(tmp_path, base_config(sweep_points=64))
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert "disk full" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert list(out.glob(".tmp-*")) == []

    def test_run_honors_output_dir_from_config(self, tmp_path):
        out = str(tmp_path / "configured")
        path = self.write_config(tmp_path, base_config(sweep_points=64, output_dir=out))
        assert main(["run", "--config", path]) == 0
        assert (tmp_path / "configured" / "report.json").exists()

    def test_points_override(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out), "--points", "64"]) == 0
        assert len((out / "pattern_13.csv").read_text().splitlines()) == 65

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_points_override_bounded(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, base_config())
        out = tmp_path / "out"
        argv = [command, "--config", path, "--out", str(out), "--points", "1000000000000"]
        if command == "sweep":
            argv += ["--line", "13"]
        assert main(argv) == 2
        assert "sweep_points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_points_override_replaces_an_out_of_bound_field(self, tmp_path, command):
        # 2 antennas x 2**24 points exceeds the bound; --points 64 replaces
        # the field before it is checked
        path = self.write_config(tmp_path, base_config(sweep_points=2**24))
        out = tmp_path / "out"
        argv = [command, "--config", path, "--out", str(out), "--points", "64"]
        if command == "sweep":
            argv += ["--line", "13"]
        assert main(argv) == 0
        assert len((out / "pattern_13.csv").read_text().splitlines()) == 65

    def test_seed_override_checked_like_the_field(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out), "--seed", str(2**63)]) == 2
        assert "seed: must fit in 64 bits" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_recorded(self, tmp_path):
        path = self.write_config(tmp_path, base_config(sweep_points=64))
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out), "--seed", "99"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["provenance"]["seed"] == 99
        assert doc["config"]["seed"] == 99

    def test_expand_table(self, capsys):
        assert main(["expand", "--k1", "9", "--k2", "11", "--alpha", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "1.225" in out and "0.075" in out and "0.025" in out
        # rows in line order, the folded difference line first
        lines = [int(row.split()[0]) for row in out.splitlines()[1:]]
        assert lines == [7, 9, 11, 13, 27, 29, 31, 33]

    def test_expand_drops_rows_below_the_prune_threshold(self, capsys):
        # the harmonics' phasors, alpha / 8, lie below PRUNE_THRESHOLD
        assert main(["expand", "--k1", "9", "--k2", "11", "--alpha", "5e-14"]) == 0
        lines = [int(row.split()[0]) for row in capsys.readouterr().out.splitlines()[1:]]
        assert lines == [7, 9, 11, 13, 29, 31]

    @pytest.mark.parametrize("flag", ["--alpha", "--phi1", "--phi2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_expand_rejects_non_finite_flags(self, capsys, flag, value):
        argv = ["expand", "--k1", "9", "--k2", "11", "--alpha", "0.1", flag, value]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag}: must be a finite number" in err

    @pytest.mark.parametrize(
        "k1, k2, flag",
        [("0", "11", "--k1"), ("11", "9", "--k2"), ("9", str(2**63 // 3 + 1), "--k2")],
    )
    def test_expand_rejects_bad_tone_indices(self, capsys, k1, k2, flag):
        assert main(["expand", "--k1", k1, "--k2", k2, "--alpha", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag}: " in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--alpha", "1e308"], "--alpha"),
            (["--alpha", "0.1", "--phi2", "1e308"], "--phi1/--phi2"),
            (["--alpha", "0.1", "--phi1=-1e308"], "--phi1/--phi2"),
            (["--alpha", "-1e308"], "--alpha"),
        ],
    )
    def test_expand_rejects_an_overflowing_table(self, capsys, flags, field):
        assert main(["expand", "--k1", "9", "--k2", "11", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{field}: " in err and "overflow" in err

    @pytest.mark.parametrize("alpha", ["--alpha=5e307", "--alpha=-5e307"])
    def test_expand_accepts_a_finite_table_near_overflow(self, capsys, alpha):
        # 9 * alpha overflows, but the fundamentals' 1 + 2.25 * alpha does not
        assert main(["expand", "--k1", "9", "--k2", "11", alpha]) == 0
        rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
        amplitudes = {int(k): float(amp) for k, amp, _ in rows}
        assert len(amplitudes) == 8 and all(math.isfinite(a) for a in amplitudes.values())
        assert abs(amplitudes[9]) == pytest.approx(1.125e308, rel=1e-12)

    @pytest.mark.parametrize(
        "flag, value",
        [("--alpha", "-5e307"), ("--alpha", "-1e-3"), ("--phi1", "-2e0"), ("--phi2", "-2e0")],
    )
    def test_expand_reads_a_negative_exponent_as_a_separate_word(self, capsys, flag, value):
        # argparse alone reads "-5e307" after a flag as an unknown option
        base = ["expand", "--k1", "9", "--k2", "11", "--alpha", "0.1"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main([*base, flag, value]) == 0
        separate = capsys.readouterr().out
        assert main([*base, f"{flag}={value}"]) == 0
        assert capsys.readouterr().out == separate != default

    def test_sweep_command(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(sweep_points=64))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", path, "--line", "13", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["freq_index"] == 13
        assert abs(summary["peak_tau"] - 0.01) <= 2 * (1.0 / 26.0) / 63
        assert (out / "pattern_13.csv").exists()

    def test_sweep_missing_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(sweep_points=64))
        assert main(["sweep", "--config", path, "--line", "14"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --line: ")
        assert "no antenna carries" in err

    def test_sweep_rejects_a_negative_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(sweep_points=64))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--line", "-13", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: --line: must be a non-negative line index")
        assert not out.exists()

    def test_sweep_accepts_line_zero(self, tmp_path, capsys):
        # x + 0.1*x**2 puts a constant at line 0; the keep window passes it
        doc = base_config(
            sweep_points=64,
            nonlinearity={"coefficients": [1.0, 0.1]},
            band={"in_band": [8, 12], "adjacent_width": 4, "keep_window": [0, 24]},
        )
        path = self.write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--line", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["freq_index"] == 0

    def test_runtime_failure_carries_scenario_context(self, tmp_path, capsys):
        # parses fine, but a single matched noise power cannot cover a
        # fundamental and a product together
        doc = base_config(
            sweep_points=64,
            baseline={"trials": 10, "line_indices": [9, 13]},
        )
        path = self.write_config(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "scenario run failed" in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (
                lambda d: d["nonlinearity"].update(coefficients=[1.0, 0.0, float("nan")]),
                "nonlinearity.coefficients[2]",
            ),
            (lambda d: d["targets"][0].update(tau=float("nan")), "targets[0].tau"),
            (
                lambda d: d["geometry"].update(element_delay=float("inf")),
                "geometry.element_delay",
            ),
        ],
    )
    def test_non_finite_number_rejected_before_writing(
        self, tmp_path, capsys, mutate, field
    ):
        doc = base_config(sweep_points=64)
        mutate(doc)
        path = self.write_config(tmp_path, doc)  # json.dumps writes NaN/Infinity
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert f"{field}: must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_device_rejected_before_writing(self, tmp_path, capsys):
        doc = base_config(sweep_points=64, nonlinearity={"coefficients": [1.0, 0.0, 1e308]})
        path = self.write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert "nonlinearity.coefficients" in capsys.readouterr().err
        assert not out.exists()

    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys):
        # the parser is built once; no call's arguments or error exit leaks
        # into the next one
        assert _build_parser() is _build_parser()
        path = self.write_config(tmp_path, base_config(sweep_points=64, seed=5))
        assert main(["sweep", "--config", path, "--line", "13", "--seed", "99"]) == 0
        assert main(["expand", "--k1", "9", "--k2", "11", "--alpha", "0.1"]) == 0
        for argv in (["expand", "--k1", "9"], ["bogus"], []):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
        assert main(["sweep", "--config", path, "--line", "14"]) == 2
        assert main(["compare", "--config", path]) == 2
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["provenance"]["seed"] == 5
        args = _build_parser().parse_args(["run", "--config", path])
        assert args.handler.__name__ == "_cmd_run"
        assert not hasattr(args, "line") and args.seed is None and args.out is None
        capsys.readouterr()

    def test_compare_requires_baseline(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        assert main(["compare", "--config", path]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_compare_output(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, base_config(baseline={"trials": 100}, sweep_points=64)
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.keys() == {"baseline", "patterns"}
        assert doc["baseline"]["trials"] == 100
        behavioral = {p["freq_index"]: p for p in doc["patterns"]}
        assert behavioral[doc["baseline"]["line_indices"][0]]["contrast"] > 1.5
        assert (out / "compare.json").exists()

    def run_readme_config(self, tmp_path):
        """Config path and ``run`` report of the README's example config."""
        doc = multi_user_config(baseline={"trials": 10000}, sweep_points=1024, seed=1234)
        path = self.write_config(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
        return path, json.loads((tmp_path / "run" / "report.json").read_text())

    def test_compare_writes_the_run_report_baseline(self, tmp_path, capsys):
        path, report = self.run_readme_config(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", path, "--out", str(out)]) == 0
        sections = {"baseline": report["baseline"], "patterns": report["patterns"]}
        expected = json.dumps(sections, sort_keys=True) + "\n"
        assert (out / "compare.json").read_text() == expected
        assert capsys.readouterr().out.endswith(expected)

    def test_sweep_prints_the_run_report_pattern(self, tmp_path, capsys):
        path, report = self.run_readme_config(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "--config", path, "--line", "13"]) == 0
        (summary,) = [p for p in report["patterns"] if p["freq_index"] == 13]
        expected = json.dumps(summary, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected

    def test_sweep_writes_the_run_csv(self, tmp_path, capsys):
        path, report = self.run_readme_config(tmp_path)
        assert len(report["patterns"]) == 4
        for p in report["patterns"]:
            line = str(p["freq_index"])
            argv = ["sweep", "--config", path, "--line", line, "--out", str(tmp_path / "sweep")]
            assert main(argv) == 0
            name = p["csv"]
            run_bytes = (tmp_path / "run" / name).read_bytes()
            assert (tmp_path / "sweep" / name).read_bytes() == run_bytes
        capsys.readouterr()

    def test_off_plan_baseline_line_csv_matches_sweep(self, tmp_path, capsys):
        path = self.write_config(tmp_path, off_plan_config())
        assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert [p["csv"] for p in report["patterns"]][-2:] == [
            "pattern_29.csv",
            "pattern_31.csv",
        ]
        argv = ["sweep", "--config", path, "--line", "29", "--out", str(tmp_path / "sweep")]
        assert main(argv) == 0
        run_bytes = (tmp_path / "run" / "pattern_29.csv").read_bytes()
        assert (tmp_path / "sweep" / "pattern_29.csv").read_bytes() == run_bytes
        capsys.readouterr()


# a delay printed inside report text: a folded direction's origin, a
# skipped direction's note
DELAY_IN_TEXT = re.compile(r"(tau=|folded from )([^)\s;]+)")


def text_and_delays(text: str) -> tuple[str, list[float]]:
    delays = [float(m[2]) for m in DELAY_IN_TEXT.finditer(text)]
    return DELAY_IN_TEXT.sub(r"\1...", text), delays


class TestScaleInvariance:
    """Multiplying every frequency by ``s`` and dividing every delay by ``s``
    keeps every phase ``omega * tau``, so the report must not change beyond
    rounding: a run is the same scenario in rad/s and s as in GHz and ns."""

    def run_scaled(self, tmp_path, element_delay: float, scale: float) -> str:
        doc = multi_user_config(baseline={"trials": 64}, sweep_points=256, seed=1234)
        doc["grid"]["base_rate"] *= scale
        doc["geometry"]["element_delay"] = element_delay / scale
        for target in doc["targets"]:
            target["tau"] /= scale
        path = tmp_path / f"scaled_{scale:g}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out_{scale:g}"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        return (out / "report.json").read_text()

    @staticmethod
    def assert_same_text(text, ref, scale):
        # delays printed with 12 significant digits agree to that precision
        body, delays = text_and_delays(text)
        ref_body, ref_delays = text_and_delays(ref)
        assert body == ref_body
        assert [d * scale for d in delays] == pytest.approx(ref_delays, rel=1e-11)

    @staticmethod
    def assert_close(value, ref):
        if isinstance(ref, str):  # the "-inf" ACLR marker
            assert value == ref
        else:
            assert value == pytest.approx(ref, rel=1e-9)

    # element_delay 0.3 folds the line-13 direction into the principal interval
    @pytest.mark.parametrize("element_delay", [0.5, 0.3])
    @pytest.mark.parametrize("scale", [1e-307, 1e-9, 1e-3, 1e3, 1e9, 1e299])
    def test_report_is_independent_of_units(self, tmp_path, capsys, element_delay, scale):
        ref_text = self.run_scaled(tmp_path, element_delay, 1.0)
        text = self.run_scaled(tmp_path, element_delay, scale)
        capsys.readouterr()
        assert '"nan"' not in text
        ref, rep = json.loads(ref_text), json.loads(text)

        assert len(rep["notes"]) == len(ref["notes"])
        for note, ref_note in zip(rep["notes"], ref["notes"]):
            self.assert_same_text(note, ref_note, scale)
        assert len(rep["directions"]) == len(ref["directions"]) == 4
        for d, ref_d in zip(rep["directions"], ref["directions"]):
            self.assert_same_text(d["kind"], ref_d["kind"], scale)
            assert d["tau"] * scale == pytest.approx(ref_d["tau"], rel=1e-12)
            assert d["array_gain_by_line"].keys() == ref_d["array_gain_by_line"].keys()
            for k, gain in d["array_gain_by_line"].items():
                self.assert_close(gain, ref_d["array_gain_by_line"][k])
        rows = rep["ports"] + rep["directions"]
        for row, ref_row in zip(rows, ref["ports"] + ref["directions"]):
            for key in ("evm", "aclr_lower_db", "aclr_upper_db"):
                self.assert_close(row[key], ref_row[key])

        patterns = rep["patterns"] + rep["baseline"]["patterns"]
        ref_patterns = ref["patterns"] + ref["baseline"]["patterns"]
        lines = [p["freq_index"] for p in patterns]
        assert lines == [p["freq_index"] for p in ref_patterns]
        for p, ref_p in zip(patterns, ref_patterns):
            self.assert_close(p["peak_gain"], ref_p["peak_gain"])
            self.assert_close(p["contrast"], ref_p["contrast"])
            self.assert_close(p["flatness"], ref_p["flatness"])
            # a lobe between two grid points may report either or both of
            # them, as rounding decides; each must lie within a sweep step
            step = (ref_p["tau_stop"] - ref_p["tau_start"]) / (ref_p["points"] - 1)
            taus = np.array(p["peak_taus"]) * scale
            ref_taus = np.array(ref_p["peak_taus"])
            gaps = np.abs(taus[:, None] - ref_taus[None, :])
            assert gaps.min(axis=1).max() <= step * (1 + 1e-9)
            assert gaps.min(axis=0).max() <= step * (1 + 1e-9)

    def test_peak_tau_is_independent_of_the_tone_amplitudes(self, tmp_path, capsys):
        # the README config without its baseline: tone lines 9 and 11 are
        # spatially aliased, so each has lobes of equal height; peak_tau names
        # the one nearest broadside, not the one rounding makes largest
        patterns = {}
        for amplitude in (1.0, 1e-5):
            doc = multi_user_config(sweep_points=1024, seed=1234)
            for tone in doc["tones"]:
                tone["amplitude"] = amplitude
            path = tmp_path / f"amplitude_{amplitude:g}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out_{amplitude:g}"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            patterns[amplitude] = {p["freq_index"]: p for p in report["patterns"]}
        capsys.readouterr()
        for line in (9, 11):
            p = patterns[1.0][line]
            assert p["multi_peaked"]
            assert p["peak_tau"] == min(p["peak_taus"], key=lambda t: (abs(t), t))
            assert patterns[1e-5][line]["peak_tau"] == p["peak_tau"]


# the directory that holds the imdbeam package these tests import
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(imdbeam.__file__)))


def cli_process(*argv) -> str:
    """Stdout of ``python -m imdbeam.cli`` run in a fresh process on the
    imdbeam these tests import, which must exit 0."""
    done = subprocess.run(
        [sys.executable, "-m", "imdbeam.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def few_trials_config(num_antennas, trials):
    """The README config on ``num_antennas`` antennas, with ``trials``
    baseline trials and 4096 sweep points."""
    doc = multi_user_config(baseline={"trials": trials}, sweep_points=4096, seed=1234)
    doc["geometry"]["num_antennas"] = num_antennas
    return doc


# config, behavioural pattern CSVs, baseline pattern CSVs
FRESH_PROCESS_CONFIGS = {
    "readme": (multi_user_config(baseline={"trials": 10000}, sweep_points=1024, seed=1234), 4, 2),
    # baseline lines 29 and 31 are swept once and written like every pattern
    "off_plan": (off_plan_config(), 6, 2),
    # 1024 antennas, degree 9 and no baseline: pattern sweeps on FFTs
    "wide": (
        {
            "grid": {"base_rate": 7.6428168915656425, "max_index": 255},
            "tones": [
                {"index": 25, "amplitude": 0.4, "phase": 1.8},
                {"index": 28, "amplitude": 0.74, "phase": 0.59},
            ],
            "targets": [{"index": 25, "tau": 0.0209}, {"index": 28, "tau": -0.0118}],
            "geometry": {"num_antennas": 1024, "element_delay": 0.0249},
            "nonlinearity": {
                "coefficients": [
                    1.0, 0.037, -0.035, 0.023, -0.0049, 0.0017, -0.00042, 0.00012, -3.8e-05
                ]
            },
            "band": {"in_band": [25, 28], "adjacent_width": 4},
            "sweep_points": 4096,
            "seed": 11,
        },
        4,
        0,
    ),
    # fewer trials than antennas: covariance lag sums swept by chirp-z
    "few": (few_trials_config(256, 16), 4, 2),
    # three trial chunks, whose rank-k updates BLAS may run multithreaded
    "chunks": (few_trials_config(64, 2053), 4, 2),
}


class TestFreshProcesses:
    """The command line in fresh processes, as an installed script runs it:
    reruns write the same bytes, and each report is canonical JSON."""

    @pytest.mark.parametrize("name", list(FRESH_PROCESS_CONFIGS))
    def test_reruns_are_byte_identical(self, tmp_path, name):
        doc, patterns, baseline_patterns = FRESH_PROCESS_CONFIGS[name]
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(doc))
        outputs = []
        for out in ("run_a", "run_b"):
            cli_process("run", "--config", str(config), "--out", str(tmp_path / out))
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
        files = outputs[0]
        assert outputs[1] == files
        baseline_csvs = [f for f in files if f.endswith("_baseline.csv")]
        assert (len(files) - 1 - len(baseline_csvs), len(baseline_csvs)) == (
            patterns,
            baseline_patterns,
        )
        # the spliced ports text sits where one sorted json.dumps puts it
        text = files["report.json"].decode()
        assert json.dumps(json.loads(text), sort_keys=True) + "\n" == text
        if name != "readme":
            return

        # the config echo runs to the same report
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(json.loads(text)["config"]))
        cli_process("run", "--config", str(echo), "--out", str(tmp_path / "run_echo"))
        assert (tmp_path / "run_echo" / "report.json").read_bytes() == files["report.json"]

        # compare reruns write the same compare.json, and print its text
        stdouts = []
        for out in ("compare_a", "compare_b"):
            stdouts.append(
                cli_process("compare", "--config", str(config), "--out", str(tmp_path / out))
            )
            assert stdouts[-1] == (tmp_path / out / "compare.json").read_text()
        assert stdouts[1] == stdouts[0]

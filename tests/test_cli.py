"""Config parsing, scenario orchestration, report/CSV emission, and the
command-line entry point."""

import json

import numpy as np
import pytest

from imdbeam.cli import (
    ScenarioConfig,
    config_hash,
    config_to_jsonable,
    emit,
    main,
    parse_config,
    run_scenario,
)
from imdbeam.errors import ConfigError


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


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse(base_config())
        assert cfg.sweep_points == 1024
        assert cfg.seed == 0
        assert cfg.baseline is None
        assert cfg.band.keep_window == (4, 16)
        assert [t.index for t in cfg.tones] == [9, 11]

    def test_tone_defaults(self):
        doc = base_config(tones=[{"index": 9}, {"index": 11, "amplitude": 0.5}])
        cfg = parse(doc)
        assert cfg.tones[0].amplitude == 1.0 and cfg.tones[0].phase == 0.0
        assert cfg.tones[1].amplitude == 0.5

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
        ],
    )
    def test_semantic_errors_name_fields(self, mutate, field):
        doc = base_config()
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert err.value.field == field

    def test_round_trip(self):
        for doc in (
            base_config(),
            multi_user_config(baseline={"trials": 50}, seed=77, sweep_points=256),
            base_config(baseline={"trials": 9, "line_indices": [13]}, output_dir="o"),
        ):
            cfg = parse(doc)
            again = parse_config(json.dumps(config_to_jsonable(cfg)))
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)

    def test_hash_changes_with_config(self):
        a = parse(base_config())
        b = parse(base_config(seed=1))
        assert config_hash(a) != config_hash(b)


class TestRunScenario:
    def test_single_user_bundle(self):
        bundle = run_scenario(parse(base_config()))
        assert bundle.distortion.upper_tau == pytest.approx(0.01, rel=1e-12)
        assert bundle.distortion.lower_tau == pytest.approx(0.01, rel=1e-12)
        assert [p.freq_index for p in bundle.patterns] == [9, 11, 13, 7]
        assert len(bundle.ports) == 2
        # all four roles collapse onto one physical direction
        assert len(bundle.directions) == 1
        entry = bundle.directions[0]
        assert "target of tone 9" in entry.kind
        assert "distortion product line 13" in entry.kind
        assert entry.report.array_gain_by_line[13] == pytest.approx(2.0, rel=1e-9)

    def test_multi_user_bundle(self):
        bundle = run_scenario(parse(multi_user_config()))
        assert bundle.distortion.upper_tau == pytest.approx(4.8 / 13, rel=1e-12)
        assert bundle.distortion.lower_tau == pytest.approx(3.0 / 70, rel=1e-12)
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
        for rep in bundle.ports:
            assert rep.evm == 0.0
            assert rep.aclr_lower_db == float("-inf")
            assert rep.aclr_upper_db == float("-inf")
        assert any("absent" in n for n in bundle.notes)
        assert any("baseline comparison skipped" in n for n in bundle.notes)
        assert bundle.baseline_patterns == []

    def test_baseline_comparison(self):
        cfg = parse(multi_user_config(baseline={"trials": 400}, seed=11))
        bundle = run_scenario(cfg)
        assert [p.freq_index for p in bundle.baseline_patterns] == [13, 7]
        assert len(bundle.contrasts) == 2
        for contrast in bundle.contrasts:
            assert contrast.behavioral_directive
            assert not contrast.baseline_directive
        assert bundle.baseline_line_power == pytest.approx(0.075**2 / 2, rel=1e-9)


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
        assert csv[0] == "tau_rx_seconds,power_linear,power_db"
        assert len(csv) == 129
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["provenance"]["config_sha256"] == config_hash(cfg)
        assert doc["baseline"]["contrast"][0]["behavioral_directive"] is True

    def test_negative_infinity_marker(self, tmp_path):
        cfg = parse(base_config(nonlinearity={"coefficients": [1.0]}, sweep_points=64))
        emit(run_scenario(cfg), str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["ports"][0]["aclr_lower_db"] == "-inf"
        assert doc["ports"][0]["evm"] == 0.0

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

    def test_run_invalid_config(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, base_config(geometry={"num_antennas": 2, "element_delay": -1})
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert "geometry.element_delay" in capsys.readouterr().err

    def test_run_requires_out_dir(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        assert main(["run", "--config", path]) == 2
        assert "output" in capsys.readouterr().err

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
        assert "no antenna carries" in capsys.readouterr().err

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
        assert doc["trials"] == 100
        assert doc["contrast"][0]["behavioral_directive"] is True
        assert (out / "compare.json").exists()

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from fluidqoe import ScenarioSpec, cli
from fluidqoe.cli import (
    load_model_config,
    load_scenario_config,
    main,
    parse_grid,
    rerun_manifest,
    resolve_model_snapshot,
)
from fluidqoe.errors import ConfigError, NegativeDensityWarning


MODEL = {
    "states": 2,
    "Q": [[-6, 6], [2, -2]],
    "lambda": [2, 30],
    "mu": 25,
    "x": 40,
    "Z": 500,
    "units": {"content": "frames", "time": "seconds"},
}

SCENARIO = {
    "throughput": [200000, 400000],
    "frame_sizes": [10000, 20000],
    "alpha": 1.0,
    "beta": 3.0,
    "mu": 17.75,
    "x": 20,
    "Z": 400,
}


@pytest.fixture()
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return str(path)


@pytest.fixture()
def scenario_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestConfigLoading:
    def test_valid_model(self, model_config):
        snap = load_model_config(model_config)
        assert snap["states"] == 2
        assert snap["x"] == 40.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"Q": [[0]], "lambda": [1], "mu": 1, "rate": 9}))
        with pytest.raises(ConfigError, match="unknown key"):
            load_model_config(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"Q": [[0]], "lambda": [1]}))
        with pytest.raises(ConfigError, match="mu"):
            load_model_config(str(path))

    def test_wrong_units_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "Q": [[0]], "lambda": [1], "mu": 1,
            "units": {"content": "kilobits", "time": "seconds"},
        }))
        with pytest.raises(ConfigError, match="units"):
            load_model_config(str(path))

    def test_states_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"states": 3, "Q": [[0]], "lambda": [1], "mu": 1}))
        with pytest.raises(ConfigError, match="states"):
            load_model_config(str(path))

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="cannot read"):
            load_model_config(str(path))

    def test_whole_float_states_accepted(self):
        assert resolve_model_snapshot({**MODEL, "states": 2.0}) == resolve_model_snapshot(MODEL)

    def test_scenario(self, scenario_config):
        snap = load_scenario_config(scenario_config)
        assert snap["mode"] == "progressive"
        assert snap["Z"] == 400.0

    def test_scenario_keys_are_the_spec_fields(self, tmp_path):
        spec_fields = {f.name for f in fields(ScenarioSpec)}
        assert cli.SCENARIO_KEYS == spec_fields | {"x", "Z", "units"}
        path = tmp_path / "full.json"
        path.write_text(json.dumps({**SCENARIO, "delta_f": 0.5, "mode": "adaptive"}))
        snap = load_scenario_config(str(path))
        assert set(snap) == spec_fields | {"x", "Z"}
        assert (snap["delta_f"], snap["mode"]) == (0.5, "adaptive")

    def test_integer_scenario_numbers_snapshot_as_floats(self, tmp_path):
        # the snapshot bytes (and so every manifest) do not depend on
        # whether the config wrote 1 or 1.0
        as_ints, as_floats = tmp_path / "ints.json", tmp_path / "floats.json"
        as_ints.write_text(json.dumps({**SCENARIO, "alpha": 1, "beta": 3, "mu": 17,
                                       "delta_f": 2}))
        as_floats.write_text(json.dumps({**SCENARIO, "alpha": 1.0, "beta": 3.0,
                                         "mu": 17.0, "delta_f": 2.0}))
        texts = [cli._json_text(load_scenario_config(str(path)))
                 for path in (as_ints, as_floats)]
        assert texts[0] == texts[1]
        assert '"alpha": 1.0' in texts[0]

    def test_parse_grid(self):
        np.testing.assert_allclose(parse_grid("1:5:5"), [1, 2, 3, 4, 5])
        with pytest.raises(ConfigError):
            parse_grid("1:5")
        with pytest.raises(ConfigError):
            parse_grid("1:5:0")
        with pytest.raises(ConfigError, match="'1:nan:3'"):
            parse_grid("1:nan:3")


class TestExitCodes:
    def test_validate_ok(self, model_config, capsys):
        assert main(["validate", "--config", model_config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["stable"]
        assert out["drift"] == -2.0

    def test_malformed_generator_names_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"Q": [[-1, 2], [1, -1]], "lambda": [1, 1], "mu": 1}))
        code = main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "RowSumViolation" in err and "row 0" in err

    def test_numeric_failure_exit_two(self, model_config, capsys):
        # the legacy inversion operating point trips the precision refusal
        code = main(["starvation", "--config", model_config,
                     "--params", "1,64,64,98.24", "--t-grid", "1:10:3"])
        assert code == 2
        assert "OverflowRisk" in capsys.readouterr().err

    def test_memory_error_exits_two(self, model_config, monkeypatch, capsys):
        # numpy raises a private MemoryError subclass; the runner raises one
        # instead of allocating, and the line names the builtin
        class ArrayMemoryError(MemoryError):
            pass

        def runner(snapshot, args):
            raise ArrayMemoryError("Unable to allocate 58.2 TiB for an array")

        monkeypatch.setitem(cli._SUBCOMMANDS, "events",
                            (runner,) + cli._SUBCOMMANDS["events"][1:])
        assert main(["events", "--config", model_config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "MemoryError: Unable to allocate 58.2 TiB for an array\n"

    @pytest.mark.parametrize("state", ["foo", "1.5"])
    def test_bad_initial_state_is_config_error(self, model_config, state, capsys):
        code = main(["simulate", "--config", model_config, "--reps", "10",
                     "--initial-state", state])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ConfigError:") and err.count("\n") == 1

    def test_simulate_silent_source_exits_one(self, tmp_path, capsys):
        path = tmp_path / "silent.json"
        path.write_text(json.dumps({"Q": [[-1, 1], [2, -2]], "lambda": [0, 0],
                                    "mu": 25, "x": 40, "Z": 500}))
        code = main(["simulate", "--config", str(path), "--reps", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "DomainError: no state delivers content\n"

    @pytest.mark.parametrize("argv, changes, error", [
        # malformed flag values, an unwritable --out, usage errors
        pytest.param("starvation --config {model} --params 1.5,11,38,18.4", {},
                     "ConfigError", id="params-float-l"),
        pytest.param("starvation --config {model} --params a,b,c,d", {},
                     "ConfigError", id="params-text"),
        pytest.param("optimize --scenario {scenario} --weights a,b,c --x-grid 10:40:3", {},
                     "ConfigError", id="weights-text"),
        pytest.param("validate --config {model} --out {tmp}/missing/x.json", {},
                     "ConfigError", id="out-missing-dir"),
        pytest.param("validate", {}, "ConfigError", id="usage-missing-config"),
        pytest.param("events --config {model} --jmax abc", {}, "ConfigError",
                     id="usage-jmax-text"),
        pytest.param("", {}, "ConfigError", id="usage-no-subcommand"),
        pytest.param("simulate --config {model} --cap", {}, "ConfigError",
                     id="usage-simulate-cap"),
        pytest.param("events --config {model} --grid 0", {}, "ConfigError",
                     id="events-grid-0"),
        # --params only where an inversion runs
        pytest.param("validate --config {model} --params 1,11,38,18.4", {}, "ConfigError",
                     id="validate-params"),
        pytest.param("simulate --config {model} --params 1,64,64,98.24", {}, "ConfigError",
                     id="simulate-params"),
        pytest.param("simulate --config {model} --reps 1180591620717411303424", {},
                     "DomainError", id="simulate-reps-beyond-index"),
        # values passed through to the library's own checks
        pytest.param("events --config {model} --jmax 0", {}, "DomainError",
                     id="events-jmax-0"),
        pytest.param("optimize --scenario {scenario} --weights nan,0,0 --x-grid 10:160:3 "
                     "--jmax 4", {}, "DomainError", id="weights-nan"),
        pytest.param("compare --scenario {scenario} --weights 1,inf,1 --Z-grid 200:800:3",
                     {}, "DomainError", id="weights-inf"),
        # non-finite numbers in a config or on the command line
        pytest.param("validate --config {model}", {"lambda": [float("nan"), 30]},
                     "DomainError", id="validate-lambda-nan"),
        pytest.param("starvation --config {model}", {"lambda": [float("nan"), 30]},
                     "DomainError", id="starvation-lambda-nan"),
        pytest.param("starvation --config {model} --Z inf --t-grid 2:4:2", {},
                     "DomainError", id="starvation-Z-inf"),
        pytest.param("events --config {model} --Z inf", {}, "DomainError", id="events-Z-inf"),
        pytest.param("startup --config {model} --x inf", {}, "DomainError", id="startup-x-inf"),
        pytest.param("startup --config {model} --x nan", {}, "DomainError", id="startup-x-nan"),
        pytest.param("starvation --config {model} --t-grid 1:inf:3", {}, "ConfigError",
                     id="starvation-t-grid-inf"),
        pytest.param("optimize --scenario {scenario} --weights 1,0.1,0 --x-grid 10:inf:3", {},
                     "ConfigError", id="optimize-x-grid-inf"),
        pytest.param("optimize --scenario {scenario} --weights 1,0.5,0 --x-grid 10:160:3",
                     {"throughput": [200000, float("nan")]}, "DomainError",
                     id="optimize-throughput-nan"),
        # wrongly typed config values
        pytest.param("validate --config {model}", {"mu": "25"}, "ConfigError", id="mu-text"),
        pytest.param("validate --config {model}", {"Q": "abc"}, "ConfigError", id="Q-text"),
        pytest.param("validate --config {model}", {"Q": [[-6, 6], [2]]}, "ConfigError",
                     id="Q-ragged"),
        pytest.param("validate --config {model}", {"states": "two"}, "ConfigError",
                     id="states-text"),
        pytest.param("validate --config {model}", {"states": 2.5}, "ConfigError",
                     id="states-fraction"),
        pytest.param("starvation --config {model}", {"x": "forty"}, "ConfigError",
                     id="x-text"),
        pytest.param("compare --scenario {scenario} --weights 1,0.1,1 --Z-grid 200:800:3",
                     {"throughput": 5}, "ConfigError", id="throughput-number"),
    ])
    def test_malformed_input_exits_one(self, tmp_path, capsys, argv, changes, error):
        paths = {"tmp": tmp_path, "model": tmp_path / "model.json",
                 "scenario": tmp_path / "scenario.json"}
        paths["model"].write_text(json.dumps({**MODEL, **changes}))
        paths["scenario"].write_text(json.dumps({**SCENARIO, **changes}))
        assert main(argv.format(**paths).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_selftest_passes(self, capsys):
        assert main(["invert-selftest"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["max_abs_error"] < 1e-6


class TestOutputs:
    def test_starvation_csv_header(self, model_config, capsys):
        assert main(["starvation", "--config", model_config,
                     "--t-grid", "2:20:4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,H_11,H_12,H_21,H_22,P_s"
        assert len(lines) == 5
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 2.0

    def test_startup_csv(self, model_config, capsys):
        assert main(["startup", "--config", model_config,
                     "--t-grid", "1:8:4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,U_11,U_12,U_21,U_22,mean"

    def test_default_startup_grid_ignores_the_means_last_bit(self, model_config,
                                                              monkeypatch, capsys):
        # the default grid follows the mean to 12 digits: one ulp more in the
        # mean leaves every time of the table as it was
        def times():
            assert main(["startup", "--config", model_config]) == 0
            return [line.split(",")[0] for line in capsys.readouterr().out.splitlines()]

        exact = times()
        real = cli.expected_startup_delay
        monkeypatch.setattr(cli, "expected_startup_delay",
                            lambda *args: np.nextafter(real(*args), np.inf))
        assert times() == exact

    def test_events_json(self, model_config, capsys):
        assert main(["events", "--config", model_config, "--jmax", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"pmf", "tail"}
        assert len(payload["pmf"]) == 5
        assert 0.98 <= sum(payload["pmf"]) + payload["tail"] <= 1.02

    def test_simulate_json(self, model_config, capsys):
        assert main(["simulate", "--config", model_config,
                     "--reps", "2000", "--seed", "11"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replications"] == 2000
        assert abs(sum(payload["count_histogram"]) - 1.0) < 1e-12

    def test_optimize_and_compare(self, scenario_config, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        # the scenario's count chain clamps two known inversion ripples
        with pytest.warns(NegativeDensityWarning) as log:
            assert main(["optimize", "--scenario", scenario_config,
                         "--weights", "1,0.1,0", "--x-grid", "10:40:3",
                         "--out", str(out)]) == 0
        assert [str(w.message) for w in log] == [
            "first starvation density: inversion ripple reached -2.69e-03 before clamping",
            "continuation kernel: inversion ripple reached -5.75e-03 before clamping"]
        assert out.exists()
        summary = json.loads((tmp_path / "opt.csv.summary.json").read_text())
        assert "best_x" in summary

        out2 = tmp_path / "cmp.csv"
        assert main(["compare", "--scenario", scenario_config,
                     "--weights", "1,0.1,1", "--Z-grid", "200:800:3",
                     "--out", str(out2)]) == 0
        rows = out2.read_text().strip().split("\n")
        assert rows[0].startswith("Z,prog_starvations")
        assert len(rows) == 4


class TestManifests:
    def test_manifest_written_and_reruns_identically(self, model_config, tmp_path):
        out = tmp_path / "starv.csv"
        assert main(["starvation", "--config", model_config,
                     "--t-grid", "2:20:6", "--out", str(out)]) == 0
        manifest_path = tmp_path / "starv.csv.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["subcommand"] == "starvation"
        assert manifest["outputs"] == [str(out)]

        original = out.read_bytes()
        replay = tmp_path / "replay.csv"
        assert rerun_manifest(str(manifest_path), str(replay)) == 0
        assert replay.read_bytes() == original

    def test_simulate_manifest_rerun(self, model_config, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", model_config, "--reps", "1500",
                     "--seed", "42", "--out", str(out)]) == 0
        original = out.read_bytes()
        replay = tmp_path / "sim2.json"
        assert rerun_manifest(str(tmp_path / "sim.json.manifest.json"),
                              str(replay)) == 0
        assert replay.read_bytes() == original

    @pytest.mark.parametrize("cap", [True, False])
    def test_simulate_manifest_with_cap_arg_replays(self, model_config, tmp_path, cap):
        # manifests written while simulate took --cap record it; the source
        # sends past Z either way, so the replay ignores the arg
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", model_config, "--reps", "500",
                     "--seed", "42", "--out", str(out)]) == 0
        manifest_path = tmp_path / "sim.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["args"]["cap"] = cap
        manifest_path.write_text(json.dumps(manifest))
        replay = tmp_path / "sim2.json"
        assert rerun_manifest(str(manifest_path), str(replay)) == 0
        assert replay.read_bytes() == out.read_bytes()

    def test_params_only_where_an_inversion_runs(self):
        takes = [name for name, spec in cli._SUBCOMMANDS.items() if cli._PARAMS in spec[3]]
        assert takes == ["starvation", "startup", "events", "optimize", "compare",
                         "invert-selftest"]

    @pytest.mark.parametrize("argv, params, inversion", [
        pytest.param(["simulate", "--reps", "300", "--seed", "5"], "1,64,64,98.24",
                     {"A": 98.24, "l": 1, "m": 64, "n": 64}, id="simulate"),
        pytest.param(["validate"], None, None, id="validate"),
    ])
    def test_manifest_with_params_arg_replays(self, model_config, tmp_path, argv,
                                              params, inversion):
        # manifests written while every subcommand took --params record it
        # in args (null when unset) and its inversion parameters; the replay
        # keeps both, so it rewrites the manifest byte for byte
        out = tmp_path / "run.json"
        assert main(argv + ["--config", model_config, "--out", str(out)]) == 0
        manifest_path = tmp_path / "run.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "params" not in manifest["args"]
        manifest["args"]["params"] = params
        if inversion is not None:
            manifest["inversion"] = inversion
        written = cli._json_text(manifest)
        manifest_path.write_text(written)
        result = out.read_bytes()
        assert rerun_manifest(str(manifest_path)) == 0
        assert out.read_bytes() == result
        assert manifest_path.read_text() == written

    def _events_manifest_with_grid(self, model_config, tmp_path, grid):
        out = tmp_path / "events.json"
        assert main(["events", "--config", model_config, "--jmax", "4",
                     "--out", str(out)]) == 0
        manifest_path = tmp_path / "events.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "grid" not in manifest["args"]
        manifest["args"]["grid"] = grid
        manifest_path.write_text(json.dumps(manifest))
        return out, manifest_path

    @pytest.mark.parametrize("grid", [None, 16])
    def test_events_manifest_with_grid_arg_replays(self, model_config, tmp_path, grid):
        # manifests written while events took --grid record it (null when
        # unset); the grid now always has the 16 nodes per prefetch it defaulted to
        out, manifest_path = self._events_manifest_with_grid(model_config, tmp_path, grid)
        replay = tmp_path / "events2.json"
        assert rerun_manifest(str(manifest_path), str(replay)) == 0
        assert replay.read_bytes() == out.read_bytes()

    def test_events_manifest_with_other_grid_refused(self, model_config, tmp_path):
        _, manifest_path = self._events_manifest_with_grid(model_config, tmp_path, 32)
        with pytest.raises(ConfigError, match="--grid 32 cannot be replayed"):
            rerun_manifest(str(manifest_path), str(tmp_path / "events2.json"))

    @pytest.mark.parametrize("jmax", [3, 4])
    def test_optimize_manifest_with_jmax_arg_replays(self, scenario_config, tmp_path, jmax):
        # optimize counts every starvation, so the recorded --jmax is ignored
        out = tmp_path / "opt.csv"
        with pytest.warns(NegativeDensityWarning):
            assert main(["optimize", "--scenario", scenario_config, "--weights", "1,0.1,0",
                         "--x-grid", "10:40:3", "--jmax", "4", "--out", str(out)]) == 0
        manifest_path = tmp_path / "opt.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["args"]["jmax"] == 4
        manifest["args"]["jmax"] = jmax
        manifest_path.write_text(json.dumps(manifest))
        replay = tmp_path / "opt2.csv"
        with pytest.warns(NegativeDensityWarning):
            assert rerun_manifest(str(manifest_path), str(replay)) == 0
        assert replay.read_bytes() == out.read_bytes()
        summary = tmp_path / "opt2.csv.summary.json"
        assert summary.read_bytes() == (tmp_path / "opt.csv.summary.json").read_bytes()

    @pytest.mark.parametrize("content", [
        pytest.param(None, id="missing-file"),
        pytest.param("{not json", id="not-json"),
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param('{"subcommand": "nope"}', id="unknown-subcommand"),
        pytest.param('{"subcommand": ["validate"]}', id="subcommand-list"),
        pytest.param('{"subcommand": "validate", "config": {}}', id="missing-fields"),
    ])
    def test_bad_manifest_named(self, tmp_path, content):
        path = tmp_path / "run.csv.manifest.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match=f"run manifest {re.escape(str(path))}"):
            rerun_manifest(str(path))

    def test_missing_recorded_arg_named(self, model_config, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", model_config, "--reps", "100",
                     "--seed", "7", "--out", str(out)]) == 0
        manifest_path = tmp_path / "sim.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["args"]["seed"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=f"run manifest {re.escape(str(manifest_path))}"
                                              r".*'seed'"):
            rerun_manifest(str(manifest_path), str(tmp_path / "sim2.json"))

    def test_manifest_records_seed(self, model_config, tmp_path):
        out = tmp_path / "sim.json"
        main(["simulate", "--config", model_config, "--reps", "100",
              "--seed", "7", "--out", str(out)])
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["seed"] == 7

import json

import numpy as np
import pytest

from fluidqoe.cli import (
    load_model_config,
    load_scenario_config,
    main,
    parse_grid,
    rerun_manifest,
)
from fluidqoe.errors import ConfigError


@pytest.fixture()
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "states": 2,
        "Q": [[-6, 6], [2, -2]],
        "lambda": [2, 30],
        "mu": 25,
        "x": 40,
        "Z": 500,
        "units": {"content": "frames", "time": "seconds"},
    }))
    return str(path)


@pytest.fixture()
def scenario_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "throughput": [200000, 400000],
        "frame_sizes": [10000, 20000],
        "alpha": 1.0,
        "beta": 3.0,
        "mu": 17.75,
        "x": 20,
        "Z": 400,
    }))
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

    def test_scenario(self, scenario_config):
        snap = load_scenario_config(scenario_config)
        assert snap["mode"] == "progressive"
        assert snap["Z"] == 400.0

    def test_parse_grid(self):
        np.testing.assert_allclose(parse_grid("1:5:5"), [1, 2, 3, 4, 5])
        with pytest.raises(ConfigError):
            parse_grid("1:5")
        with pytest.raises(ConfigError):
            parse_grid("1:5:0")


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
        assert main(["optimize", "--scenario", scenario_config,
                     "--weights", "1,0.1,0", "--x-grid", "10:40:3",
                     "--out", str(out)]) == 0
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

    def test_manifest_records_seed(self, model_config, tmp_path):
        out = tmp_path / "sim.json"
        main(["simulate", "--config", model_config, "--reps", "100",
              "--seed", "7", "--out", str(out)])
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["seed"] == 7

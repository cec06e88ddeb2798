"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import fluidqoe as fq  # noqa: E402
import fluidqoe.cli  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILING_DRAW = workloads.FAILING_DRAW


def _describe(ops, workdir: Path):
    """Op list as plain data, with config files inlined and paths dropped."""
    rows = []
    for op in ops:
        argv = []
        for arg in op.argv:
            path = Path(arg)
            argv.append(path.read_text() if path.parent == workdir else arg)
        rows.append((op.kind, argv, op.call, repr(op.args), repr(op.kwargs), op.sessions))
    return rows


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    made = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / label
        workdir.mkdir()
        ops = workloads.prologue(workload, seed, fq, workdir)
        ops += workloads.make_pass(workload, seed, 3, fq, workdir)
        made[label] = _describe(ops, workdir)
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]


def test_passes_keep_their_mix(tmp_path):
    for k in range(3):
        kinds = [op.kind for op in workloads.make_pass("curves2", 1, k, fq, tmp_path)]
        assert kinds.count("validate") == kinds.count("starvation") == 12
        assert kinds.count("startup") == 12


def _span(layer, start, end, parent, name=None):
    return tracer.Span(name or f"{layer}.f", layer, start, end, parent, 0)


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        _span("cli", 0, 100, -1),          # 0: children 1 and 3 cover 30 + 20
        _span("inversion", 10, 40, 0),     # 1: child 2 covers 10
        _span("spectral.closed", 15, 25, 1),
        _span("inversion", 50, 70, 0),
        _span("model", 120, 125, -1),
    ]
    assert tracer.self_times(spans) == [50, 20, 10, 20, 5]
    t = tracer.Tracer()
    t.spans = spans
    metrics = t.layer_metrics()
    assert metrics["cli.self_ms"] == pytest.approx(50e-6)
    assert metrics["inversion.self_ms"] == pytest.approx(40e-6)
    assert metrics["spectral.closed.self_ms"] == pytest.approx(10e-6)
    assert metrics["model.self_ms"] == pytest.approx(5e-6)


def test_tracer_wraps_package_reexports_and_restores_them():
    model = fq.validate_model([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0)
    params = fq.SessionParams(x=40.0, Z=160.0)
    originals = (fq.monte_carlo, fq.starvation_count_pmf, fq.events.invert)
    t = tracer.Tracer()
    with tracer.recording(t):
        assert fq.monte_carlo is not originals[0]
        fq.starvation_count_pmf(model, params)
        fq.monte_carlo(model, params, fq.SimConfig(replications=50, seed=1))
    assert (fq.monte_carlo, fq.starvation_count_pmf, fq.events.invert) == originals
    names = {s.name for s in t.spans}
    assert {"events.starvation_count_pmf", "events.build_path_grid",
            "inversion.invert", "simulator.monte_carlo",
            "simulator.counter_uniform"} <= names
    metrics = t.layer_metrics()
    assert metrics["simulator.sessions"] == 50
    assert metrics["events.grid_builds"] == 1
    assert metrics["inversion.freqs"] == metrics["inversion.calls"] * 51


def _traced_counts(ops):
    t = tracer.Tracer()
    with tracer.recording(t):
        for i, op in enumerate(ops):
            t.op = i
            run.run_op(op, fq, workloads)
    metrics = t.layer_metrics()
    return {k: v for k, v in metrics.items() if not k.endswith(("_ms", "us_per_freq"))}


def test_traced_counts_repeat_exactly(tmp_path):
    ops = workloads.make_pass("curves2", 5, 0, fq, tmp_path)[:9]
    ops += workloads.make_pass("sim", 5, 0, fq, tmp_path)[:4]
    first, second = _traced_counts(ops), _traced_counts(ops)
    assert first == second
    assert first["cli.calls"] > 0 and first["simulator.rng_draws"] > 0


def test_warnings_are_attributed_to_the_raising_layer():
    t = tracer.Tracer()
    bitrate = fq.scenario_to_model(fq.ScenarioSpec(
        **{k: v for k, v in workloads.BITRATE_SCENARIO.items() if k not in ("x", "Z")}))
    with tracer.recording(t):
        fq.starvation_count_pmf(bitrate, fq.SessionParams(x=10.0, Z=100.0))
    assert t.warning_table().get("events.NegativeDensityWarning", 0) >= 1
    assert t.layer_metrics()["events.negative_density_warnings"] >= 1


def _with_stdout(rec, text):
    """The record of a CLI op that printed ``text`` instead."""
    return dict(rec, stdout=zlib.compress(text.encode()))


def _cli_record(tmp_path, config, kind, *extra):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(config))
    op = workloads.Op(kind, argv=(kind, "--config", str(path), *extra))
    return op, run.run_op(op, fq, workloads)[1]


def test_known_failing_draw_counts_as_failed_op(tmp_path):
    op, rec = _cli_record(tmp_path, FAILING_DRAW, "starvation")
    assert rec["error"] == "OutOfRange"
    ops, records = [op], [rec]
    problems, failures, skipped = run.check_all(ops, records, fq, checks, analytic_upto=1)
    assert problems == [] and failures == ["OutOfRange"] and skipped == {}


@pytest.mark.parametrize("workload,expected", [
    ("curves2", {"both_draining_starvation": "OutOfRange",
                 "slow_switching_startup": "NonMonotoneCdf"}),
    ("generic3", {"jump_point_startup": "OutOfRange",
                  "slow_exit_startup": "NonMonotoneCdf"}),
    ("counts", {"readme_optimize_jmax3": "TailTooLarge",
                "barely_filling_pmf": "NumericError"}),
])
def test_known_defects_still_fail(workload, expected, tmp_path):
    args = run.parse_args(["--workload", workload, "--seed", "1"])
    assert run.probe_known_defects(args, fq, workloads, checks, tmp_path) == expected


def test_refused_analytic_reference_is_a_counted_skip():
    # the same draw with its horizon Z/mu at 1.6 s: the analytic P_s that
    # criterion 4 compares against raises OutOfRange
    model = fq.validate_model(FAILING_DRAW["Q"], FAILING_DRAW["lambda"], FAILING_DRAW["mu"])
    params = fq.SessionParams(x=20.0, Z=40.0)
    with pytest.raises(fq.OutOfRange):
        fq.starvation_probability(model, params)
    reps = checks.MC_CHECK_MIN_REPS
    stats = fq.monte_carlo(model, params, fq.SimConfig(replications=reps, seed=3)).to_dict()
    op = workloads.Op("monte_carlo", call="monte_carlo", sessions=reps,
                      info={"model": model, "params": params})
    rec = {"error": None, "stats": stats}
    assert checks.check(op, rec, fq) == ([], None, "criterion4:OutOfRange")
    problems, failures, skipped = run.check_all([op], [rec], fq, checks, analytic_upto=1)
    assert problems == [] and failures == [None]
    assert skipped == {"criterion4:OutOfRange": 1}


def test_corrupted_cdf_table_fails_the_checks(tmp_path):
    config = dict(workloads.BURSTY_DEMO)
    op, rec = _cli_record(tmp_path, config, "starvation", "--t-grid", "1:20:8")
    assert checks.check(op, rec, fq) == ([], None, None)
    lines = zlib.decompress(rec["stdout"]).decode().splitlines()
    cells = lines[3].split(",")
    above = _with_stdout(rec, "\n".join(lines[:3] + [",".join(cells[:1] + ["1.5"] + cells[2:])]
                                        + lines[4:]) + "\n")
    assert checks.check(op, above, fq)[0]
    falling = [line.split(",") for line in lines]
    falling[-1][1] = "0"
    falling = _with_stdout(rec, "\n".join(",".join(c) for c in falling) + "\n")
    assert checks.check(op, falling, fq)[1] == "NonMonotoneCdf"


def test_corrupted_library_outputs_fail_the_checks():
    pmf = workloads.Op("pmf", call="starvation_count_pmf")
    good = {"error": None, "p": [0.7, 0.2, 0.1], "tail": 0.0}
    assert checks.check(pmf, good, fq) == ([], None, None)
    assert checks.check(pmf, dict(good, tail=0.05), fq)[0]

    cost = workloads.Op("session_cost", call="session_cost", info={"weights": (1.0, 0.5, 1.0)})
    good = {"error": None, "cost": (0.3, 2.0, 0.0, 1.3)}
    assert checks.check(cost, good, fq) == ([], None, None)
    assert checks.check(cost, dict(good, cost=(0.3, 2.0, 0.0, 1.4)), fq)[0]

    model = fq.validate_model([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0)
    params = fq.SessionParams(x=40.0, Z=500.0)
    stats = fq.monte_carlo(model, params, fq.SimConfig(replications=20_000, seed=3)).to_dict()
    mc = workloads.Op("monte_carlo", call="monte_carlo", sessions=20_000,
                      info={"model": model, "params": params})
    assert checks.check(mc, {"error": None, "stats": stats}, fq) == ([], None, None)
    shifted = json.loads(json.dumps(stats))
    shifted["starvation_probability"]["mean"] += 0.05
    assert checks.check(mc, {"error": None, "stats": shifted}, fq)[0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(tracer.Tracer().layer_metrics()) | {"trace.untraced_ms", "trace.overhead_ms"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    source = (BENCH / "run.py").read_text()
    for m in spec["end_to_end"]:
        assert f'"{m["name"]}":' in source


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "curves2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unreadable_output_fails_the_run(tmp_path):
    op, rec = _cli_record(tmp_path, dict(workloads.BURSTY_DEMO), "validate")
    problems, _, _ = run.check_all([op], [_with_stdout(rec, "not json")], fq, checks,
                                analytic_upto=0)
    assert problems and "unreadable output" in problems[0]


def test_output_digest_repeats_for_a_seed(tmp_path):
    ops = workloads.make_pass("curves2", 9, 0, fq, tmp_path)[:9]
    ops += workloads.make_pass("counts", 9, 0, fq, tmp_path)[:4]
    first = run.digest([run.run_op(op, fq, workloads)[1] for op in ops])
    assert first == run.digest([run.run_op(op, fq, workloads)[1] for op in ops])

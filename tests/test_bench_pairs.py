"""The pair aggregation of ``tools/bench_pairs.py``, on synthetic result
lines (no benchmark run starts)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(seed, digest, ops, rss, correct=True, failed=0):
    info = {"info": {"seed": seed, "digest": digest,
                     "environment": {"git_sha": None, "src_sha256": "ab" * 32}}}
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return f"a log line\n{json.dumps(info)}\n{json.dumps(result)}\n"


def test_parse_run_reads_the_last_two_lines():
    run = _tool().parse_run(_stdout(3, "d", 50.0, 40.0))
    assert run["info"]["seed"] == 3
    assert run["result"]["metrics"]["ops_per_s"]["value"] == 50.0


def test_aggregate_medians_quartiles_and_wins():
    tool = _tool()
    # the change is faster in pairs 0 and 1, ties in pair 2 and is slower
    # in pair 3; it uses less memory in every pair but pair 3
    parent = [(60.0, 50.0), (62.0, 51.0), (64.0, 50.0), (70.0, 52.0)]
    change = [(61.0, 45.0), (66.0, 44.0), (64.0, 46.0), (65.0, 52.0)]
    pairs = [{"parent": tool.parse_run(_stdout(900 + i, "same", *p)),
              "change": tool.parse_run(_stdout(900 + i, "same", *c, failed=int(i == 3)))}
             for i, (p, c) in enumerate(zip(parent, change))]
    entry = tool.aggregate(pairs, METRICS)

    assert entry["pairs"] == 4 and entry["seeds"] == [900, 901, 902, 903]
    assert entry["correct"] == {"parent": True, "change": True}
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["digests_match"]
    ops = entry["metrics"]["ops_per_s"]
    assert ops["parent"]["values"] == [60.0, 62.0, 64.0, 70.0]
    assert ops["parent"]["median"] == 63.0
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == (61.5, 65.5)
    assert ops["change"]["median"] == 64.5
    assert ops["wins"] == {"parent": 1, "change": 2}
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["wins"] == {"parent": 0, "change": 3}
    assert rss["better"] == "lower" and rss["unit"] == "MB"


def test_aggregate_flags_digests_and_incorrect_runs():
    tool = _tool()
    pairs = [{"parent": tool.parse_run(_stdout(1, "x", 1.0, 1.0)),
              "change": tool.parse_run(_stdout(1, "y", 1.0, 1.0, correct=False))}]
    entry = tool.aggregate(pairs, METRICS)
    assert not entry["digests_match"]
    assert entry["correct"] == {"parent": True, "change": False}
    # one pair: its value is the median and both quartiles
    row = entry["metrics"]["ops_per_s"]["parent"]
    assert row["median"] == row["q1"] == row["q3"] == pytest.approx(1.0)
    assert entry["metrics"]["ops_per_s"]["wins"] == {"parent": 0, "change": 0}

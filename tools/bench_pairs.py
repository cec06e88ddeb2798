"""Run the benchmark on two checkouts in alternating pairs and record the rows.

    python3 tools/bench_pairs.py PARENT CHANGE --workload sim --pairs 10 \
        --seconds 15 --seed 901

``PARENT`` and ``CHANGE`` are the roots of two checkouts.  Pair ``i`` runs
``python3 bench/run.py --workload W --seed S0+i --seconds S --trace 0`` once
in each tree, the parent first in even pairs and the change first in odd
ones, so that a drift in the host's load falls on both sides alike.

The rows go to ``BENCH_<date>_<src>.json`` in ``--out`` (default: the
current directory), where ``<src>`` is the first 12 hex digits of the sha256
of the change's package source that the benchmark reports.  A file holds one
entry per workload; running another workload adds its entry, and running
one again replaces it.  An entry gives, for every end-to-end metric of the
change's ``BENCHMARK.json``, each side's values, median and quartiles and
the pairs each side won (ties count for neither), plus whether every run
was ``correct``, the ops that ``failed`` on each side, and whether the two
runs of every pair printed the same output digest.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The info and result objects of one benchmark run's standard output
    (its last two lines)."""
    info, result = stdout.strip().splitlines()[-2:]
    return {"info": json.loads(info)["info"], "result": json.loads(result)}


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def aggregate(pairs: list, metrics: list) -> dict:
    """One workload's entry from its ``pairs``, each a dict of the parent's
    and the change's :func:`parse_run` output.  ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json`` (name and ``better``)."""
    entry = {
        "pairs": len(pairs),
        "seeds": [p["change"]["info"]["seed"] for p in pairs],
        "correct": {s: all(p[s]["result"]["correct"] for p in pairs) for s in SIDES},
        "failed": {s: sum(p[s]["result"]["failed"] for p in pairs) for s in SIDES},
        "digests_match": all(p["parent"]["info"]["digest"] == p["change"]["info"]["digest"]
                             for p in pairs),
        "metrics": {},
    }
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs]
                  for s in SIDES}
        row = {"unit": metric["unit"], "better": metric["better"]}
        for s in SIDES:
            q1, median, q3 = _quartiles(values[s])
            row[s] = {"values": values[s], "median": median, "q1": q1, "q3": q3}
        margins = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        row["wins"] = {"parent": sum(m < 0 for m in margins),
                       "change": sum(m > 0 for m in margins)}
        entry["metrics"][name] = row
    return entry


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({s: _run(trees[s], args.workload, args.seed + i, args.seconds)
                      for s in order})
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    entry = aggregate(pairs, metrics)
    entry["seconds"] = args.seconds

    env = pairs[0]["change"]["info"]["environment"]
    date = datetime.date.today().isoformat()
    path = args.out / f"BENCH_{date}_{env['src_sha256'][:12]}.json"
    record = json.loads(path.read_text()) if path.exists() else {
        "parent": {"git_sha": pairs[0]["parent"]["info"]["environment"]["git_sha"],
                   "src_sha256": pairs[0]["parent"]["info"]["environment"]["src_sha256"]},
        "change": {"src_sha256": env["src_sha256"]},
        "environment": {k: env[k] for k in ("python", "numpy", "nproc")},
        "workloads": {},
    }
    record["workloads"][args.workload] = entry
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks, run after the timed phase on the recorded summaries.

``check(op, rec, fq)`` returns ``(problems, invalid, skipped)``.
``problems`` are wrong outputs that fail the whole run: values outside
[0, 1], a count mass outside the package's own ``MASS_BAND``, a cost that
does not add up, a Monte Carlo estimate that misses the analytic stall
probability by more than its confidence half-width plus 0.01 (acceptance
criterion 4).
``invalid`` names a defect that fails only the op: a CDF table that
decreases in t by more than twice the inverter's own error tolerance
(``CDF_ERROR_TOL``), so that at least one of its values is off by more than
the package allows.  The seed's inverter rings near the jumps of the
start-up and both-draining starvation laws, so such ops occur on the inputs
in ``workloads.known_defects``; in a timed pass they are counted as failed
ops, never dropped.
``skipped`` names a check that could not be made: the analytic stall
probability that criterion 4 compares against raised a package error.  The
simulated output is not shown wrong then, so the run does not fail, but the
harness counts such skips by class and prints them.
"""

from __future__ import annotations

import io
import json
import math
import zlib

import numpy as np

# Monte Carlo batches smaller than this make the criterion-4 bound a coin
# toss across many checks; the bound was set for 100 000 replications.
MC_CHECK_MIN_REPS = 10_000
COST_RTOL = 1e-9


def _table(text: str):
    header = text.splitlines()[0].split(",")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def check_cdf_table(text: str, fq) -> tuple:
    """A starvation or start-up table: t, L*L CDF columns, one constant column."""
    header, rows = _table(text)
    n_cdf = len(header) - 2
    L = math.isqrt(n_cdf)
    if L * L != n_cdf or rows.shape[1] != len(header) or rows.shape[0] < 1:
        return [f"table shape {rows.shape} does not match header {header}"], None
    if not np.all(np.isfinite(rows)):
        return ["table holds non-finite values"], None
    t, cdf, last = rows[:, 0], rows[:, 1:-1], rows[:, -1]
    problems = []
    if np.any(np.diff(t) <= 0):
        problems.append("time column is not increasing")
    if np.any(cdf < 0.0) or np.any(cdf > 1.0):
        problems.append(f"CDF value outside [0, 1]: {cdf.min():g}..{cdf.max():g}")
    if header[-1] == "P_s" and (np.any(last < 0) or np.any(last > 1) or np.ptp(last) != 0):
        problems.append("P_s column is not one probability")
    if header[-1] == "mean" and (np.any(last <= 0) or np.ptp(last) != 0):
        problems.append("mean column is not one positive delay")
    drop = float(-np.min(np.diff(cdf, axis=0), initial=0.0))
    invalid = "NonMonotoneCdf" if drop > 2 * fq.inversion.CDF_ERROR_TOL else None
    return problems, invalid


def check_validate(text: str) -> list:
    out = json.loads(text)
    pi = np.asarray(out["stationary"])
    problems = []
    if not out["valid"] or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
        problems.append(f"stationary vector {pi.tolist()} is not a distribution")
    if out["stable"] != (out["drift"] < 0):
        problems.append("stability verdict disagrees with the drift sign")
    return problems


def check_pmf(p, tail: float, fq) -> list:
    p = np.asarray(p)
    total = float(p.sum() + tail)
    problems = []
    if np.any(p < 0) or tail < 0:
        problems.append("negative count probability")
    if abs(total - 1.0) > fq.events.MASS_BAND:
        problems.append(f"count mass {total:.6f} outside 1 +- {fq.events.MASS_BAND}")
    return problems


def _cost_adds_up(weights, starv, delay, quality, total) -> bool:
    c1, c2, c3 = weights
    expected = c1 * starv + c2 * delay + c3 * quality
    return abs(expected - total) <= COST_RTOL * max(1.0, abs(total))


def check_cost(cost, weights) -> list:
    starv, delay, quality, total = cost
    problems = []
    if starv < 0 or delay <= 0 or quality < 0:
        problems.append(f"cost terms out of range: {cost}")
    if not _cost_adds_up(weights, starv, delay, quality, total):
        problems.append(f"cost total {total} != weighted sum of {cost[:3]}")
    return problems


def check_cost_table(text: str, summary: str, argv: tuple) -> list:
    """optimize/compare CSV: every policy's total is its weighted sum."""
    weights = [float(w) for w in argv[argv.index("--weights") + 1].split(",")]
    _, rows = _table(text)
    summary = json.loads(summary)
    problems = []
    for row in rows:
        for start in range(1, rows.shape[1], 4):
            if not _cost_adds_up(weights, *row[start:start + 4]):
                problems.append(f"row {row.tolist()} does not add up")
    if "best_x" in summary and summary["best_x"] not in rows[:, 0]:
        problems.append("best_x is not on the grid")
    return problems


def check_sim_stats(stats: dict, reps: int, model, params, fq, analytic: bool) -> tuple:
    problems, skipped = [], None
    hist = np.asarray(stats["count_histogram"])
    p = stats["starvation_probability"]
    if stats["replications"] != reps:
        problems.append(f"{stats['replications']} replications, asked for {reps}")
    if np.any(hist < 0) or abs(hist.sum() - 1.0) > 1e-9:
        problems.append("count histogram is not a distribution")
    if not 0.0 <= p["mean"] <= 1.0 or stats["startup_delay"]["mean"] <= 0:
        problems.append("simulated stall probability or start-up delay out of range")
    if analytic and reps >= MC_CHECK_MIN_REPS:
        try:
            expected = fq.starvation_probability(model, params)
        except fq.FluidQoeError as exc:
            return problems, f"criterion4:{type(exc).__name__}"
        gap = abs(expected - p["mean"])
        if gap > p["ci_half"] + 0.01:
            problems.append(f"Monte Carlo P_s {p['mean']:.5f} misses analytic "
                            f"{expected:.5f} by {gap:.5f} > CI {p['ci_half']:.5f} + 0.01")
    return problems, skipped


def check_times(rec: dict, op) -> list:
    problems = []
    if rec["nan"]:
        problems.append("NaN passage times")
    if op.kind == "prefetch_times":
        low, high = op.info["floor"], np.inf
        states_ok = rec["states"][0] >= 0
    else:
        low, high = 0.0, op.info["horizon"]
        states_ok = rec["inf_matches_state"] and rec["states"][1] < op.info["n_states"]
    if rec["min_time"] < low * (1 - 1e-12) or rec["max_finite"] > high * (1 + 1e-12):
        problems.append(f"passage times outside [{low:g}, {high:g}]")
    if not states_ok:
        problems.append(f"end states {rec['states']} out of range")
    return problems


def check(op, rec: dict, fq, analytic: bool = True) -> tuple:
    """Problems that fail the run, the class of a defect that fails the op,
    and the name of a check that could not be made.

    ``analytic=False`` skips the Monte Carlo comparison with the analytic
    stall probability, which the harness makes only on a run's first pass so
    that the chance of a false alarm stays that of a few tests per run.
    """
    if rec["error"] is not None:
        return [], None, None
    kind = op.kind
    stdout = zlib.decompress(rec["stdout"]).decode() if op.argv else ""
    if kind == "validate":
        return check_validate(stdout), None, None
    if kind in ("starvation", "startup"):
        return check_cdf_table(stdout, fq) + (None,)
    if kind == "pmf":
        return check_pmf(rec["p"], rec["tail"], fq), None, None
    if kind == "session_cost":
        return check_cost(rec["cost"], op.info["weights"]), None, None
    if kind in ("optimize", "compare"):
        return check_cost_table(stdout, rec["summary"], op.argv), None, None
    if kind in ("simulate", "monte_carlo"):
        stats = json.loads(stdout) if op.argv else rec["stats"]
        problems, skipped = check_sim_stats(stats, op.sessions, op.info["model"],
                                            op.info["params"], fq, analytic)
        return problems, None, skipped
    return check_times(rec, op), None, None

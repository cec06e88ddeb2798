"""Seeded workloads for the fluidqoe benchmark.

A workload is a fixed *prologue* of ops run once per run, then *passes* of
ops generated on demand: pass ``k`` of workload ``w`` under seed ``s`` is a
pure function of ``(w, s, k)``, so a seed always yields the same inputs no
matter how many passes a run gets through.  Discrete choices (source
pattern, state count, op kind, x, Z, j_max) come in fixed proportions per
pass and continuous parameters are drawn as a Latin hypercube per pass, so
runs under different seeds see the same mix of work.  Nothing is ever redrawn on outcome: an op that fails
stays in the workload and is counted.

The timed workloads are drawn from ranges on which the seed's package does
not fail, so that every run attempts the same work.  The inputs it is known
to fail on are kept apart in ``known_defects`` and run once per run, untimed,
so that every result shows whether they still fail.

An op is one call a user makes: one CLI subcommand run in-process through
``fluidqoe.cli.main``, or one package function called through the
``fluidqoe`` namespace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("curves2", "generic3", "counts", "sim")

MU = 25.0
X_CHOICES = (20.0, 40.0, 80.0)
Z_CHOICES = (250.0, 500.0, 1000.0)

# demos/configs/bitrate_scenario.json, copied so the benchmark's inputs do
# not move when the demo does
BITRATE_SCENARIO = {"throughput": [200000.0, 400000.0],
                    "frame_sizes": [10000.0, 20000.0],
                    "alpha": 1.0, "beta": 3.0, "mu": 17.75, "delta_f": 1.0,
                    "x": 20.0, "Z": 1000.0}
README_OPTIMIZE = ("optimize", "--weights", "1,0.5,0", "--x-grid", "10:160:6")
README_COMPARE = ("compare", "--weights", "1,0.1,1", "--Z-grid", "100:2000:8")
# the README examples refuse at the default j_max = 3 with TailTooLarge,
# whose message asks for a larger j_max; the prologue runs them with this one
README_JMAX = ("--jmax", "4")

# demos/configs/bursty_source.json: the acceptance suite's reference source
BURSTY_DEMO = {"Q": [[-6.0, 6.0], [2.0, -2.0]], "lambda": [2.0, 30.0],
               "mu": MU, "x": 40.0, "Z": 500.0}
# a 3-state source with every rate positive, for the generic3 warm-up
DEMO_MODEL3 = {"Q": [[-3.0, 2.0, 1.0], [1.0, -2.0, 1.0], [2.0, 2.0, -4.0]],
               "lambda": [5.0, 20.0, 35.0], "mu": MU, "x": 40.0, "Z": 500.0}


@dataclass(frozen=True)
class Op:
    """One user call: a CLI argv, or a ``fluidqoe`` function and arguments.

    ``sessions`` is the number of sessions the op analyses or simulates when
    it succeeds; ``info`` carries what the output checks need.
    """

    kind: str
    argv: tuple = ()
    call: str = ""
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    sessions: int = 1
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What an op returned, or the class and text of the error it raised."""

    value: object = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    message: str = ""


def execute(op: Op, fq) -> Outcome:
    """Run one op; package refusals become an error class, not an exception."""
    if op.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fq.cli.main(list(op.argv))
        outcome = Outcome(value=rc, stdout=out.getvalue(), stderr=err.getvalue())
        if rc != 0:
            last = outcome.stderr.strip().splitlines()[-1] if outcome.stderr.strip() else ""
            outcome.error = last.split(":", 1)[0] or f"exit{rc}"
            outcome.message = last
        return outcome
    try:
        return Outcome(value=getattr(fq, op.call)(*op.args, **op.kwargs))
    except fq.FluidQoeError as exc:
        return Outcome(error=type(exc).__name__, message=str(exc))


def two_part_summary(stderr: str) -> str:
    """The summary JSON that optimize/compare print after any warnings."""
    lines = stderr.splitlines()
    starts = [i for i, line in enumerate(lines) if line == "{"]
    return "\n".join(lines[starts[-1]:]) if starts else ""


def summarize(op: Op, outcome: Outcome) -> dict:
    """Compact record of an outcome: a digest of the output plus check data.

    Warnings printed on stderr are left out of the digest: the default
    filter prints each message once per process, so they depend on history.
    CLI output is kept compressed, so that the records a run holds until its
    checks add little to its peak memory.
    """
    rec = {"kind": op.kind, "error": outcome.error}
    if outcome.error is not None:
        text = outcome.message
    elif op.argv:
        rec["stdout"] = zlib.compress(outcome.stdout.encode())
        text = outcome.stdout
        if op.kind in ("optimize", "compare"):
            rec["summary"] = two_part_summary(outcome.stderr)
            text += rec["summary"]
    else:
        value = outcome.value
        if op.kind == "pmf":
            rec["p"], rec["tail"] = value.p.tolist(), float(value.tail)
            text = repr((rec["p"], rec["tail"]))
        elif op.kind == "session_cost":
            rec["cost"] = (value.expected_starvations, value.expected_startup,
                           value.quality_term, value.total)
            text = repr(rec["cost"])
        elif op.kind == "monte_carlo":
            rec["stats"] = value.to_dict()
            text = json.dumps(rec["stats"], sort_keys=True)
        else:  # prefetch_times / first_passage_times: (times, end states)
            times, states = value
            finite = np.isfinite(times)
            rec["n"] = int(times.size)
            rec["min_time"] = float(np.min(times)) if times.size else 0.0
            rec["max_finite"] = float(np.max(times[finite])) if finite.any() else 0.0
            rec["nan"] = int(np.isnan(times).sum())
            rec["states"] = (int(states.min()), int(states.max()))
            rec["inf_matches_state"] = bool(np.all(finite == (states >= 0)))
            text = hashlib.sha256(times.tobytes() + states.tobytes()).hexdigest()
    rec["digest"] = hashlib.sha256(f"{op.kind}|{text}".encode()).hexdigest()
    return rec


# --- model draws ------------------------------------------------------------

def _r(value: float) -> float:
    return round(value, 2)


def _strata(rng: random.Random, n: int) -> list:
    """n uniforms on [0, 1), one in each n-th of the interval, shuffled."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _hypercube(rng: random.Random, n: int, d: int) -> list:
    """n points of a Latin hypercube in d dimensions: every coordinate is
    stratified, so a pass covers each parameter's range evenly."""
    return [list(point) for point in zip(*(_strata(rng, n) for _ in range(d)))]


def _between(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _balanced(rng: random.Random, choices, n: int) -> list:
    """n picks that use every choice as evenly as n allows, shuffled."""
    picks = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(picks)
    return picks


TWO_STATE_DIMS = 5


def _two_state(u):
    """Two-state source with one draining and one filling state.

    The ranges keep clear of the seed's known defects: start-up tables ring
    past the checks' tolerance once a state is left at a rate below about 2/s
    while the draining rate is above 0.4 mu (see ``known_defects``).
    """
    q12, q21 = _between(u[0], 2.0, 8.0), _between(u[1], 2.0, 8.0)
    lam = [_between(u[2], 0.05, 0.4) * MU, _between(u[3], 1.05, 1.6) * MU]
    if u[4] < 0.5:
        lam, q12, q21 = lam[::-1], q21, q12
    return [[-_r(q12), _r(q12)], [_r(q21), -_r(q21)]], [_r(v) for v in lam]


def _many_state(u, n: int, silent: bool, rng: random.Random, rates=(0.5, 5.0)):
    """n-state source with one draining and one filling state at least;
    ``u`` holds n*n uniforms (the off-diagonal rates, then the arrival rates)."""
    flows = iter(u[:n * (n - 1)])
    Q = [[_r(_between(next(flows), *rates)) if i != j else 0.0 for j in range(n)]
         for i in range(n)]
    for i in range(n):
        Q[i][i] = -_r(sum(Q[i]))
    v = u[n * (n - 1):]
    lam = [_between(v[0], 0.05, 0.8) * MU, _between(v[1], 1.05, 1.6) * MU]
    lam += [_between(w, 0.05, 1.6) * MU for w in v[2:]]
    if silent:
        lam[0] = 0.0
    rng.shuffle(lam)
    return Q, [_r(w) for w in lam]


FAMILY_DIMS = 4


def _family(u, family: str):
    """Sources around the demo configs: bursty_source and onoff_source.

    The high rate stays at or above the demos' 30 frames/s, 1.2 mu: on
    sources that drain in both states or barely fill, the seed's count pmfs
    leave their mass band or their truncation limit (see known_defects).
    """
    scale = [_between(v, 0.7, 1.4) for v in u[:3]]
    high = 30.0 * _between(u[3], 1.0, 1.4)
    if family == "bursty":
        a, b, lam = 6.0 * scale[0], 2.0 * scale[1], [2.0 * scale[2], high]
    else:
        a, b, lam = scale[0], 4.0 * scale[1], [high, 0.0]
    return [[-_r(a), _r(a)], [_r(b), -_r(b)]], [_r(w) for w in lam]


def _write_config(path: Path, Q, lam, x: float, Z: float) -> str:
    config = {"Q": Q, "lambda": lam, "mu": MU, "x": x, "Z": Z}
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _grid(a: float, b: float, n: int) -> str:
    return f"{a:.6g}:{b:.6g}:{n}"


# --- passes -----------------------------------------------------------------

# Every source has both rates positive, so each gets all three commands.
# Sources that drain in both states are known defects (see known_defects);
# silent-state sources, which generic3 and counts draw, get no start-up
# table, and with them the median op fell between the validate ops and the
# table ops, where it moved by a fifth from run to run.
CURVES2_SOURCES = 12


def _curves2(rng, k, fq, workdir):
    models = [_two_state(u) for u in _hypercube(rng, CURVES2_SOURCES, TWO_STATE_DIMS)]
    xs = _balanced(rng, X_CHOICES, len(models))
    Zs = _balanced(rng, Z_CHOICES, len(models))
    ops = []
    for i, ((Q, lam), x, Z) in enumerate(zip(models, xs, Zs)):
        path = _write_config(workdir / f"p{k}-{i}.json", Q, lam, x, Z)
        ops += [Op("validate", argv=("validate", "--config", path), sessions=0),
                Op("starvation", argv=("starvation", "--config", path)),
                Op("startup", argv=("startup", "--config", path))]
    return ops


def _generic3(rng, k, fq, workdir):
    models = []
    for n in (3, 4):
        silent = _balanced(rng, (True, False, False), len(X_CHOICES))
        for u, x, quiet in zip(_hypercube(rng, len(X_CHOICES), n * n),
                               X_CHOICES, silent):
            models.append((_many_state(u, n, quiet, rng), x))
    rng.shuffle(models)
    ops = []
    for i, (((Q, lam), x), Z) in enumerate(zip(models, _balanced(rng, Z_CHOICES, len(models)))):
        path = _write_config(workdir / f"p{k}-{i}.json", Q, lam, x, Z)
        horizon = Z / MU
        t_grid = ("--t-grid", _grid(horizon / 4, horizon, 3))
        # starvation at the session's threshold and at twice it, in place of
        # start-up tables, which are known defects on these sources
        ops += [Op("validate", argv=("validate", "--config", path), sessions=0),
                Op("starvation", argv=("starvation", "--config", path) + t_grid),
                Op("starvation", argv=("starvation", "--config", path, "--x", f"{2 * x:g}")
                   + t_grid)]
    return ops


# session_cost with c2 > 0 needs the start-up delay, which is defined only
# when every arrival rate is positive, so the on-off source gets no cost op.
COUNTS_OPS = tuple((family, "pmf") for family in ("progressive", "adaptive", "onoff", "bursty"))
COUNTS_OPS += tuple((family, "session_cost") for family in ("progressive", "adaptive", "bursty"))
J_MAX_CHOICES = (3, 5, 10)


def _counts(rng, k, fq, workdir):
    # every pass runs each op at each j_max, with x laid out as a Latin
    # square over (op, j_max) and Z/x stratified over [4, 12]
    slots = [(family, kind, j) for family, kind in COUNTS_OPS for j in J_MAX_CHOICES]
    xs = [X_CHOICES[(i + j) % 3] for i in range(len(COUNTS_OPS)) for j in range(3)]
    ratios = _strata(rng, len(slots))
    sources = {family: iter(_hypercube(rng, len(slots), FAMILY_DIMS))
               for family in ("onoff", "bursty")}
    spec = {k: v for k, v in BITRATE_SCENARIO.items() if k not in ("x", "Z")}
    ops = []
    for (family, kind, j_max), x, ratio in zip(slots, xs, ratios):
        if family in sources:
            Q, lam = _family(next(sources[family]), family)
            model, quality = fq.validate_model(Q, lam, MU), 0.0
        else:
            arm = fq.ScenarioSpec(**spec, mode=family)
            model, quality = fq.scenario_to_model(arm), fq.quality_loss_fraction(arm)
        params = fq.SessionParams(x=x, Z=float(round(x * _between(ratio, 4.0, 12.0))))
        if kind == "pmf":
            ops.append(Op("pmf", call="starvation_count_pmf",
                          args=(model, params), kwargs={"j_max": j_max}))
            continue
        weights = (_r(rng.uniform(0.5, 2.0)), _r(rng.uniform(0.05, 1.0)), 1.0)
        ops.append(Op("session_cost", call="session_cost",
                      args=(model, params, fq.CostWeights(*weights)),
                      kwargs={"quality_term": quality, "j_max": j_max},
                      info={"weights": weights}))
    rng.shuffle(ops)
    return ops


SIM_SOURCES = ("bursty", "onoff", "three-state")
# (x, Z) pairs at the bursty demo's ratio Z/x = 12.5, short enough that a
# run makes several passes, so that its medians rest on more than one draw
SIM_SESSIONS = ((10.0, 125.0), (20.0, 250.0), (40.0, 500.0))
MC_REPS = (500, 2000, 5000)
ORACLE_REPS = (5000, 10000, 40000)


def _sim(rng, k, fq, workdir):
    # every pass has the same sources, sessions and batch sizes, the sizes
    # laid out as Latin squares over (source, session)
    models = []
    for i, source in enumerate(SIM_SOURCES):
        dims = 9 if source == "three-state" else FAMILY_DIMS
        points = _hypercube(rng, len(SIM_SESSIONS), dims)
        for j, (u, (x, Z)) in enumerate(zip(points, SIM_SESSIONS)):
            Q, lam = (_many_state(u, 3, False, rng, rates=(1.0, 3.0))
                      if source == "three-state" else _family(u, source))
            reps = (MC_REPS[(i + j) % 3], ORACLE_REPS[(i + 2 * j) % 3],
                    ORACLE_REPS[(i + j + 1) % 3])
            models.append((Q, lam, x, Z, reps))
    ops = []
    for i, (Q, lam, x, Z, (mc_reps, fill_reps, drain_reps)) in enumerate(models):
        model, params = fq.validate_model(Q, lam, MU), fq.SessionParams(x=x, Z=Z)
        seed = rng.randrange(2**31)
        cfg = lambda reps: fq.SimConfig(replications=reps, seed=seed)  # noqa: E731
        path = _write_config(workdir / f"p{k}-{i}.json", Q, lam, x, Z)
        check = {"model": model, "params": params}
        ops += [
            Op("simulate", argv=("simulate", "--config", path, "--seed", str(seed)),
               sessions=10_000, info=check),
            Op("monte_carlo", call="monte_carlo", args=(model, params, cfg(mc_reps)),
               sessions=mc_reps, info=check),
            Op("prefetch_times", call="prefetch_times", args=(model, x, cfg(fill_reps)),
               sessions=fill_reps, info={"floor": x / max(lam)}),
            Op("first_passage_times", call="first_passage_times",
               args=(model, x, Z / MU, cfg(drain_reps)), sessions=drain_reps,
               info={"horizon": Z / MU, "n_states": len(lam)}),
        ]
    rng.shuffle(ops)
    return ops


_PASSES = {"curves2": _curves2, "generic3": _generic3, "counts": _counts, "sim": _sim}


def make_pass(workload: str, seed: int, k: int, fq, workdir: Path) -> list:
    """Pass ``k`` of a workload: a pure function of (workload, seed, k)."""
    rng = random.Random(f"{workload}:{seed}:{k}")
    return _PASSES[workload](rng, k, fq, workdir)


def prologue(workload: str, seed: int, fq, workdir: Path) -> list:
    """Ops run once at the start of every run, before the passes.

    ``counts`` runs the README's optimize and compare examples at
    ``README_JMAX``; ``sim`` runs one batch at the acceptance suite's size
    of 100 000 sessions on its reference source and session (the bursty
    demo config, x=40, Z=500).
    """
    if workload == "counts":
        path = workdir / "bitrate_scenario.json"
        path.write_text(json.dumps(BITRATE_SCENARIO), encoding="utf-8")
        scenario = ("--scenario", str(path))
        return [Op("optimize", argv=README_OPTIMIZE[:1] + scenario + README_OPTIMIZE[1:]
                   + README_JMAX, sessions=6),
                Op("compare", argv=README_COMPARE[:1] + scenario + README_COMPARE[1:]
                   + README_JMAX, sessions=16)]
    if workload == "sim":
        rng = random.Random(f"{workload}:{seed}:prologue")
        model = fq.validate_model(BURSTY_DEMO["Q"], BURSTY_DEMO["lambda"], MU)
        params = fq.SessionParams(x=BURSTY_DEMO["x"], Z=BURSTY_DEMO["Z"])
        cfg = fq.SimConfig(replications=100_000, seed=rng.randrange(2**31))
        return [Op("monte_carlo", call="monte_carlo", args=(model, params, cfg),
                   sessions=100_000, info={"model": model, "params": params})]
    return []


def warmup(workload: str, fq, workdir: Path) -> list:
    """One small fixed op of each kind the workload runs."""
    demo = DEMO_MODEL3 if workload == "generic3" else BURSTY_DEMO
    path = _write_config(workdir / "warmup.json", demo["Q"], demo["lambda"],
                         demo["x"], demo["Z"])
    if workload in ("curves2", "generic3"):
        return [Op("validate", argv=("validate", "--config", path)),
                Op("starvation", argv=("starvation", "--config", path, "--t-grid", "2:4:2")),
                Op("startup", argv=("startup", "--config", path, "--t-grid", "2:4:2"))]
    model = fq.validate_model(BURSTY_DEMO["Q"], BURSTY_DEMO["lambda"], MU)
    if workload == "counts":
        scenario = workdir / "warmup_scenario.json"
        scenario.write_text(json.dumps(BITRATE_SCENARIO), encoding="utf-8")
        params = fq.SessionParams(x=40.0, Z=160.0)
        return [Op("session_cost", call="session_cost",
                   args=(model, params, fq.CostWeights(1.0, 0.5, 0.0))),
                Op("pmf", call="starvation_count_pmf", args=(model, params)),
                Op("optimize", argv=("optimize", "--scenario", str(scenario),
                                     "--weights", "1,0.5,0", "--x-grid", "40:80:2",
                                     "--Z", "320")),
                Op("compare", argv=("compare", "--scenario", str(scenario),
                                    "--weights", "1,0.1,1", "--Z-grid", "160:320:2",
                                    "--x", "40"))]
    cfg = fq.SimConfig(replications=100, seed=1)
    params = fq.SessionParams(x=40.0, Z=500.0)
    return [Op("simulate", argv=("simulate", "--config", path, "--reps", "100")),
            Op("monte_carlo", call="monte_carlo", args=(model, params, cfg)),
            Op("prefetch_times", call="prefetch_times", args=(model, 40.0, cfg)),
            Op("first_passage_times", call="first_passage_times",
               args=(model, 40.0, 20.0, cfg))]


# --- known defects ----------------------------------------------------------

# Inputs of the seed's inverter defects.  FAILING_DRAW drains in both states:
# its starvation CDF comes out at -0.0063 at t = 1.6 s and raises
# OutOfRange.  RINGING_STARTUP leaves its filling state at 0.56/s while its
# draining rate is 0.69 mu: its start-up table falls in t by 0.0044, more
# than the checks allow (NonMonotoneCdf).  The start-up CDF of the
# three-state JUMP_STARTUP, asked for at x / max(lambda) where it jumps,
# raises OutOfRange; that of SLOW_EXIT_STARTUP falls in t by 0.0064 on a
# grid from x / mean(lambda) to 4 x / mean(lambda).  BARELY_FILLING fills at
# 0.85 mu: its count pmf at x = 80, Z = 520, j_max = 5 holds mass 0.971, out
# of the package's MASS_BAND (NumericError).
FAILING_DRAW = {"Q": [[-5.31, 5.31], [2.74, -2.74]], "lambda": [12.32, 12.99],
                "mu": MU, "x": 20.0, "Z": 500.0}
RINGING_STARTUP = {"Q": [[-7.7, 7.7], [0.56, -0.56]], "lambda": [17.28, 34.11],
                   "mu": MU, "x": 80.0, "Z": 500.0}
JUMP_STARTUP = {"Q": [[-6.48, 4.05, 2.43], [2.13, -3.44, 1.31], [2.67, 4.11, -6.78]],
                "lambda": [2.12, 25.48, 26.43], "mu": MU, "x": 20.0, "Z": 250.0}
SLOW_EXIT_STARTUP = {"Q": [[-1.61, 0.92, 0.69], [3.96, -4.88, 0.92], [4.92, 2.72, -7.64]],
                     "lambda": [11.35, 11.16, 33.8], "mu": MU, "x": 20.0, "Z": 1000.0}
BARELY_FILLING = {"Q": [[-7.22, 7.22], [1.69, -1.69]], "lambda": [2.67, 21.21],
                  "mu": MU, "x": 80.0, "Z": 520.0}


# name, config, CLI argv without the config
_DEFECT_CASES = {
    "curves2": (("both_draining_starvation", FAILING_DRAW, ("starvation",)),
                ("slow_switching_startup", RINGING_STARTUP, ("startup",))),
    "generic3": (("jump_point_startup", JUMP_STARTUP,
                  ("startup", "--t-grid", "0.756716:3.33148:3")),
                 ("slow_exit_startup", SLOW_EXIT_STARTUP,
                  ("startup", "--t-grid", "1.06553:4.26212:3"))),
}


def known_defects(workload: str, fq, workdir: Path) -> dict:
    """Fixed ops the seed's package fails on, by name; kept out of the passes."""
    ops = {}
    for name, config, argv in _DEFECT_CASES.get(workload, ()):
        path = _write_config(workdir / f"defect-{name}.json", config["Q"],
                             config["lambda"], config["x"], config["Z"])
        ops[name] = Op(argv[0], argv=(argv[0], "--config", path, *argv[1:]))
    if workload == "counts":
        path = workdir / "defect_scenario.json"
        path.write_text(json.dumps(BITRATE_SCENARIO), encoding="utf-8")
        argv = README_OPTIMIZE[:1] + ("--scenario", str(path)) + README_OPTIMIZE[1:]
        ops["readme_optimize_jmax3"] = Op("optimize", argv=argv)
        model = fq.validate_model(BARELY_FILLING["Q"], BARELY_FILLING["lambda"], MU)
        params = fq.SessionParams(x=BARELY_FILLING["x"], Z=BARELY_FILLING["Z"])
        ops["barely_filling_pmf"] = Op("pmf", call="starvation_count_pmf",
                                       args=(model, params), kwargs={"j_max": 5})
    return ops

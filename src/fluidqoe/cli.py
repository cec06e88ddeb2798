"""Command-line front end.

Subcommands: validate, starvation, startup, events, simulate, optimize,
compare, invert-selftest.  Model and scenario descriptions are JSON files
with strictly validated keys; numeric grids use the inclusive ``a:b:n``
notation (start, end, count).

Every result written with ``--out`` is paired with a run manifest (JSON)
recording the subcommand, the resolved configuration snapshot, tool version,
inversion parameters and seed; :func:`rerun_manifest` replays a manifest and
reproduces the output byte for byte for deterministic subcommands.

Exit codes: 0 success, 1 input/validation error, 2 numerical failure.
Anticipated errors print a single diagnostic line on stderr, never a stack
trace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, ValidationError
from .events import starvation_count_pmf
from .inversion import DEFAULT_PARAMS, InversionParams, self_test
from .model import FluidModel, SessionParams, mean_drift, validate_model
from .qoe import (
    CostWeights,
    ScenarioSpec,
    compare_scenarios,
    optimize_threshold,
    quality_loss_fraction,
    scenario_to_model,
)
from .simulator import SimConfig, monte_carlo
from .startup import expected_startup_delay, startup_delay_cdf
from .starvation import starvation_cdf, starvation_probability_from_cdf

MODEL_KEYS = {"states", "Q", "lambda", "mu", "x", "Z", "units"}
SCENARIO_KEYS = {"throughput", "frame_sizes", "alpha", "beta", "mu",
                 "delta_f", "mode", "x", "Z", "units"}
EXPECTED_UNITS = {"content": "frames", "time": "seconds"}


def _fmt(value: float) -> str:
    """CSV number format: 17 significant digits, '.' separator."""
    return format(float(value), ".17g")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> np.ndarray:
    """Inclusive grid ``a:b:n``: n points from a to b."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be 'a:b:n', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid must be 'a:b:n' with numeric fields: {exc}") from exc
    if n < 1:
        raise ConfigError(f"grid count must be >= 1, got {n}")
    return np.linspace(a, b, n)


def _check_keys(data: dict, allowed: set, what: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{what} has unknown key(s): {', '.join(unknown)}")
    units = data.get("units")
    if units is not None and units != EXPECTED_UNITS:
        raise ConfigError(
            f"{what} units must be {EXPECTED_UNITS} (content in frames, time in seconds)"
        )


def load_model_config(path: str) -> dict:
    """Parse and validate a model config file into a resolved snapshot."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model config {path}: {exc}") from exc
    return resolve_model_snapshot(data)


def resolve_model_snapshot(data: dict) -> dict:
    _check_keys(data, MODEL_KEYS, "model config")
    for key in ("Q", "lambda", "mu"):
        if key not in data:
            raise ConfigError(f"model config is missing required key {key!r}")
    model = validate_model(data["Q"], data["lambda"], data["mu"])
    if "states" in data and int(data["states"]) != model.n_states:
        raise ConfigError(
            f"states={data['states']} does not match Q of size {model.n_states}"
        )
    snapshot = {
        "states": model.n_states,
        "Q": model.Q.tolist(),
        "lambda": model.lam.tolist(),
        "mu": model.mu,
    }
    for key in ("x", "Z"):
        if key in data:
            snapshot[key] = float(data[key])
    return snapshot


def _model_from_snapshot(snapshot: dict) -> FluidModel:
    return validate_model(snapshot["Q"], snapshot["lambda"], snapshot["mu"])


def load_scenario_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario config {path}: {exc}") from exc
    _check_keys(data, SCENARIO_KEYS, "scenario config")
    for key in ("throughput", "frame_sizes", "alpha", "beta", "mu"):
        if key not in data:
            raise ConfigError(f"scenario config is missing required key {key!r}")
    spec = _scenario_from_snapshot(data)
    snapshot = {
        "throughput": list(spec.throughput),
        "frame_sizes": list(spec.frame_sizes),
        "alpha": spec.alpha,
        "beta": spec.beta,
        "mu": spec.mu,
        "delta_f": spec.delta_f,
        "mode": spec.mode,
    }
    for key in ("x", "Z"):
        if key in data:
            snapshot[key] = float(data[key])
    return snapshot


def _scenario_from_snapshot(data: dict) -> ScenarioSpec:
    return ScenarioSpec(
        throughput=tuple(data["throughput"]),
        frame_sizes=tuple(data["frame_sizes"]),
        alpha=float(data["alpha"]),
        beta=float(data["beta"]),
        mu=float(data["mu"]),
        delta_f=float(data.get("delta_f", 1.0)),
        mode=data.get("mode", "progressive"),
    )


def _resolve(value, snapshot: dict, key: str, what: str) -> float:
    if value is not None:
        return float(value)
    if key in snapshot:
        return float(snapshot[key])
    raise ConfigError(f"{what} must be given via --{key} or the config file")


def _parse_weights(text: str) -> CostWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--weights must be 'c1,c2,c3', got {text!r}")
    return CostWeights(*(float(p) for p in parts))


def _parse_inversion(text: str | None) -> InversionParams:
    if text is None:
        return DEFAULT_PARAMS
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--params must be 'l,m,n,A', got {text!r}")
    return InversionParams(l=int(parts[0]), m=int(parts[1]),
                           n=int(parts[2]), A=float(parts[3]))


# --- subcommand payload builders (pure: snapshot + args -> output text) -----

def _run_validate(snapshot: dict, args: dict) -> str:
    model = _model_from_snapshot(snapshot)
    report = mean_drift(model)
    return _json_text({
        "valid": True,
        "states": model.n_states,
        "stationary": report.pi.tolist(),
        "drift": report.drift,
        "stable": report.stable,
    })


def _run_starvation(snapshot: dict, args: dict) -> str:
    model = _model_from_snapshot(snapshot)
    x, Z = args["x"], args["Z"]
    params = SessionParams(x=x, Z=Z)
    inv = _parse_inversion(args.get("params"))
    horizon = Z / model.mu
    grid = (parse_grid(args["t_grid"]) if args.get("t_grid")
            else np.linspace(horizon / 50, horizon, 50))
    # the horizon goes first, so an inversion failure there is reported
    # before any on the grid, as when P_s was computed on its own
    H = starvation_cdf(model, x, np.append(horizon, grid), inv)
    p_s = starvation_probability_from_cdf(model, params, H[0])
    L = model.n_states
    header = ["t"] + [f"H_{i+1}{j+1}" for i in range(L) for j in range(L)] + ["P_s"]
    rows = [[t, *H_t.ravel(), p_s] for t, H_t in zip(grid, H[1:])]
    return _csv_text(header, rows)


def _run_startup(snapshot: dict, args: dict) -> str:
    model = _model_from_snapshot(snapshot)
    x = args["x"]
    inv = _parse_inversion(args.get("params"))
    mean = expected_startup_delay(model, x)
    grid = (parse_grid(args["t_grid"]) if args.get("t_grid")
            else np.linspace(mean / 10, 5 * mean, 50))
    L = model.n_states
    header = ["t"] + [f"U_{i+1}{j+1}" for i in range(L) for j in range(L)] + ["mean"]
    U = startup_delay_cdf(model, x, grid, inv)
    rows = [[t, *U_t.ravel(), mean] for t, U_t in zip(grid, U)]
    return _csv_text(header, rows)


def _run_events(snapshot: dict, args: dict) -> str:
    model = _model_from_snapshot(snapshot)
    params = SessionParams(x=args["x"], Z=args["Z"])
    inv = _parse_inversion(args.get("params"))
    pmf = starvation_count_pmf(model, params, j_max=int(args["jmax"]), inv=inv,
                               points_per_prefetch=int(args.get("grid") or 16))
    return _json_text({"pmf": pmf.p.tolist(), "tail": pmf.tail})


def _run_simulate(snapshot: dict, args: dict) -> str:
    model = _model_from_snapshot(snapshot)
    params = SessionParams(x=args["x"], Z=args["Z"])
    cfg = SimConfig(
        replications=int(args["reps"]),
        seed=int(args["seed"]),
        arrival_cap_mode="capped_at_Z" if args.get("cap") else "unbounded",
        initial_state_mode=args.get("initial_state", "stationary"),
    )
    stats = monte_carlo(model, params, cfg)
    return _json_text(stats.to_dict())


def _run_optimize(snapshot: dict, args: dict) -> tuple:
    spec = _scenario_from_snapshot({**snapshot, "mode": args.get("mode") or snapshot.get("mode", "progressive")})
    weights = _parse_weights(args["weights"])
    Z = args["Z"]
    x_grid = parse_grid(args["x_grid"])
    inv = _parse_inversion(args.get("params"))
    model = scenario_to_model(spec)
    quality = quality_loss_fraction(spec)
    report = optimize_threshold(model, Z, weights, x_grid,
                                quality_term=quality,
                                j_max=int(args.get("jmax") or 3), inv=inv)
    rows = [[x, c.expected_starvations, c.expected_startup, c.quality_term, c.total]
            for x, c in zip(report.x_grid, report.costs)]
    csv = _csv_text(["x", "starvations", "startup", "quality", "total"], rows)
    summary = _json_text({
        "best_x": report.best_x,
        "best_total": report.best_cost.total,
        "mode": spec.mode,
        "Z": Z,
    })
    return csv, summary


def _run_compare(snapshot: dict, args: dict) -> tuple:
    spec = _scenario_from_snapshot(snapshot)
    weights = _parse_weights(args["weights"])
    x = args["x"]
    Z_grid = parse_grid(args["z_grid"])
    inv = _parse_inversion(args.get("params"))
    report = compare_scenarios(spec, weights, Z_grid, x,
                               j_max=int(args.get("jmax") or 3), inv=inv)
    rows = []
    for Z, p, a in zip(report.Z_grid, report.progressive, report.adaptive):
        rows.append([Z, p.expected_starvations, p.expected_startup,
                     p.quality_term, p.total,
                     a.expected_starvations, a.expected_startup,
                     a.quality_term, a.total])
    csv = _csv_text(
        ["Z", "prog_starvations", "prog_startup", "prog_quality", "prog_total",
         "adap_starvations", "adap_startup", "adap_quality", "adap_total"],
        rows,
    )
    summary = _json_text({
        "crossover_Z": report.crossover_Z,
        "x": report.x,
        "weights": vars(weights),
    })
    return csv, summary


def _run_selftest(snapshot: dict, args: dict) -> str:
    report = self_test(_parse_inversion(args.get("params")))
    return _json_text(report.to_dict())


_RUNNERS = {
    "validate": _run_validate,
    "starvation": _run_starvation,
    "startup": _run_startup,
    "events": _run_events,
    "simulate": _run_simulate,
    "optimize": _run_optimize,
    "compare": _run_compare,
    "invert-selftest": _run_selftest,
}


def _tool_version() -> str:
    # imported here: only --out manifests need it, and it slows every start
    from importlib.metadata import version

    try:
        return version("fluidqoe")
    except Exception:
        return "unknown"


def _write_outputs(subcommand: str, snapshot: dict, args: dict,
                   payload, out: str | None) -> int:
    """Write or print results; files get a sibling run manifest."""
    two_part = isinstance(payload, tuple)
    if out is None:
        if two_part:
            sys.stdout.write(payload[0])
            sys.stderr.write(payload[1])
        else:
            sys.stdout.write(payload)
        return 0
    out_path = Path(out)
    outputs = []
    if two_part:
        out_path.write_text(payload[0], encoding="utf-8", newline="\n")
        summary_path = out_path.with_suffix(out_path.suffix + ".summary.json")
        summary_path.write_text(payload[1], encoding="utf-8", newline="\n")
        outputs = [str(out_path), str(summary_path)]
    else:
        out_path.write_text(payload, encoding="utf-8", newline="\n")
        outputs = [str(out_path)]
    manifest = {
        "subcommand": subcommand,
        "tool_version": _tool_version(),
        "config": snapshot,
        "args": args,
        "inversion": vars(_parse_inversion(args.get("params"))),
        "seed": args.get("seed"),
        "outputs": outputs,
    }
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    manifest_path.write_text(_json_text(manifest), encoding="utf-8", newline="\n")
    return 0


def rerun_manifest(manifest_path: str, out: str | None = None) -> int:
    """Re-execute a recorded run from its manifest.

    Deterministic subcommands reproduce their outputs byte for byte; ``out``
    overrides the original output path (the original is overwritten
    otherwise).
    """
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    sub = manifest["subcommand"]
    runner = _RUNNERS[sub]
    payload = runner(manifest["config"], manifest["args"])
    target = out if out is not None else manifest["outputs"][0]
    return _write_outputs(sub, manifest["config"], manifest["args"], payload, target)


# parse_args leaves the parser unchanged, so one parser serves every call
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidqoe",
        description="QoE analytics for streaming over a Markov-modulated fluid link",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, needs_model=True):
        if needs_model:
            p.add_argument("--config", required=True, help="model config JSON")
        p.add_argument("--out", help="output file (paired with a run manifest)")
        p.add_argument("--params", help="inversion parameters l,m,n,A")

    p = sub.add_parser("validate", help="validate a model config")
    add_common(p)

    p = sub.add_parser("starvation", help="starvation CDF and probability")
    add_common(p)
    p.add_argument("--x", type=float, help="prefetch threshold (frames)")
    p.add_argument("--Z", type=float, help="file size (frames)")
    p.add_argument("--t-grid", dest="t_grid", help="time grid a:b:n (seconds)")

    p = sub.add_parser("startup", help="start-up delay CDF and mean")
    add_common(p)
    p.add_argument("--x", type=float, help="prefetch threshold (frames)")
    p.add_argument("--t-grid", dest="t_grid", help="time grid a:b:n (seconds)")

    p = sub.add_parser("events", help="starvation-count distribution")
    add_common(p)
    p.add_argument("--x", type=float)
    p.add_argument("--Z", type=float)
    p.add_argument("--jmax", type=int, default=3)
    p.add_argument("--grid", type=int, help="grid points per prefetch interval")

    p = sub.add_parser("simulate", help="Monte Carlo session simulation")
    add_common(p)
    p.add_argument("--x", type=float)
    p.add_argument("--Z", type=float)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", action="store_true",
                   help="stop arrivals once Z frames have been delivered")
    p.add_argument("--initial-state", dest="initial_state",
                   help="'stationary' or a state index")

    p = sub.add_parser("optimize", help="optimize the prefetch threshold")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--out", help="output CSV (plus .summary.json)")
    p.add_argument("--params", help="inversion parameters l,m,n,A")
    p.add_argument("--weights", required=True, help="c1,c2,c3")
    p.add_argument("--x-grid", dest="x_grid", required=True, help="a:b:n")
    p.add_argument("--Z", type=float)
    p.add_argument("--mode", choices=["progressive", "adaptive"])
    p.add_argument("--jmax", type=int, default=3,
                   help="count truncation for the starvation term")

    p = sub.add_parser("compare", help="progressive vs adaptive cost over Z")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--out", help="output CSV (plus .summary.json)")
    p.add_argument("--params", help="inversion parameters l,m,n,A")
    p.add_argument("--weights", required=True, help="c1,c2,c3")
    p.add_argument("--Z-grid", dest="z_grid", required=True, help="a:b:n")
    p.add_argument("--x", type=float)
    p.add_argument("--jmax", type=int, default=3,
                   help="count truncation for the starvation term")

    p = sub.add_parser("invert-selftest", help="inversion accuracy report")
    p.add_argument("--out", help="output file")
    p.add_argument("--params", help="inversion parameters l,m,n,A")

    return parser


def _parse_initial_state(text: str | None):
    if text is None or text == "stationary":
        return "stationary"
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--initial-state must be 'stationary' or a "
                          f"state index, got {text!r}") from None


# How each subcommand resolves its arguments: the config flag it loads (or
# None), then the manifest args after "params", in the order they resolve.
_ARGUMENTS = {
    "validate": ("config", ()),
    "starvation": ("config", ("x", "Z", "t_grid")),
    "startup": ("config", ("x", "t_grid")),
    "events": ("config", ("x", "Z", "jmax", "grid")),
    "simulate": ("config", ("x", "Z", "reps", "seed", "cap", "initial_state")),
    "optimize": ("scenario", ("weights", "jmax", "x_grid", "Z", "mode")),
    "compare": ("scenario", ("weights", "jmax", "z_grid", "x")),
    "invert-selftest": (None, ()),
}

_LOADERS = {"config": load_model_config, "scenario": load_scenario_config}

# Args that are not copied from the command line as given; x and Z fall
# back to the config file.
_CONVERTERS = {
    "x": lambda value, snapshot: _resolve(value, snapshot, "x", "prefetch threshold"),
    "Z": lambda value, snapshot: _resolve(value, snapshot, "Z", "file size"),
    "cap": lambda value, snapshot: bool(value),
    "initial_state": lambda value, snapshot: _parse_initial_state(value),
}


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    ns = _build_parser().parse_args(argv)
    sub = ns.subcommand
    source, names = _ARGUMENTS[sub]
    snapshot = _LOADERS[source](getattr(ns, source)) if source else {}
    args = {"params": ns.params}
    for name in names:
        value = getattr(ns, name)
        convert = _CONVERTERS.get(name)
        args[name] = convert(value, snapshot) if convert else value
    payload = _RUNNERS[sub](snapshot, args)
    return _write_outputs(sub, snapshot, args, payload, ns.out)


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

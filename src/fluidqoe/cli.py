"""Command-line front end.

Subcommands: validate, starvation, startup, events, simulate, optimize,
compare, invert-selftest.  ``_SUBCOMMANDS`` is the one place a subcommand and
its flags are declared: the parser, the argument resolution and manifest
replay are all built from it.  Only the subcommands that run an inversion
take ``--params``.  Model and scenario descriptions are JSON files with
strictly validated keys and value types; a scenario's keys are the fields of
:class:`~fluidqoe.qoe.ScenarioSpec` (plus ``x``, ``Z`` and ``units``), and its
snapshot is the spec itself.  Numeric grids use the inclusive ``a:b:n``
notation (start, end, count).

Every result written with ``--out`` is paired with a run manifest (JSON)
recording the subcommand, the resolved configuration snapshot, tool version,
inversion parameters (the defaults where none are taken) and seed;
:func:`rerun_manifest` replays a manifest and reproduces the output byte for
byte for deterministic subcommands.

Exit codes: 0 success, 1 input/validation error (usage errors and malformed
flag or config values included), 2 numerical failure or an allocation the
machine cannot hold (``MemoryError``).  Anticipated errors
print a single diagnostic line on stderr, never a stack trace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import MISSING, asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, ValidationError
from .events import NODES_PER_PREFETCH, starvation_count_pmf
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
_SCENARIO_FIELDS = [f.name for f in fields(ScenarioSpec)]
SCENARIO_KEYS = {*_SCENARIO_FIELDS, "x", "Z", "units"}
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
    """Inclusive grid ``a:b:n``: n points from a to b (one point only when
    ``a == b``)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be 'a:b:n', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid must be 'a:b:n' with numeric fields: {exc}") from exc
    if n < 1:
        raise ConfigError(f"grid count must be >= 1, got {n}")
    if not np.isfinite([a, b]).all():
        raise ConfigError(f"grid bounds must be finite, got {text!r}")
    if n == 1 and a != b:
        raise ConfigError(f"a one-point grid cannot reach both ends, got {text!r}")
    return np.linspace(a, b, n)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# The JSON shape of each config value that is not a plain number ("units"
# is compared literally instead).
_SHAPES = {
    "states": ("a whole number",
               lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer())),
    "Q": ("a list of equal-length lists of numbers",
          lambda v: isinstance(v, list) and all(map(_is_numbers, v))
          and len({len(row) for row in v}) <= 1),
    "lambda": ("a list of numbers", _is_numbers),
    "throughput": ("a list of numbers", _is_numbers),
    "frame_sizes": ("a list of numbers", _is_numbers),
    "mode": ("a string", lambda v: isinstance(v, str)),
}


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _check_config(data, allowed: set, required: tuple, what: str) -> None:
    """Keys known, required keys present, units literal, values well typed."""
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
    for key in required:
        if key not in data:
            raise ConfigError(f"{what} is missing required key {key!r}")
    for key, value in data.items():
        shape, test = _SHAPES.get(key, ("a number", _is_number))
        if key != "units" and not test(value):
            raise ConfigError(f"{what} key {key!r} must be {shape}, got {value!r}")


def _with_defaults(snapshot: dict, data: dict) -> dict:
    """The config's default x and Z, which CLI flags override."""
    for key in ("x", "Z"):
        if key in data:
            snapshot[key] = float(data[key])
    return snapshot


def load_model_config(path: str) -> dict:
    """Parse and validate a model config file into a resolved snapshot."""
    return resolve_model_snapshot(_read_json(path, "model config"))


def resolve_model_snapshot(data: dict) -> dict:
    _check_config(data, MODEL_KEYS, ("Q", "lambda", "mu"), "model config")
    model = validate_model(data["Q"], data["lambda"], data["mu"])
    if "states" in data and data["states"] != model.n_states:
        raise ConfigError(
            f"states={data['states']} does not match Q of size {model.n_states}"
        )
    return _with_defaults({
        "states": model.n_states,
        "Q": model.Q.tolist(),
        "lambda": model.lam.tolist(),
        "mu": model.mu,
    }, data)


def _model_from_snapshot(snapshot: dict) -> FluidModel:
    return validate_model(snapshot["Q"], snapshot["lambda"], snapshot["mu"])


def load_scenario_config(path: str) -> dict:
    data = _read_json(path, "scenario config")
    required = tuple(f.name for f in fields(ScenarioSpec) if f.default is MISSING)
    _check_config(data, SCENARIO_KEYS, required, "scenario config")
    return _with_defaults(asdict(_scenario_from_snapshot(data)), data)


def _scenario_from_snapshot(data: dict) -> ScenarioSpec:
    return ScenarioSpec(**{key: data[key] for key in _SCENARIO_FIELDS if key in data})


def _resolve(value, snapshot: dict, key: str, what: str) -> float:
    if value is not None:
        return float(value)
    if key in snapshot:
        return float(snapshot[key])
    raise ConfigError(f"{what} must be given via --{key} or the config file")


def _parse_fields(text: str, name: str, form: str, kinds: tuple) -> list:
    """The comma-separated fields of flag ``--name``, each converted by its kind."""
    parts = text.split(",")
    if len(parts) != len(kinds):
        raise ConfigError(f"--{name} must be '{form}', got {text!r}")
    try:
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError as exc:
        raise ConfigError(f"--{name} must be '{form}' with numeric fields: {exc}") from None


def _parse_weights(text: str) -> CostWeights:
    return CostWeights(*_parse_fields(text, "weights", "c1,c2,c3", (float,) * 3))


def _parse_inversion(text: str | None) -> InversionParams:
    if text is None:
        return DEFAULT_PARAMS
    return InversionParams(*_parse_fields(text, "params", "l,m,n,A",
                                          (int, int, int, float)))


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
    # the default grid follows the mean to 12 digits, so that the last bits
    # of the exact mean do not move every time of the table
    scale = float(f"{mean:.12g}")
    grid = (parse_grid(args["t_grid"]) if args.get("t_grid")
            else np.linspace(scale / 10, 5 * scale, 50))
    L = model.n_states
    header = ["t"] + [f"U_{i+1}{j+1}" for i in range(L) for j in range(L)] + ["mean"]
    U = startup_delay_cdf(model, x, grid, inv)
    rows = [[t, *U_t.ravel(), mean] for t, U_t in zip(grid, U)]
    return _csv_text(header, rows)


def _run_events(snapshot: dict, args: dict) -> str:
    model = _model_from_snapshot(snapshot)
    params = SessionParams(x=args["x"], Z=args["Z"])
    inv = _parse_inversion(args.get("params"))
    # manifests written while events took --grid record it (null when unset)
    if args.get("grid") not in (None, NODES_PER_PREFETCH):
        raise ConfigError(f"--grid {args['grid']} cannot be replayed: the count grid "
                          f"has {NODES_PER_PREFETCH} nodes per prefetch interval")
    pmf = starvation_count_pmf(model, params, j_max=int(args["jmax"]), inv=inv)
    return _json_text({"pmf": pmf.p.tolist(), "tail": pmf.tail})


def _run_simulate(snapshot: dict, args: dict) -> str:
    model = _model_from_snapshot(snapshot)
    params = SessionParams(x=args["x"], Z=args["Z"])
    cfg = SimConfig(
        replications=int(args["reps"]),
        seed=int(args["seed"]),
        initial_state_mode=args.get("initial_state", "stationary"),
    )
    stats = monte_carlo(model, params, cfg)
    return _json_text(stats.to_dict())


def _run_optimize(snapshot: dict, args: dict) -> tuple:
    spec = _scenario_from_snapshot(snapshot)
    spec = replace(spec, mode=args.get("mode") or spec.mode)
    weights = _parse_weights(args["weights"])
    Z = args["Z"]
    x_grid = parse_grid(args["x_grid"])
    inv = _parse_inversion(args.get("params"))
    model = scenario_to_model(spec)
    quality = quality_loss_fraction(spec)
    report = optimize_threshold(model, Z, weights, x_grid,
                                quality_term=quality, inv=inv)
    rows = [[x, *astuple(c)] for x, c in zip(report.x_grid, report.costs)]
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
    report = compare_scenarios(spec, weights, Z_grid, x, inv=inv)
    rows = [[Z, *astuple(p), *astuple(a)]
            for Z, p, a in zip(report.Z_grid, report.progressive, report.adaptive)]
    csv = _csv_text(
        ["Z", "prog_starvations", "prog_startup", "prog_quality", "prog_total",
         "adap_starvations", "adap_startup", "adap_quality", "adap_total"],
        rows,
    )
    summary = _json_text({
        "crossover_Z": report.crossover_Z,
        "x": report.x,
        "weights": asdict(weights),
    })
    return csv, summary


def _run_selftest(snapshot: dict, args: dict) -> str:
    report = self_test(_parse_inversion(args.get("params")))
    return _json_text(report.to_dict())


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
    texts = payload if isinstance(payload, tuple) else (payload,)
    if out is None:
        # a summary, the second part of optimize and compare, goes to stderr
        for stream, text in zip((sys.stdout, sys.stderr), texts):
            stream.write(text)
        return 0
    out_path = Path(out)
    paths = [out_path, out_path.with_suffix(out_path.suffix + ".summary.json")][:len(texts)]
    manifest = {
        "subcommand": subcommand,
        "tool_version": _tool_version(),
        "config": snapshot,
        "args": args,
        "inversion": asdict(_parse_inversion(args.get("params"))),
        "seed": args.get("seed"),
        "outputs": [str(path) for path in paths],
    }
    paths.append(out_path.with_suffix(out_path.suffix + ".manifest.json"))
    try:
        for path, text in zip(paths, [*texts, _json_text(manifest)]):
            path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out files: {exc}") from None
    return 0


def rerun_manifest(manifest_path: str, out: str | None = None) -> int:
    """Re-execute a recorded run from its manifest.

    Deterministic subcommands reproduce their outputs byte for byte; ``out``
    overrides the original output path (the original is overwritten
    otherwise).  A manifest that cannot be read, is not a JSON object of a
    known subcommand, or lacks a recorded field raises :class:`ConfigError`
    naming the manifest.
    """
    manifest = _read_json(manifest_path, "run manifest")
    sub = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if not isinstance(sub, str) or sub not in _SUBCOMMANDS:
        raise ConfigError(f"run manifest {manifest_path} names no known "
                          f"subcommand: {sub!r}")
    missing = [key for key in ("config", "args", "outputs") if key not in manifest]
    if missing:
        raise ConfigError(f"run manifest {manifest_path} is missing "
                          f"{', '.join(missing)}")
    try:
        payload = _SUBCOMMANDS[sub][0](manifest["config"], manifest["args"])
    except KeyError as exc:
        raise ConfigError(f"run manifest {manifest_path} is missing the recorded "
                          f"field {exc.args[0]!r}") from None
    target = out if out is not None else manifest["outputs"][0]
    return _write_outputs(sub, manifest["config"], manifest["args"], payload, target)


def _parse_initial_state(text: str):
    if text == "stationary":
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--initial-state must be 'stationary' or a "
                          f"state index, got {text!r}") from None


_LOADERS = {"config": (load_model_config, "model config JSON"),
            "scenario": (load_scenario_config, "scenario config JSON")}

_PARAMS = ("--params", {"help": "inversion parameters l,m,n,A"})
_X = ("--x", {"type": float, "help": "prefetch threshold (frames)"})
_Z = ("--Z", {"type": float, "help": "file size (frames)"})
_T_GRID = ("--t-grid", {"help": "time grid a:b:n (seconds)"})
_JMAX = ("--jmax", {"type": int, "default": 3, "help": "starvation-count truncation"})
# the cost counts every starvation the file allows; --jmax stays accepted
# (and recorded) so that older command lines still run
_JMAX_IGNORED = ("--jmax", {"type": int, "default": 3, "help": "ignored"})
_WEIGHTS = ("--weights", {"required": True, "help": "cost weights c1,c2,c3"})

# The one place a subcommand and its flags are declared, as
#   name: (runner, the config flag it loads or None, help line,
#          (flag, argparse keyword arguments) in the order they resolve);
# every subcommand also takes --out, and those that invert take _PARAMS.
_SUBCOMMANDS = {
    "validate": (_run_validate, "config", "validate a model config", ()),
    "starvation": (_run_starvation, "config", "starvation CDF and probability",
                   (_PARAMS, _X, _Z, _T_GRID)),
    "startup": (_run_startup, "config", "start-up delay CDF and mean",
                (_PARAMS, _X, _T_GRID)),
    "events": (_run_events, "config", "starvation-count distribution",
               (_PARAMS, _X, _Z, _JMAX)),
    "simulate": (_run_simulate, "config", "Monte Carlo session simulation", (
        _X, _Z,
        ("--reps", {"type": int, "default": 10000}),
        ("--seed", {"type": int, "default": 0}),
        ("--initial-state", {"type": _parse_initial_state, "default": "stationary",
                             "help": "'stationary' or a state index"}),
    )),
    "optimize": (_run_optimize, "scenario", "optimize the prefetch threshold", (
        _PARAMS, _WEIGHTS, _JMAX_IGNORED,
        ("--x-grid", {"required": True, "help": "thresholds a:b:n (frames)"}),
        _Z,
        ("--mode", {"choices": ["progressive", "adaptive"]}),
    )),
    "compare": (_run_compare, "scenario", "progressive vs adaptive cost over Z", (
        _PARAMS, _WEIGHTS, _JMAX_IGNORED,
        ("--Z-grid", {"dest": "z_grid", "required": True, "help": "file sizes a:b:n (frames)"}),
        _X,
    )),
    "invert-selftest": (_run_selftest, None, "inversion accuracy report", (_PARAMS,)),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 with one line, no usage text."""

    def error(self, message):
        raise ConfigError(message)


# parse_args leaves the parser unchanged, so one parser serves every call
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluidqoe",
        description="QoE analytics for streaming over a Markov-modulated fluid link",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, source, help_line, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if source:
            p.add_argument(f"--{source}", required=True, help=_LOADERS[source][1])
        p.add_argument("--out", help="output file, paired with a run manifest "
                                     "(optimize and compare add a .summary.json)")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


# Args that are not copied from the command line as given; x and Z fall
# back to the config file.
_CONVERTERS = {
    "x": lambda value, snapshot: _resolve(value, snapshot, "x", "prefetch threshold"),
    "Z": lambda value, snapshot: _resolve(value, snapshot, "Z", "file size"),
}


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    ns = _build_parser().parse_args(argv)
    run, source, _, arguments = _SUBCOMMANDS[ns.subcommand]
    snapshot = _LOADERS[source][0](getattr(ns, source)) if source else {}
    args = {}
    for flag, kwargs in arguments:
        name = kwargs.get("dest", flag[2:].replace("-", "_"))  # argparse's dest
        value = getattr(ns, name)
        convert = _CONVERTERS.get(name)
        args[name] = convert(value, snapshot) if convert else value
    payload = run(snapshot, args)
    return _write_outputs(ns.subcommand, snapshot, args, payload, ns.out)


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy raises a private subclass; the line names the builtin
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

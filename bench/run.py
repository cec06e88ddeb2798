"""fluidqoe benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload curves2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/``; without it the script exits 2 before printing a
result.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the output digest, the failures by class and what
the workload's known-defect inputs (kept out of the timed ops) gave.

``--trace 0`` (closed loop, one op at a time, library defaults):

* ``setup_s``: median over fresh interpreters of importing fluidqoe,
  building the workload's first pass and running one warm-up op of each kind;
* the workload's prologue, then whole passes until the passes' ops have
  been busy for ``--seconds`` and at least 100 ops have run;
* ``ops_per_s`` and ``sessions_per_s`` are medians over the passes; the
  latency percentiles count every op, the prologue's too;
* outputs are checked afterwards, and the first ops are replayed to check
  that they reproduce their digests.

``--trace 1`` runs the prologue and pass 0 untraced, then with every
public package function wrapped, then untraced again, and reports per-layer
counts and self times plus the tracing overhead (traced wall minus the mean
untraced wall).  Spans are written to
``bench/out/trace-<workload>-<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# numpy and fluidqoe are imported inside functions, so that a set-up probe
# times their import.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 9
REPLAY_OPS = 6
MIN_OPS = 100  # op_p90_ms needs ten samples beyond it
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "FLUIDQOE_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("curves2", "generic3", "counts", "sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up in this interpreter and print it")
    return parser.parse_args(argv)


def setup(workload: str, seed: int, fq, workloads, workdir: Path):
    """Build the prologue and pass 0, then run one warm-up op of each kind."""
    first = workloads.prologue(workload, seed, fq, workdir)
    pass0 = workloads.make_pass(workload, seed, 0, fq, workdir)
    for op in workloads.warmup(workload, fq, workdir):
        workloads.execute(op, fq)
    return first, pass0


def setup_probe(args) -> int:
    start = time.perf_counter()
    import fluidqoe as fq
    import fluidqoe.cli  # noqa: F401  (the CLI ops run fluidqoe.cli.main)
    import workloads
    with tempfile.TemporaryDirectory(dir=OUT, prefix="probe-") as tmp:
        setup(args.workload, args.seed, fq, workloads, Path(tmp))
        print(repr(time.perf_counter() - start))
    return 0


def measure_setup(args) -> list:
    """Set-up seconds, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_op(op, fq, workloads):
    """Execute and time one op; returns (seconds, summary)."""
    start = time.perf_counter()
    try:
        outcome = workloads.execute(op, fq)
    except Exception as exc:  # a crash is a failed op, not a dead benchmark
        outcome = workloads.Outcome(error=type(exc).__name__, message=repr(exc))
    elapsed = time.perf_counter() - start
    return elapsed, workloads.summarize(op, outcome)


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec["digest"].encode())
    return h.hexdigest()


def check_all(ops, records, fq, checks, analytic_upto: int):
    """Run the output checks; returns (run problems, failure class per op,
    checks that could not be made, by name)."""
    problems, failures, skipped = [], [], Counter()
    for i, (op, rec) in enumerate(zip(ops, records)):
        try:
            run_problems, invalid, skip = checks.check(op, rec, fq,
                                                       analytic=i < analytic_upto)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            run_problems, invalid, skip = [f"unreadable output: {exc!r}"], None, None
        problems += [f"op {i} ({op.kind}): {p}" for p in run_problems]
        failures.append(rec["error"] or invalid)
        if skip:
            skipped[skip] += 1
    return problems, failures, dict(skipped)


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def environment() -> dict:
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "fluidqoe").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def cpu_steal_s():
    """Seconds the hypervisor took from this machine's CPUs (Linux), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def timed_run(args, fq, workloads, checks, workdir: Path):
    setup_samples = measure_setup(args)
    first, batch = setup(args.workload, args.seed, fq, workloads, workdir)
    n_prologue = len(first)
    n_first = n_prologue + len(batch)
    ops, records, latencies = [], [], []
    passes = []  # (first op, end op, busy seconds) of each pass

    def run_batch(batch) -> tuple:
        start, busy = len(ops), 0.0
        for op in batch:
            elapsed, rec = run_op(op, fq, workloads)
            ops.append(op)
            records.append(rec)
            latencies.append(elapsed)
            busy += elapsed
        return start, len(ops), busy

    steal, cpu = cpu_steal_s(), time.process_time()
    run_batch(first)  # the prologue is timed but is not a pass
    passes.append(run_batch(batch))
    while sum(p[2] for p in passes) < args.seconds or len(ops) < MIN_OPS:
        passes.append(run_batch(workloads.make_pass(args.workload, args.seed, len(passes),
                                                    fq, workdir)))
    cpu = time.process_time() - cpu
    steal = None if steal is None else cpu_steal_s() - steal

    problems, failures, skipped = check_all(ops, records, fq, checks, analytic_upto=n_first)
    for i in range(n_prologue, min(n_prologue + REPLAY_OPS, n_first)):
        if run_op(ops[i], fq, workloads)[1]["digest"] != records[i]["digest"]:
            problems.append(f"op {i} ({ops[i].kind}) did not reproduce its output")

    failed = sum(f is not None for f in failures)
    latencies_ms = [t * 1e3 for t in latencies]
    # throughput is the median over passes: every pass carries the same mix,
    # so a burst of host contention moves one pass and not the metric
    pass_ops_per_s = [(b - a) / t for a, b, t in passes]
    pass_sessions_per_s = [
        sum(op.sessions for op, f in zip(ops[a:b], failures[a:b]) if f is None) / t
        for a, b, t in passes]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": statistics.median(pass_ops_per_s),
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p90_ms": percentile(latencies_ms, 90),
        "sessions_per_s": statistics.median(pass_sessions_per_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "digest": digest(records[:n_first]),
        "passes": len(passes),
        "busy_s": sum(latencies),
        "cpu_s": cpu,
        "steal_s": steal,
        "setup_samples_s": setup_samples,
        "p50_ms_by_kind": {kind: percentile([t for op, t in zip(ops, latencies_ms)
                                             if op.kind == kind], 50)
                           for kind in dict.fromkeys(op.kind for op in ops)},
        "ops_by_kind": dict(Counter(op.kind for op in ops)),
        "failures_by_class": dict(Counter(f for f in failures if f)),
        "checks_skipped": skipped,
    }
    return problems, len(ops), failed, values, info


def traced_run(args, fq, workloads, checks, tracer_mod, workdir: Path):
    first, pass0 = setup(args.workload, args.seed, fq, workloads, workdir)
    ops = first + pass0

    def untraced_pass():
        start = time.perf_counter()
        plain = digest([run_op(op, fq, workloads)[1] for op in ops])
        return time.perf_counter() - start, plain

    before, plain_before = untraced_pass()
    tracer = tracer_mod.Tracer()
    records = []
    start = time.perf_counter()
    with tracer_mod.recording(tracer):
        for i, op in enumerate(ops):
            tracer.op = i
            records.append(run_op(op, fq, workloads)[1])
    traced = time.perf_counter() - start
    after, plain_after = untraced_pass()  # bracket the traced pass against drift

    problems, failures, skipped = check_all(ops, records, fq, checks, analytic_upto=len(ops))
    if not digest(records) == plain_before == plain_after:
        problems.append("traced outputs differ from untraced outputs")
    untraced = (before + after) / 2
    values = tracer.layer_metrics()
    values["trace.untraced_ms"] = untraced * 1e3
    values["trace.overhead_ms"] = (traced - untraced) * 1e3
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json.gz"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                              "ops": [op.kind for op in ops], "metrics": values})
    info = {
        "digest": digest(records),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "warnings": tracer.warning_table(),
        "errors": tracer.error_table(),
        "failures_by_class": dict(Counter(f for f in failures if f)),
        "checks_skipped": skipped,
    }
    failed = sum(f is not None for f in failures)
    return problems, len(ops), failed, values, info


def probe_known_defects(args, fq, workloads, checks, workdir: Path) -> dict:
    """Failure class (or "none") of each of the workload's known-defect ops."""
    found = {}
    for name, op in workloads.known_defects(args.workload, fq, workdir).items():
        rec = run_op(op, fq, workloads)[1]
        found[name] = rec["error"] or checks.check(op, rec, fq)[1] or "none"
    return found


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fluidqoe" / "__init__.py").is_file():
        print(f"no fluidqoe package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import fluidqoe as fq
    import fluidqoe.cli  # noqa: F401
    import checks
    import tracer as tracer_mod
    import workloads
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        if args.trace:
            result = traced_run(args, fq, workloads, checks, tracer_mod, workdir)
        else:
            result = timed_run(args, fq, workloads, checks, workdir)
        defects = probe_known_defects(args, fq, workloads, checks, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems, attempted, failed, values, info = result
    spec = load_spec()["per_layer" if args.trace else "end_to_end"]

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **info, "known_defects": defects,
            "problems": problems[:20],
            "environment": environment()}
    payload = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"info": info, "result": payload}, indent=1) + "\n",
                            encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its tolerance and runtime (run with ``pytest -s`` to see
the lines as they complete)."""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from fluidqoe import (
    SessionParams,
    SimConfig,
    mean_drift,
    mean_playback_time,
    monte_carlo,
    prefetch_times,
    self_test,
    starvation_count_pmf,
    starvation_probability,
    startup_delay_cdf,
    startup_transform,
    stationary_distribution,
    transform_matrix,
    validate_model,
)
from fluidqoe.cli import main as cli_main, rerun_manifest
from fluidqoe.simulator import _lockstep
from fluidqoe.spectral import OMEGA_FLOOR
from conftest import two_state, two_state_quadratic

REFERENCE = validate_model([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0)
ONOFF = validate_model([[-1.0, 1.0], [4.0, -4.0]], [30.0, 0.0], 25.0)


def report(criterion, passed, elapsed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({elapsed:.1f}s) {detail}")
    assert passed


def test_criterion_1_inversion_accuracy():
    """Max inversion error on the damped-sine pair < 1e-6 over t in 0.1..5."""
    start = time.perf_counter()
    rep = self_test()
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.max_abs_error < 1e-6 and elapsed < 1.0
    report(1, ok, elapsed, f"max_error={rep.max_abs_error:.2e}")


def test_criterion_2_closed_form_generic_equivalence():
    """Two-state closed forms vs the shipped transforms to 1e-10 on
    real/imaginary rays: the explicit quadratic's starvation transform vs
    ``transform_matrix``, the engine's scalar Riccati root, and scipy's matrix
    exponential of the level generator vs the start-up transform."""
    start = time.perf_counter()
    cases = [
        two_state(alpha=2, beta=6, lambda1=2, lambda2=30, mu=25),
        two_state(alpha=2, beta=6, lambda1=30, lambda2=2, mu=25),
        two_state(alpha=2, beta=6, lambda1=2, lambda2=20, mu=25),
        two_state(alpha=1, beta=4, lambda1=30, lambda2=0, mu=25),
    ]
    mags = np.geomspace(0.01, 10.0, 25)
    omegas = np.concatenate([mags, 1j * mags, -1j * mags])
    worst = 0.0
    for m in cases:
        for x in (0.0, 7.0):
            closed = two_state_quadratic(m, x, omegas)
            shipped = transform_matrix(m, x, omegas)
            worst = max(worst, np.max(np.abs(closed - shipped)))
        if np.all(m.lam > 0):
            closed = startup_transform(m, 7.0, omegas)
            for i, om in enumerate(omegas):
                generic = scipy.linalg.expm(7.0 * (m.Q - om * np.eye(2)) / m.lam[:, None])
                worst = max(worst, np.max(np.abs(closed[i] - generic)))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-10 and elapsed < 5.0, elapsed, f"worst_gap={worst:.2e}")


def test_criterion_3_root_sign_placement():
    """The shipped transform ``transform_matrix`` on 200 random models with 2,
    3 or 4 states: at real ``w > 0`` the columns of non-draining states are
    exactly zero, the draining ones nonzero, every entry in [0, 1] and every
    row sum at most 1 and decreasing in ``w`` and ``x``; at ``w = 0`` under
    negative drift the row sums are ``1 - OMEGA_FLOOR D.sum(1)`` to 1e-9.

    The thresholds are 1, ``x`` and ``2 x``: from a large threshold a
    positive-drift source with a slow draining state starves with a
    probability below the smallest double, so its draining columns can be
    exactly 0 there; at 1 they are not."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for _ in range(200):
        L = int(rng.integers(2, 5))
        Q = rng.uniform(0.2, 8.0, (L, L))
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        lam = rng.uniform(0.0, 50.0, L)
        mu = rng.uniform(5.0, 45.0)
        if rng.random() < 0.1:
            lam[rng.integers(L)] = mu  # a zero-rate state
        m = validate_model(Q, lam, mu)
        x = rng.uniform(1.0, 80.0)
        omegas = np.sort(rng.uniform(1e-3, 10.0, 4))
        H = np.stack([transform_matrix(m, y, omegas) for y in (1.0, x, 2 * x)])
        draining = m.lam < m.mu
        ok &= np.all(H.imag == 0.0)
        ok &= np.all(H[..., ~draining] == 0.0)
        ok &= np.array_equal(np.any(H != 0.0, axis=(0, 1, 2)), draining)
        ok &= np.all((H.real >= 0.0) & (H.real <= 1.0))
        rows = H.real.sum(axis=-1)
        ok &= np.all(rows <= 1.0)
        ok &= np.all(np.diff(rows, axis=0) <= 0.0) and np.all(np.diff(rows, axis=1) <= 0.0)
        if mean_drift(m).drift < 0:
            D = mean_playback_time(m, x).D
            gap = np.max(np.abs(transform_matrix(m, x, 0.0).real.sum(axis=1)
                                - (1.0 - OMEGA_FLOOR * D.sum(axis=1))))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(3, ok and worst < 1e-9 and elapsed < 5.0, elapsed, f"worst_gap_at_w0={worst:.2e}")


def test_criterion_4_starvation_probability_vs_simulator():
    """|analytic - Monte Carlo(1e5)| <= CI half-width + 0.01 on the x,Z grid."""
    start = time.perf_counter()
    worst = -np.inf
    ok = True
    for x in (20.0, 40.0, 80.0, 160.0):
        for Z in (250.0, 500.0, 1000.0):
            params = SessionParams(x=x, Z=Z)
            analytic = starvation_probability(REFERENCE, params)
            stats = monte_carlo(REFERENCE, params,
                                SimConfig(replications=100_000, seed=404))
            gap = abs(analytic - stats.starvation_probability.mean)
            bound = stats.starvation_probability.ci_half + 0.01
            worst = max(worst, gap - bound)
            ok &= gap <= bound
            ok &= stats.starvation_probability.ci_half < 0.005
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 120.0, elapsed, f"worst_margin={worst:+.4f}")


def test_criterion_5_startup_delay_cdf():
    """Analytic start-up CDF within 2pp of the empirical law at 10 quantiles,
    stochastically ordered in the threshold."""
    from fluidqoe import InversionParams

    start = time.perf_counter()
    pi = stationary_distribution(REFERENCE)
    quantiles = np.arange(0.05, 1.0, 0.10)
    ok = True
    worst = 0.0
    curves = {}
    t_probe = np.linspace(0.5, 12.0, 24)
    # the 1e-7 ordering band needs the kink resonances of the Euler series
    # averaged out harder than the default order-11 operating point does
    sharp = InversionParams(l=1, m=25, n=70, A=18.4)
    for x in (20.0, 50.0, 100.0):
        delays, _ = prefetch_times(REFERENCE, x,
                                   SimConfig(replications=100_000, seed=505))
        t_q = np.quantile(delays, quantiles)
        for q, t in zip(quantiles, t_q):
            analytic = float(pi @ startup_delay_cdf(REFERENCE, x, float(t)).sum(axis=1))
            empirical = float((delays <= t).mean())
            worst = max(worst, abs(analytic - empirical))
            ok &= abs(analytic - empirical) <= 0.02
        curves[x] = np.array(
            [float(pi @ startup_delay_cdf(REFERENCE, x, float(t), sharp).sum(axis=1))
             for t in t_probe]
        )
    ok &= np.all(curves[50.0] <= curves[20.0] + 1e-7)
    ok &= np.all(curves[100.0] <= curves[50.0] + 1e-7)
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 60.0, elapsed, f"worst_gap={worst:.4f}")


def test_criterion_6_starvation_count_distribution():
    """Count distribution: mass accounting, simulator agreement, and the
    rise-then-decay of P(1), P(2) in the file size."""
    start = time.perf_counter()
    golden = SessionParams(x=40.0, Z=1000.0)
    pmf = starvation_count_pmf(ONOFF, golden, j_max=3)
    mass = float(pmf.p.sum() + pmf.tail)
    ok = 0.98 <= mass <= 1.02

    stats = monte_carlo(ONOFF, golden, SimConfig(replications=100_000, seed=606))
    hist = stats.count_histogram
    for j in range(3):
        ci = 1.96 * np.sqrt(hist[j] * (1.0 - hist[j]) / stats.replications)
        ok &= abs(pmf.p[j] - hist[j]) <= max(0.02, ci)

    p1, p2 = [], []
    for Z in (150.0, 300.0, 600.0, 1200.0, 2400.0, 4800.0):
        sweep = starvation_count_pmf(ONOFF, SessionParams(x=40.0, Z=Z), j_max=10)
        p1.append(sweep.p[1])
        p2.append(sweep.p[2])
    for curve in (np.array(p1), np.array(p2)):
        peak = int(np.argmax(curve))
        ok &= 0 < peak < curve.size - 1      # interior maximum: rises, then falls
        ok &= curve[-1] < 0.75 * curve[peak]  # and is well on its way to zero
        ok &= curve[0] < 0.75 * curve[peak]
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 300.0, elapsed,
           f"mass={mass:.4f} P1_path={np.round(p1, 3).tolist()}")


def test_criterion_7_monotonicity_sweeps():
    """P_s falls in the threshold (to < 0.01) and rises in the file size."""
    start = time.perf_counter()
    x_grid = np.linspace(5.0, 160.0, 30)
    ps_x = np.array(
        [starvation_probability(REFERENCE, SessionParams(x=float(x), Z=500.0))
         for x in x_grid]
    )
    ok = bool(np.all(np.diff(ps_x) <= 1e-7))
    ok &= ps_x[-1] < 0.01

    z_grid = np.linspace(100.0, 1000.0, 10)
    ps_z = np.array(
        [starvation_probability(REFERENCE, SessionParams(x=40.0, Z=float(Z)))
         for Z in z_grid]
    )
    ok &= bool(np.all(np.diff(ps_z) >= -1e-7))
    elapsed = time.perf_counter() - start
    report(7, ok and elapsed < 120.0, elapsed,
           f"P_s(x_max)={ps_x[-1]:.4f} P_s range in Z=({ps_z[0]:.3f},{ps_z[-1]:.3f})")


def test_criterion_8_cost_crossover():
    """Bitrate-scenario cost: adaptive dominates without a quality weight;
    with one, a finite crossover exists and moves out as the weight grows."""
    from fluidqoe import CostWeights, ScenarioSpec, compare_scenarios

    start = time.perf_counter()
    spec = ScenarioSpec(throughput=(200_000.0, 400_000.0),
                        frame_sizes=(10_000.0, 20_000.0),
                        alpha=1.0, beta=3.0, mu=17.75)
    Z_grid = [100.0, 250.0, 500.0, 800.0, 1200.0, 1600.0, 2000.0]
    x = 20.0

    free = compare_scenarios(spec, CostWeights(1.0, 0.1, 0.0), Z_grid, x)
    ok = all(a.total <= p.total for p, a in zip(free.progressive, free.adaptive))

    z1 = compare_scenarios(spec, CostWeights(1.0, 0.1, 1.0), Z_grid, x)
    z15 = compare_scenarios(spec, CostWeights(1.0, 0.1, 1.5), Z_grid, x)
    ok &= z1.crossover_Z is not None and z1.crossover_Z <= 2000.0
    ok &= z15.crossover_Z is not None and z15.crossover_Z <= 2000.0
    ok &= z15.crossover_Z >= z1.crossover_Z
    elapsed = time.perf_counter() - start
    report(8, ok and elapsed < 180.0, elapsed,
           f"Z*(1.0)={z1.crossover_Z} Z*(1.5)={z15.crossover_Z}")


def test_criterion_9_determinism(tmp_path):
    """Manifest reruns are byte-identical; simulator output is independent of
    how replications are batched."""
    start = time.perf_counter()
    config = tmp_path / "model.json"
    config.write_text(json.dumps({
        "Q": [[-6, 6], [2, -2]], "lambda": [2, 30], "mu": 25, "x": 40, "Z": 500,
    }))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "throughput": [200000, 400000], "frame_sizes": [10000, 20000],
        "alpha": 1.0, "beta": 3.0, "mu": 17.75, "x": 20, "Z": 400,
    }))
    ok = True
    for argv, name in [
        (["validate", "--config", str(config)], "validate.json"),
        (["starvation", "--config", str(config), "--t-grid", "2:20:6"], "starv.csv"),
        (["startup", "--config", str(config), "--t-grid", "1:8:6"], "startup.csv"),
        (["events", "--config", str(config), "--jmax", "3"], "events.json"),
        (["simulate", "--config", str(config), "--reps", "5000", "--seed", "99"],
         "sim.json"),
        (["optimize", "--scenario", str(scenario), "--weights", "0,1,0",
          "--x-grid", "10:40:3"], "opt.csv"),
        (["compare", "--scenario", str(scenario), "--weights", "0,0.1,1",
          "--Z-grid", "200:400:2"], "cmp.csv"),
        (["invert-selftest"], "selftest.json"),
    ]:
        out = tmp_path / name
        code = cli_main(argv + ["--out", str(out)])
        ok &= code == 0
        original = out.read_bytes()
        replay = tmp_path / f"replay_{name}"
        rerun_manifest(str(out) + ".manifest.json", str(replay))
        ok &= replay.read_bytes() == original
        summary = out.parent / (out.name + ".summary.json")
        if summary.exists():
            replay_summary = replay.parent / (replay.name + ".summary.json")
            ok &= replay_summary.read_bytes() == summary.read_bytes()

    # replications [0, n) in one engine call equal the calls over [0, k)
    # and [k, n) joined, in every phase
    cfg = SimConfig(replications=20_000, seed=909)
    for phase, limit in (("session", 500.0), ("fill", np.inf), ("drain", 20.0)):
        whole = _lockstep(REFERENCE, phase, 40.0, limit, cfg)
        parts = [_lockstep(REFERENCE, phase, 40.0, limit, cfg, lo, hi)
                 for lo, hi in ((0, 7_001), (7_001, 20_000))]
        for key, value in whole.items():
            if value is not None:
                ok &= bool(np.array_equal(
                    value, np.concatenate([p[key] for p in parts]), equal_nan=True))
    elapsed = time.perf_counter() - start
    report(9, ok, elapsed)

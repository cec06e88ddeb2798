import functools

import numpy as np
import pytest

from fluidqoe import (
    DomainError,
    ScenarioSpec,
    SessionParams,
    SimConfig,
    monte_carlo,
    simulate_session,
    starvation_count_pmf,
    starvation_probability,
    validate_model,
)
from fluidqoe import events, starvation
from fluidqoe.inversion import DEFAULT_PARAMS, invert, invert_cdf
from fluidqoe.model import stationary_distribution
from fluidqoe.qoe import scenario_to_model
from fluidqoe.spectral import transform_matrix
from fluidqoe.starvation import starvation_atoms
from fluidqoe.startup import prefetch_end_distribution


@pytest.fixture(scope="module")
def onoff_session():
    return SessionParams(x=40.0, Z=1000.0)


def _trapezoid_weights(n_nodes, step):
    if n_nodes <= 1:
        return np.zeros(max(n_nodes, 0))
    w = np.full(n_nodes, step)
    w[0] = w[-1] = step / 2
    return w


def _reference_chain_step(f, grid, lower_gate, upper_idx):
    """One continuation step, node by node: the next starvation at ``g2``
    integrates ``f[g1] kernel[g2 - g1]`` over ``g1 in [lower_gate, g2 - ix]``."""
    ix = events.NODES_PER_PREFETCH
    new = np.zeros_like(f)
    for g2 in range(lower_gate + ix, min(grid.n_t, int(np.ceil(upper_idx)))):
        hi = g2 - ix
        w = _trapezoid_weights(hi - lower_gate + 1, grid.step)
        ker = grid.kernel[ix:g2 - lower_gate + 1][::-1]
        new[g2] = np.einsum("n,nj,njm->m", w, f[lower_gate:hi + 1], ker)
    return new


def _reference_pmf(model, params, j_max, grid):
    """Count pmf with one chain per count, each step cut by that count's
    support bound (the ``l``-th of ``j`` starvations leaves room for
    ``j - l - 1`` more), and the tail from a separate uncut chain whose
    closures beyond ``j_max`` are summed until no starvation fits."""
    ix = events.NODES_PER_PREFETCH
    iz = grid.Z / (grid.mu * grid.step)
    hi = min(grid.n_t - 1, int(np.ceil(iz)) - 1)
    certain = grid.mu * grid.t >= grid.Z - grid.x
    node = np.arange(grid.n_t)
    first = np.where(((node < ix) | (node >= iz))[:, None], 0.0, grid.first_density)

    def chain(steps, cut):
        f = first
        for l in range(1, steps + 1):
            f = _reference_chain_step(f, grid, l * ix, cut(l))
        return f

    def close(f, j):
        lo = j * ix
        if hi <= lo:
            return 0.0
        closure = np.empty((hi - lo + 1, f.shape[1]))
        for offset, g in enumerate(range(lo, hi + 1)):
            closure[offset] = 1.0 if certain[g] else grid.survive[g]
        w = _trapezoid_weights(hi - lo + 1, grid.step)
        return np.einsum("n,nj,nj->", w, f[lo:hi + 1], closure)

    p = np.zeros(j_max + 1)
    p[0] = 1.0 - starvation_probability(model, params)
    for j in range(1, j_max + 1):
        p[j] = close(chain(j - 1, lambda l: iz - (j - l - 1) * ix), j)
    tail, j = 0.0, j_max + 1
    f = chain(j_max, lambda l: iz)
    while j * ix < iz:
        tail += close(f, j)
        f = _reference_chain_step(f, grid, j * ix, iz)
        j += 1
    return p, tail


@pytest.fixture(scope="module")
def reference_grid(reference_model, reference_session):
    return events._build_path_grid(reference_model, reference_session)


class TestFirstStarvationDensity:
    def test_support_window(self, reference_model, reference_session, reference_grid):
        x, mu = reference_session.x, reference_model.mu
        dens = reference_grid.first_density.sum(axis=1)
        assert np.all(dens[reference_grid.t < x / mu] == 0.0)
        assert dens[np.argmin(np.abs(reference_grid.t - 10.0))] > 0.0

    def test_integrates_to_starvation_probability(self, reference_model, reference_session,
                                                  reference_grid):
        dens = reference_grid.first_density.sum(axis=1)
        total = np.trapezoid(dens, reference_grid.t)
        p = starvation_probability(reference_model, reference_session)
        assert total == pytest.approx(p, abs=1e-2)


class TestTerminalProbability:
    def test_piecewise_windows(self, reference_model, reference_session,
                               reference_grid):
        # certain once the final re-prefetch swallows the rest of the file
        g = reference_grid
        last = reference_model.mu * g.t >= reference_session.Z - reference_session.x
        assert np.any(last)
        np.testing.assert_array_equal(g.survive[last], 1.0)

    def test_middle_window_in_unit_interval(self, reference_grid):
        u = reference_grid.survive[np.argmin(np.abs(reference_grid.t - 10.0))]
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_middle_window_matches_restarted_sessions(self, reference_model,
                                                      reference_session, reference_grid):
        # closing after a starvation at time t is exactly a fresh session
        # with the remaining frames as its file
        t = 10.0
        g = int(np.argmin(np.abs(reference_grid.t - t)))
        assert reference_grid.t[g] == t
        remaining = reference_session.Z - reference_model.mu * t
        mini = SessionParams(x=reference_session.x, Z=remaining)
        u = reference_grid.survive[g]
        for state in (0, 1):
            stats = monte_carlo(
                reference_model, mini,
                SimConfig(replications=30000, seed=100 + state,
                          initial_state_mode=state),
            )
            empirical = 1.0 - stats.starvation_probability.mean
            assert u[state] == pytest.approx(
                empirical, abs=stats.starvation_probability.ci_half + 0.02
            )


class TestContinuationKernel:
    def test_gap_must_cover_prefetch(self, reference_model, reference_session,
                                     reference_grid):
        x, mu = reference_session.x, reference_model.mu
        short = reference_grid.kernel[reference_grid.t < x / mu]
        np.testing.assert_array_equal(short, 0.0)

    def test_subprobability_mass(self, reference_grid):
        within = reference_grid.t <= 18.0
        vals = reference_grid.kernel[within].sum(axis=-1)
        mass = np.trapezoid(vals, reference_grid.t[within], axis=0)
        assert np.all(mass <= 1.0 + 1e-6)


class TestStarvationCountPmf:
    def test_onoff_matches_simulator(self, onoff_model, onoff_session):
        pmf = starvation_count_pmf(onoff_model, onoff_session, j_max=4)
        stats = monte_carlo(onoff_model, onoff_session,
                            SimConfig(replications=60000, seed=5))
        hist = stats.count_histogram
        for j in range(3):
            ci = 1.96 * np.sqrt(hist[j] * (1 - hist[j]) / stats.replications)
            assert pmf.p[j] == pytest.approx(hist[j], abs=max(0.02, ci))

    def test_mass_accounting(self, onoff_model, onoff_session):
        pmf = starvation_count_pmf(onoff_model, onoff_session, j_max=4)
        assert 0.98 <= pmf.p.sum() + pmf.tail <= 1.02

    def test_bursty_model_matches_simulator(self, reference_model, reference_session):
        pmf = starvation_count_pmf(reference_model, reference_session, j_max=4)
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=60000, seed=8))
        hist = stats.count_histogram
        for j in range(3):
            ci = 1.96 * np.sqrt(hist[j] * (1 - hist[j]) / stats.replications)
            assert pmf.p[j] == pytest.approx(hist[j], abs=max(0.02, ci))

    def test_p0_shares_code_path(self, onoff_model, onoff_session):
        pmf = starvation_count_pmf(onoff_model, onoff_session, j_max=3)
        p_s = starvation_probability(onoff_model, onoff_session)
        assert pmf.p[0] == pytest.approx(1.0 - p_s, abs=1e-6)

    def test_grid_refinement_stable(self, onoff_model, onoff_session, monkeypatch):
        coarse = starvation_count_pmf(onoff_model, onoff_session, j_max=3)
        monkeypatch.setattr(events, "NODES_PER_PREFETCH", 32)
        fine = starvation_count_pmf(onoff_model, onoff_session, j_max=3)
        assert np.max(np.abs(coarse.p - fine.p)) < 5e-3

    def test_large_threshold_suppresses_starvation(self, onoff_model):
        pmf = starvation_count_pmf(onoff_model, SessionParams(x=900.0, Z=1000.0),
                                   j_max=2)
        assert pmf.p[0] > 0.99

    def test_no_draining_state_shortcut(self):
        m = validate_model([[-1, 1], [1, -1]], [30, 40], 25.0)
        pmf = starvation_count_pmf(m, SessionParams(x=20, Z=400), j_max=3)
        assert pmf.p[0] == 1.0 and pmf.tail == 0.0

    @pytest.mark.parametrize("j_max", [3.0, True, 0], ids=["float", "bool", "zero"])
    def test_rejects_bad_j_max(self, onoff_model, onoff_session, j_max):
        with pytest.raises(DomainError, match="j_max must be an integer >= 1"):
            starvation_count_pmf(onoff_model, onoff_session, j_max=j_max)

    def test_numpy_integer_j_max(self, onoff_model, onoff_session):
        a = starvation_count_pmf(onoff_model, onoff_session, j_max=np.int64(3))
        b = starvation_count_pmf(onoff_model, onoff_session, j_max=3)
        np.testing.assert_array_equal(a.p, b.p)
        assert a.tail == b.tail

    @pytest.mark.parametrize("source, x, Z", [
        ("onoff", 40.0, 1000.0),
        ("onoff", 40.0, 6000.0),     # 150 chain steps, mass 0.77 beyond j_max
        ("bursty", 40.0, 501.0),
        ("bursty", 20.0, 229.0),
    ])
    def test_tail_is_the_counts_beyond_j_max(self, source, x, Z, onoff_model,
                                             reference_model):
        model = {"onoff": onoff_model, "bursty": reference_model}[source]
        params = SessionParams(x=x, Z=Z)
        short = starvation_count_pmf(model, params, j_max=3)
        full = starvation_count_pmf(model, params, j_max=int(np.ceil(Z / x)))
        np.testing.assert_array_equal(short.p, full.p[:4])
        # the chain adds its counts one by one: a running sum
        assert short.tail == np.cumsum(full.p[4:])[-1]
        assert full.tail == 0.0

    def test_expected_count_folds_tail(self, onoff_model, onoff_session):
        pmf = starvation_count_pmf(onoff_model, onoff_session, j_max=4)
        j = np.arange(pmf.p.size)
        assert pmf.expected_count == pytest.approx(float(j @ pmf.p) + 4 * pmf.tail)

    def test_expected_count_matches_simulator(self, onoff_model, onoff_session):
        pmf = starvation_count_pmf(onoff_model, onoff_session, j_max=6)
        stats = monte_carlo(onoff_model, onoff_session,
                            SimConfig(replications=60000, seed=6))
        assert pmf.expected_count == pytest.approx(
            stats.starvation_count.mean, abs=3 * stats.starvation_count.ci_half + 0.02
        )


PROGRESSIVE = scenario_to_model(ScenarioSpec(
    throughput=(200_000.0, 400_000.0), frame_sizes=(10_000.0, 20_000.0),
    alpha=1.0, beta=3.0, mu=17.75))


class TestSharedChain:
    @pytest.mark.parametrize("source, x, Z", [
        ("onoff", 40.0, 1000.0),
        ("bursty", 40.0, 501.0),     # file end 200.4 nodes in: between nodes
        ("progressive", 20.0, 500.0),
    ])
    @pytest.mark.parametrize("j_max", [3, 10])
    def test_matches_per_count_chains(self, source, x, Z, j_max, onoff_model,
                                      reference_model):
        model = {"onoff": onoff_model, "bursty": reference_model,
                 "progressive": PROGRESSIVE}[source]
        params = SessionParams(x=x, Z=Z)
        pmf = starvation_count_pmf(model, params, j_max=j_max)
        p, tail = _reference_pmf(model, params, j_max, events._build_path_grid(model, params))
        np.testing.assert_allclose(pmf.p, np.clip(p, 0.0, None), rtol=0.0, atol=1e-14)
        assert pmf.tail == pytest.approx(tail, rel=0.0, abs=1e-14)


class TestPathGrid:
    def test_alignment(self, reference_model, reference_session, monkeypatch):
        monkeypatch.setattr(events, "NODES_PER_PREFETCH", 8)
        grid = events._build_path_grid(reference_model, reference_session)
        assert grid.step * 8 == pytest.approx(
            reference_session.x / reference_model.mu, abs=1e-12
        )
        assert grid.step * (grid.n_t - 1) >= reference_session.Z / reference_model.mu - 1e-9

    def test_cached_density_nonnegative(self, reference_model, reference_session,
                                        monkeypatch):
        monkeypatch.setattr(events, "NODES_PER_PREFETCH", 8)
        grid = events._build_path_grid(reference_model, reference_session)
        assert np.all(grid.first_density >= 0.0)
        assert np.all(grid.kernel >= 0.0)
        assert np.all((grid.survive >= 0.0) & (grid.survive <= 1.0))

    def test_field_shapes(self, reference_model, reference_session):
        grid = events._build_path_grid(reference_model, reference_session)
        L = reference_model.n_states
        assert grid.t.shape == (grid.n_t,)
        assert grid.first_density.shape == grid.survive.shape == (grid.n_t, L)
        assert grid.kernel.shape == (grid.n_t, L, L)


THREE_STATE = validate_model(
    [[-6.48, 4.05, 2.43], [2.13, -3.44, 1.31], [2.67, 4.11, -6.78]],
    [5.0, 20.0, 40.0], 25.0)


def _grid_nodes(model, params, t):
    """Nodes whose densities are inverted, nodes whose survival is, and among
    the latter those whose remaining horizon reaches the earliest atom (the
    fastest drain): the survival CDF is exactly 0 before it."""
    earliest = starvation_atoms(model, params.x)[0].min()
    feasible = (t >= max(earliest, params.x / model.mu)) & (t > 0.0)
    at_risk = model.mu * t < params.Z - params.x
    reached = at_risk & (params.Z / model.mu - t >= earliest)
    return feasible, at_risk, reached


def _subtract_atoms(ev, times, masses):
    """The matrix transform ``ev`` less its diagonal atoms: entry ``(i, i)``
    loses ``masses[i] e^(-w times[i])``."""
    live = np.nonzero(masses > 0.0)[0]

    def continuous(omegas):
        vals = np.array(ev(omegas))
        for i in live:
            vals[:, i, i] -= masses[i] * np.exp(-omegas * times[i])
        return vals
    return continuous


def _atom_steps(times, masses, t):
    """Diagonal matrices ``(T, L, L)`` of the atom masses that have arrived by
    each time of ``t``, from a relative 1e-12 before the atom on."""
    finite = np.isfinite(times)
    threshold = np.full(times.shape, np.inf)
    threshold[finite] = times[finite] - 1e-12 * np.maximum(np.abs(times[finite]), 1.0)
    arrived = t[:, None] >= threshold
    return np.where(arrived, masses, 0.0)[..., None] * np.eye(times.size)


def _mixed_per_frequency(model, params, t):
    """First densities, kernels and survivals with the entry law and the fill
    mixed into the transform at every frequency, before inversion."""
    x, Z, mu = params.x, params.Z, model.mu
    fill = prefetch_end_distribution(model, 0.0, x)
    rho0 = stationary_distribution(model) @ fill
    ev = functools.partial(transform_matrix, model, x)
    L = model.n_states

    def stacked_density(omegas):
        H = np.asarray(ev(omegas))
        first = np.einsum("i,kij->kj", rho0, H)
        refetch = np.einsum("jn,knm->kjm", fill, H)
        return np.concatenate([first[:, None, :], refetch], axis=1)

    feasible, _, reached = _grid_nodes(model, params, t)
    first_density = np.zeros((t.size, L))
    kernel = np.zeros((t.size, L, L))
    block = invert(stacked_density, t[feasible])
    first_density[feasible] = block[:, 0]
    kernel[feasible] = block[:, 1:]

    atoms = starvation_atoms(model, x)
    continuous = _subtract_atoms(ev, *atoms)

    def refetch_cdf(omegas):
        return np.einsum("jn,knm->kj", fill, np.asarray(continuous(omegas)))

    h = Z / mu - t[reached]
    cdf = invert_cdf(refetch_cdf, h) + (fill @ _atom_steps(*atoms, h)).sum(-1)
    survive = np.ones((t.size, L))
    survive[reached] = 1.0 - np.clip(cdf, 0.0, 1.0)
    return np.clip(first_density, 0.0, None), np.clip(kernel, 0.0, None), survive


@pytest.mark.filterwarnings("ignore::fluidqoe.errors.NegativeDensityWarning")
class TestInvertThenMix:
    SOURCES = {"bursty": validate_model([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0),
               "onoff": validate_model([[-1.0, 1.0], [4.0, -4.0]], [30.0, 0.0], 25.0),
               "three_state": THREE_STATE,
               "progressive": PROGRESSIVE}

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("x, Z", [(20.0, 200.0), (40.0, 501.0)])
    def test_matches_per_frequency_mixing(self, source, x, Z):
        model, params = self.SOURCES[source], SessionParams(x=x, Z=Z)
        grid = events._build_path_grid(model, params)
        first_density, kernel, survive = _mixed_per_frequency(model, params, grid.t)
        np.testing.assert_allclose(grid.first_density, first_density, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grid.kernel, kernel, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grid.survive, survive, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("source", SOURCES)
    def test_each_frequency_evaluated_once(self, source, monkeypatch):
        model, params = self.SOURCES[source], SessionParams(x=40.0, Z=501.0)
        seen = []

        def counted(model, x, omegas):
            seen.append(np.size(omegas))
            return transform_matrix(model, x, omegas)

        # the densities invert the transform in events, the survivals in
        # starvation_cdf
        monkeypatch.setattr(events, "transform_matrix", counted)
        monkeypatch.setattr(starvation, "transform_matrix", counted)
        grid = events._build_path_grid(model, params)
        feasible, _, reached = _grid_nodes(model, params, grid.t)
        assert DEFAULT_PARAMS.n_evaluations == 51
        assert sum(seen) == 51 * (feasible.sum() + reached.sum())

    @pytest.mark.parametrize("source", ["three_state", "progressive"])
    def test_survival_is_certain_before_the_fastest_drain(self, source):
        # a horizon shorter than the fastest drain cannot hold a starvation:
        # the survival is exactly 1, not 1 plus the inverter's ripple
        model, params = self.SOURCES[source], SessionParams(x=20.0, Z=200.0)
        grid = events._build_path_grid(model, params)
        _, at_risk, reached = _grid_nodes(model, params, grid.t)
        short = at_risk & ~reached
        assert short.any()
        assert np.all(grid.survive[short] == 1.0)

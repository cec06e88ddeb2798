import numpy as np
import pytest

from fluidqoe import (
    DomainError,
    SessionParams,
    SimConfig,
    counter_uniform,
    first_passage_times,
    monte_carlo,
    prefetch_times,
    simulate_session,
    starvation_cdf,
    starvation_probability,
    stationary_distribution,
    validate_model,
)
from fluidqoe.simulator import _lockstep


class TestCounterRng:
    def test_deterministic_and_order_free(self):
        a = counter_uniform(42, np.arange(10), np.zeros(10, dtype=np.uint64))
        b = counter_uniform(42, np.arange(9, -1, -1), np.zeros(10, dtype=np.uint64))
        np.testing.assert_array_equal(a, b[::-1])

    def test_streams_differ(self):
        u = counter_uniform(42, np.arange(1000), np.zeros(1000, dtype=np.uint64))
        assert np.unique(u).size == 1000

    def test_uniform_range_and_moments(self):
        u = counter_uniform(7, np.zeros(200000, dtype=np.uint64), np.arange(200000))
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_seed_changes_everything(self):
        a = counter_uniform(1, np.arange(100), np.zeros(100, dtype=np.uint64))
        b = counter_uniform(2, np.arange(100), np.zeros(100, dtype=np.uint64))
        assert not np.any(a == b)


class TestSingleStateSessions:
    def test_deterministic_drain_cycle(self):
        # fill at 20, play at 25: startup 100/20 = 5 s; each playback leg
        # drains the 100-frame buffer in 20 s while playing 500 frames
        m = validate_model([[0.0]], [20.0], 25.0)
        out = simulate_session(m, SessionParams(x=100, Z=1000), SimConfig(seed=1))
        assert out.startup_delay == 5.0
        assert out.starvation_times == (20.0,)
        assert out.starvation_count == 1

    def test_emptying_exactly_at_the_end_is_not_starvation(self):
        # second leg would hit empty exactly when the file ends
        m = validate_model([[0.0]], [20.0], 25.0)
        out = simulate_session(m, SessionParams(x=100, Z=1000), SimConfig(seed=9))
        assert out.starvation_count == 1  # not 2

    @pytest.mark.parametrize("Z,expected", [(900, 1), (1000, 1), (1100, 2), (2000, 3)])
    def test_cycle_count_formula(self, Z, expected):
        # ceil((Z - x mu/(mu-lam)) (mu-lam) / (x mu)) starvations
        x, mu, lam = 100.0, 25.0, 20.0
        m = validate_model([[0.0]], [lam], mu)
        predicted = int(np.ceil((Z - x * mu / (mu - lam)) * (mu - lam) / (x * mu)))
        assert predicted == expected
        out = simulate_session(m, SessionParams(x=x, Z=Z), SimConfig(seed=2))
        assert out.starvation_count == expected

    def test_fast_source_never_starves(self):
        m = validate_model([[0.0]], [30.0], 25.0)
        out = simulate_session(m, SessionParams(x=90, Z=600), SimConfig(seed=3))
        assert out.startup_delay == pytest.approx(3.0)
        assert out.starvation_count == 0


class TestDeterminism:
    @staticmethod
    def assert_stats_identical(a, b):
        assert a.starvation_probability == b.starvation_probability
        assert a.starvation_count == b.starvation_count
        assert a.startup_delay == b.startup_delay
        np.testing.assert_array_equal(a.count_histogram, b.count_histogram)

    def test_same_seed_bitwise_identical(self, reference_model, reference_session):
        cfg = SimConfig(replications=3000, seed=77)
        a = monte_carlo(reference_model, reference_session, cfg)
        b = monte_carlo(reference_model, reference_session, cfg)
        self.assert_stats_identical(a, b)

    @pytest.mark.parametrize("phase,limit", [("session", 500.0), ("fill", np.inf),
                                             ("drain", 20.0)])
    def test_chunk_invariance(self, reference_model, phase, limit):
        # counter-addressed streams make every replication independent of
        # how the replications are batched
        cfg = SimConfig(replications=5000, seed=78)
        whole = _lockstep(reference_model, phase, 40.0, limit, cfg, record_times=True)
        parts = [_lockstep(reference_model, phase, 40.0, limit, cfg, lo, hi,
                           record_times=True) for lo, hi in ((0, 1237), (1237, 5000))]
        for key, value in whole.items():
            if key == "times":
                assert value == parts[0][key] + parts[1][key]
            else:
                np.testing.assert_array_equal(
                    value, np.concatenate([p[key] for p in parts]))

    def test_session_equals_batch_member(self, reference_model, reference_session):
        cfg = SimConfig(replications=500, seed=79)
        batch = _lockstep(reference_model, "session", reference_session.x,
                          reference_session.Z, cfg)
        one = simulate_session(reference_model, reference_session, cfg, replication=123)
        assert one.startup_delay == batch["startup"][123]
        assert one.starvation_count == batch["count"][123]

    def test_prefetch_equals_session_startup(self, onoff_model, reference_session):
        # a session's first prefetch is a fill run on the same stream
        cfg = SimConfig(replications=60, seed=91)
        delays, states = prefetch_times(onoff_model, reference_session.x, cfg)
        for rep in range(cfg.replications):
            one = simulate_session(onoff_model, reference_session, cfg, replication=rep)
            assert delays[rep] == one.startup_delay
        assert np.all(states == 0)  # the crossing happens while delivering

    def test_capped_arrivals_leave_metrics_unchanged(self, reference_model,
                                                     reference_session):
        # arrivals beyond Z only pad the buffer; they can never avert or
        # cause a starvation, so both modes agree event for event
        a = monte_carlo(reference_model, reference_session,
                        SimConfig(replications=2000, seed=80))
        b = monte_carlo(reference_model, reference_session,
                        SimConfig(replications=2000, seed=80,
                                  arrival_cap_mode="capped_at_Z"))
        self.assert_stats_identical(a, b)


class TestSessionInvariants:
    def test_playback_clock_identity(self, reference_model, reference_session):
        out = _lockstep(reference_model, "session", reference_session.x,
                        reference_session.Z, SimConfig(replications=400, seed=81))
        np.testing.assert_allclose(
            out["play_time"], reference_session.Z / reference_model.mu, atol=1e-9
        )

    def test_starvation_times_sorted_and_after_prefetch(self, reference_model):
        params = SessionParams(x=40, Z=2000)
        for rep in range(30):
            out = simulate_session(reference_model, params,
                                   SimConfig(seed=82), replication=rep)
            times = np.array(out.starvation_times)
            assert out.starvation_count == times.size
            if times.size:
                assert np.all(np.diff(times) > 0)
                assert times[0] >= 40.0 / 25.0

    def test_stationary_mixes_fixed_state_runs(self, reference_model,
                                                reference_session):
        pi = stationary_distribution(reference_model)
        mix = 0.0
        for state in (0, 1):
            s = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=30000, seed=83,
                                      initial_state_mode=state))
            mix += pi[state] * s.starvation_probability.mean
        stat = monte_carlo(reference_model, reference_session,
                           SimConfig(replications=30000, seed=84))
        assert stat.starvation_probability.mean == pytest.approx(mix, abs=0.01)


class TestAgainstAnalytics:
    def test_starvation_probability(self, reference_model, reference_session):
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=50000, seed=85))
        analytic = starvation_probability(reference_model, reference_session)
        assert analytic == pytest.approx(
            stats.starvation_probability.mean,
            abs=stats.starvation_probability.ci_half + 0.01,
        )

    def test_first_passage_cdf(self, reference_model):
        taus, states = first_passage_times(
            reference_model, 40.0, 30.0,
            SimConfig(replications=40000, seed=86, initial_state_mode=1),
        )
        for t in (5.0, 12.0, 25.0):
            analytic = starvation_cdf(reference_model, 40.0, t).sum(axis=1)[1]
            assert analytic == pytest.approx(float((taus <= t).mean()), abs=0.015)

    def test_first_passage_terminal_state_is_draining(self, reference_model):
        taus, states = first_passage_times(
            reference_model, 20.0, 40.0, SimConfig(replications=5000, seed=87)
        )
        hit = states[np.isfinite(taus)]
        assert np.all(hit == 0)  # only state 1 drains


class TestConfigValidation:
    def test_bad_replications(self):
        for bad in (0, 2.5, True, "3"):
            with pytest.raises(DomainError):
                SimConfig(replications=bad)

    def test_bad_seed(self):
        for bad in (1.5, False, "7"):
            with pytest.raises(DomainError):
                SimConfig(seed=bad)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(replications=np.int64(3), seed=np.uint32(4),
                        initial_state_mode=np.int8(1))
        assert (cfg.replications, cfg.seed, cfg.initial_state_mode) == (3, 4, 1)

    def test_bad_cap_mode(self):
        with pytest.raises(DomainError):
            SimConfig(arrival_cap_mode="sometimes")

    def test_bad_initial_state(self, reference_model, reference_session):
        with pytest.raises(DomainError):
            SimConfig(initial_state_mode=2.5)
        with pytest.raises(DomainError):
            SimConfig(initial_state_mode=True)
        cfg = SimConfig(initial_state_mode=5)
        with pytest.raises(DomainError):
            simulate_session(reference_model, reference_session, cfg)

    def test_histogram_mass(self, reference_model, reference_session):
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=4000, seed=88))
        assert stats.count_histogram.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ci_halfwidth_formula(self, reference_model, reference_session):
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=4000, seed=89))
        m = stats.starvation_probability
        assert m.ci_half == pytest.approx(1.96 * np.sqrt(m.var / 4000))

    def test_empirical_cdf_grids(self, reference_model, reference_session):
        grid = np.array([1.0, 2.0, 4.0, 8.0])
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=3000, seed=90),
                            startup_grid=grid, first_starvation_grid=grid)
        assert np.all(np.diff(stats.startup_cdf) >= 0)
        assert np.all((stats.first_starvation_cdf >= 0)
                      & (stats.first_starvation_cdf <= 1))

import numpy as np
import pytest

from fluidqoe import (
    CostWeights,
    DomainError,
    ScenarioSpec,
    SessionParams,
    SimConfig,
    compare_scenarios,
    monte_carlo,
    optimize_threshold,
    quality_loss_fraction,
    scenario_cost,
    scenario_to_model,
    session_cost,
    validate_model,
)
from fluidqoe.qoe import quality_levels


@pytest.fixture(scope="module")
def bitrate_scenario():
    """200/400 kbps link, 10/20 kbit frames; progressive drift is -0.25."""
    return ScenarioSpec(throughput=(200_000, 400_000), frame_sizes=(10_000, 20_000),
                        alpha=1.0, beta=3.0, mu=17.75)


class TestScenarioToModel:
    def test_progressive_rates(self, bitrate_scenario):
        m = scenario_to_model(bitrate_scenario)
        np.testing.assert_array_equal(m.lam, [10.0, 20.0])

    def test_adaptive_rates(self, bitrate_scenario):
        from dataclasses import replace
        m = scenario_to_model(replace(bitrate_scenario, mode="adaptive"))
        np.testing.assert_array_equal(m.lam, [20.0, 20.0])

    def test_adaptive_levels(self, bitrate_scenario):
        from dataclasses import replace
        levels = quality_levels(replace(bitrate_scenario, mode="adaptive"))
        np.testing.assert_array_equal(levels, [0, 1])

    def test_single_level_ladder_makes_modes_identical(self):
        spec = ScenarioSpec(throughput=(200_000, 400_000), frame_sizes=(20_000,),
                            alpha=1.0, beta=3.0, mu=17.75)
        from dataclasses import replace
        prog = scenario_to_model(spec)
        adap = scenario_to_model(replace(spec, mode="adaptive"))
        np.testing.assert_array_equal(prog.lam, adap.lam)

    def test_quality_loss_fraction(self, bitrate_scenario):
        from dataclasses import replace
        assert quality_loss_fraction(bitrate_scenario) == 0.0
        adaptive = replace(bitrate_scenario, mode="adaptive")
        # low-throughput state has stationary weight alpha/(alpha+beta) = 0.25
        assert quality_loss_fraction(adaptive) == pytest.approx(0.25)

    @pytest.mark.parametrize("field, value", [
        ("throughput", (200_000, float("nan"))),
        ("throughput", (float("inf"), 400_000)),
        ("frame_sizes", (10_000, float("inf"))),
        ("frame_sizes", (float("nan"),)),
        ("delta_f", float("nan")),
        ("delta_f", float("inf")),
        ("alpha", float("inf")),
    ])
    def test_nonfinite_numbers_rejected(self, field, value):
        base = dict(throughput=(200_000, 400_000), frame_sizes=(10_000, 20_000),
                    alpha=1.0, beta=3.0, mu=17.75)
        base[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            ScenarioSpec(**base)

    @pytest.mark.parametrize("kw", [
        dict(throughput=(0, 1000)),
        dict(frame_sizes=(20_000, 10_000)),
        dict(frame_sizes=(10_000, 10_000)),
        dict(delta_f=-1.0),
        dict(mode="hybrid"),
    ])
    def test_invalid_scenarios(self, kw):
        base = dict(throughput=(200_000, 400_000), frame_sizes=(10_000, 20_000),
                    alpha=1.0, beta=3.0, mu=17.75)
        base.update(kw)
        with pytest.raises(Exception):
            ScenarioSpec(**base)


class TestSessionCost:
    def test_zero_weights_zero_total(self, reference_model, reference_session):
        cost = session_cost(reference_model, reference_session, CostWeights(0, 0, 0))
        assert cost.total == 0.0

    def test_starvation_projection(self, onoff_model):
        params = SessionParams(x=40, Z=1000)
        cost = session_cost(onoff_model, params, CostWeights(1, 0, 0))
        assert cost.total == cost.expected_starvations
        assert cost.total > 0

    def test_startup_term_on_silent_source(self, onoff_model):
        # 40 frames at 30 fps, each second ON broken by 1/4 s of silence on
        # average, plus 1/4 s more when the session opens silent (p = 0.2)
        params = SessionParams(x=40, Z=1000)
        cost = session_cost(onoff_model, params, CostWeights(1, 0.5, 0))
        assert cost.expected_startup == pytest.approx(40 / 30 * 1.25 + 0.2 * 0.25, rel=1e-14)
        assert cost.expected_starvations > 0
        assert cost.total == cost.expected_starvations + 0.5 * cost.expected_startup

    def test_linearity_in_weights(self, reference_model, reference_session):
        kw = dict(quality_term=0.3)
        unit = [session_cost(reference_model, reference_session, w, **kw)
                for w in (CostWeights(1, 0, 0), CostWeights(0, 1, 0), CostWeights(0, 0, 1))]
        combo = session_cost(reference_model, reference_session,
                             CostWeights(2.0, 3.0, 0.5), **kw)
        expected = 2.0 * unit[0].total + 3.0 * unit[1].total + 0.5 * unit[2].total
        assert combo.total == pytest.approx(expected, abs=1e-12)

    def test_total_is_weighted_sum(self, reference_model, reference_session):
        w = CostWeights(1.5, 0.2, 2.0)
        cost = session_cost(reference_model, reference_session, w,
                            quality_term=0.25)
        assert cost.total == pytest.approx(
            w.c1 * cost.expected_starvations + w.c2 * cost.expected_startup
            + w.c3 * cost.quality_term, abs=1e-12,
        )

    def test_weight_scaling(self, reference_model, reference_session):
        base = session_cost(reference_model, reference_session, CostWeights(1, 0.1, 1),
                            quality_term=0.25)
        scaled = session_cost(reference_model, reference_session, CostWeights(3, 0.3, 3),
                              quality_term=0.25)
        assert scaled.total == pytest.approx(3.0 * base.total, rel=1e-12)

    # a bench op that once refused at j_max = 3: the count truncation left
    # residual mass 0.051
    SEED13 = validate_model([[-4.3, 4.3], [2.78, -2.78]], [1.73, 30.01], 25.0)
    SEED13_SESSION = SessionParams(x=20.0, Z=229.0)
    SEED13_WEIGHTS = CostWeights(1.83, 0.25, 1.0)

    def test_counts_every_starvation(self):
        cost = session_cost(self.SEED13, self.SEED13_SESSION, self.SEED13_WEIGHTS)
        stats = monte_carlo(self.SEED13, self.SEED13_SESSION,
                            SimConfig(replications=200_000, seed=13))
        count = stats.starvation_count
        assert cost.expected_starvations == pytest.approx(1.9999, abs=1e-4)
        assert cost.expected_starvations == pytest.approx(
            count.mean, abs=max(0.02 * cost.expected_starvations, count.ci_half))

    def test_j_max_is_ignored(self):
        costs = [session_cost(self.SEED13, self.SEED13_SESSION, self.SEED13_WEIGHTS,
                              j_max=j_max) for j_max in (None, 1, 3, 10)]
        assert all(c == costs[0] for c in costs)

    def test_negative_weights_rejected(self):
        with pytest.raises(DomainError):
            CostWeights(-1, 0, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("slot", range(3))
    def test_nonfinite_weights_rejected(self, bad, slot):
        weights = [1.0, 0.5, 0.0]
        weights[slot] = bad
        with pytest.raises(DomainError, match="finite"):
            CostWeights(*weights)


class TestCompareScenarios:
    def test_no_quality_weight_adaptive_dominates(self, bitrate_scenario):
        report = compare_scenarios(bitrate_scenario, CostWeights(1.0, 0.1, 0.0),
                                   [200.0, 600.0, 1200.0], x=20.0)
        for p, a in zip(report.progressive, report.adaptive):
            assert a.total <= p.total
        assert report.crossover_Z == 200.0

    def test_crossover_monotone_in_quality_weight(self, bitrate_scenario):
        grid = [100.0, 250.0, 500.0, 800.0, 1200.0]
        z1 = compare_scenarios(bitrate_scenario, CostWeights(1.0, 0.1, 1.0),
                               grid, x=20.0).crossover_Z
        z15 = compare_scenarios(bitrate_scenario, CostWeights(1.0, 0.1, 1.5),
                                grid, x=20.0).crossover_Z
        assert z1 is not None and z15 is not None
        assert z15 >= z1

    def test_identical_arms_report_no_crossover(self):
        spec = ScenarioSpec(throughput=(200_000, 400_000), frame_sizes=(20_000,),
                            alpha=1.0, beta=3.0, mu=17.75)
        report = compare_scenarios(spec, CostWeights(1.0, 0.1, 1.0),
                                   [300.0, 600.0], x=20.0)
        assert report.crossover_Z is None
        for p, a in zip(report.progressive, report.adaptive):
            assert p.total == a.total

    def test_rejects_unsorted_grid(self, bitrate_scenario):
        with pytest.raises(DomainError):
            compare_scenarios(bitrate_scenario, CostWeights(1, 0, 0),
                              [500.0, 300.0], x=20.0)


class TestOptimizeThreshold:
    def test_startup_only_prefers_smallest(self, reference_model):
        report = optimize_threshold(reference_model, 500.0, CostWeights(0, 1.0, 0),
                                    [10.0, 40.0, 80.0, 160.0])
        assert report.best_x == 10.0

    def test_starvation_only_prefers_largest(self, reference_model):
        report = optimize_threshold(reference_model, 500.0, CostWeights(1.0, 0, 0),
                                    [25.0, 40.0, 80.0, 160.0])
        assert report.best_x == 160.0

    def test_balanced_weights_interior_optimum(self, reference_model):
        grid = [25.0, 50.0, 100.0, 200.0, 350.0, 500.0]
        report = optimize_threshold(reference_model, 500.0, CostWeights(1.0, 0.5, 0),
                                    grid)
        assert grid[0] < report.best_x < grid[-1]

    def test_scaling_preserves_argmin(self, reference_model):
        grid = [25.0, 50.0, 150.0, 400.0]
        w = CostWeights(1.0, 0.5, 0.0)
        w5 = CostWeights(5.0, 2.5, 0.0)
        a = optimize_threshold(reference_model, 500.0, w, grid)
        b = optimize_threshold(reference_model, 500.0, w5, grid)
        assert a.best_x == b.best_x
        assert b.best_cost.total == pytest.approx(5.0 * a.best_cost.total, rel=1e-12)

    def test_grid_bounds_enforced(self, reference_model):
        with pytest.raises(DomainError):
            optimize_threshold(reference_model, 500.0, CostWeights(1, 0, 0),
                               [100.0, 600.0])


class TestScenarioCost:
    def test_adaptive_carries_quality_term(self, bitrate_scenario):
        from dataclasses import replace
        params = SessionParams(x=20.0, Z=400.0)
        w = CostWeights(1.0, 0.1, 1.0)
        adaptive = scenario_cost(replace(bitrate_scenario, mode="adaptive"), params, w)
        progressive = scenario_cost(bitrate_scenario, params, w)
        assert adaptive.quality_term == pytest.approx(0.25)
        assert progressive.quality_term == 0.0
        assert adaptive.expected_starvations == 0.0  # drift +2.25, never drains

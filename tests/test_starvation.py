import numpy as np
import pytest

from fluidqoe import (
    DomainError,
    SessionParams,
    Unstable,
    invert,
    invert_cdf,
    mean_playback_time,
    starvation_cdf,
    starvation_probability,
    starvation_transform,
    validate_model,
)
from fluidqoe._fdiff import derivative_at_zero
from fluidqoe.spectral import evaluator
from fluidqoe.starvation import earliest_starvation_time


class TestStarvationTransform:
    def test_zero_threshold_diagonal_one(self, reference_model):
        H = starvation_transform(reference_model, 0.0, 1.0)
        assert H[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_filling_column_identically_zero(self, reference_model):
        for om in (0.2, 1.0, 4.0 + 2.0j):
            H = starvation_transform(reference_model, 15.0, om)
            assert np.allclose(H[:, 1], 0.0)

    def test_eventual_starvation_certain_for_negative_drift(self, reference_model):
        # transform at the evaluation floor approximates P{ever starve} = 1
        H = starvation_transform(reference_model, 40.0, 1e-8)
        np.testing.assert_allclose(H.real.sum(axis=1), 1.0, atol=1e-6)

    def test_decays_in_frequency(self, reference_model):
        slow = np.abs(starvation_transform(reference_model, 20.0, 0.5)).sum()
        fast = np.abs(starvation_transform(reference_model, 20.0, 50.0)).sum()
        assert fast < slow

    def test_generic_method_matches_closed(self, reference_model):
        a = starvation_transform(reference_model, 12.0, 0.7 + 0.3j, method="closed")
        b = starvation_transform(reference_model, 12.0, 0.7 + 0.3j, method="generic")
        assert np.max(np.abs(a - b)) < 1e-10


class TestStarvationCdf:
    def test_zero_at_early_times(self, reference_model):
        assert earliest_starvation_time(reference_model, 40.0) == pytest.approx(40 / 23)
        M = starvation_cdf(reference_model, 40.0, 1.0)
        assert np.all(M == 0.0)

    def test_values_are_probabilities(self, reference_model):
        for t in (2.0, 10.0, 60.0):
            M = starvation_cdf(reference_model, 40.0, t)
            assert np.all(M >= 0.0) and np.all(M <= 1.0)

    def test_monotone_in_time(self, reference_model):
        grid = np.linspace(0.5, 60.0, 200)
        prev = np.zeros((2, 2))
        for t in grid:
            M = starvation_cdf(reference_model, 40.0, float(t))
            assert np.all(M >= prev - 1e-7)
            prev = M

    def test_monotone_in_threshold(self, reference_model):
        t = 20.0
        values = [starvation_cdf(reference_model, x, t) for x in (10.0, 20.0, 40.0, 80.0)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert np.all(lo <= hi + 1e-7)

    def test_long_horizon_approaches_transform_limit(self, reference_model):
        limit = starvation_transform(reference_model, 30.0, 1e-8).real
        M = starvation_cdf(reference_model, 30.0, 400.0)
        np.testing.assert_allclose(M, limit, atol=5e-4)

    def test_density_quadrature_matches_cdf(self, reference_model):
        # integrate the inverted density and compare with the CDF inversion
        x, t = 40.0, 18.0
        ev = evaluator(reference_model, x, "playback")
        grid = np.linspace(earliest_starvation_time(reference_model, x) * 0.99, t, 400)
        dens = np.array([invert(ev, float(u))[1, 0] for u in grid])
        integral = np.trapezoid(np.clip(dens, 0, None), grid)
        cdf = starvation_cdf(reference_model, x, t)[1, 0]
        assert integral == pytest.approx(cdf, abs=1e-4)

    def test_requires_positive_time(self, reference_model):
        with pytest.raises(DomainError):
            starvation_cdf(reference_model, 40.0, 0.0)


class TestStarvationProbability:
    def test_no_starvation_when_never_draining(self):
        m = validate_model([[-1, 1], [2, -2]], [30, 40], 25.0)
        assert starvation_probability(m, SessionParams(x=20, Z=500)) == 0.0

    def test_full_prefetch_cannot_starve(self, reference_model):
        assert starvation_probability(reference_model, SessionParams(x=500, Z=500)) == 0.0

    def test_within_unit_interval(self, reference_model):
        p = starvation_probability(reference_model, SessionParams(x=40, Z=500))
        assert 0.0 < p < 1.0

    def test_methods_agree(self, reference_model):
        s = SessionParams(x=40, Z=500)
        a = starvation_probability(reference_model, s, method="closed")
        b = starvation_probability(reference_model, s, method="generic")
        assert a == pytest.approx(b, abs=1e-9)


class TestMeanPlaybackTime:
    def test_requires_stability(self):
        m = validate_model([[-1, 1], [2, -2]], [30, 40], 25.0)
        with pytest.raises(Unstable):
            mean_playback_time(m, 40.0)

    def test_filling_terminal_state_zero(self, reference_model):
        D = mean_playback_time(reference_model, 40.0).D
        assert np.all(D[:, 1] == 0.0)
        assert np.all(D >= 0.0)

    def test_faster_playout_starves_sooner(self, reference_model):
        D25 = mean_playback_time(reference_model, 40.0).D
        m26 = validate_model(reference_model.Q, reference_model.lam, 26.0)
        D26 = mean_playback_time(m26, 40.0).D
        assert np.all(D26[:, 0] <= D25[:, 0] + 1e-8)

    def test_step_size_consistency(self, reference_model):
        ev = evaluator(reference_model, 40.0, "playback")
        scale = float(np.max(np.abs(np.diag(reference_model.Q))))
        value, check = derivative_at_zero(ev, scale)
        spread = np.max(np.abs(value - check))
        assert spread <= 1e-4 * max(np.max(np.abs(value)), 1e-12)

    def test_matches_first_passage_simulation(self, reference_model):
        from fluidqoe import SimConfig, first_passage_times

        D = mean_playback_time(reference_model, 40.0).D
        for i in (0, 1):
            taus, states = first_passage_times(
                reference_model, 40.0, 400.0,
                SimConfig(replications=40000, seed=55 + i, initial_state_mode=i),
            )
            finite = np.isfinite(taus)
            restricted = float(np.where(finite & (states == 0), taus, 0.0).sum()
                               / taus.size)
            assert D[i, 0] == pytest.approx(restricted, rel=0.02)

    def test_total_mean_solves_first_step_system(self, reference_model):
        # Row sums are E[time to empty | start state].  The mean m(x) is
        # linear in x: differentiating the transform ODE at the origin gives
        # R m' = -(1 + Q m), whose linear solutions have slope 1/|drift| in
        # every state and offsets solving Q w = -1 - r/drift with w pinned
        # to 0 in the draining state (empty buffer there means time 0).
        # Here: slope 1/2, w = (0, 1.75), so m(40) = (20, 21.75).
        D = mean_playback_time(reference_model, 40.0).D
        totals = D.sum(axis=1)
        assert totals[0] == pytest.approx(20.0, rel=1e-6)
        assert totals[1] == pytest.approx(21.75, rel=1e-6)

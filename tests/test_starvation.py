import functools

import mpmath
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
    transform_matrix,
    validate_model,
)
from fluidqoe.inversion import invert_cdf_with_atoms
from fluidqoe.starvation import starvation_atoms, starvation_probability_from_cdf
from conftest import mpmath_transform, superposed_onoff, two_state_quadratic

Q3 = [[-3.0, 2.0, 1.0], [1.0, -2.0, 1.0], [2.0, 2.0, -4.0]]
MEAN_SOURCES = {
    "bursty": ([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0]),
    "onoff": ([[-1.0, 1.0], [4.0, -4.0]], [30.0, 0.0]),
    "both_draining": ([[-6.0, 6.0], [2.0, -2.0]], [2.0, 20.0]),
    "three_state": (Q3, [5.0, 20.0, 30.0]),
    "zero_drift_three_state": (Q3, [5.0, 25.0, 30.0]),
    "superposed_eight_state": superposed_onoff(),
}
SILENT3 = (Q3, [0.0, 20.0, 40.0])


def mpmath_mean(model, x):
    """Restricted means to 40 digits: minus the central difference, at step
    1e-12, of the 40-digit pencil transform across ``w = 0``."""
    with mpmath.workdps(40):
        h = mpmath.mpf("1e-12")
        slope = (mpmath_transform(model, x, h) - mpmath_transform(model, x, -h)) / (2 * h)
        return -np.array([[float(mpmath.re(v)) for v in row] for row in slope.tolist()])


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
        a = two_state_quadratic(reference_model, 12.0, 0.7 + 0.3j)
        b = transform_matrix(reference_model, 12.0, 0.7 + 0.3j)
        assert np.max(np.abs(a - b)) < 1e-10
        np.testing.assert_array_equal(
            starvation_transform(reference_model, 12.0, 0.7 + 0.3j), b)

    @pytest.mark.parametrize("source", ["bursty", "three_state"])
    def test_stack_returns_every_frequency(self, source):
        m = validate_model(*MEAN_SOURCES[source], 25.0)
        omegas = np.array([0.5, 1.0 + 2.0j, 3.0 - 0.4j])
        H = starvation_transform(m, 15.0, omegas)
        assert H.shape == (3, m.n_states, m.n_states)
        for k, om in enumerate(omegas):
            np.testing.assert_array_equal(H[k], starvation_transform(m, 15.0, om))


class TestStarvationCdf:
    def test_zero_at_early_times(self, reference_model):
        assert starvation_atoms(reference_model, 40.0)[0].min() == pytest.approx(40 / 23)
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
        ev = functools.partial(transform_matrix, reference_model, x)
        grid = np.linspace(starvation_atoms(reference_model, x)[0].min() * 0.99, t, 400)
        dens = np.array([invert(ev, float(u))[1, 0] for u in grid])
        integral = np.trapezoid(np.clip(dens, 0, None), grid)
        cdf = starvation_cdf(reference_model, x, t)[1, 0]
        assert integral == pytest.approx(cdf, abs=1e-4)

    def test_requires_positive_time(self, reference_model):
        with pytest.raises(DomainError):
            starvation_cdf(reference_model, 40.0, 0.0)

    @pytest.mark.parametrize("x", [np.inf, np.nan])
    def test_nonfinite_threshold_rejected(self, reference_model, x):
        with pytest.raises(DomainError, match="^x must be finite"):
            starvation_cdf(reference_model, x, 1.0)
        with pytest.raises(DomainError, match="^x must be finite"):
            mean_playback_time(reference_model, x)


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
        # one inversion of the closed form and one of the engine, which a
        # two-state model takes like any other
        m, s = reference_model, SessionParams(x=40, Z=500)

        def probability(transform):
            cdf = invert_cdf_with_atoms(lambda om: transform(m, s.x, om),
                                        starvation_atoms(m, s.x), np.asarray(s.Z / m.mu))
            return starvation_probability_from_cdf(m, s, cdf)

        a = probability(two_state_quadratic)
        b = probability(transform_matrix)
        assert a == pytest.approx(b, abs=1e-9)
        assert starvation_probability(m, s) == b


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
        # central differences of the transform across w = 0 close in on the
        # exact slope at second order: each tenfold smaller step cuts the
        # gap a hundredfold
        models = [reference_model] + [validate_model(*MEAN_SOURCES[s], 25.0)
                                      for s in ("three_state", "zero_drift_three_state")]
        for m in models:
            ev = functools.partial(transform_matrix, m, 40.0)
            D = mean_playback_time(m, 40.0).D
            gaps = []
            for h in (1e-2, 1e-3, 1e-4):
                H = ev(np.array([h, -h]))
                gaps.append(np.max(np.abs(-(H[0] - H[1]).real / (2 * h) - D)))
            assert gaps[-1] <= 1e-4 * np.max(np.abs(D))
            for wide, narrow in zip(gaps, gaps[1:]):
                assert 90.0 <= wide / narrow <= 110.0, gaps

    @pytest.mark.parametrize("c", [1e-4, 1e4])
    @pytest.mark.parametrize("source", [MEAN_SOURCES["bursty"], MEAN_SOURCES["three_state"],
                                        SILENT3], ids=["bursty", "three_state", "silent"])
    def test_free_of_time_unit(self, source, c):
        # Q, lam and mu scaled by c make every time 1/c as long
        Q, lam = source
        D = mean_playback_time(validate_model(Q, lam, 25.0), 40.0).D
        scaled = validate_model(np.multiply(Q, c), np.multiply(lam, c), 25.0 * c)
        np.testing.assert_allclose(mean_playback_time(scaled, 40.0).D * c, D, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("x", [5.0, 40.0])
    @pytest.mark.parametrize("source", sorted(MEAN_SOURCES))
    def test_matches_mpmath_slope(self, source, x):
        m = validate_model(*MEAN_SOURCES[source], 25.0)
        exact = mpmath_mean(m, x)
        D = mean_playback_time(m, x).D
        np.testing.assert_allclose(D, exact, rtol=0, atol=1e-13 * np.abs(exact).max())

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
        assert totals[0] == pytest.approx(20.0, rel=1e-12)
        assert totals[1] == pytest.approx(21.75, rel=1e-12)

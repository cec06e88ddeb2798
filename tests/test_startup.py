import warnings

import mpmath
import numpy as np
import pytest

from fluidqoe import (
    DomainError,
    InfeasiblePlayout,
    SimConfig,
    expected_startup_delay,
    prefetch_end_distribution,
    prefetch_times,
    startup_delay_cdf,
    startup_transform,
    stationary_distribution,
    validate_model,
)
from fluidqoe.startup import startup_atoms
from conftest import superposed_onoff

SILENT3 = ([[-3.0, 2.0, 1.0], [1.0, -2.0, 1.0], [2.0, 2.0, -4.0]], [0.0, 20.0, 40.0])
MEAN_SOURCES = {
    "two_state": ([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0]),
    "three_state": ([[-6.48, 4.05, 2.43], [2.13, -3.44, 1.31], [2.67, 4.11, -6.78]],
                    [2.12, 25.48, 26.43]),
    "onoff": ([[-1.0, 1.0], [4.0, -4.0]], [30.0, 0.0]),
    "silent_three_state": SILENT3,
    "superposed_eight_state": superposed_onoff(),
}


def mpmath_mean(Q, lam, x, entry):
    """Mean fill time to 40 digits: minus the slope at w = 0 of
    ``entry . U~(x, w) . 1``, with ``U~`` built from its Feynman-Kac form in
    mpmath arithmetic and differentiated by mpmath."""
    with mpmath.workdps(40):
        pos = [i for i, v in enumerate(lam) if v > 0]
        zero = [i for i, v in enumerate(lam) if v == 0]

        def block(rows, cols, shift=0):
            return mpmath.matrix([[Q[i][j] - (shift if i == j else 0) for j in cols]
                                  for i in rows])

        def contracted(w):
            gen = block(pos, pos, w)
            lift = None
            if zero:
                lift = (-block(zero, zero, w)) ** -1 * block(zero, pos)
                gen = gen + block(pos, zero) * lift
            for a, i in enumerate(pos):
                gen[a, :] = gen[a, :] / lam[i]
            fill = mpmath.expm(gen * x) * mpmath.matrix([1] * len(pos))
            value = sum(entry[i] * fill[a] for a, i in enumerate(pos))
            if zero:
                exits = lift * fill
                value += sum(entry[i] * exits[a] for a, i in enumerate(zero))
            return value

        return float(-mpmath.diff(contracted, 0))


class TestStartupTransform:
    def test_zero_threshold_is_identity(self, reference_model):
        np.testing.assert_array_equal(
            startup_transform(reference_model, 0.0, 1.0), np.eye(2)
        )

    def test_single_state_deterministic_fill(self):
        m = validate_model([[0.0]], [20.0], 25.0)
        for om in (0.3, 2.0, 1.0 + 1.0j):
            U = startup_transform(m, 100.0, om)
            assert U[0, 0] == pytest.approx(np.exp(-om * 100.0 / 20.0), abs=1e-12)

    def test_identical_rates_reduce_to_single_state(self):
        # fill time is deterministic when every state delivers the same rate
        m = validate_model([[-1.5, 1.5], [2.5, -2.5]], [20.0, 20.0], 25.0)
        for om in (0.2, 1.0, 3.0 + 0.5j):
            U = startup_transform(m, 60.0, om)
            np.testing.assert_allclose(
                U.sum(axis=1), np.exp(-om * 3.0) * np.ones(2), atol=1e-10
            )

    def test_silent_state_closed_form(self, onoff_model):
        # one delivering state: G(w) = (-1 - w + 4 / (w + 4)) / 30, and the
        # silent state first waits out its exit at rate 4
        for om in (0.3, 2.0, 1.0 + 1.0j):
            fill = np.exp(10.0 * (-1.0 - om + 4.0 / (om + 4.0)) / 30.0)
            np.testing.assert_allclose(startup_transform(onoff_model, 10.0, om),
                                       [[fill, 0.0], [4.0 / (om + 4.0) * fill, 0.0]],
                                       rtol=0, atol=1e-15)


class TestStartupAtoms:
    def test_silent_state_has_no_atom(self, onoff_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, masses = startup_atoms(onoff_model, 40.0)
        np.testing.assert_array_equal(times, [40.0 / 30.0, np.inf])
        np.testing.assert_array_equal(masses, [np.exp(-40.0 / 30.0), 0.0])


class TestStartupDelayCdf:
    def test_zero_before_fastest_fill(self, reference_model):
        # threshold 40 at top rate 30 fps needs at least 4/3 seconds
        U = startup_delay_cdf(reference_model, 40.0, 1.2)
        assert np.all(U == 0.0)

    def test_row_sums_approach_one(self, reference_model):
        U = startup_delay_cdf(reference_model, 40.0, 200.0)
        np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-7)

    def test_stochastic_ordering_in_threshold(self, reference_model):
        # A taller threshold delays pathwise, ordering the delay law itself
        # (row sums).  Individual (start, end-state) entries are not ordered:
        # the end-state mix also changes with the threshold.  High Euler
        # order keeps plateau noise below the 1e-7 comparison band.
        from fluidqoe import InversionParams

        sharp = InversionParams(l=1, m=25, n=70, A=18.4)
        for t in (2.0, 5.0, 10.0):
            u_small = startup_delay_cdf(reference_model, 20.0, t, sharp).sum(axis=1)
            u_large = startup_delay_cdf(reference_model, 50.0, t, sharp).sum(axis=1)
            assert np.all(u_large <= u_small + 1e-7)

    def test_matches_empirical_cdf(self, reference_model):
        delays, _ = prefetch_times(
            reference_model, 40.0, SimConfig(replications=40000, seed=13)
        )
        from fluidqoe import stationary_distribution

        pi = stationary_distribution(reference_model)
        for t in (1.5, 2.0, 3.0, 6.0):
            analytic = float(pi @ startup_delay_cdf(reference_model, 40.0, t).sum(axis=1))
            empirical = float((delays <= t).mean())
            assert analytic == pytest.approx(empirical, abs=0.02)


class TestExpectedStartupDelay:
    def test_single_state_exact(self):
        m = validate_model([[0.0]], [20.0], 25.0)
        assert expected_startup_delay(m, 100.0) == pytest.approx(5.0, abs=1e-9)

    def test_linear_in_threshold(self):
        m = validate_model([[0.0]], [16.0], 25.0)
        d1 = expected_startup_delay(m, 32.0)
        d2 = expected_startup_delay(m, 64.0)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-9)
        assert d1 == pytest.approx(2.0, abs=1e-9)

    def test_matches_survival_integral(self, reference_model):
        from fluidqoe import stationary_distribution

        pi = stationary_distribution(reference_model)
        mean = expected_startup_delay(reference_model, 40.0)
        ts = np.linspace(1e-3, 40.0, 1500)
        survival = [
            1.0 - float(pi @ startup_delay_cdf(reference_model, 40.0, float(t)).sum(axis=1))
            for t in ts
        ]
        assert mean == pytest.approx(np.trapezoid(survival, ts), rel=1e-3)

    def test_matches_monte_carlo(self, reference_model):
        delays, _ = prefetch_times(
            reference_model, 40.0, SimConfig(replications=60000, seed=29)
        )
        mean = expected_startup_delay(reference_model, 40.0)
        assert mean == pytest.approx(float(delays.mean()), rel=0.01)

    @pytest.mark.parametrize("x", [5.0, 40.0, 160.0])
    @pytest.mark.parametrize("source", sorted(MEAN_SOURCES))
    def test_exact_against_mpmath(self, source, x):
        Q, lam = MEAN_SOURCES[source]
        m = validate_model(Q, lam, 25.0)
        entry = stationary_distribution(m)
        exact = mpmath_mean(Q, lam, x, [mpmath.mpf(float(p)) for p in entry])
        assert expected_startup_delay(m, x) == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("c", [1e-4, 1e4])
    @pytest.mark.parametrize("source", ["two_state", "three_state", "silent_three_state"])
    def test_free_of_time_unit(self, source, c):
        # Q, lam and mu scaled by c make every time 1/c as long
        Q, lam = MEAN_SOURCES[source]
        mean = expected_startup_delay(validate_model(Q, lam, 25.0), 40.0)
        scaled = validate_model(np.multiply(Q, c), np.multiply(lam, c), 25.0 * c)
        assert expected_startup_delay(scaled, 40.0) * c == pytest.approx(mean, rel=1e-13, abs=0)

    def test_silent_entry_waits_out_its_excursion(self, onoff_model):
        # from the silent state: a mean 1/4 s of silence, then a fill from ON
        from_on = expected_startup_delay(onoff_model, 40.0, [1.0, 0.0])
        from_off = expected_startup_delay(onoff_model, 40.0, [0.0, 1.0])
        assert from_off == pytest.approx(from_on + 0.25, rel=1e-14)

    def test_explicit_entry_distribution(self, reference_model):
        fast = expected_startup_delay(reference_model, 40.0, [0.0, 1.0])
        slow = expected_startup_delay(reference_model, 40.0, [1.0, 0.0])
        assert fast < slow

    @pytest.mark.parametrize("entry", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0],
                                       [1e308, 1e308]],
                             ids=["zero_sum", "nan", "inf", "sum_overflows"])
    def test_bad_entry_distribution_rejected(self, reference_model, entry):
        with pytest.raises(DomainError, match="entry_distribution"):
            expected_startup_delay(reference_model, 40.0, entry)


class TestPrefetchEndDistribution:
    def test_boundary_identity(self, reference_model):
        np.testing.assert_array_equal(
            prefetch_end_distribution(reference_model, 40.0, 40.0), np.eye(2)
        )

    def test_rows_stochastic(self, reference_model):
        V = prefetch_end_distribution(reference_model, 0.0, 40.0)
        np.testing.assert_allclose(V.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(V >= 0.0) and np.all(V <= 1.0)

    def test_single_state_scalar_one(self):
        m = validate_model([[0.0]], [5.0], 1.0)
        np.testing.assert_array_equal(prefetch_end_distribution(m, 0.0, 10.0), [[1.0]])

    def test_semigroup_property(self, reference_model):
        V_full = prefetch_end_distribution(reference_model, 0.0, 40.0)
        for q in (10.0, 25.0, 39.0):
            left = prefetch_end_distribution(reference_model, 0.0, q)
            right = prefetch_end_distribution(reference_model, q, 40.0)
            np.testing.assert_allclose(left @ right, V_full, atol=1e-9)

    def test_silent_states_censored(self, onoff_model):
        V = prefetch_end_distribution(onoff_model, 0.0, 40.0)
        np.testing.assert_allclose(V, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_matches_empirical_end_states(self, reference_model):
        _, states = prefetch_times(
            reference_model, 40.0, SimConfig(replications=40000, seed=31,
                                             initial_state_mode=0)
        )
        V = prefetch_end_distribution(reference_model, 0.0, 40.0)
        freq = np.bincount(states, minlength=2) / states.size
        np.testing.assert_allclose(V[0], freq, atol=0.01)

    def test_invalid_levels(self, reference_model):
        with pytest.raises(DomainError):
            prefetch_end_distribution(reference_model, 10.0, 5.0)
        with pytest.raises(DomainError):
            prefetch_end_distribution(reference_model, -1.0, 5.0)

    @pytest.mark.parametrize("x", [np.inf, np.nan])
    def test_nonfinite_threshold_rejected(self, reference_model, x):
        for call in (lambda: startup_transform(reference_model, x, 1.0),
                     lambda: expected_startup_delay(reference_model, x),
                     lambda: prefetch_end_distribution(reference_model, 0.0, x)):
            with pytest.raises(DomainError, match="x must be finite|with x finite"):
                call()

    def test_all_silent_unreachable(self):
        # every start-up function refuses a source that delivers nothing,
        # the CDF too, although no atom gives it a time to invert
        m = validate_model([[-1, 1], [2, -2]], [0.0, 0.0], 1.0)
        for call in (lambda: startup_transform(m, 10.0, 1.0),
                     lambda: expected_startup_delay(m, 10.0),
                     lambda: prefetch_end_distribution(m, 0.0, 10.0),
                     lambda: startup_delay_cdf(m, 10.0, [1.0, 5.0])):
            with pytest.raises(InfeasiblePlayout):
                call()


class TestSilentSource:
    """The on-off demo source against the fill simulator at 100 000
    replications: the mean and the CDF lie within the 95 % intervals."""

    @pytest.fixture(scope="class")
    def delays(self, onoff_model):
        return prefetch_times(onoff_model, 40.0, SimConfig(replications=100_000, seed=47))[0]

    def test_mean_within_simulated_ci(self, onoff_model, delays):
        half = 1.96 * delays.std(ddof=1) / np.sqrt(delays.size)
        assert abs(expected_startup_delay(onoff_model, 40.0) - delays.mean()) <= half

    def test_cdf_within_simulated_ci(self, onoff_model, delays):
        pi = stationary_distribution(onoff_model)
        times = np.array([1.5, 2.0, 3.0, 5.0])
        analytic = startup_delay_cdf(onoff_model, 40.0, times).sum(axis=2) @ pi
        empirical = (delays[:, None] <= times).mean(axis=0)
        half = 1.96 * np.sqrt(empirical * (1.0 - empirical) / delays.size)
        assert np.all(np.abs(analytic - empirical) <= half)

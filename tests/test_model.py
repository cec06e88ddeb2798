import numpy as np
import pytest

from fluidqoe import (
    DimensionMismatch,
    NegativeOffDiagonal,
    NonPositivePlayoutRate,
    Reducible,
    RowSumViolation,
    SessionParams,
    DomainError,
    effective_rates,
    mean_drift,
    stationary_distribution,
    validate_model,
)


class TestValidateModel:
    def test_reference_model_is_valid(self, reference_model):
        assert reference_model.n_states == 2
        assert reference_model.mu == 25.0

    def test_row_sum_violation_names_row(self):
        with pytest.raises(RowSumViolation, match="row 0"):
            validate_model([[-1, 2], [1, -1]], [1, 1], 1.0)

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_model([[-1, 1], [-1, 1]], [1, 1], 1.0)

    def test_positive_diagonal_rejected(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_model([[1, -1], [2, -2]], [1, 1], 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_model([[-1, 1], [1, -1]], [1, 2, 3], 1.0)
        with pytest.raises(DimensionMismatch):
            validate_model([[-1, 1, 0], [1, -1, 0]], [1, 2], 1.0)

    def test_nonpositive_playout(self):
        with pytest.raises(NonPositivePlayoutRate):
            validate_model([[0.0]], [1.0], 0.0)
        with pytest.raises(NonPositivePlayoutRate):
            validate_model([[-1, 1], [1, -1]], [1, -2], 1.0)

    def test_reducible_rejected(self):
        with pytest.raises(Reducible, match="into 2 communicating classes"):
            validate_model([[0, 0], [0, 0]], [1, 2], 1.0)
        with pytest.raises(Reducible, match="into 2 communicating classes"):
            validate_model(
                [[-1, 1, 0], [1, -1, 0], [0, 1, -1]], [1, 2, 3], 1.0
            )
        with pytest.raises(Reducible, match="into 3 communicating classes"):
            validate_model(
                [[-1, 1, 0], [0, -1, 1], [0, 0, 0]], [1, 2, 3], 1.0
            )

    def test_one_way_chain_is_reducible(self):
        with pytest.raises(Reducible):
            validate_model([[-1, 1], [0, 0]], [1, 2], 1.0)

    def test_model_arrays_are_immutable(self, reference_model):
        with pytest.raises(ValueError):
            reference_model.Q[0, 0] = 1.0


class TestSessionParams:
    def test_valid(self):
        p = SessionParams(x=40, Z=500)
        assert p.x == 40 and p.Z == 500

    @pytest.mark.parametrize("x,Z", [(0, 10), (10, 0), (20, 10), (-1, 10)])
    def test_invalid(self, x, Z):
        with pytest.raises(DomainError):
            SessionParams(x=x, Z=Z)


class TestStationaryDistribution:
    def test_reference_value(self, reference_model):
        # balance: pi_1 * beta = pi_2 * alpha with beta=6, alpha=2
        pi = stationary_distribution(reference_model)
        np.testing.assert_allclose(pi, [0.25, 0.75], atol=1e-14)

    def test_single_state(self):
        m = validate_model([[0.0]], [5.0], 1.0)
        np.testing.assert_array_equal(stationary_distribution(m), [1.0])

    def test_symmetric_rates(self):
        m = validate_model([[-3, 3], [3, -3]], [1, 2], 1.0)
        np.testing.assert_allclose(stationary_distribution(m), [0.5, 0.5], atol=1e-14)

    def test_residual_and_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L = rng.integers(2, 6)
            Q = rng.uniform(0.1, 4.0, (L, L))
            np.fill_diagonal(Q, 0.0)
            np.fill_diagonal(Q, -Q.sum(axis=1))
            m = validate_model(Q, rng.uniform(0, 10, L), 1.0)
            pi = stationary_distribution(m)
            scale = np.max(np.abs(Q))
            assert np.max(np.abs(pi @ (m.Q / scale))) < 1e-12
            assert abs(pi.sum() - 1.0) < 1e-12
            assert np.all(pi >= 0)

    def test_invariant_under_generator_scaling(self, reference_model):
        pi = stationary_distribution(reference_model)
        for c in (1e-6, 3.0, 1e6):
            scaled = validate_model(c * reference_model.Q, reference_model.lam, 25.0)
            np.testing.assert_allclose(stationary_distribution(scaled), pi, atol=1e-12)


class TestMeanDrift:
    def test_reference_drift(self, reference_model):
        report = mean_drift(reference_model)
        assert report.drift == pytest.approx(-2.0, abs=1e-12)
        assert report.stable

    def test_all_rates_above_playout(self):
        m = validate_model([[-1, 1], [1, -1]], [30, 40], 25.0)
        report = mean_drift(m)
        assert report.drift > 0 and not report.stable

    def test_single_state_zero_drift(self):
        m = validate_model([[0.0]], [25.0], 25.0)
        report = mean_drift(m)
        assert report.drift == 0.0
        assert not report.stable


class TestEffectiveRates:
    def test_playback(self, reference_model):
        np.testing.assert_array_equal(
            effective_rates(reference_model, "playback"), [-23.0, 5.0]
        )

    def test_prefetch(self, reference_model):
        np.testing.assert_array_equal(
            effective_rates(reference_model, "prefetch"), [-2.0, -30.0]
        )

    def test_zero_rate_state(self):
        m = validate_model([[-2, 2], [6, -6]], [25.0, 2.0], 25.0)
        r = effective_rates(m, "playback")
        assert r[0] == 0.0

    def test_rates_plus_playout_recover_arrivals(self, reference_model):
        r = effective_rates(reference_model, "playback")
        np.testing.assert_array_equal(r + reference_model.mu, reference_model.lam)

    def test_unknown_mode(self, reference_model):
        with pytest.raises(ValueError):
            effective_rates(reference_model, "sideways")

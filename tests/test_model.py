import dataclasses
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fluidqoe import (
    CostWeights,
    DimensionMismatch,
    NegativeOffDiagonal,
    NonPositivePlayoutRate,
    Reducible,
    RowSumViolation,
    SessionParams,
    DomainError,
    InversionParams,
    SimConfig,
    effective_rates,
    mean_drift,
    stationary_distribution,
    validate_model,
)
from fluidqoe.model import _communicating_classes


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

    @pytest.mark.parametrize("Q, lam, mu, field", [
        ([[-1, 1], [1, -1]], [np.nan, 30], 25.0, "lambda"),
        ([[-1, 1], [1, -1]], [np.inf, 30], 25.0, "lambda"),
        ([[-np.inf, np.inf], [1, -1]], [2, 30], 25.0, "Q"),
        ([[-1, 1], [1, -1]], [2, 30], np.inf, "mu"),
    ])
    def test_nonfinite_numbers_rejected(self, Q, lam, mu, field):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            validate_model(Q, lam, mu)

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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: arrays(bool, (n, n), elements=st.booleans())))
    def test_class_count_matches_unique_rows(self, edges):
        reach = np.eye(len(edges), dtype=bool) | edges
        for _ in range(len(edges)):
            reach = reach @ reach
        expected = len(np.unique(reach & reach.T, axis=0))
        assert _communicating_classes(edges) == expected

    def test_validation_leaves_numpy_ma_unimported(self):
        code = ("import sys; import fluidqoe; "
                "fluidqoe.validate_model([[-1, 1], [2, -2]], [1.0, 3.0], 2.0); "
                "sys.exit('numpy.ma' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestValueClasses:
    VALUES = [
        SessionParams(x=40.0, Z=500.0),
        CostWeights(1.0, 0.5, 0.0),
        SimConfig(replications=10, seed=3, initial_state_mode=1),
        InversionParams(l=2, m=11, n=38, A=18.4),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_pickle_replace_hash(self, value):
        assert not hasattr(value, "__dict__")
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)
        field = dataclasses.fields(value)[0].name
        changed = dataclasses.replace(value, **{field: getattr(value, field) + 1})
        assert changed != value
        assert dataclasses.replace(changed, **{field: getattr(value, field)}) == value

    def test_model_pickle_and_replace(self, reference_model):
        assert not hasattr(reference_model, "__dict__")
        again = pickle.loads(pickle.dumps(reference_model))
        np.testing.assert_array_equal(again.Q, reference_model.Q)
        np.testing.assert_array_equal(again.lam, reference_model.lam)
        assert again.mu == reference_model.mu and not again.Q.flags.writeable
        faster = dataclasses.replace(reference_model, mu=30.0)
        assert faster.mu == 30.0 and faster.Q is not reference_model.Q
        with pytest.raises(Reducible):
            dataclasses.replace(reference_model, Q=np.zeros((2, 2)))


class TestSessionParams:
    def test_valid(self):
        p = SessionParams(x=40, Z=500)
        assert p.x == 40 and p.Z == 500

    @pytest.mark.parametrize("x,Z", [(0, 10), (10, 0), (20, 10), (-1, 10), (10, np.inf),
                                     (np.inf, np.inf), (np.nan, 10), (10, np.nan)])
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
            effective_rates(reference_model), [-23.0, 5.0]
        )

    def test_zero_rate_state(self):
        m = validate_model([[-2, 2], [6, -6]], [25.0, 2.0], 25.0)
        r = effective_rates(m)
        assert r[0] == 0.0

    def test_rates_plus_playout_recover_arrivals(self, reference_model):
        r = effective_rates(reference_model)
        np.testing.assert_array_equal(r + reference_model.mu, reference_model.lam)

import functools
import math

import numpy as np
import pytest

from fluidqoe import (
    DomainError,
    InversionParams,
    OutOfRange,
    OverflowRisk,
    invert,
    invert_cdf,
    self_test,
)
from fluidqoe.inversion import (
    _TIMES_PER_CALL,
    DEFAULT_PARAMS,
    LEGACY_M64_PARAMS,
    reference_original,
    reference_transform,
)
from fluidqoe.spectral import transform_matrix


def damped_sine(omega):
    return np.pi / ((omega + 2.0) ** 2 + np.pi**2)


class TestInvert:
    def test_damped_sine_at_one(self):
        # sin(pi) = 0, so the inverse at t=1 must vanish
        assert abs(invert(damped_sine, 1.0)) < 1e-6

    def test_damped_sine_at_half(self):
        assert invert(damped_sine, 0.5) == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_exponential(self):
        assert invert(lambda w: 1.0 / (1.0 + w), 1.3) == pytest.approx(
            math.exp(-1.3), abs=1e-7
        )

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            invert(damped_sine, 0.0)
        with pytest.raises(DomainError):
            invert(damped_sine, -1.0)

    def test_deterministic_bitwise(self):
        a = invert(damped_sine, 0.7)
        b = invert(damped_sine, 0.7)
        assert a == b

    def test_linearity(self):
        f = lambda w: 1.0 / (1.0 + w)
        g = damped_sine
        combo = lambda w: 2.5 * f(w) - 0.75 * g(w)
        t = 0.9
        lhs = invert(combo, t)
        rhs = 2.5 * invert(f, t) - 0.75 * invert(g, t)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_array_valued_evaluator(self):
        f = lambda w: np.stack([1.0 / (1.0 + w), damped_sine(w)], axis=-1)
        out = invert(f, 0.5)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(math.exp(-0.5), abs=1e-7)
        assert out[1] == pytest.approx(float(reference_original(0.5)), abs=1e-7)

    def test_evaluation_caching(self):
        calls = []

        def counting(w):
            calls.append(w.shape[0])
            return damped_sine(w)

        invert(counting, 1.0)
        assert len(calls) == 1
        assert calls[0] == DEFAULT_PARAMS.n_evaluations

    def test_batch_matches_scalar_calls(self, reference_model):
        # more times than one evaluator call takes, on a scalar and a 2x2 transform
        ts = np.linspace(0.05, 12.0, 2 * _TIMES_PER_CALL + 5)
        for f in (damped_sine, functools.partial(transform_matrix, reference_model, 40.0)):
            batch = invert(f, ts)
            one_by_one = np.array([invert(f, float(t)) for t in ts])
            assert batch.shape == one_by_one.shape
            np.testing.assert_allclose(batch, one_by_one, rtol=0.0, atol=1e-14)

    def test_batch_requires_positive_times(self):
        for ts in ([0.5, 0.0, 1.0], [1.0, 2.0, -0.1], []):
            with pytest.raises(DomainError):
                invert(damped_sine, np.array(ts))
        with pytest.raises(DomainError):
            invert(damped_sine, np.ones((2, 2)))

    def test_batch_evaluation_caching(self):
        calls = []

        def counting(w):
            calls.append(w.shape[0])
            return damped_sine(w)

        n_times = 2 * _TIMES_PER_CALL + 3
        invert(counting, np.linspace(0.1, 5.0, n_times))
        assert len(calls) == math.ceil(n_times / _TIMES_PER_CALL)
        assert sum(calls) == n_times * DEFAULT_PARAMS.n_evaluations

    def test_oversampled_grid(self):
        params = InversionParams(l=2, m=11, n=20, A=30.0)
        assert invert(damped_sine, 0.5, params) == pytest.approx(
            math.exp(-1.0), abs=1e-8
        )


class TestInvertCdf:
    def test_unit_step(self):
        for t in (0.1, 1.0, 7.5):
            assert invert_cdf(lambda w: np.ones_like(w), t) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_exponential_cdf(self):
        # aliasing error at A=18.4 is ~e^-A ~ 1e-8
        lst = lambda w: 2.0 / (2.0 + w)  # LST of Exp(2)
        assert invert_cdf(lst, 0.8) == pytest.approx(1 - math.exp(-1.6), abs=5e-8)

    def test_clamping_reports_raw(self):
        lst = lambda w: (1.0 + 5e-4) * np.ones_like(w)
        assert invert(lambda w: lst(w) / w, 1.0) > 1.0
        assert invert_cdf(lst, 1.0) == 1.0

    def test_out_of_range(self):
        lst = lambda w: 1.01 * np.ones_like(w)
        with pytest.raises(OutOfRange):
            invert_cdf(lst, 1.0)


    def test_out_of_range_at_one_time_of_a_batch(self):
        # 1.01 (1 - e^-2t) leaves the band only once it passes 1.001, near t = 2.35
        lst = lambda w: 1.01 * 2.0 / (2.0 + w)
        assert invert_cdf(lst, np.array([0.5, 1.0])).shape == (2,)
        with pytest.raises(OutOfRange, match="t=3"):
            invert_cdf(lst, np.array([0.5, 1.0, 3.0, 1.5]))
        # the first failing time in the order given is named with its worst
        # entry, as a loop over the times would, though t = 10 is worse
        pair = lambda w: np.stack([1.005 * 2.0 / (2.0 + w), lst(w)], axis=-1)
        with pytest.raises(OutOfRange, match=r"value 1\.0075 at t=3 "):
            invert_cdf(pair, np.array([0.5, 3.0, 10.0]))

    def test_nan_is_out_of_range(self):
        # NaN fails every comparison, so it must not slip through the band
        # check and leave the clamp as a probability
        lst = lambda w: np.where(w.real < 10.0, np.nan, 1.0)
        with pytest.raises(OutOfRange, match=r"value nan at t=1 "):
            invert_cdf(lst, np.array([0.5, 1.0]))


class TestInversionParams:
    @pytest.mark.parametrize("kw", [dict(l=0), dict(m=-1), dict(n=0), dict(A=0.0)])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(DomainError):
            InversionParams(**kw)

    @pytest.mark.parametrize("kw", [dict(l=2.0), dict(m=11.0), dict(n=38.5), dict(l=True)],
                             ids=["l_float", "m_float", "n_fraction", "l_bool"])
    def test_rejects_non_integer_counts(self, kw):
        with pytest.raises(DomainError, match="must be an integer"):
            InversionParams(**kw)

    def test_numpy_integer_counts(self):
        params = InversionParams(l=np.int64(1), m=np.int32(11), n=np.uint8(38))
        assert params == DEFAULT_PARAMS
        assert all(type(v) is int for v in (params.l, params.m, params.n))
        assert invert(damped_sine, 1.0, params) == invert(damped_sine, 1.0)

    def test_precision_ceiling(self):
        with pytest.raises(OverflowRisk):
            invert(damped_sine, 1.0, InversionParams(**LEGACY_M64_PARAMS))

    def test_large_A_allowed_with_oversampling(self):
        # A/l is what matters: l=3 brings the legacy A under the ceiling
        params = InversionParams(l=3, m=11, n=20, A=98.0)
        params.check_precision()


class TestSelfTest:
    def test_default_params_pass(self):
        report = self_test()
        assert report.passed
        assert report.max_abs_error < 1e-6

    def test_reference_pair_is_consistent(self):
        # the frozen transform matches direct quadrature of the original
        u = np.linspace(0, 40, 400001)
        for s in (0.6, 1.7):
            quad = np.trapezoid(np.exp(-s * u) * reference_original(u), u)
            assert reference_transform(np.array([s + 0j]))[0].real == pytest.approx(
                quad, abs=1e-8
            )

    def test_legacy_params_reported_not_raised(self):
        report = self_test(InversionParams(**LEGACY_M64_PARAMS))
        assert not report.passed
        assert report.failure is not None

    def test_degenerate_params_large_error_no_crash(self):
        report = self_test(InversionParams(l=1, m=0, n=1, A=18.4))
        assert not report.passed
        assert math.isfinite(report.max_abs_error)

    def test_report_serializes(self):
        d = self_test().to_dict()
        assert d["passed"] is True
        assert isinstance(d["max_abs_error"], float)

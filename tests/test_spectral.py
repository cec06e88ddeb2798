import warnings

import numpy as np
import pytest
import scipy.linalg

from fluidqoe import (
    BoundaryRootWarning,
    DefectivePencil,
    DimensionMismatch,
    IllConditionedWarning,
    TwoStateParams,
    ZeroArrivalState,
    boundary_coefficients,
    characteristic_roots,
    transform_matrix,
    two_state_transform,
    validate_model,
)
from fluidqoe import spectral
from fluidqoe.inversion import _TIMES_PER_CALL, DEFAULT_PARAMS, _euler_constants
from fluidqoe.spectral import OMEGA_FLOOR, SpectralSolution, evaluator
from conftest import omega_grid


def quadratic_oracle(p: TwoStateParams, omega):
    """Roots of the characteristic quadratic, found by an independent solver.

    det(Q + s R - w I) expands (for state 1 carrying lambda1 and exit rate
    beta) to  a s^2 - b s + c  with a = r1 r2, b = r1 (w+alpha) + r2 (w+beta),
    c = w (w + alpha + beta).
    """
    r1, r2 = p.lambda1 - p.mu, p.lambda2 - p.mu
    a = r1 * r2
    b = r1 * (omega + p.alpha) + r2 * (omega + p.beta)
    c = omega * (omega + p.alpha + p.beta)
    return np.roots([a, -b, c]) if a != 0 else np.array([c / b])


def random_two_state(rng):
    lam = rng.uniform(0.0, 50.0, 2)
    return TwoStateParams(
        alpha=rng.uniform(0.2, 8.0), beta=rng.uniform(0.2, 8.0),
        lambda1=lam[0], lambda2=lam[1], mu=rng.uniform(5.0, 45.0),
    )


class TestCharacteristicRoots:
    def test_reference_matches_quadratic_oracle(self, theorem_cases):
        p = theorem_cases["one_drains"]
        sol = characteristic_roots(p.to_model(), 1.0, "playback")
        expected = np.sort_complex(quadratic_oracle(p, 1.0))
        np.testing.assert_allclose(np.sort_complex(sol.roots), expected, atol=1e-12)

    def test_both_draining_both_negative(self, theorem_cases):
        p = theorem_cases["both_drain"]
        for om in np.geomspace(0.05, 8.0, 7):
            sol = characteristic_roots(p.to_model(), om, "playback")
            assert sol.negative_set.size == 2

    def test_zero_rate_state_reduces_degree(self, theorem_cases):
        p = theorem_cases["zero_rate"]  # lambda1 = mu
        om = 0.8
        sol = characteristic_roots(p.to_model(), om, "playback")
        assert sol.n_roots == 1
        expected = om * (om + p.alpha + p.beta) / ((p.lambda2 - p.mu) * (om + p.beta))
        assert sol.roots[0] == pytest.approx(expected, abs=1e-12)
        assert sol.roots[0].real < 0

    def test_pencil_residual_invariant(self, theorem_cases):
        for p in theorem_cases.values():
            m = p.to_model()
            scale = np.max(np.abs(m.Q))
            for om in (0.3, 2.0 + 1.5j, 5.0 - 0.7j):
                sol = characteristic_roots(m, om, "playback")
                R = np.diag(sol.rates)
                for k in range(sol.n_roots):
                    res = (m.Q + sol.roots[k] * R - sol.omega * np.eye(2)) @ sol.eigvecs[:, k]
                    assert np.max(np.abs(res)) < 1e-10 * scale

    def test_conjugate_symmetry(self, reference_model):
        om = 1.3 + 0.8j
        sol = characteristic_roots(reference_model, om, "playback")
        conj = characteristic_roots(reference_model, np.conj(om), "playback")
        np.testing.assert_allclose(
            np.sort_complex(conj.roots), np.sort_complex(np.conj(sol.roots)), atol=1e-10
        )

    def test_root_count_equals_nonzero_rates(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = random_two_state(rng)
            m = p.to_model()
            sol = characteristic_roots(m, rng.uniform(0.05, 5.0), "playback")
            degree = int(np.sum(m.lam != m.mu))
            assert sol.n_roots == degree

    def test_eigvec_normalization(self, reference_model):
        sol = characteristic_roots(reference_model, 0.9, "playback")
        for k in range(sol.n_roots):
            mags = np.abs(sol.eigvecs[:, k])
            peak = np.argmax(mags)
            assert sol.eigvecs[peak, k] == pytest.approx(1.0)

    def test_near_zero_complex_frequency_warns(self, reference_model):
        with pytest.warns(BoundaryRootWarning):
            characteristic_roots(reference_model, 1e-30j + 1e-31, "playback")

    def test_defective_pencil_detection(self):
        from fluidqoe import DefectivePencil
        from fluidqoe.spectral import _check_defective

        roots = np.array([[-1.0 + 0j, -1.0 + 1e-12j]])
        om = np.array([1.0 + 0j])
        parallel = np.array([[[1.0, 1.0], [0.5, 0.5]]], dtype=complex)
        with pytest.raises(DefectivePencil):
            _check_defective(roots, parallel, om)
        independent = np.array([[[1.0, 1.0], [0.5, -0.5]]], dtype=complex)
        _check_defective(roots, independent, om)  # eigenspace is full

    def test_prefetch_roots_all_negative(self, reference_model):
        sol = characteristic_roots(reference_model, 0.7, "prefetch")
        assert sol.n_roots == 2
        assert sol.negative_set.size == 2


class TestSignPlacement:
    """Root signs must follow the draining/filling pattern for real w > 0."""

    def test_randomized_configurations(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            p = random_two_state(rng)
            m = p.to_model()
            om = rng.uniform(1e-3, 10.0)
            sol = characteristic_roots(m, om, "playback")
            rates = m.lam - m.mu
            n_drain = int(np.sum(rates < 0))
            n_fill = int(np.sum(rates > 0))
            assert sol.negative_set.size == n_drain
            assert int(np.sum(sol.roots.real > 1e-12)) == n_fill
            checked += 1

    def test_equal_rates_below_playout(self):
        p = TwoStateParams(alpha=1.5, beta=2.5, lambda1=10, lambda2=10, mu=25)
        sol = characteristic_roots(p.to_model(), 0.4, "playback")
        assert sol.negative_set.size == 2

    def test_equal_rates_above_playout_no_starvation(self):
        p = TwoStateParams(alpha=1.5, beta=2.5, lambda1=30, lambda2=30, mu=25)
        sol = characteristic_roots(p.to_model(), 0.4, "playback")
        assert sol.negative_set.size == 0


class TestBoundaryCoefficients:
    def test_defining_system_residual_random_three_state(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(12):
            Q = rng.uniform(0.2, 3.0, (3, 3))
            np.fill_diagonal(Q, 0.0)
            np.fill_diagonal(Q, -Q.sum(axis=1))
            m = validate_model(Q, rng.uniform(0, 50, 3), 25.0)
            om = rng.uniform(0.1, 4.0) + 1j * rng.uniform(-2, 2)
            sol = characteristic_roots(m, om, "playback")
            co = boundary_coefficients(sol, m, "playback")
            if co.rows.size == 0:
                continue
            system = sol.eigvecs[np.ix_(co.rows, co.root_indices)]
            rhs = np.eye(3)[co.rows, :]
            assert np.max(np.abs(system @ co.a - rhs)) < 1e-10
            checked += 1
        assert checked >= 5

    def test_single_draining_state_coefficient_is_one(self, theorem_cases):
        p = theorem_cases["one_drains"]
        m = p.to_model()
        sol = characteristic_roots(m, 1.0, "playback")
        co = boundary_coefficients(sol, m, "playback")
        assert co.a.shape == (1, 2)
        assert co.a[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert co.a[0, 1] == 0.0

    def test_prefetch_requires_positive_rates(self, onoff_model):
        sol = characteristic_roots(onoff_model, 1.0, "prefetch")
        with pytest.raises(ZeroArrivalState):
            boundary_coefficients(sol, onoff_model, "prefetch")

    def test_ill_conditioned_system_warns_and_flags(self, reference_model):
        # synthetic near-parallel eigenvectors exercise the safety net
        from fluidqoe import IllConditionedWarning
        from fluidqoe.spectral import SpectralSolution

        vecs = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], dtype=complex)
        sol = SpectralSolution(
            omega=1.0 + 0j, mode="prefetch",
            rates=-reference_model.lam,
            roots=np.array([-0.5 + 0j, -0.9 + 0j]),
            eigvecs=vecs,
        )
        with pytest.warns(IllConditionedWarning):
            co = boundary_coefficients(sol, reference_model, "prefetch")
        assert co.ill_conditioned
        assert co.condition > 1e12


class TestTwoStateTransform:
    def test_agrees_with_generic_path(self, theorem_cases):
        omegas = omega_grid(9)
        for name, p in theorem_cases.items():
            m = p.to_model()
            closed = two_state_transform(p, 7.0, omegas, "starvation")
            for i, om in enumerate(omegas):
                generic = transform_matrix(m, 7.0, om, "playback")
                assert np.max(np.abs(closed[i] - generic)) < 1e-10, (name, om)

    def test_startup_agrees_with_generic_path(self, theorem_cases):
        omegas = omega_grid(7)
        for name, p in theorem_cases.items():
            if p.lambda1 <= 0 or p.lambda2 <= 0:
                continue
            m = p.to_model()
            closed = two_state_transform(p, 5.0, omegas, "startup")
            for i, om in enumerate(omegas):
                generic = transform_matrix(m, 5.0, om, "prefetch")
                assert np.max(np.abs(closed[i] - generic)) < 1e-10, (name, om)

    def test_zero_threshold_identity_on_draining(self, theorem_cases):
        H = two_state_transform(theorem_cases["both_drain"], 0.0, 1.0, "starvation")
        np.testing.assert_allclose(H, np.eye(2), atol=1e-12)

    def test_zero_threshold_single_draining(self, theorem_cases):
        H = two_state_transform(theorem_cases["one_drains"], 0.0, 1.0, "starvation")
        assert H[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(H[:, 1], 0.0)

    def test_onoff_transform_finite(self, theorem_cases):
        H = two_state_transform(theorem_cases["onoff"], 10.0, 0.5, "starvation")
        assert np.all(np.isfinite(H))
        # starvation only in the silent state (index 1)
        assert np.allclose(H[:, 0], 0.0)
        assert np.all(np.abs(H[:, 1]) > 0)

    def test_startup_rejects_silent_state(self, theorem_cases):
        with pytest.raises(ZeroArrivalState):
            two_state_transform(theorem_cases["onoff"], 5.0, 1.0, "startup")

    def test_from_model_round_trip(self, reference_model):
        p = TwoStateParams.from_model(reference_model)
        assert (p.alpha, p.beta) == (2.0, 6.0)
        assert (p.lambda1, p.lambda2) == (2.0, 30.0)
        m = p.to_model()
        np.testing.assert_array_equal(m.Q, reference_model.Q)

    def test_from_model_requires_two_states(self):
        m = validate_model([[0.0]], [1.0], 2.0)
        with pytest.raises(DimensionMismatch):
            TwoStateParams.from_model(m)


def _reference_transform(model, x, omega, mode):
    """The per-frequency generic transform that the stacked path replaced:
    one clip, Schur complement, ``scipy.linalg.eig``, sort, lift,
    normalization and boundary solve per frequency."""
    om = complex(omega)
    if om.imag == 0.0 and 0.0 <= om.real < OMEGA_FLOOR:
        om = complex(OMEGA_FLOOR)
    rates = model.lam - model.mu if mode == "playback" else -model.lam
    L = model.n_states
    M = model.Q - om * np.eye(L)
    nz = np.nonzero(rates != 0.0)[0]
    zero = np.nonzero(rates == 0.0)[0]
    reduced = M[np.ix_(nz, nz)]
    if zero.size:
        lifted = np.linalg.solve(M[np.ix_(zero, zero)], M[np.ix_(zero, nz)])
        reduced = reduced - M[np.ix_(nz, zero)] @ lifted
    s_vals, vecs = scipy.linalg.eig(reduced / -rates[nz, None].astype(complex))
    order = np.lexsort((s_vals.imag, s_vals.real))
    s_vals = s_vals[order]
    vecs = vecs[:, order]
    full = np.zeros((L, nz.size), dtype=complex)
    full[nz, :] = vecs
    if zero.size:
        full[zero, :] = -lifted @ vecs
    peak = np.argmax(np.abs(full), axis=0)
    full = full / full[peak, np.arange(full.shape[1])]
    if mode == "playback":
        rows = np.nonzero(rates < 0.0)[0]
        sel = np.nonzero(s_vals.real < -spectral.SIGN_TOL)[0]
    else:
        rows = np.arange(L)
        sel = np.arange(s_vals.size)
    assert rows.size == sel.size
    if sel.size == 0:
        return np.zeros((L, L), dtype=complex)
    a = np.linalg.solve(full[np.ix_(rows, sel)], np.eye(L, dtype=complex)[rows, :])
    growth = np.exp(s_vals[sel] * x)
    return full[:, sel] @ (growth[:, None] * a)


def _inversion_block():
    """The frequencies of one full evaluator call of the inverter; the last
    time is so long that its real abscissa falls below the evaluation floor."""
    times = np.r_[np.geomspace(0.05, 60.0, _TIMES_PER_CALL - 1), 1e9]
    scaled_idx = _euler_constants(DEFAULT_PARAMS)[0]
    l = DEFAULT_PARAMS.l
    omegas = DEFAULT_PARAMS.A / (2 * l * times)[:, None] + scaled_idx / (l * times)[:, None]
    return omegas.reshape(-1)


Q3 = [[-3.0, 2.0, 1.0], [1.0, -2.0, 1.0], [2.0, 2.0, -4.0]]
STACK_SOURCES = {
    "three_state": (Q3, [5.0, 20.0, 40.0]),
    "four_state": ([[-4.0, 1.0, 2.0, 1.0], [1.0, -3.0, 1.0, 1.0],
                    [2.0, 2.0, -5.0, 1.0], [0.5, 0.5, 1.0, -2.0]], [3.0, 12.0, 30.0, 45.0]),
    "zero_rate": (Q3, [5.0, 25.0, 40.0]),
    "two_state": ([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0]),
}


class TestStackedPencil:
    @pytest.mark.parametrize("mode", ["playback", "prefetch"])
    @pytest.mark.parametrize("source", sorted(STACK_SOURCES))
    def test_block_matches_per_frequency_reference(self, source, mode):
        Q, lam = STACK_SOURCES[source]
        m = validate_model(Q, lam, 25.0)
        omegas = _inversion_block()
        assert omegas.size == _TIMES_PER_CALL * DEFAULT_PARAMS.n_evaluations
        assert np.any((omegas.imag == 0.0) & (omegas.real < OMEGA_FLOOR))
        stacked = evaluator(m, 20.0, mode, "generic")(omegas)
        reference = np.stack([_reference_transform(m, 20.0, w, mode) for w in omegas])
        np.testing.assert_array_equal(stacked, reference)

    def test_defective_frequency_named(self):
        from fluidqoe.spectral import _check_defective

        om = np.array([0.5, 1.0, 1.5, 2.0], dtype=complex)
        roots = np.tile(np.array([-2.0 + 0j, -1.0 + 0j]), (4, 1))
        vecs = np.tile(np.array([[1.0, 1.0], [0.5, -0.5]], dtype=complex), (4, 1, 1))
        roots[1, 1] = roots[1, 0] + 1e-12j  # repeated, eigenspace full
        roots[2, 1] = roots[2, 0] + 1e-12j  # repeated, eigenvectors parallel
        vecs[2, 1, 1] = vecs[2, 1, 0]
        _check_defective(np.delete(roots, 2, axis=0), np.delete(vecs, 2, axis=0), om[[0, 1, 3]])
        with pytest.raises(DefectivePencil, match=r"omega=\(1\.5\+0j\)"):
            _check_defective(roots, vecs, om)

    def test_stack_warns_boundary_roots_where_scalar_did(self, reference_model):
        omegas = np.array([0.5, 2.0 + 1.0j, 1e-31 + 1e-30j, 3.0], dtype=complex)
        scalar_warned = []
        for w in omegas:
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                characteristic_roots(reference_model, w, "playback")
            scalar_warned.append(any(e.category is BoundaryRootWarning for e in log))
        assert scalar_warned == [False, False, True, False]
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            sol = characteristic_roots(reference_model, omegas, "playback")
        hits = [e for e in log if e.category is BoundaryRootWarning]
        assert len(hits) == 1
        assert f"omega={complex(omegas[2])}" in str(hits[0].message)
        assert sol.roots.shape == (4, 2)

    def test_stack_warns_ill_conditioned_where_scalar_did(self, reference_model):
        good = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], dtype=complex)
        stack = SpectralSolution(
            omega=np.array([1.0, 2.0, 3.0], dtype=complex), mode="prefetch",
            rates=-reference_model.lam,
            roots=np.tile(np.array([-0.9 + 0j, -0.5 + 0j]), (3, 1)),
            eigvecs=np.stack([good, near, good]),
        )
        for k, expect in enumerate([False, True, False]):
            one = SpectralSolution(omega=complex(stack.omega[k]), mode="prefetch",
                                   rates=stack.rates, roots=stack.roots[k],
                                   eigvecs=stack.eigvecs[k])
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                assert boundary_coefficients(one, reference_model).ill_conditioned == expect
            assert any(e.category is IllConditionedWarning for e in log) == expect
        with pytest.warns(IllConditionedWarning, match=r"omega=\(2\+0j\)") as log:
            co = boundary_coefficients(stack, reference_model)
        assert len([e for e in log if e.category is IllConditionedWarning]) == 1
        assert co.ill_conditioned.tolist() == [False, True, False]
        assert co.a.shape == (3, 2, 2)

    def test_generic_block_solves_pencil_once(self, monkeypatch):
        calls = []
        solve = spectral.characteristic_roots

        def counted(*args, **kwargs):
            calls.append(np.size(args[1]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectral, "characteristic_roots", counted)
        m = validate_model(Q3, [5.0, 20.0, 40.0], 25.0)
        omegas = _inversion_block()
        H = evaluator(m, 20.0, "playback")(omegas)
        assert H.shape == (omegas.size, 3, 3)
        assert calls == [omegas.size]

import warnings

import numpy as np
import pytest
import scipy.linalg

from fluidqoe import (
    BoundaryRootWarning,
    DefectivePencil,
    DimensionMismatch,
    NonConvergence,
    characteristic_roots,
    startup_transform,
    transform_matrix,
    two_state_transform,
    validate_model,
)
from fluidqoe import spectral
from fluidqoe.inversion import _TIMES_PER_CALL, DEFAULT_PARAMS, _euler_constants
from fluidqoe.spectral import OMEGA_FLOOR, evaluator
from fluidqoe.startup import _level_generator
from conftest import mpmath_transform, omega_grid, two_state


def quadratic_oracle(m, omega):
    """Roots of the characteristic quadratic, found by an independent solver.

    det(Q + s R - w I) expands (for state 1 carrying lambda1 and exit rate
    beta) to  a s^2 - b s + c  with a = r1 r2, b = r1 (w+alpha) + r2 (w+beta),
    c = w (w + alpha + beta).
    """
    alpha, beta = m.Q[1, 0], m.Q[0, 1]
    r1, r2 = m.lam - m.mu
    a = r1 * r2
    b = r1 * (omega + alpha) + r2 * (omega + beta)
    c = omega * (omega + alpha + beta)
    return np.roots([a, -b, c]) if a != 0 else np.array([c / b])


def random_two_state(rng):
    lam = rng.uniform(0.0, 50.0, 2)
    return two_state(
        alpha=rng.uniform(0.2, 8.0), beta=rng.uniform(0.2, 8.0),
        lambda1=lam[0], lambda2=lam[1], mu=rng.uniform(5.0, 45.0),
    )


class TestCharacteristicRoots:
    def test_reference_matches_quadratic_oracle(self, theorem_cases):
        m = theorem_cases["one_drains"]
        sol = characteristic_roots(m, 1.0)
        expected = np.sort_complex(quadratic_oracle(m, 1.0))
        np.testing.assert_allclose(np.sort_complex(sol.roots), expected, atol=1e-12)

    def test_both_draining_both_negative(self, theorem_cases):
        m = theorem_cases["both_drain"]
        for om in np.geomspace(0.05, 8.0, 7):
            sol = characteristic_roots(m, om)
            assert sol.negative_set.size == 2

    def test_zero_rate_state_reduces_degree(self, theorem_cases):
        m = theorem_cases["zero_rate"]  # lambda1 = mu
        alpha, beta = m.Q[1, 0], m.Q[0, 1]
        om = 0.8
        sol = characteristic_roots(m, om)
        assert sol.n_roots == 1
        expected = om * (om + alpha + beta) / ((m.lam[1] - m.mu) * (om + beta))
        assert sol.roots[0] == pytest.approx(expected, abs=1e-12)
        assert sol.roots[0].real < 0

    def test_pencil_residual_invariant(self, theorem_cases):
        for m in theorem_cases.values():
            scale = np.max(np.abs(m.Q))
            for om in (0.3, 2.0 + 1.5j, 5.0 - 0.7j):
                sol = characteristic_roots(m, om)
                R = np.diag(sol.rates)
                for k in range(sol.n_roots):
                    res = (m.Q + sol.roots[k] * R - sol.omega * np.eye(2)) @ sol.eigvecs[:, k]
                    assert np.max(np.abs(res)) < 1e-10 * scale

    def test_conjugate_symmetry(self, reference_model):
        om = 1.3 + 0.8j
        sol = characteristic_roots(reference_model, om)
        conj = characteristic_roots(reference_model, np.conj(om))
        np.testing.assert_allclose(
            np.sort_complex(conj.roots), np.sort_complex(np.conj(sol.roots)), atol=1e-10
        )

    def test_root_count_equals_nonzero_rates(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = random_two_state(rng)
            sol = characteristic_roots(m, rng.uniform(0.05, 5.0))
            degree = int(np.sum(m.lam != m.mu))
            assert sol.n_roots == degree

    def test_eigvec_normalization(self, reference_model):
        sol = characteristic_roots(reference_model, 0.9)
        for k in range(sol.n_roots):
            mags = np.abs(sol.eigvecs[:, k])
            peak = np.argmax(mags)
            assert sol.eigvecs[peak, k] == pytest.approx(1.0)

    def test_near_zero_complex_frequency_warns(self, reference_model):
        with pytest.warns(BoundaryRootWarning):
            characteristic_roots(reference_model, 1e-30j + 1e-31)

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


class TestSignPlacement:
    """Root signs must follow the draining/filling pattern for real w > 0."""

    def test_randomized_configurations(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            m = random_two_state(rng)
            om = rng.uniform(1e-3, 10.0)
            sol = characteristic_roots(m, om)
            rates = m.lam - m.mu
            n_drain = int(np.sum(rates < 0))
            n_fill = int(np.sum(rates > 0))
            assert sol.negative_set.size == n_drain
            assert int(np.sum(sol.roots.real > 1e-12)) == n_fill
            checked += 1

    def test_equal_rates_below_playout(self):
        m = two_state(alpha=1.5, beta=2.5, lambda1=10, lambda2=10, mu=25)
        sol = characteristic_roots(m, 0.4)
        assert sol.negative_set.size == 2

    def test_equal_rates_above_playout_no_starvation(self):
        m = two_state(alpha=1.5, beta=2.5, lambda1=30, lambda2=30, mu=25)
        sol = characteristic_roots(m, 0.4)
        assert sol.negative_set.size == 0


class TestBoundaryCoefficients:
    def test_defining_system_residual_random_three_state(self):
        # the boundary of the level path is Psi, the minimal solution of
        # A_ud + A_uu Psi + Psi A_dd + Psi A_du Psi = 0
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(12):
            Q = rng.uniform(0.2, 3.0, (3, 3))
            np.fill_diagonal(Q, 0.0)
            np.fill_diagonal(Q, -Q.sum(axis=1))
            m = validate_model(Q, rng.uniform(0, 50, 3), 25.0)
            om = np.array([rng.uniform(0.1, 4.0) + 1j * rng.uniform(-2, 2)])
            rates = m.lam - m.mu
            kept, _, A, _ = _level_generator(m, rates, om)
            up = np.flatnonzero(rates[kept] > 0.0)
            down = np.flatnonzero(rates[kept] < 0.0)
            if up.size == 0 or down.size == 0:
                continue
            psi = spectral._riccati(A, up, down, om)[0][0]
            A = A[0]
            residual = (A[np.ix_(up, down)] + A[np.ix_(up, up)] @ psi
                        + psi @ A[np.ix_(down, down)] + psi @ A[np.ix_(down, up)] @ psi)
            assert np.max(np.abs(residual)) < 1e-10
            checked += 1
        assert checked >= 5

    def test_single_draining_state_coefficient_is_one(self, theorem_cases):
        # one draining state: the starvation column is the pencil's negative
        # eigenvector, scaled to 1 in the draining state, times exp(s x)
        m = theorem_cases["one_drains"]
        sol = characteristic_roots(m, 1.0)
        s, phi = sol.roots[0], sol.eigvecs[:, 0] / sol.eigvecs[0, 0]
        H0 = transform_matrix(m, 0.0, 1.0)
        assert H0[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(H0[:, 1] == 0.0)
        H = transform_matrix(m, 7.0, 1.0)
        np.testing.assert_allclose(H[:, 0], phi * np.exp(s * 7.0), rtol=1e-12)
        assert np.all(H[:, 1] == 0.0)


class TestTwoStateTransform:
    def test_agrees_with_generic_path(self, theorem_cases):
        omegas = omega_grid(9)
        for name, m in theorem_cases.items():
            closed = two_state_transform(m, 7.0, omegas)
            for i, om in enumerate(omegas):
                generic = transform_matrix(m, 7.0, om)
                assert np.max(np.abs(closed[i] - generic)) < 1e-10, (name, om)

    def test_startup_agrees_with_generic_path(self, theorem_cases):
        # the start-up transform of a source with two delivering states takes
        # the closed-form 2x2 exponential; scipy's expm is the generic path
        omegas = omega_grid(7)
        for name, m in theorem_cases.items():
            if np.any(m.lam <= 0):
                continue
            closed = startup_transform(m, 5.0, omegas)
            for i, om in enumerate(omegas):
                generic = scipy.linalg.expm(5.0 * (m.Q - om * np.eye(2)) / m.lam[:, None])
                assert np.max(np.abs(closed[i] - generic)) < 1e-10, (name, om)

    def test_zero_threshold_identity_on_draining(self, theorem_cases):
        H = two_state_transform(theorem_cases["both_drain"], 0.0, 1.0)
        np.testing.assert_allclose(H, np.eye(2), atol=1e-12)

    def test_zero_threshold_single_draining(self, theorem_cases):
        H = two_state_transform(theorem_cases["one_drains"], 0.0, 1.0)
        assert H[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(H[:, 1], 0.0)

    def test_onoff_transform_finite(self, theorem_cases):
        H = two_state_transform(theorem_cases["onoff"], 10.0, 0.5)
        assert np.all(np.isfinite(H))
        # starvation only in the silent state (index 1)
        assert np.allclose(H[:, 0], 0.0)
        assert np.all(np.abs(H[:, 1]) > 0)

    def test_requires_two_states(self):
        m = validate_model([[0.0]], [1.0], 2.0)
        with pytest.raises(DimensionMismatch):
            two_state_transform(m, 1.0, 1.0)


def _reference_transform(model, x, omega):
    """The starvation transform from the rate pencil, one frequency at a
    time: clip, Schur complement, ``scipy.linalg.eig``, sort, lift,
    normalization and boundary solve."""
    om = complex(omega)
    if om.imag == 0.0 and 0.0 <= om.real < OMEGA_FLOOR:
        om = complex(OMEGA_FLOOR)
    rates = model.lam - model.mu
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
    rows = np.nonzero(rates < 0.0)[0]
    sel = np.nonzero(s_vals.real < -spectral.SIGN_TOL)[0]
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
    "silent": (Q3, [0.0, 20.0, 40.0]),
    "all_draining": (Q3, [5.0, 10.0, 20.0]),
}
# the start-up reference divides by every arrival rate
BLOCK_CASES = [(source, mode) for source in sorted(STACK_SOURCES)
               for mode in ("playback", "prefetch")
               if not (mode == "prefetch" and source == "silent")]


class TestStackedPencil:
    @pytest.mark.parametrize("source,mode", BLOCK_CASES)
    def test_block_matches_per_frequency_reference(self, source, mode):
        Q, lam = STACK_SOURCES[source]
        m = validate_model(Q, lam, 25.0)
        omegas = _inversion_block()
        assert omegas.size == _TIMES_PER_CALL * DEFAULT_PARAMS.n_evaluations
        assert np.any((omegas.imag == 0.0) & (omegas.real < OMEGA_FLOOR))
        if mode == "playback":
            stacked = transform_matrix(m, 20.0, omegas)
            reference = np.stack([_reference_transform(m, 20.0, w) for w in omegas])
            np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-12)
            return
        # the start-up transform, one matrix exponential of the level
        # generator per frequency; no frequency is lifted onto a floor
        stacked = startup_transform(m, 20.0, omegas)
        reference = np.stack([scipy.linalg.expm(20.0 * (m.Q - w * np.eye(m.n_states))
                                                / m.lam[:, None]) for w in omegas])
        np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-13)

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
                characteristic_roots(reference_model, w)
            scalar_warned.append(any(e.category is BoundaryRootWarning for e in log))
        assert scalar_warned == [False, False, True, False]
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            sol = characteristic_roots(reference_model, omegas)
        hits = [e for e in log if e.category is BoundaryRootWarning]
        assert len(hits) == 1
        assert f"omega={complex(omegas[2])}" in str(hits[0].message)
        assert sol.roots.shape == (4, 2)

    def test_generic_block_solves_pencil_once(self, monkeypatch):
        # a whole inversion block of a three-state pencil is one batched eig
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        m = validate_model(Q3, [5.0, 20.0, 40.0], 25.0)
        omegas = _inversion_block()
        sol = characteristic_roots(m, omegas)
        assert sol.roots.shape == (omegas.size, 3)
        assert calls == [(omegas.size, 3, 3)]

    def test_generic_block_is_one_engine_call(self, monkeypatch):
        calls = []
        engine = spectral.transform_matrix

        def counted(*args, **kwargs):
            calls.append(np.size(args[2]))
            return engine(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("the evaluator solved the pencil")

        monkeypatch.setattr(spectral, "transform_matrix", counted)
        monkeypatch.setattr(spectral, "characteristic_roots", refused)
        m = validate_model(Q3, [5.0, 20.0, 40.0], 25.0)
        omegas = _inversion_block()
        H = evaluator(m, 20.0)(omegas)
        assert H.shape == (omegas.size, 3, 3)
        assert calls == [omegas.size]

    @pytest.mark.parametrize("source", ["four_state", "three_state"])
    def test_engine_matches_mpmath_pencil_where_the_pencils_differ_most(self, source):
        # at the frequencies where the engine and the double-precision pencil
        # disagree most, the 40-digit pencil sides with the engine
        Q, lam = STACK_SOURCES[source]
        m = validate_model(Q, lam, 25.0)
        omegas = spectral._frequency_stack(_inversion_block())[0]
        for x in (20.0, 160.0):
            stacked = transform_matrix(m, x, omegas)
            gap = [np.abs(stacked[k] - _reference_transform(m, x, w)).max()
                   for k, w in enumerate(omegas)]
            for k in np.argsort(gap)[-3:]:
                exact = np.array(mpmath_transform(m, x, omegas[k]).tolist(), dtype=complex)
                assert np.abs(stacked[k] - exact).max() <= 2.5e-13, (x, omegas[k])

    @pytest.mark.parametrize("source", ["three_state", "four_state"])
    def test_level_split_at_an_intermediate_level(self, source):
        # strong Markov property of the level path: to fall x1 + x2 the
        # buffer first falls x1, ending in a draining state, then x2 from there
        Q, lam = STACK_SOURCES[source]
        m = validate_model(Q, lam, 25.0)
        down = np.flatnonzero(m.lam < m.mu)
        omegas = np.array([0.3 + 2.0j, 1.5 - 0.4j, 0.02 + 0.7j, 4.0 + 9.0j])
        for x1, x2 in ((5.0, 15.0), (40.0, 7.5)):
            whole = transform_matrix(m, x1 + x2, omegas)
            split = transform_matrix(m, x1, omegas)[:, :, down] @ transform_matrix(
                m, x2, omegas)[:, down, :]
            np.testing.assert_allclose(whole, split, rtol=0, atol=1e-13)

    def test_newton_cap_names_first_unconverged_frequency(self, monkeypatch):
        monkeypatch.setattr(spectral, "NEWTON_STEPS", 1)
        m = validate_model(Q3, [5.0, 20.0, 40.0], 25.0)
        omegas = np.array([0.5 + 1.0j, 2.0, 3.0 - 1.0j])
        with pytest.raises(NonConvergence,
                           match=r"omega=\(0\.5\+1j\) \(and at 2 more frequencies\)"):
            transform_matrix(m, 10.0, omegas)

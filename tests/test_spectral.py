import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fluidqoe import (
    DomainError,
    NonConvergence,
    startup_transform,
    transform_matrix,
    validate_model,
)
from fluidqoe import spectral
from fluidqoe.inversion import _TIMES_PER_CALL, DEFAULT_PARAMS, _euler_constants
from fluidqoe.spectral import _COMPLEX_STEP, OMEGA_FLOOR, _Level
from conftest import (mpmath_transform, omega_grid, superposed_onoff, two_state,
                      two_state_quadratic)


def test_engine_does_not_import_startup():
    # start-up runs on the engine, not the other way round
    tree = ast.parse(Path(spectral.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{a.name}".lstrip(".") for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not any("startup" in name.split(".") for name in imported), imported


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
    """The transform's dependence on the roots of the characteristic
    equation ``det(Q + s R - w I) = 0``, ``R = diag(lam - mu)``."""

    def test_both_draining_both_negative(self, theorem_cases):
        m = theorem_cases["both_drain"]
        for om in np.geomspace(0.05, 8.0, 7):
            near, far = (transform_matrix(m, x, om) for x in (5.0, 20.0))
            assert np.all(near != 0.0)
            assert np.all(np.abs(far).sum(axis=0) < np.abs(near).sum(axis=0))

    def test_zero_rate_state_reduces_degree(self, theorem_cases):
        m = theorem_cases["zero_rate"]  # lambda1 = mu
        alpha, beta = m.Q[1, 0], m.Q[0, 1]
        om, x = 0.8, 7.0
        s = om * (om + alpha + beta) / ((m.lam[1] - m.mu) * (om + beta))
        assert s < 0
        H = transform_matrix(m, x, om)
        assert np.all(H[:, 0] == 0.0)
        assert H[1, 1] == pytest.approx(np.exp(x * s), abs=1e-12)

    def test_conjugate_symmetry(self, reference_model):
        om = 1.3 + 0.8j
        for H in (transform_matrix, two_state_quadratic):
            np.testing.assert_allclose(H(reference_model, 7.0, np.conj(om)),
                                       np.conj(H(reference_model, 7.0, om)), atol=1e-10)


class TestSignPlacement:
    """The transform's columns follow the draining/filling pattern at real
    w > 0: exactly zero for filling and zero-rate states, nonzero for
    draining ones."""

    def test_randomized_configurations(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = random_two_state(rng)
            om = rng.uniform(1e-3, 10.0)
            draining = m.lam < m.mu
            H = transform_matrix(m, 7.0, om)
            assert np.all(H[:, ~draining] == 0.0)
            assert np.all(H[:, draining] != 0.0)

    def test_equal_rates_below_playout(self):
        m = two_state(alpha=1.5, beta=2.5, lambda1=10, lambda2=10, mu=25)
        assert np.all(transform_matrix(m, 7.0, 0.4) != 0.0)

    def test_equal_rates_above_playout_no_starvation(self):
        m = two_state(alpha=1.5, beta=2.5, lambda1=30, lambda2=30, mu=25)
        assert np.all(transform_matrix(m, 7.0, 0.4) == 0.0)


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
            level = _Level(m, m.lam - m.mu, om)
            if level.up.size == 0 or level.down.size == 0:
                continue
            assert np.max(np.abs(_riccati_residual(level)[0])) < 1e-10
            checked += 1
        assert checked >= 5

    def test_reflected_level_random_three_state(self):
        # the level-reflected process at -(lam - mu) swaps filling and
        # draining; its Psi (Xi of the original level) solves its own
        # Riccati equation, and at real w > 0 it is a substochastic matrix
        # of discounted return probabilities
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(24):
            Q = rng.uniform(0.2, 3.0, (3, 3))
            np.fill_diagonal(Q, 0.0)
            np.fill_diagonal(Q, -Q.sum(axis=1))
            m = validate_model(Q, rng.uniform(0, 50, 3), 25.0)
            real = rng.uniform(0.1, 4.0)
            om = np.array([real + 0j, real + 1j * rng.uniform(-2, 2)])
            level = _Level(m, -(m.lam - m.mu), om)
            if level.up.size == 0 or level.down.size == 0:
                continue
            assert np.max(np.abs(_riccati_residual(level))) < 1e-10
            psi = _Level(m, -(m.lam - m.mu), np.array([real])).psi[0]
            assert psi.dtype == float
            assert np.all((psi >= 0.0) & (psi <= 1.0))
            assert np.all(psi.sum(axis=1) <= 1.0)
            checked += 1
        assert checked >= 5

    def test_single_draining_state_coefficient_is_one(self, theorem_cases):
        # one draining state: the starvation column is the eigenvector of the
        # negative characteristic root, scaled to 1 in the draining state,
        # times exp(s x); its second entry solves the first row of
        # (Q + s R - w I) phi = 0
        m = theorem_cases["one_drains"]
        s = min(quadratic_oracle(m, 1.0), key=lambda r: r.real)
        beta, r1 = m.Q[0, 1], m.lam[0] - m.mu
        phi = np.array([1.0, (beta + 1.0 - r1 * s) / beta])
        H0 = transform_matrix(m, 0.0, 1.0)
        assert H0[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(H0[:, 1] == 0.0)
        H = transform_matrix(m, 7.0, 1.0)
        np.testing.assert_allclose(H[:, 0], phi * np.exp(s * 7.0), rtol=1e-12)
        assert np.all(H[:, 1] == 0.0)


def _riccati_residual(level):
    """``A_ud + A_uu Psi + Psi A_dd + Psi A_du Psi`` over the level's
    frequency stack."""
    (Auu, Aud, Adu, Add), psi = level.blocks, level.psi
    return Aud + Auu @ psi + psi @ Add + psi @ Adu @ psi


class TestTwoStateTransform:
    """Two-state sources take the engine like every other state count; with
    one filling and one draining state its Riccati equation is a scalar
    quadratic, whose root is the closed form's."""

    def test_agrees_with_generic_path(self, theorem_cases):
        omegas = omega_grid(9)
        for name, m in theorem_cases.items():
            closed = two_state_quadratic(m, 7.0, omegas)
            shipped = transform_matrix(m, 7.0, omegas)
            for i, om in enumerate(omegas):
                assert np.max(np.abs(closed[i] - shipped[i])) < 1e-10, (name, om)

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
        H = transform_matrix(theorem_cases["both_drain"], 0.0, 1.0)
        np.testing.assert_allclose(H, np.eye(2), atol=1e-12)

    def test_zero_threshold_single_draining(self, theorem_cases):
        H = transform_matrix(theorem_cases["one_drains"], 0.0, 1.0)
        assert H[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(H[:, 1], 0.0)

    def test_onoff_transform_finite(self, theorem_cases):
        H = transform_matrix(theorem_cases["onoff"], 10.0, 0.5)
        assert np.all(np.isfinite(H))
        # starvation only in the silent state (index 1)
        assert np.allclose(H[:, 0], 0.0)
        assert np.all(np.abs(H[:, 1]) > 0)

    def test_single_state_source(self):
        # no state count takes a path of its own: one draining state at
        # rate -1 falls x in time x, so H = exp(-w x)
        m = validate_model([[0.0]], [1.0], 2.0)
        for om in (0.3, 2.0, 1.0 + 1.0j):
            H = transform_matrix(m, 3.0, om)
            assert H[0, 0] == pytest.approx(np.exp(-3.0 * om), abs=1e-15)

    @pytest.mark.parametrize("x", [-1.0, np.inf, np.nan])
    def test_threshold_must_be_finite_and_nonnegative(self, reference_model, x):
        three = validate_model(Q3, [5.0, 20.0, 40.0], 25.0)
        for call in (lambda: transform_matrix(reference_model, x, 1.0),
                     lambda: transform_matrix(three, x, 1.0)):
            with pytest.raises(DomainError, match="^x must be finite and >= 0"):
                call()


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
    sel = np.nonzero(s_vals.real < -1e-12)[0]
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
# the start-up reference divides by every arrival rate; silent sources have
# their own reference, _startup_reference
BLOCK_CASES = [(source, mode) for source in sorted(STACK_SOURCES)
               for mode in ("playback", "prefetch")
               if not (mode == "prefetch" and source == "silent")]


SILENT_SOURCES = {
    "silent3": (Q3, [0.0, 20.0, 40.0]),
    "two_silent4": ([[-3.0, 1.0, 1.5, 0.5], [2.0, -4.0, 1.0, 1.0],
                     [0.5, 2.5, -5.0, 2.0], [1.0, 1.0, 1.0, -3.0]], [0.0, 20.0, 0.0, 35.0]),
}


# the closed-form root, Newton, a silent state, a zero-drift state and
# eight states
LEVEL_SOURCES = {**{name: STACK_SOURCES[name]
                    for name in ("two_state", "three_state", "silent", "zero_rate")},
                 "superposed8": superposed_onoff(3)}


class TestLevel:
    """One :class:`_Level` serves every threshold: its x-free half is
    computed once, and :meth:`_Level.passage` at each ``x`` equals a fresh
    object's bit for bit."""

    @pytest.mark.parametrize("clock", ["playback", "prefetch"])
    @pytest.mark.parametrize("source", sorted(LEVEL_SOURCES))
    def test_reuse_across_x_is_bit_exact(self, source, clock):
        m = validate_model(*LEVEL_SOURCES[source], 25.0)
        rates = m.lam - m.mu if clock == "playback" else -m.lam
        thresholds = np.r_[0.0, np.geomspace(0.1, 200.0, 15)]
        for om in (np.array([OMEGA_FLOOR + 0j, 0.3 + 2.0j, 4.0 - 1.0j, 50.0 + 0j]),
                   np.array([1j * _COMPLEX_STEP])):
            shared = _Level(m, rates, om)
            for x in thresholds:
                reused, fresh = shared.passage(x), _Level(m, rates, om).passage(x)
                assert reused.shape == fresh.shape == (om.size, m.n_states, m.n_states)
                assert reused.dtype == fresh.dtype
                assert reused.tobytes() == fresh.tobytes(), x


def _startup_reference(model, x, w):
    """The start-up transform at one frequency: scipy's ``expm(x G(w))`` of
    the level generator censored to the delivering states ``P``, and each
    silent row its exit discount ``(w I - Q_OO)^-1 Q_OP`` times that."""
    Q, lam, L = model.Q, model.lam, model.n_states
    P, O = np.flatnonzero(lam > 0.0), np.flatnonzero(lam == 0.0)
    lift = np.linalg.solve(w * np.eye(O.size) - Q[np.ix_(O, O)], Q[np.ix_(O, P)])
    G = (Q[np.ix_(P, P)] - w * np.eye(P.size) + Q[np.ix_(P, O)] @ lift) / lam[P, None]
    U = np.zeros((L, L), dtype=complex)
    U[np.ix_(P, P)] = scipy.linalg.expm(x * G)
    U[np.ix_(O, P)] = lift @ U[np.ix_(P, P)]
    return U


class TestStackedPencil:
    @pytest.mark.parametrize("x", [5.0, 20.0])
    @pytest.mark.parametrize("source", sorted(SILENT_SOURCES))
    def test_startup_block_on_silent_sources(self, source, x):
        # the fill clock through the shared engine, silent states censored
        m = validate_model(*SILENT_SOURCES[source], 25.0)
        omegas = _inversion_block()
        stacked = startup_transform(m, x, omegas)
        reference = np.stack([_startup_reference(m, x, w) for w in omegas])
        np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-13)

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

    def test_generic_block_is_one_engine_call(self, monkeypatch):
        # every state count, two included, takes one engine call per block
        calls = []

        class Counted(_Level):
            def __init__(self, model, rates, omega):
                calls.append(np.size(omega))
                super().__init__(model, rates, omega)

        monkeypatch.setattr(spectral, "_Level", Counted)
        omegas = _inversion_block()
        for source in ("three_state", "two_state"):
            calls.clear()
            m = validate_model(*STACK_SOURCES[source], 25.0)
            H = transform_matrix(m, 20.0, omegas)
            assert H.shape == (omegas.size, m.n_states, m.n_states)
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


# sources whose transform has at most one filling and one draining state
# left after censoring; the last censors its zero-drift state to u = d = 1
SCALAR_ROOT_SOURCES = {
    "bursty": ([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0]),
    "onoff": ([[-1.0, 1.0], [4.0, -4.0]], [30.0, 0.0]),
    "zero_drift": ([[-6.0, 6.0], [2.0, -2.0]], [25.0, 10.0]),
    "both_draining": ([[-6.0, 6.0], [2.0, -2.0]], [12.32, 12.99]),
    "censored_three_state": (Q3, [5.0, 25.0, 40.0]),
}


@pytest.mark.parametrize("source", sorted(SCALAR_ROOT_SOURCES))
def test_scalar_root_matches_mpmath(source):
    # the closed-form root of the 1x1 Riccati equation against the 40-digit
    # pencil, on real and imaginary rays from the floor out to |w| = 1e3
    m = validate_model(*SCALAR_ROOT_SOURCES[source], 25.0)
    mags = np.geomspace(OMEGA_FLOOR, 1e3, 25)
    omegas = np.concatenate([mags, 1j * mags])
    for x in (5.0, 40.0):
        shipped = transform_matrix(m, x, omegas)
        for k, w in enumerate(omegas):
            exact = np.array(mpmath_transform(m, x, w).tolist(), dtype=complex)
            assert np.abs(shipped[k] - exact).max() <= 1e-12, (x, w)

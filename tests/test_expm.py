import math

import numpy as np
import pytest
import scipy.linalg

from fluidqoe import prefetch_end_distribution, startup, validate_model
from fluidqoe._expm import expm, expm2
from fluidqoe.inversion import DEFAULT_PARAMS, _euler_constants


def level_generator(n_states: int, norm: float, rng) -> np.ndarray:
    """``diag(1/lam) Q`` of a random source, scaled to a given 1-norm, as
    ``prefetch_end_distribution`` scales it by ``x - q``."""
    Q = rng.exponential(1.0, (n_states, n_states)) * (rng.random((n_states, n_states)) < 0.7)
    Q[np.arange(n_states), (np.arange(n_states) + 1) % n_states] += 0.1  # irreducible
    np.fill_diagonal(Q, 0.0)
    Q -= np.diag(Q.sum(axis=1))
    G = Q / rng.uniform(0.5, 40.0, n_states)[:, None]
    return G * (norm / np.abs(G).sum(axis=0).max())


# 1e-3 .. 4 reach each Pade degree without scaling; the rest need squaring
NORMS = (1e-3, 0.1, 0.5, 1.5, 4.0, 30.0, 200.0, 600.0)


@pytest.mark.parametrize("n_states", [2, 3, 4, 6, 8, 12, 16])
def test_matches_scipy_on_level_generators(n_states):
    rng = np.random.default_rng(n_states)
    for _ in range(4):
        for norm in NORMS:
            G = level_generator(n_states, norm, rng)
            W = expm(G)
            np.testing.assert_allclose(W, scipy.linalg.expm(G), rtol=0, atol=1e-13)
            np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def test_zero_matrix_is_identity():
    np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("x", [5.0, 40.0, 400.0])
def test_censored_zero_rate_fill_matches_scipy(monkeypatch, x):
    # states 1 and 3 deliver nothing and are censored out of the level chain
    model = validate_model([[-3.0, 1.0, 1.5, 0.5], [2.0, -4.0, 1.0, 1.0],
                            [0.5, 2.5, -5.0, 2.0], [1.0, 1.0, 1.0, -3.0]],
                           [0.0, 20.0, 0.0, 35.0], 25.0)
    V = prefetch_end_distribution(model, 1.0, x)
    monkeypatch.setattr(startup, "expm", scipy.linalg.expm)
    np.testing.assert_allclose(V, prefetch_end_distribution(model, 1.0, x), rtol=0, atol=1e-13)
    np.testing.assert_allclose(V.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    assert np.all(V[:, [0, 2]] == 0.0)


# --- the single-matrix real path, as it was before stacks ---------------------

_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}
_PADE = {m: [float(math.factorial(2 * m - k) // (math.factorial(k) * math.factorial(m - k)))
             for k in range(m + 1)] for m in _THETA}


def single_expm(A) -> np.ndarray:
    """``exp(A)`` of a real square matrix, one matrix at a time."""
    A = np.asarray(A, dtype=float)
    ident = np.eye(A.shape[0])
    norm = float(np.abs(A).sum(axis=0).max())
    m = next(m for m in _THETA if norm <= _THETA[m] or m == 13)
    s = max(0, math.ceil(math.log2(norm / _THETA[13]))) if m == 13 else 0
    A = A / 2.0**s
    b = _PADE[m]
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        odd = (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
               + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        even = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
                + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    else:
        odd, even, power = b[1] * ident, b[0] * ident, ident
        for k in range(2, m + 1, 2):
            power = power @ A2
            odd = odd + b[k + 1] * power
            even = even + b[k] * power
    U = A @ odd
    R = ident + 2.0 * np.linalg.solve(even - U, U)
    for _ in range(s):
        R = R @ R
    return R


@pytest.mark.parametrize("n_states", [1, 2, 3, 4, 6, 8, 12, 16])
def test_real_single_matrix_is_bit_identical_to_single_path(n_states):
    # every starvation result goes through prefetch_end_distribution's call;
    # one delivering state leaves a 1x1 generator, -q/lam after censoring
    rng = np.random.default_rng(100 + n_states)
    for _ in range(4):
        for norm in NORMS:
            G = level_generator(n_states, norm, rng) if n_states > 1 else [[-norm]]
            np.testing.assert_array_equal(expm(G), single_expm(G))


def euler_frequencies() -> np.ndarray:
    """The 816 frequencies the inverter asks for at 16 times from 0.015 to
    60 s; the largest reach |w| of about 1e4."""
    times = np.geomspace(0.015, 60.0, 16)
    idx = _euler_constants(DEFAULT_PARAMS)[0]
    return (DEFAULT_PARAMS.A / (2 * times)[:, None] + idx / times[:, None]).reshape(-1)


def scipy_stack(A) -> np.ndarray:
    return np.stack([scipy.linalg.expm(a) for a in A])


def test_one_by_one_stacks():
    # exp(a) has condition number |a|, up to 760 here: each squaring doubles
    # the relative error of the scaled Pade value, so the bound scales with |a|
    a = np.concatenate([-np.geomspace(1e-4, 700.0, 40), np.geomspace(1e-4, 5.0, 10)])
    for A in ((a + 1j * np.linspace(-300.0, 300.0, a.size))[:, None, None], a[:, None, None]):
        reference = scipy_stack(A)
        assert np.all(np.abs(expm(A) - reference)
                      <= 1e-15 + 1e-13 * np.abs(A) * np.abs(reference))


def coinciding_frequency(Q, lam) -> complex:
    """A frequency at which ``diag(1/lam) (Q - w I)`` has a double eigenvalue."""
    h0 = (Q[0][0] / lam[0] - Q[1][1] / lam[1]) / 2
    k = (1 / lam[0] - 1 / lam[1]) / 2
    return (h0 - 1j * math.sqrt(Q[0][1] * Q[1][0] / (lam[0] * lam[1]))) / k


def test_two_by_two_stacks():
    Q, lam = [[-0.5, 0.5], [20.0, -20.0]], [10.0, 30.0]
    w0 = coinciding_frequency(Q, lam)
    assert w0.real > 0
    omegas = np.concatenate([euler_frequencies(), [w0, w0 * (1 + 1e-9), w0 * (1 + 1e-5)]])
    for x in (0.1, 20.0, 160.0):
        A = x * (np.array(Q) - omegas[:, None, None] * np.eye(2)) / np.array(lam)[:, None]
        reference = scipy_stack(A)
        np.testing.assert_allclose(expm2(A), reference, rtol=0, atol=1e-14)
        np.testing.assert_allclose(expm(A), reference, rtol=0, atol=1e-14)
    # the double eigenvalue itself, defective and not
    jordan = np.array([[[-1.5, 2.0], [0.0, -1.5]], [[0.3j, 0.0], [0.0, 0.3j]]])
    np.testing.assert_allclose(expm2(jordan), scipy_stack(jordan), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_states", [3, 4, 6, 8, 12, 16])
def test_non_normal_level_generator_stacks(n_states):
    # arrival rates spread over two decades make diag(1/lam) Q far from normal
    rng = np.random.default_rng(n_states)
    Q = rng.exponential(1.0, (n_states, n_states))
    np.fill_diagonal(Q, 0.0)
    Q -= np.diag(Q.sum(axis=1))
    lam = np.geomspace(0.5, 50.0, n_states)
    omegas = euler_frequencies()
    assert np.abs(omegas).max() > 1e4
    for x in (5.0, 40.0):
        A = x * (Q - omegas[:, None, None] * np.eye(n_states)) / lam[:, None]
        np.testing.assert_allclose(expm(A), scipy_stack(A), rtol=0, atol=1e-13)

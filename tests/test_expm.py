import numpy as np
import pytest
import scipy.linalg

from fluidqoe import prefetch_end_distribution, startup, validate_model
from fluidqoe._expm import expm


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

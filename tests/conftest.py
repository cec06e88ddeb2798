from pathlib import Path

import mpmath
import numpy as np
import pytest

from fluidqoe import SessionParams, validate_model

TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Package warnings (all ``UserWarning``s) fail the tests under this
    directory unless a test expects them; the filter goes first, so a test's
    own ``filterwarnings`` marks override it."""
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::UserWarning"), append=False)


def two_state(alpha, beta, lambda1, lambda2, mu):
    """Two-state source: state 1 (rate ``lambda1``, exit ``beta``) and
    state 2 (rate ``lambda2``, exit ``alpha``)."""
    return validate_model([[-beta, beta], [alpha, -alpha]], [lambda1, lambda2], mu)


@pytest.fixture(scope="session")
def reference_model():
    """2-state bursty source: drains at 23 fps in state 1, fills at 5 in state 2."""
    return validate_model([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0)


@pytest.fixture(scope="session")
def onoff_model():
    """ON-OFF source: 30 fps bursts, silent 20% of the time, net drift -1."""
    return validate_model([[-1.0, 1.0], [4.0, -4.0]], [30.0, 0.0], 25.0)


@pytest.fixture(scope="session")
def reference_session():
    return SessionParams(x=40.0, Z=500.0)


@pytest.fixture(scope="session")
def theorem_cases():
    """Two-state models covering every draining-state pattern."""
    return {
        "one_drains": two_state(alpha=2, beta=6, lambda1=2, lambda2=30, mu=25),
        "other_drains": two_state(alpha=2, beta=6, lambda1=30, lambda2=2, mu=25),
        "both_drain": two_state(alpha=2, beta=6, lambda1=2, lambda2=20, mu=25),
        "onoff": two_state(alpha=1, beta=4, lambda1=30, lambda2=0, mu=25),
        "zero_rate": two_state(alpha=2, beta=6, lambda1=25, lambda2=2, mu=25),
    }


def omega_grid(n=13):
    """Frequency probe set: real and imaginary rays."""
    mags = np.geomspace(0.01, 10.0, n)
    return np.concatenate([mags, 1j * mags, -1j * mags])


def mpmath_transform(model, x, omega):
    """The starvation transform from the rate pencil in 40-digit mpmath
    arithmetic, as an mpmath matrix: zero-rate states eliminated, the ``d``
    roots of least real part (``d`` draining states) taken as the decaying
    ones, and the boundary system solved on the draining rows.  Taking the
    ``d`` least roots instead of the negative ones keeps it valid at and
    just below ``w = 0``."""
    with mpmath.workdps(40):
        om = mpmath.mpc(omega)
        rates = [mpmath.mpf(v) for v in model.lam - model.mu]
        L = model.n_states
        nz = [i for i in range(L) if rates[i] != 0]
        zero = [i for i in range(L) if rates[i] == 0]
        rows = [i for i in range(L) if rates[i] < 0]

        def block(r, c):
            return mpmath.matrix([[model.Q[i, j] - (om if i == j else 0) for j in c] for i in r])

        reduced = block(nz, nz)
        if zero:
            lifted = block(zero, zero) ** -1 * block(zero, nz)
            reduced = reduced - block(nz, zero) * lifted
        for a, i in enumerate(nz):
            reduced[a, :] = reduced[a, :] / -rates[i]
        s_vals, vecs = mpmath.eig(reduced)
        sel = sorted(range(len(s_vals)), key=lambda k: mpmath.re(s_vals[k]))[:len(rows)]
        full = mpmath.matrix(L, len(sel))
        for b, k in enumerate(sel):
            for a, i in enumerate(nz):
                full[i, b] = vecs[a, k]
            if zero:
                lifted_vec = -lifted * vecs[:, k]
                for a, i in enumerate(zero):
                    full[i, b] = lifted_vec[a]
        system = mpmath.matrix([[full[i, b] for b in range(len(sel))] for i in rows])
        coeffs = system ** -1
        H = mpmath.matrix(L, L)
        for b, k in enumerate(sel):
            growth = mpmath.exp(s_vals[k] * x)
            for i in range(L):
                for c, j in enumerate(rows):
                    H[i, j] += full[i, b] * growth * coeffs[b, c]
        return H

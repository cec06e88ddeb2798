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


def superposed_onoff(n_sources=3, peak=12.0, base=5.0):
    """``(Q, lam)`` of ``n_sources`` independent on-off sources, source ``k``
    switching at rate ``4^-k`` both ways and sending ``peak`` while on, over
    a base rate: ``2^n_sources`` states, ``Q`` their Kronecker sum."""
    Q, lam = np.zeros((1, 1)), np.array([base])
    for k in range(n_sources):
        rate = 4.0 ** -k
        Q = np.kron(Q, np.eye(2)) + np.kron(np.eye(len(Q)), [[-rate, rate], [rate, -rate]])
        lam = (lam[:, None] + [0.0, peak]).ravel()
    return Q.tolist(), lam.tolist()


def omega_grid(n=13):
    """Frequency probe set: real and imaginary rays."""
    mags = np.geomspace(0.01, 10.0, n)
    return np.concatenate([mags, 1j * mags, -1j * mags])


def two_state_quadratic(model, x, omega):
    """The two-state starvation transform in closed form, from the explicit
    characteristic quadratic, at a frequency or a ``(K,)`` stack.

    With state 1 left at rate ``beta`` and state 2 at rate ``alpha``,
    ``det(Q + s R - w I) = a s^2 - b s + c`` with ``a = r1 r2``,
    ``b = r1 (w + alpha) + r2 (w + beta)`` and ``c = w (w + alpha + beta)``;
    its roots are paired by Vieta so that neither cancels.  A draining
    state's column is the eigenvector ``(1, (beta + w - r1 s) / beta)`` of a
    negative root ``s`` times ``exp(s x)``, scaled to 1 in that state; when
    both drain, both roots enter a 2x2 boundary system.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=complex))
    r1, r2 = (model.lam - model.mu).tolist()
    al, be = float(model.Q[1, 0]), float(model.Q[0, 1])
    H = np.zeros((om.size, 2, 2), dtype=complex)
    draining = [j for j, r in enumerate((r1, r2)) if r < 0.0]
    a = r1 * r2
    b = r1 * (om + al) + r2 * (om + be)
    c = om * (om + al + be)
    if a == 0.0:
        s_a, s_b = c / b, np.full_like(b, np.nan)
    else:
        sq = np.sqrt(b * b - 4.0 * a * c)
        sq = np.where((np.conj(b) * sq).real < 0.0, -sq, sq)
        s_a = (b + sq) / (2.0 * a)
        s_b = c / (a * s_a)

    def phi(s):
        return (be + om - r1 * s) / be

    if len(draining) == 1:
        j = draining[0]
        s = s_a if a == 0.0 else np.where(s_a.real < s_b.real, s_a, s_b)
        vec = np.stack([np.ones_like(s), phi(s)], axis=-1)
        H[:, :, j] = vec * (np.exp(s * x) / vec[:, j])[:, None]
    elif draining:
        g_a, g_b = phi(s_a), phi(s_b)
        gap = g_b - g_a
        ea, eb = np.exp(s_a * x), np.exp(s_b * x)
        H[:, 0, 0] = (ea * g_b - eb * g_a) / gap
        H[:, 1, 0] = g_a * g_b * (ea - eb) / gap
        H[:, 0, 1] = (eb - ea) / gap
        H[:, 1, 1] = (eb * g_b - ea * g_a) / gap
    return H[0] if np.ndim(omega) == 0 else H


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

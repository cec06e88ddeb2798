import numpy as np
import pytest

from fluidqoe import SessionParams, validate_model


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

"""Starvation analysis: first-passage transform, CDF, and severity measures.

``H[i, j](x, t)`` is the probability that a buffer holding ``x`` frames at
playback start runs empty by playback time ``t`` with the source in state
``j`` at that moment, given initial state ``i``.  It is the first passage
of the playback clock ``lam - mu`` down by ``x``: its transform, its
deterministic-path atoms and its slope at the origin (by the complex step)
come from the level-generator engine of :mod:`fluidqoe.spectral`, and
:data:`starvation_transform` is that engine's
:func:`~fluidqoe.spectral.transform_matrix` itself.  Inversion with the
atoms taken out (:func:`fluidqoe.inversion.invert_cdf_with_atoms`) gives
the CDF, which also gives the starvation-count chain its survivals; the
value at the file-exhaustion horizon ``Z/mu`` gives the overall starvation
probability, and the slope gives the restricted mean time to starve.

Columns for non-draining states are identically zero: the buffer cannot hit
empty while it is growing or holding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, Unstable
from .inversion import (DEFAULT_PARAMS, InversionParams, invert_cdf_with_atoms,
                        time_array)
from .model import (FluidModel, SessionParams, effective_rates, mean_drift,
                    stationary_distribution)
from .spectral import _passage_atoms, _slope_at_zero, transform_matrix
from .startup import prefetch_end_distribution

# The starvation transform matrix ``H~[i, j](x, w)``: ``(L, L)`` at a scalar
# frequency, ``(K, L, L)`` at a ``(K,)`` stack.
starvation_transform = transform_matrix


def starvation_atoms(model: FluidModel, x: float):
    """Deterministic-path atoms of the starvation-time law, ``(times, masses)``
    per state: a draining state ``i`` empties at ``x / (mu - lam_i)`` with
    probability ``exp(q_ii x / (mu - lam_i))``, other states never on their
    own (see :func:`fluidqoe.spectral._passage_atoms`).  Extracting them
    before numerical inversion removes the jump the inverter cannot
    represent (it converges to jump midpoints and rings nearby)."""
    return _passage_atoms(model, effective_rates(model), x)


def starvation_cdf(model: FluidModel, x: float, t,
                   params: InversionParams = DEFAULT_PARAMS) -> np.ndarray:
    """CDF matrix ``H[i, j](x, t)``, clamped to [0, 1].

    ``t`` is a time or a 1-D array of times, giving an ``(L, L)`` or a
    ``(T, L, L)`` array.  Exactly zero before the earliest atom, the fastest
    drain ``x / (mu - min(lam))``; elsewhere obtained by one numerical
    inversion of the transform over all those times, with the
    deterministic-path atoms accounted exactly.
    """
    times = time_array(t)
    return invert_cdf_with_atoms(lambda omegas: transform_matrix(model, x, omegas),
                                 starvation_atoms(model, x), times, params)


def starvation_probability(model: FluidModel, session: SessionParams,
                           params: InversionParams = DEFAULT_PARAMS) -> float:
    """Overall probability of at least one starvation during the session.

    Entry states follow the stationary distribution; the state at playback
    start is propagated through the fill-completion matrix; starvation must
    occur before the playback clock exhausts the file at ``Z/mu``.  A session
    whose threshold covers the whole file cannot starve.
    """
    if session.x >= session.Z or np.all(model.lam >= model.mu):
        return 0.0
    horizon = session.Z / model.mu
    cdf = starvation_cdf(model, session.x, horizon, params)
    return starvation_probability_from_cdf(model, session, cdf)


def starvation_probability_from_cdf(model: FluidModel, session: SessionParams,
                                    cdf: np.ndarray) -> float:
    """:func:`starvation_probability` from the CDF matrix ``H(x, Z/mu)`` at
    the horizon, for callers that invert it together with other times."""
    if session.x >= session.Z:
        return 0.0
    pi = stationary_distribution(model)
    fill = prefetch_end_distribution(model, 0.0, session.x)
    value = float(pi @ fill @ cdf.sum(axis=1))
    return float(np.clip(value, 0.0, 1.0))


@dataclass(frozen=True)
class SeverityMatrix:
    """Restricted mean starvation times ``D[i, j]`` in seconds.

    ``D[i, j]`` weights the starvation time by the event "starve in state j
    from initial state i"; small entries mean starvations come early and
    often.  Entries for non-draining terminal states are zero.
    """

    D: np.ndarray


def mean_playback_time(model: FluidModel, x: float) -> SeverityMatrix:
    """Restricted mean time to starvation, ``-dH~/dw`` at ``w = 0``, exact to
    rounding.

    The slope is the level-generator engine at the one complex-step
    frequency ``w = i h`` for every state count: one Riccati solve and one
    matrix exponential (see :func:`fluidqoe.spectral._slope_at_zero`).
    Requires strictly negative mean drift so the mean exists; raises
    :class:`Unstable` otherwise.  Entries are clamped at zero after
    verifying they are no more negative than -1e-8 (anything worse signals a
    broken transform).
    """
    if not 0 < x < np.inf:
        raise DomainError(f"x must be finite and > 0, got {x}")
    report = mean_drift(model)
    if report.drift >= 0:
        raise Unstable(
            f"mean drift {report.drift:g} >= 0: restricted mean may diverge"
        )
    D = -_slope_at_zero(model, effective_rates(model), x)
    if np.any(D < -1e-8):
        raise NumericError(
            f"mean playback time produced entry {float(np.min(D)):g} < -1e-8"
        )
    return SeverityMatrix(D=np.clip(D, 0.0, None))

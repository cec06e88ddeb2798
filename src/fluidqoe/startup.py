"""Start-up delay analysis: the fill process on a level clock.

While the player prefetches, nothing is played out and the buffer level
rises at the arrival rate ``lam(J)`` of the source state ``J``.  The level
is therefore a clock: indexed by level instead of time, the source is a
Markov chain with generator ``diag(1/lam) Q``, and the time to fill ``x``
frames is the additive functional ``T = int_0^x dl / lam(J_l)``.  By the
Feynman-Kac formula the start-up delay transform
``U~[i, j](x, w) = E_i[exp(-w T); fill completes in state j]`` is

    U~(x, w) = expm(x G(w)),    G(w) = diag(1/lam) (Q - w I),

when every arrival rate is positive.

Silent states (``lam_o = 0``) make no level progress, so they are censored
out of the level clock at the frequency ``w``: a silent excursion from the
delivering states ``P`` through the silent states ``O`` costs the discount
``(w I - Q_OO)^-1 Q_OP`` on the way back, which gives

    G(w) = diag(1/lam_P) (Q_PP - w I + Q_PO (w I - Q_OO)^-1 Q_OP)

on ``P``; a silent start state's row is ``(w I - Q_OO)^-1 Q_OP expm(x G(w))``
and the threshold is never reached in a silent state.  At ``w = 0`` the same
matrix is the fill-completion state distribution ``V(q, x)``.  A threshold
``x = 0`` is reached instantly, in the start state.

The mean is minus the slope of ``U~(x, w) 1`` at ``w = 0``, exact to
rounding: the transform is analytic in ``w`` and real on the real axis, so
its value at the one frequency ``w = i h``, ``h`` tiny, has imaginary part
``h`` times the slope (the complex step of
:func:`fluidqoe.spectral._slope_at_zero`).  The slope charges each unit of
level its own time and its expected silent excursions, and a silent start
state adds its own expected excursion ``(-Q_OO)^-1 1``.

The transform, the fill-completion matrix and the mean are the first passage
of :mod:`fluidqoe.spectral` on the fill clock ``r = -lam``: one
:class:`fluidqoe.spectral._Level` per frequency stack, passed down by ``x``.
The fill clock has no filling states, so no Riccati solve runs and its
``expm(x A)`` is ``expm(x G(w))`` above.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InfeasiblePlayout
from .inversion import (DEFAULT_PARAMS, InversionParams, invert_cdf_with_atoms,
                        time_array)
from .model import FluidModel, stationary_distribution
from .spectral import _check_x, _Level, _passage_atoms, _slope_at_zero


def startup_transform(model: FluidModel, x: float, omega) -> np.ndarray:
    """Start-up delay transform matrix at one frequency or a stack of them.

    Entry ``[i, j]`` is the transform of "threshold reached by time t in
    state j" from initial state ``i``.  A scalar ``omega`` gives an
    ``(L, L)`` matrix, a ``(K,)`` stack a ``(K, L, L)`` array.  At ``x = 0``
    this is the identity.
    """
    _check_x(x)
    om = np.asarray(omega, dtype=complex)
    L = model.n_states
    if x == 0:
        return np.broadcast_to(np.eye(L, dtype=complex), om.shape + (L, L)).copy()
    return _Level(model, -model.lam, om.reshape(-1)).passage(x).reshape(om.shape + (L, L))


def startup_atoms(model: FluidModel, x: float):
    """Deterministic-path atoms of the start-up delay law, ``(times, masses)``
    per state: a delivering state ``i`` fills at ``x / lam_i`` with
    probability ``exp(q_ii x / lam_i)``, a silent state never on its own
    (see :func:`fluidqoe.spectral._passage_atoms`)."""
    return _passage_atoms(model, -model.lam, x)


def startup_delay_cdf(model: FluidModel, x: float, t,
                      params: InversionParams = DEFAULT_PARAMS) -> np.ndarray:
    """CDF matrix ``U[i, j](x, t)`` of the start-up delay.

    ``t`` is a time or a 1-D array of times, giving an ``(L, L)`` or a
    ``(T, L, L)`` array.  The delay cannot beat its earliest atom, the
    fastest fill ``x / max(lam)``, so the value is exactly zero before it.
    Elsewhere the deterministic-path atoms are accounted exactly and the
    continuous remainder is inverted numerically, in one inversion over all
    those times, so the CDF is accurate even at its jump points.  Raises
    :class:`InfeasiblePlayout` for ``x > 0`` when no state delivers, as the
    transform does.
    """
    times = time_array(t)
    atoms = startup_atoms(model, x)
    if x > 0 and not (model.lam > 0.0).any():
        raise InfeasiblePlayout("no state delivers; the threshold is unreachable")
    return invert_cdf_with_atoms(lambda omegas: startup_transform(model, x, omegas),
                                 atoms, times, params)


def expected_startup_delay(model: FluidModel, x: float,
                           entry_distribution=None) -> float:
    """Mean start-up delay in seconds from an entry-state distribution.

    Exact, from the passage's slope at ``w = 0`` (see the module docstring);
    defaults to the stationary entry distribution.
    """
    if entry_distribution is None:
        entry = stationary_distribution(model)
    else:
        entry = np.asarray(entry_distribution, dtype=float)
        with np.errstate(over="ignore"):
            total = entry.sum()
        if (entry.shape != (model.n_states,) or not np.all(np.isfinite(entry))
                or np.any(entry < 0) or not 0 < total < np.inf):
            raise DomainError("entry_distribution must be a finite nonnegative "
                              "length-L vector with a positive finite sum")
        entry = entry / total
    _check_x(x)
    if x == 0:
        return 0.0
    return float(entry @ -_slope_at_zero(model, -model.lam, x).sum(axis=1))


def prefetch_end_distribution(model: FluidModel, q: float, x: float) -> np.ndarray:
    """Row-stochastic matrix ``V[i, j](q, x)``: state when the fill completes.

    ``V(q, x) = expm(G(0) (x - q))`` on the delivering states, the start-up
    transform at ``w = 0``; silent states are censored (they cannot host a
    completion, so their columns are zero) and enter only through the
    distribution of the state in which they are eventually left.  ``V(x, x)``
    is the identity: a buffer already at the threshold completes instantly in
    place.
    """
    if not 0 <= q <= x < np.inf:
        raise DomainError(f"need 0 <= q <= x with x finite, got q={q}, x={x}")
    if q == x:
        return np.eye(model.n_states)
    return _Level(model, -model.lam, np.zeros(1)).passage(x - q)[0].real

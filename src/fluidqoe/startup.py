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

The mean is exact.  Per unit of level, state ``j`` of ``P`` costs
``(1 + Q_PO (-Q_OO)^-1 1)_j / lam_j`` seconds, the level itself plus its
expected silent excursions, and the expected level spent in each state on
the way to ``x`` is ``int_0^x expm(G(0) l) dl``.  That integral times the
cost vector is the corner of one block exponential (Van Loan, "Computing
integrals involving the matrix exponential", IEEE TAC 23(3), 1978); a
silent start state adds its own expected excursion ``(-Q_OO)^-1 1``.

Every exponential is the package's own scaling-and-squaring Pade ``expm``
(Higham 2005), applied to a whole frequency stack at once, or its closed
form ``expm2`` when two states deliver, so the module needs only numpy.
"""

from __future__ import annotations

import numpy as np

from ._expm import expm, expm2
from .errors import DomainError, InfeasiblePlayout
from .inversion import (DEFAULT_PARAMS, InversionParams, invert_cdf_with_atoms,
                        time_array)
from .model import FluidModel, stationary_distribution


def _level_generator(model: FluidModel, rates, omega):
    """The censored level generator on the states whose level moves at
    ``rates``, and the zero-rate states' exit discounts ``(w I - Q_OO)^-1 Q_OP``
    (``None`` without zero-rate states).

    The level generator is ``diag(1/|r_P|) (Q_PP - w I + Q_PO lift)``: the
    arrival rates ``lam`` give the fill clock's ``G(w)``, the net rates
    ``lam - mu`` the playback clock's.  ``omega`` is a scalar or a ``(K,)``
    stack; the matrices then gain a leading frequency axis.  Returns
    ``(pos, zero, G, lift)``, where ``pos`` and ``zero`` index the moving and
    the zero-rate states.
    """
    pos = np.flatnonzero(rates != 0.0)
    zero = np.flatnonzero(rates == 0.0)
    if pos.size == 0:
        raise InfeasiblePlayout("no state moves the buffer level; the threshold is unreachable")
    Q = model.Q
    speed = np.abs(rates[pos])
    shift = np.asarray(omega)[..., None, None]
    gen = Q[np.ix_(pos, pos)]
    lift = None
    # written so that at w = 0 every operation is the one V(q, x) has always
    # used (-Q_OO, Q_PP + Q_PO lift, division by lam), bit for bit
    if zero.size:
        lift = np.linalg.solve(-(Q[np.ix_(zero, zero)] - shift * np.eye(zero.size)),
                               Q[np.ix_(zero, pos)])
        gen = gen + Q[np.ix_(pos, zero)] @ lift
    return pos, zero, gen / speed[:, None] - shift * np.diag(1.0 / speed), lift


def startup_transform(model: FluidModel, x: float, omega) -> np.ndarray:
    """Start-up delay transform matrix at one frequency or a stack of them.

    Entry ``[i, j]`` is the transform of "threshold reached by time t in
    state j" from initial state ``i``.  A scalar ``omega`` gives an
    ``(L, L)`` matrix, a ``(K,)`` stack a ``(K, L, L)`` array.  At ``x = 0``
    this is the identity.
    """
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    om = np.asarray(omega, dtype=complex)
    L = model.n_states
    if x == 0:
        return np.broadcast_to(np.eye(L, dtype=complex), om.shape + (L, L)).copy()
    pos, zero, G, lift = _level_generator(model, model.lam, om.reshape(-1))
    E = (expm2 if pos.size == 2 else expm)(x * G)
    if not zero.size:
        return E.reshape(om.shape + (L, L))
    U = np.zeros(G.shape[:1] + (L, L), dtype=complex)
    U[:, pos[:, None], pos] = E
    U[:, zero[:, None], pos] = lift @ E
    return U.reshape(om.shape + (L, L))


def startup_atoms(model: FluidModel, x: float):
    """Deterministic-path atoms of the start-up delay law.

    The no-transition path from a delivering state ``i`` fills the threshold
    at exactly ``x / lam_i`` with probability ``exp(q_ii x / lam_i)``; these
    are the only point masses and they can be large (a fast state usually
    completes before its first transition).  A silent state has no such path:
    mass 0 at time ``inf``.  Returned as ``(times, masses)`` per state.
    """
    pos = model.lam > 0.0
    times = np.full(model.n_states, np.inf)
    masses = np.zeros(model.n_states)
    times[pos] = x / model.lam[pos]
    masses[pos] = np.exp(np.diag(model.Q)[pos] * times[pos])
    return times, masses


def startup_delay_cdf(model: FluidModel, x: float, t,
                      params: InversionParams = DEFAULT_PARAMS) -> np.ndarray:
    """CDF matrix ``U[i, j](x, t)`` of the start-up delay.

    ``t`` is a time or a 1-D array of times, giving an ``(L, L)`` or a
    ``(T, L, L)`` array.  The delay cannot beat the fastest fill rate, so the
    value is exactly zero for ``t < x / max(lam)``.  Elsewhere the
    deterministic-path atoms are accounted exactly and the continuous
    remainder is inverted numerically, in one inversion over all those
    times, so the CDF is accurate even at its jump points.
    """
    times = time_array(t)
    return invert_cdf_with_atoms(lambda omegas: startup_transform(model, x, omegas),
                                 startup_atoms(model, x), times,
                                 x / float(np.max(model.lam)), params)


def expected_startup_delay(model: FluidModel, x: float,
                           entry_distribution=None) -> float:
    """Mean start-up delay in seconds from an entry-state distribution.

    Exact, from one block matrix exponential (see the module docstring);
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
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    pos, zero, G, lift = _level_generator(model, model.lam, 0.0)
    p = pos.size
    cost = np.ones(p)
    if zero.size:
        silence = np.linalg.solve(-model.Q[np.ix_(zero, zero)], np.ones(zero.size))
        cost = cost + model.Q[np.ix_(pos, zero)] @ silence
    block = np.zeros((p + 1, p + 1))
    block[:p, :p] = x * G
    block[:p, p] = x * cost / model.lam[pos]
    mean = np.zeros(model.n_states)
    mean[pos] = expm(block)[:p, p]
    if zero.size:
        mean[zero] = silence + lift @ mean[pos]
    return float(entry @ mean)


def prefetch_end_distribution(model: FluidModel, q: float, x: float) -> np.ndarray:
    """Row-stochastic matrix ``V[i, j](q, x)``: state when the fill completes.

    ``V(q, x) = expm(G(0) (x - q))`` on the delivering states, the start-up
    transform at ``w = 0``; silent states are censored (they cannot host a
    completion, so their columns are zero) and enter only through the
    distribution of the state in which they are eventually left.  ``V(x, x)``
    is the identity: a buffer already at the threshold completes instantly in
    place.
    """
    if not (0 <= q <= x):
        raise DomainError(f"need 0 <= q <= x, got q={q}, x={x}")
    L = model.n_states
    if q == x:
        return np.eye(L)
    pos, zero, G, lift = _level_generator(model, model.lam, 0.0)
    W = expm(G * (x - q))
    V = np.zeros((L, L))
    V[np.ix_(pos, pos)] = W
    if zero.size:
        V[np.ix_(zero, pos)] = lift @ W
    return V

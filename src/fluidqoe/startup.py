"""Start-up delay analysis: fill-to-threshold duality and its distribution.

The time to accumulate ``x`` frames from an empty buffer is analyzed through
its dual: a buffer that starts at level ``x`` and is depleted at the arrival
rates.  The dual's first-passage transform over the prefetch pencil gives the
start-up delay transform ``U~[i, j](x, w)`` (reach the threshold in state
``j`` starting from state ``i``); inverting it yields the delay CDF, at one
time or at a whole array of times in one inversion, and its slope at the
origin the expected delay.

The fill-completion state distribution ``V[i, j](q, x)`` (state when the
buffer first reaches ``x`` from level ``q``) follows the level-indexed chain
with generator ``diag(1/lam) Q``: while the source sits in state ``i`` the
level advances at ``lam_i``, so state sojourns measured in delivered frames
are exponential with rate ``-q_ii / lam_i``.  States with ``lam_i = 0`` make
no level progress and are censored out of the level chain (completion can
never happen inside one); they only contribute their exit distribution.
The matrix exponential of that chain is the package's own scaling-and-
squaring Pade ``expm`` (Higham 2005), so the module needs only numpy.
"""

from __future__ import annotations

import numpy as np

from ._expm import expm
from ._fdiff import derivative_at_zero, warn_if_inconsistent
from .errors import DomainError, InfeasiblePlayout
from .inversion import (DEFAULT_PARAMS, InversionParams, invert_cdf_with_atoms,
                        time_array)
from .model import FluidModel, stationary_distribution
from .spectral import evaluator


def startup_transform(model: FluidModel, x: float, omega, method: str = "auto") -> np.ndarray:
    """Start-up delay transform matrix at one frequency.

    Entry ``[i, j]`` is the transform of "threshold reached by time t in
    state j" from initial state ``i``.  At ``x = 0`` this is the identity.
    """
    if x == 0:
        return np.eye(model.n_states, dtype=complex)
    return evaluator(model, x, "prefetch", method)(np.atleast_1d(np.asarray(omega, dtype=complex)))[0]


def startup_atoms(model: FluidModel, x: float):
    """Deterministic-path atoms of the start-up delay law.

    The no-transition path from state ``i`` fills the threshold at exactly
    ``x / lam_i`` with probability ``exp(q_ii x / lam_i)``; these are the
    only point masses and they can be large (a fast state usually completes
    before its first transition).  Returned as ``(times, masses)`` per state.
    """
    times = x / model.lam
    masses = np.exp(np.diag(model.Q) * times)
    return times, masses


def startup_delay_cdf(model: FluidModel, x: float, t,
                      params: InversionParams = DEFAULT_PARAMS,
                      method: str = "auto") -> np.ndarray:
    """CDF matrix ``U[i, j](x, t)`` of the start-up delay.

    ``t`` is a time or a 1-D array of times, giving an ``(L, L)`` or a
    ``(T, L, L)`` array.  The delay cannot beat the fastest fill rate, so the
    value is exactly zero for ``t < x / max(lam)``.  Elsewhere the
    deterministic-path atoms are accounted exactly and the continuous
    remainder is inverted numerically, in one inversion over all those
    times, so the CDF is accurate even at its jump points.
    """
    times = time_array(t)
    ev = evaluator(model, x, "prefetch", method)
    return invert_cdf_with_atoms(ev, startup_atoms(model, x), times,
                                 x / float(np.max(model.lam)), params)


def expected_startup_delay(model: FluidModel, x: float,
                           entry_distribution=None, method: str = "auto") -> float:
    """Mean start-up delay in seconds from an entry-state distribution.

    Computed as the negated slope at the origin of the contracted transform
    ``entry . U~(x, w) . 1``; defaults to the stationary entry distribution.
    """
    if entry_distribution is None:
        entry = stationary_distribution(model)
    else:
        entry = np.asarray(entry_distribution, dtype=float)
        if entry.shape != (model.n_states,) or np.any(entry < 0):
            raise DomainError("entry_distribution must be a nonnegative length-L vector")
        entry = entry / entry.sum()
    ev = evaluator(model, x, "prefetch", method)

    def contracted(omegas):
        return np.einsum("i,kij->k", entry, np.asarray(ev(omegas)))

    scale = float(np.max(np.abs(np.diag(model.Q))))
    value, check = derivative_at_zero(contracted, scale)
    warn_if_inconsistent(value, check, "expected start-up delay")
    return float(value)


def prefetch_end_distribution(model: FluidModel, q: float, x: float) -> np.ndarray:
    """Row-stochastic matrix ``V[i, j](q, x)``: state when the fill completes.

    ``V(q, x) = expm(diag(1/lam) Q (x - q))`` on the positive-rate states,
    by scaling and squaring with a Pade approximant (:mod:`fluidqoe._expm`);
    zero-rate states are censored (they cannot host a completion, so their
    columns are zero) and enter only through the distribution of the state in
    which they are eventually left.  ``V(x, x)`` is the identity: a buffer
    already at the threshold completes instantly in place.
    """
    if not (0 <= q <= x):
        raise DomainError(f"need 0 <= q <= x, got q={q}, x={x}")
    L = model.n_states
    if q == x:
        return np.eye(L)
    pos = np.nonzero(model.lam > 0.0)[0]
    zero = np.nonzero(model.lam == 0.0)[0]
    if pos.size == 0:
        raise InfeasiblePlayout("no state delivers content; the threshold is unreachable")

    Q = model.Q
    Qpp = Q[np.ix_(pos, pos)]
    if zero.size:
        Qoo = Q[np.ix_(zero, zero)]
        Qop = Q[np.ix_(zero, pos)]
        lift = np.linalg.solve(-Qoo, Qop)
        level_gen = (Qpp + Q[np.ix_(pos, zero)] @ lift) / model.lam[pos, None]
    else:
        lift = None
        level_gen = Qpp / model.lam[pos, None]

    W = expm(level_gen * (x - q))
    V = np.zeros((L, L))
    V[np.ix_(pos, pos)] = W
    if zero.size:
        V[np.ix_(zero, pos)] = lift @ W
    return V

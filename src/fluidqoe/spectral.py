"""First passages of the buffer level over stacks of complex frequencies.

Indexed by level instead of time, the source is a Markov chain whose
discounted generator at frequency ``w`` is the level generator
``A(w) = diag(1/|r|) (Q - w I)`` (Ramaswami, "Matrix analytic methods for
stochastic fluid flows", ITC 16, 1999), where ``r`` is the rate at which the
level moves in each state.  Two clocks share it:

* playback moves the buffer at ``r = lam - mu``: it fills in the states
  ``u`` with ``r > 0`` and drains in the states ``d`` with ``r < 0``;
* prefetching closes the distance to the threshold at ``r = -lam``: every
  delivering state "drains" it and no state fills.

States with ``r = 0`` (zero drift while playing, silence while prefetching)
make no level progress.  They are censored out at the frequency ``w``: an
excursion through them costs the discount ``(w I - Q_OO)^-1 Q_OP`` on the way
back (:func:`_level_generator`).  Then the first-passage transform of the
level down by ``x`` is

    H(x, w) = [Psi(w); I] expm(x U(w)),    U(w) = A_dd + A_du Psi(w),

over the (filling; draining) rows and the draining columns, where
``Psi(w)[i, j]`` is the transform of the first return to the start level,
in draining state ``j``, from filling state ``i``: the minimal solution of
the Riccati equation

    A_ud + A_uu Psi + Psi A_dd + Psi A_du Psi = 0

(Bean, O'Reilly & Taylor, *Stochastic Models* 21(1), 2005).  It is found by
Newton's method from ``Psi = 0``, each step one batched Sylvester solve in
Kronecker form over the whole stack; when no state fills, ``Psi`` is empty
and ``H = expm(x A)``.  Zero-rate rows are lifted through their exit
discounts; the columns of the filling and the zero-rate states are zero:
the level cannot fall while it rises or holds.

:func:`_passage` is that engine.  The starvation transform is the passage at
``lam - mu`` (:func:`transform_matrix`); the start-up transform and the
fill-completion matrix of :mod:`fluidqoe.startup` are the passage at
``-lam``.  At ``w = 0`` the same engine gives the exact slope ``dH/dw``
behind the restricted mean starvation times and the mean start-up delay
(:func:`_slope_at_zero`), and the path with no jump gives the atoms of both
laws (:func:`_passage_atoms`).

A scalar frequency is a stack of one whose leading axis is dropped on
return.  The checks run over the whole stack; an error names the first
frequency at fault.

:func:`evaluator` picks the starvation path by state count: two-state models
take the closed form (:func:`two_state_transform`, from the explicit
quadratic), every other state count the level-generator engine.
"""

from __future__ import annotations

import numpy as np

from ._expm import expm, expm2
from .errors import DimensionMismatch, DomainError, InfeasiblePlayout, NonConvergence
from .model import FluidModel, effective_rates

# Real frequencies below this floor are lifted onto it: at w = 0 under zero mean
# drift the engine's Newton step is singular and the closed form's quadratic
# has a double root at 0.
OMEGA_FLOOR = 1e-8
# Newton stops once a step is at most NEWTON_TOL max(1, |Psi|); steps stall
# near 1e-14, and 5 to 12 steps get there.
NEWTON_TOL = 1e-13
NEWTON_STEPS = 50


def _frequency_stack(omega):
    """``omega`` as a complex ``(K,)`` stack, real frequencies below the
    floor lifted onto it, and whether it was a scalar."""
    om = np.asarray(omega, dtype=complex)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    om = np.where((om.imag == 0.0) & (om.real >= 0.0) & (om.real < OMEGA_FLOOR),
                  OMEGA_FLOOR + 0j, om)
    return om, scalar


def _first(om: np.ndarray, flags: np.ndarray) -> tuple:
    """Index and frequency of the first flagged entry, and a note on how many
    more frequencies are flagged."""
    k = int(np.argmax(flags))
    more = int(np.count_nonzero(flags)) - 1
    return k, complex(om[k]), f" (and at {more} more frequencies)" if more else ""


def _sylvester(left, right, rhs):
    """Solve ``left X + X right = rhs`` for each ``(u, d)`` matrix of a stack,
    as one batched linear system in Kronecker form."""
    k, u, d = rhs.shape
    system = (left[:, :, None, :, None] * np.eye(d)[:, None, :]
              + np.eye(u)[:, None, :, None] * np.swapaxes(right, 1, 2)[:, None, :, None, :])
    return np.linalg.solve(system.reshape(k, u * d, u * d),
                           rhs.reshape(k, u * d, 1)).reshape(k, u, d)


def _riccati(A, up, down, om):
    """Minimal solution ``Psi`` of the level generator's Riccati equation over
    a stack, with the Sylvester operator ``(A_uu + Psi A_du, A_dd + A_du Psi)``
    of its Newton step at the solution.

    Newton from ``Psi = 0``; a frequency leaves the iteration once its step is
    small, and :class:`NonConvergence` names the first one that has not
    after ``NEWTON_STEPS`` steps.  Needs a filling and a draining state.
    """
    Auu, Aud = A[:, up[:, None], up], A[:, up[:, None], down]
    Adu, Add = A[:, down[:, None], up], A[:, down[:, None], down]
    psi = np.zeros(Aud.shape, dtype=A.dtype)
    live = np.arange(A.shape[0])
    for _ in range(NEWTON_STEPS):
        p, du = psi[live], Adu[live]
        right = Add[live] + du @ p
        residual = Aud[live] + Auu[live] @ p + p @ right
        try:
            step = _sylvester(Auu[live] + p @ du, right, -residual)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(
                f"Newton step is singular at one of omega={complex(om[live[0]])} .. "
                f"{complex(om[live[-1]])}: {exc}"
            ) from exc
        psi[live] = p + step
        size = np.abs(step).max(axis=(1, 2))
        # a NaN step stays live
        live = live[~(size <= NEWTON_TOL * np.maximum(1.0, np.abs(psi[live]).max(axis=(1, 2))))]
        if not live.size:
            return psi, Auu + psi @ Adu, Add + Adu @ psi
    unconverged = np.zeros(om.shape, dtype=bool)
    unconverged[live] = True
    _, bad, more = _first(om, unconverged)
    raise NonConvergence(
        f"Riccati Newton iteration did not converge in {NEWTON_STEPS} steps at omega={bad}{more}"
    )


def _level_generator(model: FluidModel, rates, omega):
    """The censored level generator on the states whose level moves at
    ``rates``, and the zero-rate states' exit discounts ``(w I - Q_OO)^-1 Q_OP``
    (``None`` without zero-rate states).

    The level generator is ``diag(1/|r_P|) (Q_PP - w I + Q_PO lift)``.
    ``omega`` is a scalar or a ``(K,)`` stack; the matrices then gain a
    leading frequency axis.  Returns ``(pos, zero, A, lift)``, where ``pos``
    and ``zero`` index the moving and the zero-rate states.
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
    if zero.size:
        lift = np.linalg.solve(-(Q[np.ix_(zero, zero)] - shift * np.eye(zero.size)),
                               Q[np.ix_(zero, pos)])
        gen = gen + Q[np.ix_(pos, zero)] @ lift
    return pos, zero, gen / speed[:, None] - shift * np.diag(1.0 / speed), lift


def _passage(model: FluidModel, rates, x: float, omega: np.ndarray) -> np.ndarray:
    """First-passage transform ``(K, L, L)`` of the level moving at ``rates``,
    down by ``x``, over the ``(K,)`` frequency stack ``omega`` taken as is.

    ``H = [Psi; I] expm(x U)`` on the (filling; draining) rows of the
    draining columns, the zero-rate rows lifted through their exit discounts
    and every other column zero (see the module docstring); the whole stack
    costs one batched Newton iteration and one stacked matrix exponential.
    When every state drains, ``H`` is ``expm(x A)`` itself.  Needs a
    draining state.
    """
    L = model.n_states
    kept, zero, A, lift = _level_generator(model, rates, omega)
    up, down = np.flatnonzero(rates[kept] > 0.0), np.flatnonzero(rates[kept] < 0.0)
    if up.size:
        psi, _, U = _riccati(A, up, down, omega)
    else:
        U = A
    E = (expm2 if down.size == 2 else expm)(x * U)
    if kept.size == L and not up.size:
        return E
    cols = kept[down]
    H = np.zeros(E.shape[:1] + (L, L), dtype=E.dtype)
    H[:, cols[:, None], cols] = rows = E
    if up.size:
        H[:, kept[up, None], cols] = psi @ E
        rows = H[:, kept[:, None], cols]
    if zero.size:
        H[:, zero[:, None], cols] = lift @ rows
    return H


def _passage_atoms(model: FluidModel, rates, x: float):
    """Point masses of the first passage of the level down by ``x``.

    From a state with ``r < 0`` the path with no jump arrives at exactly
    ``x / -r`` with probability ``exp(q_ii x / -r)``; these are the only
    atoms, and they can be large (a fast state often arrives before its
    first jump).  Other states have no such path: time ``inf``, mass 0.
    Returns ``(times, masses)`` per state.  Raises :class:`DomainError`
    unless ``x`` is finite and ``>= 0``.
    """
    if not 0 <= x < np.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    down = rates < 0.0
    times = np.full(model.n_states, np.inf)
    masses = np.zeros(model.n_states)
    times[down] = x / -rates[down]
    masses[down] = np.exp(np.diag(model.Q)[down] * times[down])
    return times, masses


def transform_matrix(model: FluidModel, x: float, omega) -> np.ndarray:
    """Level-generator starvation transform matrix at one frequency or a stack.

    The passage of the playback clock, ``lam - mu``, with real frequencies
    below ``OMEGA_FLOOR`` lifted onto it.  ``omega`` may be a scalar (result
    ``(L, L)``) or an array of shape ``(K,)`` (result ``(K, L, L)``); without
    a draining state the transform is zero.
    """
    if not 0 <= x < np.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    om, scalar = _frequency_stack(omega)
    rates = effective_rates(model)
    if np.any(rates < 0.0):
        H = _passage(model, rates, x, om)
    else:
        H = np.zeros((om.shape[0], model.n_states, model.n_states), dtype=complex)
    return H[0] if scalar else H


def _slope_at_zero(model: FluidModel, rates, x: float) -> np.ndarray:
    """``dH/dw`` at ``w = 0`` of the passage at ``rates``, exactly.

    At ``w = 0`` the engine runs in real arithmetic and needs no floor.
    With ``A' = dA/dw``, ``dPsi/dw`` solves the Sylvester equation of the
    Newton step at the solution, with right side minus the Riccati equation
    differentiated at fixed ``Psi``; ``dU/dw = A'_dd + A'_du Psi + A_du dPsi``;
    and the pair ``(expm(x U), d expm(x U)/dw)`` is one block exponential of
    ``[[x U, x dU], [0, x U]]`` (Van Loan, IEEE TAC 23(3), 1978).  Zero-rate
    rows differentiate their lift, whose slope is ``-(-Q_OO)^-1 lift``.
    Needs a draining state.
    """
    L = model.n_states
    kept, zero, A, lift = _level_generator(model, rates, 0.0)
    up, down = np.flatnonzero(rates[kept] > 0.0), np.flatnonzero(rates[kept] < 0.0)
    speed = np.abs(rates[kept])
    dA = -np.diag(1.0 / speed)
    if zero.size:
        dlift = -np.linalg.solve(-model.Q[np.ix_(zero, zero)], lift)
        dA = dA + model.Q[np.ix_(kept, zero)] @ dlift / speed[:, None]
    U, dU = A, dA
    if up.size:
        psi, left, U = (m[0] for m in _riccati(A[None], up, down, np.zeros(1)))
        dpsi = _sylvester(left[None], U[None], -(
            dA[np.ix_(up, down)] + dA[np.ix_(up, up)] @ psi + psi @ dA[np.ix_(down, down)]
            + psi @ dA[np.ix_(down, up)] @ psi)[None])[0]
        dU = dA[np.ix_(down, down)] + dA[np.ix_(down, up)] @ psi + A[np.ix_(down, up)] @ dpsi
    d = down.size
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = block[d:, d:] = x * U
    block[:d, d:] = x * dU
    both = expm(block)
    E, dE = both[:d, :d], both[:d, d:]
    H, dH = np.empty((2, kept.size, d))
    H[down], dH[down] = E, dE
    if up.size:
        H[up], dH[up] = psi @ E, dpsi @ E + psi @ dE
    cols = kept[down]
    slope = np.zeros((L, L))
    slope[np.ix_(kept, cols)] = dH
    if zero.size:
        slope[np.ix_(zero, cols)] = dlift @ H + lift @ dH
    return slope


def evaluator(model: FluidModel, x: float):
    """Frequency-stack evaluator of the starvation transform ``H~(x, w)``.

    Two-state models take the closed form, all others the level-generator
    engine, :func:`transform_matrix`.  The returned callable maps a ``(K,)``
    frequency array to ``(K, L, L)``, and a scalar frequency to ``(L, L)``.
    """
    if not 0 <= x < np.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if model.n_states == 2:
        return lambda omegas: two_state_transform(model, x, omegas)
    return lambda omegas: transform_matrix(model, x, omegas)


# --- closed-form two-state path ---------------------------------------------

def _stable_quadratic(a, b, c):
    """Both roots of ``a s^2 - b s + c = 0`` for array coefficients.

    Uses the Vieta pairing to avoid cancellation; ``a`` may be zero (the
    linear case yields one root and a second NaN placeholder).
    """
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    if a == 0.0:
        return c / b, np.full_like(b, np.nan)
    sq = np.sqrt(b * b - 4.0 * a * c)
    sq = np.where((np.conj(b) * sq).real < 0.0, -sq, sq)
    r1 = (b + sq) / (2.0 * a)
    r2 = c / (a * r1)
    return r1, r2


def two_state_transform(model: FluidModel, x: float, omega) -> np.ndarray:
    """Closed-form 2x2 starvation transform matrix; vectorized over frequencies.

    State 0 is left at rate ``beta = Q[0, 1]`` and state 1 at rate
    ``alpha = Q[1, 0]``.  ``omega`` may be a scalar or an array of shape
    ``(K,)``; the result has shape ``(2, 2)`` or ``(K, 2, 2)`` and matches
    the level-generator engine to near machine precision.  Raises
    :class:`DimensionMismatch` unless the model has two states.
    """
    if model.n_states != 2:
        raise DimensionMismatch(
            f"the closed form needs a 2-state model, got {model.n_states}"
        )
    if not 0 <= x < np.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    om, scalar = _frequency_stack(omega)
    r1, r2 = (model.lam - model.mu).tolist()
    alpha, beta = float(model.Q[1, 0]), float(model.Q[0, 1])
    H = _two_state_starvation(alpha, beta, r1, r2, x, om)
    return H[0] if scalar else H


def _phi(beta, omega, rate, s):
    """Eigenvector second component for first-component normalization 1."""
    return (beta + omega - rate * s) / beta


def _two_state_starvation(al, be, r1, r2, x, om):
    K = om.shape[0]
    draining = [j for j, r in enumerate((r1, r2)) if r < 0.0]
    if not draining:
        return np.zeros((K, 2, 2), dtype=complex)

    a_coef = r1 * r2
    b_coef = r1 * (om + al) + r2 * (om + be)
    c_coef = om * (om + al + be)
    s_a, s_b = _stable_quadratic(a_coef, b_coef, c_coef)

    if len(draining) == 1:
        j = draining[0]
        if a_coef == 0.0:
            s_neg = s_a
        else:
            s_neg = np.where(s_a.real < s_b.real, s_a, s_b)
        g = _phi(be, om, r1, s_neg)
        phi = np.stack([np.ones_like(g), g], axis=-1)
        weight = np.exp(s_neg * x) / phi[:, j]
        H = np.zeros((K, 2, 2), dtype=complex)
        H[:, :, j] = phi * weight[:, None]
        return H

    # both states drain: two negative roots with eigenvectors (1, g_a) and
    # (1, g_b), both entering the full 2x2 boundary system
    g_a, g_b = _phi(be, om, r1, s_a), _phi(be, om, r1, s_b)
    gap = g_b - g_a
    ea = np.exp(s_a * x)
    eb = np.exp(s_b * x)
    H = np.empty((K, 2, 2), dtype=complex)
    # column 0: coefficients sum to 1 and annihilate the second component
    H[:, 0, 0] = (ea * g_b - eb * g_a) / gap
    H[:, 1, 0] = g_a * g_b * (ea - eb) / gap
    # column 1: coefficients sum to 0 and give 1 on the second component
    H[:, 0, 1] = (eb - ea) / gap
    H[:, 1, 1] = (eb * g_b - ea * g_a) / gap
    return H

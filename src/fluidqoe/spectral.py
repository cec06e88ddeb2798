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
back.  Then the first-passage transform of the level down by ``x`` is

    H(x, w) = [Psi(w); I] expm(x U(w)),    U(w) = A_dd + A_du Psi(w),

over the (filling; draining) rows and the draining columns, where
``Psi(w)[i, j]`` is the transform of the first return to the start level,
in draining state ``j``, from filling state ``i``: the minimal solution of
the Riccati equation

    A_ud + A_uu Psi + Psi A_dd + Psi A_du Psi = 0

(Bean, O'Reilly & Taylor, *Stochastic Models* 21(1), 2005).  With one
filling and one draining state it is a scalar quadratic, and ``Psi`` its
explicit root of least modulus, the closed form of the two-state source;
otherwise it is found by Newton's method from ``Psi = 0``, each step one
batched Sylvester solve in Kronecker form over the whole stack.  When no
state fills, ``Psi`` is empty and ``H = expm(x A)``.  Zero-rate rows are
lifted through their exit discounts; the columns of the filling and the
zero-rate states are zero: the level cannot fall while it rises or holds.

:class:`_Level` is that engine.  Its constructor censors, lifts and solves
for ``Psi`` and ``U`` once per frequency stack, none of which depends on
``x``; its :meth:`_Level.passage` is the ``expm(x U)`` part, so one object
serves every threshold.  The starvation transform is the passage at
``lam - mu`` (:func:`transform_matrix`); the start-up transform and the
fill-completion matrix of :mod:`fluidqoe.startup` are the passage at
``-lam``.  The same engine at the one frequency ``w = i h``, ``h`` tiny,
gives the slope ``dH/dw`` at ``w = 0`` behind the restricted mean starvation
times and the mean start-up delay (:func:`_slope_at_zero`), and the path
with no jump gives the atoms of both laws (:func:`_passage_atoms`).

A scalar frequency is a stack of one whose leading axis is dropped on
return.  The checks run over the whole stack; an error names the first
frequency at fault.  Every state count takes the same engine.
"""

from __future__ import annotations

import numpy as np

from ._expm import expm
from .errors import DomainError, InfeasiblePlayout, NonConvergence
from .model import FluidModel, effective_rates

# Real frequencies below this floor are lifted onto it: at w = 0 under zero mean
# drift the Riccati equation has a double root, where the Newton step is
# singular and the scalar root loses half its digits.
OMEGA_FLOOR = 1e-8
# Newton stops once a step is at most NEWTON_TOL max(1, |Psi|); steps stall
# near 1e-14, and 5 to 12 steps get there.
NEWTON_TOL = 1e-13
NEWTON_STEPS = 50
# The step h of the complex-step slope at w = 0: its O(h^2) truncation is far
# below rounding, and h H stays far above the smallest normal number.
_COMPLEX_STEP = 1e-30


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


def _riccati(blocks, om):
    """Minimal solution ``Psi`` of the level generator's Riccati equation over
    the ``(K,)`` stack ``om``, and ``U = A_dd + A_du Psi``.

    ``blocks`` are ``(A_uu, A_ud, A_du, A_dd)`` from :class:`_Level`.
    With one filling and one draining state the equation is the scalar
    quadratic ``a_du psi^2 + (a_uu + a_dd) psi + a_ud = 0``, and ``Psi`` its
    root of least modulus, taken by Vieta as ``a_ud / q`` with ``q`` the
    half-sum of larger modulus, so that neither root cancels.  Otherwise
    Newton from ``Psi = 0``; a frequency leaves the iteration once its step
    is small, and :class:`NonConvergence` names the first one that has not
    after ``NEWTON_STEPS`` steps.  Needs a filling and a draining state.
    """
    Auu, Aud, Adu, Add = blocks
    if Aud.shape[-2:] == (1, 1):
        b = Auu + Add
        sq = np.sqrt(np.asarray(b * b - 4.0 * Adu * Aud, dtype=complex))
        np.negative(sq, out=sq, where=(np.conj(b) * sq).real < 0.0)
        psi = -2.0 * Aud / (b + sq)
        return psi, Add + Adu * psi
    Auu, Aud, Adu, Add = (np.broadcast_to(m, om.shape + m.shape[-2:]) for m in blocks)
    psi = np.zeros(Aud.shape, dtype=np.result_type(*blocks))
    live = np.arange(om.shape[0])
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
            return psi, Add + Adu @ psi
    unconverged = np.zeros(om.shape, dtype=bool)
    unconverged[live] = True
    _, bad, more = _first(om, unconverged)
    raise NonConvergence(
        f"Riccati Newton iteration did not converge in {NEWTON_STEPS} steps at omega={bad}{more}"
    )


class _Level:
    """The x-free half of the first passage of the level moving at ``rates``
    over the ``(K,)`` frequency stack ``omega`` taken as is: the censored
    level generator, the zero-rate states' exit discounts and ``Psi``.

    ``pos`` and ``zero`` index the moving and the zero-rate states, ``up``
    and ``down`` the filling and the draining ones among ``pos``.  The level
    generator is ``diag(1/|r_P|) (Q_PP - w I + Q_PO lift)``, with ``lift``
    the exit discounts ``(w I - Q_OO)^-1 Q_OP`` (``None`` without zero-rate
    states), and ``blocks`` is ``(A_uu, A_ud, A_du, A_dd)``.  Only the
    diagonal blocks carry the shift ``-w / |r|``; the others gain a leading
    frequency axis only through the lift.  With filling and draining states
    ``psi`` and ``U`` come from one :func:`_riccati` solve over the stack;
    otherwise ``psi`` is ``None`` and ``U = A_dd``.  Every threshold then
    costs only :meth:`passage`.  The level-reflected process is
    ``_Level(model, -rates, omega)``: its ``psi`` and ``U`` are ``Xi`` and
    ``K^`` (Bean, O'Reilly & Taylor 2005).
    """

    def __init__(self, model: FluidModel, rates, omega: np.ndarray):
        pos, zero = (rates != 0.0).nonzero()[0], (rates == 0.0).nonzero()[0]
        if pos.size == 0:
            raise InfeasiblePlayout("no state moves the buffer level; the threshold is unreachable")
        Q = model.Q
        speed = np.abs(rates[pos])
        shift = omega[:, None, None]
        gen = Q[pos[:, None], pos]
        lift = None
        if zero.size:
            lift = np.linalg.solve(-(Q[np.ix_(zero, zero)] - shift * np.eye(zero.size)),
                                   Q[np.ix_(zero, pos)])
            gen = gen + Q[np.ix_(pos, zero)] @ lift
        gen, slow = gen / speed[:, None], np.diag(1.0 / speed)
        up, down = (rates[pos] > 0.0).nonzero()[0], (rates[pos] < 0.0).nonzero()[0]

        def block(rows, cols):
            return gen[..., rows[:, None], cols]

        def diagonal(rows):
            return block(rows, rows) - shift * slow[rows[:, None], rows]

        self.blocks = (diagonal(up), block(up, down), block(down, up), diagonal(down))
        self.pos, self.zero, self.up, self.down, self.lift = pos, zero, up, down, lift
        self.psi, self.U = (_riccati(self.blocks, omega) if up.size and down.size
                            else (None, self.blocks[3]))

    def passage(self, x: float) -> np.ndarray:
        """First-passage transform ``(K, L, L)`` of the level down by ``x``.

        ``H = [Psi; I] expm(x U)`` on the (filling; draining) rows of the
        draining columns, the zero-rate rows lifted through their exit
        discounts and every other column zero (see the module docstring):
        one stacked matrix exponential.  When every state drains, ``H`` is
        ``expm(x A)`` itself.  Needs a draining state.
        """
        pos, zero, up = self.pos, self.zero, self.up
        E = expm(x * self.U)
        if not (zero.size or up.size):
            return E
        L = pos.size + zero.size
        cols = pos[self.down]
        H = np.zeros(E.shape[:1] + (L, L), dtype=E.dtype)
        H[:, cols[:, None], cols] = E
        if up.size:
            H[:, pos[up, None], cols] = self.psi @ E
        if zero.size:
            H[:, zero[:, None], cols] = self.lift @ H[:, pos[:, None], cols]
        return H


def _check_x(x) -> None:
    """Raise :class:`DomainError` unless the level distance ``x`` is finite
    and ``>= 0``."""
    if not 0 <= x < np.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")


def _passage_atoms(model: FluidModel, rates, x: float):
    """Point masses of the first passage of the level down by ``x``.

    From a state with ``r < 0`` the path with no jump arrives at exactly
    ``x / -r`` with probability ``exp(q_ii x / -r)``; these are the only
    atoms, and they can be large (a fast state often arrives before its
    first jump).  Other states have no such path: time ``inf``, mass 0.
    Returns ``(times, masses)`` per state.  Raises :class:`DomainError`
    unless ``x`` is finite and ``>= 0``.
    """
    _check_x(x)
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
    _check_x(x)
    om, scalar = _frequency_stack(omega)
    rates = effective_rates(model)
    if (rates < 0.0).any():
        H = _Level(model, rates, om).passage(x)
    else:
        H = np.zeros((om.shape[0], model.n_states, model.n_states), dtype=complex)
    return H[0] if scalar else H


def _slope_at_zero(model: FluidModel, rates, x: float) -> np.ndarray:
    """``dH/dw`` at ``w = 0`` of the passage at ``rates``, by the complex
    step: ``H`` is analytic in ``w`` and real on the real axis, so
    ``Im H(i h) / h`` is the slope up to ``O(h^2)`` with no difference taken
    (Squire & Trapp, *SIAM Review* 40(1), 1998), exact to rounding at
    ``h = _COMPLEX_STEP``.  Needs a draining state.
    """
    return _Level(model, rates, np.array([1j * _COMPLEX_STEP])).passage(x)[0].imag / _COMPLEX_STEP

"""The starvation transform over stacks of complex frequencies.

The playing buffer moves at the net rate ``r = lam - mu``: it fills in the
states ``u`` with ``r > 0`` and drains in the states ``d`` with ``r < 0``.
Indexed by level instead of time, the source is a Markov chain whose
discounted generator at frequency ``w`` is the level generator
``A(w) = diag(1/|r|) (Q - w I)`` (Ramaswami, "Matrix analytic methods for
stochastic fluid flows", ITC 16, 1999), with the zero-drift states
(``lam = mu``) censored out exactly as start-up censors its silent states
(:func:`fluidqoe.startup._level_generator`).  Then the first-passage
transform of the buffer from ``x`` down to empty is

    H(x, w) = [Psi(w); I] expm(x U(w)),    U(w) = A_dd + A_du Psi(w),

over the (filling; draining) rows and the draining columns, where
``Psi(w)[i, j]`` is the transform of the first return to the start level,
in draining state ``j``, from filling state ``i``: the minimal solution of
the Riccati equation

    A_ud + A_uu Psi + Psi A_dd + Psi A_du Psi = 0

(Bean, O'Reilly & Taylor, *Stochastic Models* 21(1), 2005).  It is found by
Newton's method from ``Psi = 0``, each step one batched Sylvester solve in
Kronecker form over the whole stack.  The columns of the filling and the
zero-drift states are zero: the buffer cannot empty while it grows or holds.
At ``w = 0`` the same engine gives the exact slope ``dH/dw`` behind the
restricted mean times (:func:`_slope_at_zero`).

The rate pencil ``(Q + s R - w I) phi = 0``, ``R = diag(lam - mu)``, gives
the same transform through its negative roots.  :func:`characteristic_roots`
solves it over a stack with one batched ``eig`` and checks what it finds;
the evaluator does not call it.

A scalar frequency is a stack of one whose leading axis is dropped on
return.  The checks run over the whole stack; an error, or the one warning
of a call, names the first frequency at fault.

:func:`evaluator` picks the path by state count: two-state models take the
closed form (:func:`two_state_transform`, from the explicit quadratic), every
other state count the level-generator engine (:func:`transform_matrix`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._expm import expm, expm2
from .errors import (
    BoundaryRootWarning,
    DefectivePencil,
    DegenerateRank,
    DimensionMismatch,
    DomainError,
    NonConvergence,
)
from .model import FluidModel, effective_rates
from .startup import _level_generator

# Classification band: Re(s) < -SIGN_TOL is "negative"; |Re(s)| <= SIGN_TOL warns.
SIGN_TOL = 1e-12
# Real frequencies below this floor are lifted onto it: at w = 0 the pencil has
# the root s = 0, and at zero mean drift the engine's Newton step is singular.
OMEGA_FLOOR = 1e-8
RESIDUAL_TOL = 1e-10
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


@dataclass(frozen=True)
class SpectralSolution:
    """Roots and eigenvectors of the rate pencil at one frequency or a stack.

    ``roots`` has shape ``(n,)``, or ``(K, n)`` for a stack of ``K``
    frequencies, sorted by (real, imaginary) part, so the roots with negative
    real part lead each row.  ``eigvecs[..., :, k]`` is the eigenvector of
    ``roots[..., k]``, scaled so its largest-magnitude entry is exactly 1
    (deterministic normalization).
    """

    omega: complex | np.ndarray
    rates: np.ndarray
    roots: np.ndarray
    eigvecs: np.ndarray

    @property
    def n_roots(self) -> int:
        return self.roots.shape[-1]

    @property
    def negative_count(self):
        """Number of roots with ``Re s < -SIGN_TOL``: per frequency for a stack."""
        return np.count_nonzero(self.roots.real < -SIGN_TOL, axis=-1)

    @property
    def negative_set(self) -> np.ndarray:
        """Indices of the negative-real-part roots at a single frequency."""
        if self.roots.ndim != 1:
            raise ValueError("negative_set is per frequency; use negative_count on a stack")
        return np.arange(self.negative_count)


def characteristic_roots(model: FluidModel, omega) -> SpectralSolution:
    """All finite roots ``s_k`` of ``det(Q + s R - w I) = 0`` with eigenvectors.

    ``omega`` is a scalar or a 1-D stack of frequencies; a stack is solved by
    one batched eigendecomposition.  Zero-rate states reduce the degree; the
    reduced problem is solved on the nonzero-rate block and eigenvectors are
    lifted back to full length.  Raises :class:`DegenerateRank` for a
    structurally singular pencil, :class:`NonConvergence` if the eigensolver
    fails or residuals are poor, and :class:`DefectivePencil` when a repeated
    root lacks an independent eigenvector.  Roots inside the sign band
    ``|Re s| <= 1e-12`` trigger one :class:`BoundaryRootWarning` per call.
    """
    om, scalar = _frequency_stack(omega)
    rates = effective_rates(model)
    L = model.n_states
    K = om.shape[0]
    M = model.Q - om[:, None, None] * np.eye(L)

    nz = np.flatnonzero(rates != 0.0)
    zero = np.flatnonzero(rates == 0.0)
    if nz.size == 0:
        return _solution(om, rates, np.zeros((K, 0), dtype=complex),
                         np.zeros((K, L, 0), dtype=complex), scalar)

    reduced = M[:, nz[:, None], nz]
    if zero.size:
        Mzz = M[:, zero[:, None], zero]
        try:
            lifted = np.linalg.solve(Mzz, M[:, zero[:, None], nz])
        except np.linalg.LinAlgError as exc:
            k = int(np.argmin(np.abs(np.linalg.det(Mzz))))
            raise DegenerateRank(
                f"zero-rate block is singular at omega={complex(om[k])}: {exc}"
            ) from exc
        reduced = reduced - M[:, nz[:, None], zero] @ lifted

    # (reduced + s diag(r_nz)) phi = 0  =>  standard eigenproblem for s.
    pencil = reduced / -rates[nz, None].astype(complex)
    finite = np.isfinite(pencil).all(axis=(-2, -1))
    if not finite.all():
        _, bad, _ = _first(om, ~finite)
        raise NonConvergence(f"pencil has non-finite entries at omega={bad}")
    try:
        s_vals, vecs = np.linalg.eig(pencil)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(
            f"eigensolver failed at one of omega={complex(om[0])} .. "
            f"{complex(om[-1])} ({K} frequencies): {exc}"
        ) from exc
    finite = np.isfinite(s_vals).all(axis=-1)
    if not finite.all():
        _, bad, _ = _first(om, ~finite)
        raise NonConvergence(f"eigensolver returned non-finite roots at omega={bad}")

    order = np.lexsort((s_vals.imag, s_vals.real), axis=-1)
    s_vals = np.take_along_axis(s_vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)

    full = np.zeros((K, L, nz.size), dtype=complex)
    full[:, nz, :] = vecs
    if zero.size:
        full[:, zero, :] = -lifted @ vecs

    peak = np.argmax(np.abs(full), axis=-2)
    full = full / np.take_along_axis(full, peak[:, None, :], axis=-2)

    scale = max(np.max(np.abs(model.Q)), 1.0)
    pencil_residual = (model.Q @ full + (full * rates[:, None]) * s_vals[:, None, :]
                       - om[:, None, None] * full)
    worst = np.max(np.abs(pencil_residual), axis=(-2, -1))
    poor = worst > RESIDUAL_TOL * scale * 100
    if poor.any():
        k, bad, _ = _first(om, poor)
        raise NonConvergence(
            f"pencil residual {worst[k]:g} at omega={bad} exceeds tolerance"
        )

    _check_defective(s_vals, full, om)

    boundary = np.abs(s_vals.real) <= SIGN_TOL
    hit = boundary.any(axis=-1)
    if hit.any():
        k, bad, more = _first(om, hit)
        warnings.warn(
            f"{np.count_nonzero(boundary[k])} characteristic root(s) on the sign "
            f"boundary at omega={bad}{more}; classification is unreliable",
            BoundaryRootWarning,
            stacklevel=2,
        )
    return _solution(om, rates, s_vals, full, scalar)


def _solution(om, rates, roots, eigvecs, scalar) -> SpectralSolution:
    if scalar:
        return SpectralSolution(omega=complex(om[0]), rates=rates,
                                roots=roots[0], eigvecs=eigvecs[0])
    return SpectralSolution(omega=om, rates=rates, roots=roots, eigvecs=eigvecs)


def _check_defective(s_vals: np.ndarray, vecs: np.ndarray, om: np.ndarray) -> None:
    """Raise :class:`DefectivePencil` where a repeated root lacks an
    independent eigenvector.

    ``s_vals`` is ``(K, n)``, ``vecs`` ``(K, L, n)`` and ``om`` ``(K,)``.
    Close root pairs are flagged over the whole stack; only flagged pairs get
    a singular-value test.
    """
    gap = np.abs(s_vals[:, :, None] - s_vals[:, None, :])
    close = np.triu(gap <= 1e-8 * np.maximum(1.0, np.abs(s_vals))[:, :, None], k=1)
    k, i, j = np.nonzero(close)
    if k.size == 0:
        return
    pairs = np.stack([vecs[k, :, i], vecs[k, :, j]], axis=-1)
    deficient = np.linalg.svd(pairs, compute_uv=False)[:, -1] < 1e-8
    if deficient.any():
        p = int(np.argmax(deficient))
        raise DefectivePencil(
            f"repeated root {s_vals[k[p], i[p]]} at omega={complex(om[k[p]])} has a "
            "deficient eigenspace"
        )


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
    after ``NEWTON_STEPS`` steps.
    """
    Auu, Aud = A[:, up[:, None], up], A[:, up[:, None], down]
    Adu, Add = A[:, down[:, None], up], A[:, down[:, None], down]
    psi = np.zeros(Aud.shape, dtype=A.dtype)
    if not up.size:
        return psi, Auu, Add
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


def transform_matrix(model: FluidModel, x: float, omega) -> np.ndarray:
    """Level-generator starvation transform matrix at one frequency or a stack.

    ``H = [Psi; I] expm(x U)`` on the (filling; draining) rows of the
    draining columns, the zero-drift rows lifted through their exit
    discounts and every other column zero (see the module docstring).
    ``omega`` may be a scalar (result ``(L, L)``) or an array of shape
    ``(K,)`` (result ``(K, L, L)``); the whole stack costs one batched Newton
    iteration and one stacked matrix exponential.
    """
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    om, scalar = _frequency_stack(omega)
    rates = effective_rates(model)
    L = model.n_states
    H = np.zeros((om.shape[0], L, L), dtype=complex)
    if np.any(rates < 0.0):
        kept, zero, A, lift = _level_generator(model, rates, om)
        up, down = np.flatnonzero(rates[kept] > 0.0), np.flatnonzero(rates[kept] < 0.0)
        psi, _, U = _riccati(A, up, down, om)
        E = (expm2 if down.size == 2 else expm)(x * U)
        cols = kept[down]
        H[:, kept[up, None], cols] = psi @ E
        H[:, cols[:, None], cols] = E
        if zero.size:
            H[:, zero[:, None], cols] = lift @ H[:, kept[:, None], cols]
    return H[0] if scalar else H


def _slope_at_zero(model: FluidModel, x: float) -> np.ndarray:
    """``dH/dw`` of the starvation transform at ``w = 0``, exactly.

    At ``w = 0`` the engine runs in real arithmetic and needs no floor.
    With ``A' = dA/dw``, ``dPsi/dw`` solves the Sylvester equation of the
    Newton step at the solution, with right side minus the Riccati equation
    differentiated at fixed ``Psi``; ``dU/dw = A'_dd + A'_du Psi + A_du dPsi``;
    and the pair ``(expm(x U), d expm(x U)/dw)`` is one block exponential of
    ``[[x U, x dU], [0, x U]]`` (Van Loan, IEEE TAC 23(3), 1978).  Zero-drift
    rows differentiate their lift, whose slope is ``-(-Q_OO)^-1 lift``.
    Needs a draining state.
    """
    rates = effective_rates(model)
    L = model.n_states
    kept, zero, A, lift = _level_generator(model, rates, 0.0)
    up, down = np.flatnonzero(rates[kept] > 0.0), np.flatnonzero(rates[kept] < 0.0)
    speed = np.abs(rates[kept])
    dA = -np.diag(1.0 / speed)
    if zero.size:
        dlift = -np.linalg.solve(-model.Q[np.ix_(zero, zero)], lift)
        dA = dA + model.Q[np.ix_(kept, zero)] @ dlift / speed[:, None]
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
    cols = kept[down]
    slope = np.zeros((L, L))
    slope[np.ix_(kept[up], cols)] = dpsi @ E + psi @ dE
    slope[np.ix_(cols, cols)] = dE
    if zero.size:
        H = np.zeros((kept.size, d))
        H[up], H[down] = psi @ E, E
        slope[np.ix_(zero, cols)] = dlift @ H + lift @ slope[np.ix_(kept, cols)]
    return slope


def evaluator(model: FluidModel, x: float):
    """Frequency-stack evaluator of the starvation transform ``H~(x, w)``.

    Two-state models take the closed form, all others the level-generator
    engine, :func:`transform_matrix`.  The returned callable maps a ``(K,)``
    frequency array to ``(K, L, L)``, and a scalar frequency to ``(L, L)``.
    """
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
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
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
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

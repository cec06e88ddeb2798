"""Characteristic analysis of the playing buffer over stacks of complex frequencies.

At frequency ``w`` the starvation transform (first passage of the buffer to
empty while it plays) is built from the pencil

    (Q + s R - w I) phi = 0,     R = diag(lam - mu)

whose finite eigenvalues ``s_k(w)`` and eigenvectors ``phi^k(w)`` drive the
exponential solution modes ``exp(s_k x) phi^k``.  The start-up delay, where
the buffer only fills, needs no pencil: see :mod:`fluidqoe.startup`.

Every function here takes one frequency or a 1-D stack of ``K`` of them, and
a stack is solved in one pass of batched linear algebra:

- one batched ``solve`` eliminates the zero-rate states by a Schur
  complement (the polynomial degree in ``s`` equals the number of states
  with a nonzero rate; their eigenvector components are lifted back after);
- one batched ``eig`` finds every root, which are sorted per frequency by
  (real, imaginary) part, so the negative ones lead each row;
- one batched ``cond`` and one batched ``solve`` match the boundary
  conditions on the leading roots.

A scalar frequency is a stack of one whose leading axis is dropped on
return.  The checks run over the whole stack; an error, or the one warning
of a call, names the first frequency at fault.

:func:`evaluator` picks the path by state count: two-state models take the
closed form (:func:`two_state_transform`, from the explicit quadratic), every
other state count the generic pencil path (:func:`transform_matrix`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoundaryRootWarning,
    DefectivePencil,
    DegenerateRank,
    DimensionMismatch,
    DomainError,
    IllConditionedWarning,
    NonConvergence,
)
from .model import FluidModel, effective_rates

# Classification band: Re(s) < -SIGN_TOL is "negative"; |Re(s)| <= SIGN_TOL warns.
SIGN_TOL = 1e-12
# Real frequencies below this floor are lifted onto it; the pencil is singular
# in the limit w -> 0 (s = 0 is always a root there).
OMEGA_FLOOR = 1e-8
RESIDUAL_TOL = 1e-10
CONDITION_LIMIT = 1e12


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


@dataclass(frozen=True)
class BoundaryCoefficients:
    """Solution ``a[k, j]`` of the boundary system for every target state j.

    ``root_indices`` names the roots (columns of the solution's eigvecs) the
    rows of ``a`` refer to; ``rows`` the model states the conditions were
    imposed on.  Columns of targets outside the feasible set are zero.  For a
    stack, ``a``, ``condition`` and ``ill_conditioned`` gain a leading
    frequency axis.
    """

    a: np.ndarray
    root_indices: np.ndarray
    rows: np.ndarray
    condition: float | np.ndarray
    ill_conditioned: bool | np.ndarray


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


def boundary_coefficients(sol: SpectralSolution, model: FluidModel) -> BoundaryCoefficients:
    """Coefficients ``a[k, j]`` matching boundary conditions at level zero.

    The conditions ``sum_k a_kj phi_i^k = delta_ij`` are imposed on the
    strictly draining states ``i`` and only negative-real-part roots enter;
    target columns outside the draining set come out identically zero.

    ``sol`` holds one frequency or a stack; a stack's systems are solved in
    one batched call.  A condition number above 1e12 flags the result (and
    warns once per call) but the coefficients are still returned.
    """
    scalar = sol.roots.ndim == 1
    if scalar:
        sol = replace(sol, omega=np.array([sol.omega], dtype=complex),
                      roots=sol.roots[None], eigvecs=sol.eigvecs[None])
    L = model.n_states
    K = sol.roots.shape[0]
    rows = np.flatnonzero(sol.rates < 0.0)
    # the negative roots are the leading ones of each sorted row
    d = rows.size
    sel = np.arange(d)
    uneven = sol.negative_count != d
    if uneven.any():
        k, bad, _ = _first(sol.omega, uneven)
        raise NonConvergence(
            f"boundary system is not square at omega={bad}: "
            f"{sol.negative_count[k]} negative roots vs {d} conditions"
        )
    if d == 0:
        return _coefficients(np.zeros((K, 0, L), dtype=complex), sel, rows,
                             np.ones(K), np.zeros(K, dtype=bool), scalar)

    system = sol.eigvecs[:, rows[:, None], sel]
    rhs = np.eye(L, dtype=complex)[rows, :]
    condition = np.linalg.cond(system)
    ill = condition > CONDITION_LIMIT
    if ill.any():
        k, bad, more = _first(sol.omega, ill)
        warnings.warn(
            f"boundary system condition number {condition[k]:.3g} exceeds "
            f"{CONDITION_LIMIT:g} at omega={bad}{more}",
            IllConditionedWarning,
            stacklevel=2,
        )
    try:
        a = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        k = int(np.argmax(np.nan_to_num(condition, nan=np.inf)))
        raise DefectivePencil(
            f"boundary system is singular at omega={complex(sol.omega[k])}: {exc}"
        ) from exc
    return _coefficients(a, sel, rows, condition, ill, scalar)


def _coefficients(a, sel, rows, condition, ill, scalar) -> BoundaryCoefficients:
    if scalar:
        return BoundaryCoefficients(a=a[0], root_indices=sel, rows=rows,
                                    condition=float(condition[0]),
                                    ill_conditioned=bool(ill[0]))
    return BoundaryCoefficients(a=a, root_indices=sel, rows=rows,
                                condition=condition, ill_conditioned=ill)


def transform_matrix(model: FluidModel, x: float, omega) -> np.ndarray:
    """Generic-path starvation transform matrix at one frequency or a stack.

    Entry ``[i, j]`` is ``sum_k a_kj exp(s_k x) phi_i^k`` over the negative
    roots, the first-passage transform of the playing buffer.  ``omega`` may
    be a scalar (result ``(L, L)``) or an array of shape ``(K,)`` (result
    ``(K, L, L)``); the whole stack costs one batched pencil solve.
    """
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    om, scalar = _frequency_stack(omega)
    sol = characteristic_roots(model, om)
    coeffs = boundary_coefficients(sol, model)
    sel = coeffs.root_indices
    if sel.size == 0:
        H = np.zeros((om.shape[0], model.n_states, model.n_states), dtype=complex)
    else:
        growth = np.exp(sol.roots[:, sel] * x)
        H = sol.eigvecs[:, :, sel] @ (growth[:, :, None] * coeffs.a)
    return H[0] if scalar else H


def evaluator(model: FluidModel, x: float):
    """Frequency-stack evaluator of the starvation transform ``H~(x, w)``.

    Two-state models take the closed form, all others the generic pencil
    path.  The returned callable maps a ``(K,)`` frequency array to
    ``(K, L, L)``, and a scalar frequency to ``(L, L)``.
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
    the generic pencil path to near machine precision.  Raises
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

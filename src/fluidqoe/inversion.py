"""Numerical Laplace inversion on the positive real axis.

The inverter discretizes the Bromwich contour integral with the trapezoidal
rule, which turns the inverse transform at time ``t`` into a nearly
alternating series

    f(t) ~ (e^(A/2) / 2t) f~(A/2t)
           + (e^(A/2) / t) * sum_{k>=1} (-1)^k Re f~((A + 2 k pi i) / 2t)

and then accelerates the series with Euler summation: the returned value is
the binomial average of the partial sums ``s_n .. s_{n+m}``.  ``A`` controls
the aliasing (discretization) error, roughly ``e^-A``; pushing ``A`` up also
multiplies round-off by ``e^(A/2)``, so in double precision there is a hard
ceiling on useful values (see :data:`PRECISION_CEILING_A`).  This is the
EULER algorithm of Abate & Whitt, "Numerical inversion of Laplace transforms
of probability distributions", ORSA J. Computing 7(1), 1995.

Evaluators may return scalars or arrays: an input frequency array of shape
``(K,)`` must map to shape ``(K, *value_shape)``.  Whole matrices of
transforms are inverted in one pass this way, and every frequency is
evaluated exactly once per inversion.

``t`` may be one time or a 1-D array of times.  The frequencies
``(A + 2 k pi i) / 2t`` depend on ``t``, so no evaluation is shared between
times; instead the frequencies of a block of times go to the evaluator in
one call and the Euler sums of the block run as one array operation.  A
scalar ``t`` is a block of one, and long arrays are split into blocks of a
fixed size so the evaluator's working memory stays bounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, OutOfRange, OverflowRisk
from .model import _is_integer

# Largest A/l for which e^(A/2l) * eps still leaves a ~1e-6 error budget.
PRECISION_CEILING_A = 2.0 * math.log(1e-6 / np.finfo(float).eps)

CDF_ERROR_TOL = 1e-3


@dataclass(frozen=True, slots=True)
class InversionParams:
    """Euler-summation operating point ``(l, m, n, A)``.

    ``l`` oversamples the trapezoidal grid, ``n`` is the number of plain
    partial sums, ``m`` the binomial averaging order, and ``A`` the
    discretization-error exponent.  The defaults deliver roughly 1e-8
    accuracy for smooth transforms and are safe in double precision.
    ``m = 0`` (no averaging) is accepted for robustness experiments.
    ``l``, ``m`` and ``n`` are integers: numpy integers are stored as
    ``int``, while floats and ``bool`` are refused.
    """

    l: int = 1
    m: int = 11
    n: int = 38
    A: float = 18.4

    def __post_init__(self):
        for name, low in (("l", 1), ("m", 0), ("n", 1)):
            value = getattr(self, name)
            if not _is_integer(value) or value < low:
                raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (self.A > 0):
            raise DomainError(f"A must be > 0, got {self.A}")

    def check_precision(self) -> None:
        """Refuse operating points whose round-off amplification is hopeless."""
        if self.A / self.l > PRECISION_CEILING_A:
            amplified = math.exp(self.A / (2 * self.l)) * np.finfo(float).eps
            raise OverflowRisk(
                f"A={self.A:g} with l={self.l} amplifies round-off to ~{amplified:.1e}; "
                f"the double-precision ceiling is A/l <= {PRECISION_CEILING_A:.1f}"
            )

    @property
    def n_evaluations(self) -> int:
        """Distinct transform evaluations per inversion (each computed once)."""
        return self.l * (self.n + self.m + 1) + 1


DEFAULT_PARAMS = InversionParams()

# The classic (1, M, M, 2 ln(10) M / 3) operating point at M = 64 targets
# ~1e-13 aliasing error, but its e^(A/2) ~ 2e21 wipes out double precision;
# it is kept selectable to demonstrate check_precision().
LEGACY_M64_PARAMS = dict(l=1, m=64, n=64, A=2.0 * math.log(10.0) * 64 / 3.0)


@dataclass(frozen=True)
class CdfValue:
    """Raw inverted value alongside its [0, 1]-clamped version."""

    raw: float | np.ndarray
    clamped: float | np.ndarray


def _evaluate(f: Callable, omegas: np.ndarray) -> np.ndarray:
    values = np.asarray(f(omegas))
    if values.shape[:1] != omegas.shape:
        raise DomainError(
            f"evaluator returned shape {values.shape} for {omegas.shape[0]} frequencies; "
            "the leading axis must match the frequency axis"
        )
    return values


# Times inverted per evaluator call: 16 times at the default 51 frequencies
# each is 816 frequencies, which bounds the evaluator's working arrays for
# however long a time vector is.
_TIMES_PER_CALL = 16


@functools.lru_cache(maxsize=32)
def _euler_constants(params: InversionParams) -> tuple:
    """The time-independent parts of the Euler sum at one operating point:
    ``i pi idx`` over the frequency index 0 .. l(n+m+1), the phases
    ``e^(i j pi / l)`` (j = 1 .. l), the signs ``(-1)^k`` (k = 0 .. n+m) as a
    column, the binomial weights ``C(m, k) / 2^m`` and ``e^(A / 2l)``."""
    l, m, n = params.l, params.m, params.n
    n_terms = n + m + 1
    arrays = (
        1j * np.pi * np.arange(l * n_terms + 1),
        np.exp(1j * np.pi * np.arange(1, l + 1) / l),
        ((-1.0) ** np.arange(n_terms))[:, None],
        np.array([math.comb(m, k) for k in range(m + 1)], dtype=float) * 0.5**m,
    )
    for a in arrays:
        a.setflags(write=False)  # shared by every caller of the cache
    return arrays + (math.exp(params.A / (2 * l)),)


def time_array(t) -> np.ndarray:
    """``t`` as a float array of shape ``()`` or ``(T,)`` with every time > 0;
    a :class:`DomainError` names the first time that is not."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise DomainError(f"t must be a float or a 1-D array, got shape {times.shape}")
    if times.size == 0:
        raise DomainError("t must hold at least one time")
    flat = times.reshape(-1)
    bad = ~(flat > 0)
    if bad.any():
        raise DomainError(f"t must be > 0, got {flat[bad][0]}")
    return times


def invert(f: Callable, t, params: InversionParams = DEFAULT_PARAMS):
    """Invert an ordinary Laplace transform at a time ``t > 0`` or at each
    time of a 1-D array ``t``.

    ``f`` maps a complex frequency array of shape ``(K,)`` to values of shape
    ``(K, ...)`` and must be conjugate-symmetric (real-valued original).
    For a scalar ``t`` the result is a float, or a real array matching the
    evaluator's trailing shape; for an array of ``T`` times it has shape
    ``(T, ...)``.  The frequencies of up to ``_TIMES_PER_CALL`` times go to
    ``f`` in one call, and the Euler sums of those times run as one array
    operation; a scalar ``t`` is a block of one.  Each frequency is evaluated
    exactly once.

    Deterministic: identical inputs give bit-identical results.  A time
    inverted within a batch may differ from the same time inverted alone in
    the last bits, where the matrix products sum in another order.
    """
    times = time_array(t)
    params.check_precision()
    flat = times.reshape(-1)
    blocks = [_invert_block(f, flat[i:i + _TIMES_PER_CALL], params)
              for i in range(0, flat.size, _TIMES_PER_CALL)]
    if times.ndim == 1:
        return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    result = blocks[0][0]
    return float(result) if result.ndim == 0 else result


def _invert_block(f: Callable, t: np.ndarray, params: InversionParams) -> np.ndarray:
    """Euler sums at the times ``t`` (shape ``(T,)``) from one evaluator call."""
    scaled_idx, phase, signs, weights, exp_half = _euler_constants(params)
    l, n = params.l, params.n
    n_times, n_terms = t.size, signs.size

    # Term k (k = 0 .. n+m) needs f~(base + i pi (j + k l)/(l t)), j = 1 .. l;
    # the frequency index j + k l runs over 1 .. l(n+m+1) without repeats,
    # and index 0 is the real abscissa itself.
    base = params.A / (2 * l * t)
    omegas = base[:, None] + scaled_idx / (l * t)[:, None]
    values = _evaluate(f, omegas.reshape(-1))
    shape = values.shape[1:]
    values = values.reshape(omegas.shape + (-1,))  # (T, frequency, value)

    head = values[:, 0].real
    # Each j carries the phase e^(i j pi / l); the real part of the phased sum
    # is what survives for a real-valued original.
    phased = (phase @ values[:, 1:].reshape(n_times, n_terms, l, -1)).real

    pref = (exp_half / (2 * l * t))[:, None]
    terms = 2.0 * pref[:, None] * phased
    terms[:, 0] += pref * head
    partial = np.cumsum(terms * signs, axis=1)[:, n:]
    return (weights @ partial).reshape((n_times,) + shape)


def _cdf_evaluator(lst: Callable) -> Callable:
    def over_omega(omegas: np.ndarray) -> np.ndarray:
        vals = np.asarray(lst(omegas))
        return vals / omegas.reshape((omegas.shape[0],) + (1,) * (vals.ndim - 1))

    return over_omega


def invert_cdf_value(lst: Callable, t,
                     params: InversionParams = DEFAULT_PARAMS) -> CdfValue:
    """Invert the Laplace-Stieltjes transform of a (sub-)probability CDF.

    The ordinary transform of the CDF is ``lst(w)/w``.  ``t`` is a time or a
    1-D array of times, as for :func:`invert`.  Raw inverted values outside
    ``[-1e-3, 1 + 1e-3]`` raise :class:`OutOfRange` (a broken transform or
    unsuitable parameters, not ordinary ripple), naming the worst value at
    the first such time in the order of ``t``; anything closer is clamped to
    [0, 1].
    """
    raw = invert(_cdf_evaluator(lst), t, params)
    arr = np.asarray(raw, dtype=float)
    per_time = arr.reshape(np.size(t), -1)
    outside = ((per_time < -CDF_ERROR_TOL) | (per_time > 1.0 + CDF_ERROR_TOL)).any(axis=1)
    if outside.any():
        first = int(np.argmax(outside))
        worst = per_time[first, int(np.argmax(np.abs(per_time[first] - 0.5)))]
        when = float(np.reshape(t, -1)[first])
        raise OutOfRange(
            f"inverted CDF value {float(worst):g} at t={when:g} is outside "
            f"[-{CDF_ERROR_TOL:g}, 1+{CDF_ERROR_TOL:g}]"
        )
    clamped = np.clip(arr, 0.0, 1.0)
    if arr.ndim == 0:
        return CdfValue(raw=float(arr), clamped=float(clamped))
    return CdfValue(raw=arr, clamped=clamped)


def invert_cdf(lst: Callable, t, params: InversionParams = DEFAULT_PARAMS):
    """Clamped CDF value at ``t`` (a time or a 1-D array of times); see
    :func:`invert_cdf_value`."""
    return invert_cdf_value(lst, t, params).clamped


def subtract_atoms(evaluator: Callable, times: np.ndarray, masses: np.ndarray) -> Callable:
    """Evaluator for the continuous part of a matrix transform.

    Point masses make the inverted CDF jump, and the trapezoidal inversion
    converges to jump midpoints with ringing nearby; distributions with
    known atoms should invert only their continuous remainder and add the
    steps back exactly.  ``times[i]``/``masses[i]`` describe an atom on the
    diagonal entry ``(i, i)``; zero-mass entries are ignored.
    """
    live = np.nonzero(np.asarray(masses) > 0.0)[0]
    if live.size == 0:
        return evaluator

    def continuous(omegas):
        omegas = np.atleast_1d(np.asarray(omegas, dtype=complex))
        vals = np.array(evaluator(omegas))
        for i in live:
            vals[:, i, i] -= masses[i] * np.exp(-omegas * times[i])
        return vals

    return continuous


def atom_steps(times: np.ndarray, masses: np.ndarray, t) -> np.ndarray:
    """Diagonal matrices of the atom masses that have arrived by time ``t``:
    shape ``(L, L)`` for one time, ``(T, L, L)`` for a 1-D array of times."""
    times = np.asarray(times, dtype=float)
    finite = np.isfinite(times)
    threshold = np.full(times.shape, np.inf)
    threshold[finite] = times[finite] - 1e-12 * np.maximum(np.abs(times[finite]), 1.0)
    arrived = np.asarray(t, dtype=float)[..., None] >= threshold
    return np.where(arrived, masses, 0.0)[..., None] * np.eye(times.size)


def invert_cdf_with_atoms(evaluator: Callable, atoms: tuple, t: np.ndarray,
                          support: float,
                          params: InversionParams = DEFAULT_PARAMS) -> np.ndarray:
    """Clamped CDF matrices of a law whose point masses are the diagonal
    atoms ``atoms = (times, masses)`` (see :func:`subtract_atoms`).

    ``t`` comes from :func:`time_array`; the result has shape ``(L, L)`` for
    one time and ``(T, L, L)`` for ``T``.  Times below the support bound
    ``support`` get exact zeros and are never inverted.  The others go to
    one :func:`invert_cdf` call on the continuous remainder, and the atom
    steps are added back exactly.
    """
    flat = t.reshape(-1)
    L = len(atoms[0])
    cdf = np.zeros((flat.size, L, L))
    live = flat >= support
    if live.any():
        cont = invert_cdf(subtract_atoms(evaluator, *atoms), flat[live], params)
        cdf[live] = np.clip(cont + atom_steps(*atoms, flat[live]), 0.0, 1.0)
    return cdf.reshape(t.shape + (L, L))


@dataclass(frozen=True)
class SelfTestReport:
    """Accuracy of the inverter on a known transform pair."""

    params: InversionParams
    max_abs_error: float
    t_grid: tuple
    passed: bool
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "params": {"l": self.params.l, "m": self.params.m,
                       "n": self.params.n, "A": self.params.A},
            "max_abs_error": self.max_abs_error,
            "t_grid": list(self.t_grid),
            "passed": self.passed,
            "failure": self.failure,
        }


def reference_transform(omega: np.ndarray) -> np.ndarray:
    """Transform of exp(-2t) sin(pi t): pi / ((w + 2)^2 + pi^2)."""
    return np.pi / ((omega + 2.0) ** 2 + np.pi**2)


def reference_original(t):
    return np.exp(-2.0 * np.asarray(t)) * np.sin(np.pi * np.asarray(t))


def self_test(params: InversionParams = DEFAULT_PARAMS,
              t_grid: Sequence[float] | None = None,
              tolerance: float = 1e-6) -> SelfTestReport:
    """Exercise the inverter on the damped-sine pair and report the worst error.

    Never raises for bad operating points: precision refusals and wild errors
    are reported in the returned record with ``passed=False``.
    """
    if t_grid is None:
        t_grid = tuple(np.round(np.arange(1, 51) * 0.1, 10))
    else:
        t_grid = tuple(float(t) for t in t_grid)
    times = np.array(t_grid)
    try:
        approx = invert(reference_transform, times, params)
    except OverflowRisk as exc:
        return SelfTestReport(params=params, max_abs_error=float("inf"),
                              t_grid=t_grid, passed=False, failure=str(exc))
    worst = float(np.max(np.abs(approx - reference_original(times))))
    return SelfTestReport(params=params, max_abs_error=worst, t_grid=t_grid,
                          passed=worst < tolerance)

"""Distribution of the number of starvations in one session.

A session with ``j`` starvations decomposes into a first-starvation event,
``j - 1`` re-prefetch/starve-again continuations, and a terminal
no-more-starvations closure.  Each piece has an explicit probability in
terms of the fill-completion matrix ``V(0, x)`` and the first-passage
density/CDF from buffer level ``x``:

* first starvation at playback time ``t``: entry distribution propagated
  through the fill, times the first-passage density; impossible before
  ``x`` frames have played or after the file would have ended,
* continuation after a starvation: re-prefetch (``V``), then first passage
  again, at least ``x/mu`` later (the playback clock freezes during
  re-prefetch, so continuations depend only on the gap),
* closure: re-prefetch then survive the remaining horizon; certain once
  fewer than ``x`` frames remain (the re-prefetch swallows the whole rest).

The count probabilities chain these with composite-trapezoid quadrature on
a playback-time grid aligned so that ``x/mu`` is a whole number of steps.
The densities, kernels and survivals of every node come from one inversion
call each.  One chain serves every count: each step is a windowed discrete
convolution of the previous starvation density with the continuation
kernel (the k-th starvation cannot happen before ``k x`` frames have
played), and the ``j``-th step's density, closed with the survival, gives
the probability of exactly ``j`` starvations.  The bound that the remaining
starvations must still fit in the file cuts only nodes the later steps
never read, so the chain need not be rebuilt per count.  State is carried
along the chain: densities are resolved per starvation state, because
re-prefetch outcomes and subsequent passages depend on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GridTooCoarse,
    NegativeDensityWarning,
    NumericError,
    TailTooLarge,
)
from .inversion import DEFAULT_PARAMS, InversionParams, invert, invert_cdf
from .model import FluidModel, SessionParams, stationary_distribution
from .spectral import evaluator
from .starvation import (
    earliest_starvation_time,
    starvation_atoms,
    starvation_probability,
)
from .startup import prefetch_end_distribution

NEGATIVE_DENSITY_TOL = -1e-6
TAIL_LIMIT = 0.05
MASS_BAND = 0.02


def _clamp_density(values: np.ndarray, what: str) -> np.ndarray:
    low = float(np.min(values, initial=0.0))
    if low < NEGATIVE_DENSITY_TOL:
        warnings.warn(
            f"{what}: inversion ripple reached {low:.2e} before clamping",
            NegativeDensityWarning,
            stacklevel=3,
        )
    return np.clip(values, 0.0, None)


def _playback_start(model: FluidModel, x: float):
    """Entry distribution at playback start and the re-prefetch matrix."""
    pi = stationary_distribution(model)
    fill = prefetch_end_distribution(model, 0.0, x)
    return pi @ fill, fill


def _refetch_survival(model: FluidModel, x: float, fill: np.ndarray,
                      ev, inv: InversionParams):
    """Per-state no-starvation probability over a remaining horizon.

    Returns a callable ``survive(h)``: re-prefetch from the given state, then
    avoid the first passage for ``h`` seconds.  ``h`` is a horizon (result
    ``(L,)``) or a 1-D array of horizons (result ``(len(h), L)``, one
    inversion call).  Deterministic drain atoms of the passage law are
    stepped in exactly; only the continuous remainder is inverted.
    """
    times, masses = starvation_atoms(model, x)
    live = np.nonzero(masses > 0.0)[0]
    weights = fill[:, live] * masses[live]  # (L, n_atoms)

    def continuous(omegas):
        omegas = np.atleast_1d(np.asarray(omegas, dtype=complex))
        vals = np.einsum("jn,knm->kj", fill, np.asarray(ev(omegas)))
        if live.size:
            vals = vals - np.exp(-np.outer(omegas, times[live])) @ weights.T
        return vals

    def survive(h) -> np.ndarray:
        cdf = np.asarray(invert_cdf(continuous, h, inv))
        if live.size:
            arrived = np.asarray(h)[..., None] >= (
                times[live] - 1e-12 * np.maximum(times[live], 1.0))
            cdf = cdf + arrived @ weights.T
        return 1.0 - np.clip(cdf, 0.0, 1.0)

    return survive


def first_starvation_density(model: FluidModel, params: SessionParams, t: float,
                             inv: InversionParams = DEFAULT_PARAMS,
                             method: str = "auto") -> float:
    """Density (1/seconds) of the first starvation at playback time ``t``.

    Zero outside ``x <= mu t < Z``: the prefetched frames must have played
    out first, and an empty buffer after the last frame is not a starvation.
    """
    x, Z, mu = params.x, params.Z, model.mu
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if mu * t < x or mu * t >= Z or t < earliest_starvation_time(model, x):
        return 0.0
    rho0, _ = _playback_start(model, x)
    ev = evaluator(model, x, "playback", method)

    def contracted(omegas):
        return np.einsum("i,kij->k", rho0, np.asarray(ev(omegas)))

    value = invert(contracted, t, inv)
    return float(_clamp_density(np.asarray(value), "first starvation density"))


def terminal_probability(model: FluidModel, params: SessionParams, t: float,
                         j: int, inv: InversionParams = DEFAULT_PARAMS,
                         method: str = "auto") -> np.ndarray:
    """No-further-starvation probability after the ``j``-th starvation at ``t``.

    Returned per starvation state (length-L vector): the closure re-prefetches
    and must then survive the remaining ``Z/mu - t`` of playback.  Identically
    0 when ``j`` starvations cannot have happened by ``t`` (or the file is
    over), identically 1 when fewer than ``x`` frames remain.
    """
    x, Z, mu = params.x, params.Z, model.mu
    L = model.n_states
    if j < 1:
        raise DomainError(f"j must be >= 1, got {j}")
    if mu * t < j * x or mu * t >= Z:
        return np.zeros(L)
    if mu * t >= Z - x:
        return np.ones(L)
    _, fill = _playback_start(model, x)
    ev = evaluator(model, x, "playback", method)
    survive = _refetch_survival(model, x, fill, ev, inv)
    return survive(Z / mu - t)


def continuation_kernel(model: FluidModel, params: SessionParams, delta_t: float,
                        t_l: float = 0.0, l: int = 1, j: int | None = None,
                        inv: InversionParams = DEFAULT_PARAMS,
                        method: str = "auto") -> np.ndarray:
    """Density of the next starvation a gap ``delta_t`` after the previous one.

    Per previous-starvation state (length-L vector), contracted over the
    re-prefetch outcome and the next starvation state.  The gap must cover at
    least one prefetch worth of playback (``mu delta_t >= x``); when the total
    count ``j`` is supplied, the next starvation must also leave room for the
    remaining ``j - l - 1`` (support bound ``mu t_{l+1} < Z - (j-l-1) x``).
    Depends on the gap only: the playback clock freezes while re-buffering.
    """
    x, Z, mu = params.x, params.Z, model.mu
    L = model.n_states
    if delta_t < 0:
        raise DomainError(f"delta_t must be >= 0, got {delta_t}")
    if mu * t_l < l * x:
        return np.zeros(L)
    reserve = 0 if j is None else (j - l - 1) * x
    if mu * delta_t < x or mu * (t_l + delta_t) >= Z - reserve:
        return np.zeros(L)
    if delta_t < earliest_starvation_time(model, x):
        return np.zeros(L)
    _, fill = _playback_start(model, x)
    ev = evaluator(model, x, "playback", method)

    def refetch_density(omegas):
        return np.einsum("jn,knm->kj", fill, np.asarray(ev(omegas)))

    value = invert(refetch_density, delta_t, inv)
    return _clamp_density(np.asarray(value), "continuation kernel")


@dataclass(frozen=True)
class PathGrid:
    """Uniform playback-time grid with the per-node quantities the count
    distribution needs.

    The step divides ``x/mu`` exactly, so every support bound that is a
    multiple of the prefetch interval lands on a node.  Cached arrays (all
    ungated; windows are applied where the grid is consumed):

    * ``first_density[g, j]``: entry-weighted density of a first starvation
      in state ``j`` at node ``g``,
    * ``kernel[g, j, m]``: after a starvation in state ``j``, density of the
      next starvation in state ``m`` a gap of ``g`` nodes later,
    * ``survive[g, j]``: probability of no starvation in the rest of the
      session given a re-prefetch from state ``j`` at node ``g``.
    """

    x: float
    Z: float
    mu: float
    step: float
    n_t: int
    t: np.ndarray
    rho0: np.ndarray
    fill: np.ndarray
    first_density: np.ndarray
    kernel: np.ndarray
    survive: np.ndarray

    def __post_init__(self):
        if self.step * self.n_t < self.Z / self.mu - 1e-9:
            raise GridTooCoarse(
                f"grid spans {self.step * self.n_t:g}s but the session "
                f"lasts {self.Z / self.mu:g}s"
            )
        ratio = self.x / self.mu / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise GridTooCoarse(
                f"step {self.step:g} does not divide the prefetch interval "
                f"{self.x / self.mu:g}"
            )

    @property
    def nodes_per_prefetch(self) -> int:
        return int(round(self.x / (self.mu * self.step)))


def build_path_grid(model: FluidModel, params: SessionParams,
                    inv: InversionParams = DEFAULT_PARAMS,
                    points_per_prefetch: int = 16,
                    method: str = "auto") -> PathGrid:
    """Evaluate densities, kernels and survivals on an aligned uniform grid.

    ``points_per_prefetch`` sets the resolution of the prefetch interval
    ``x/mu``; fewer than 8 points is rejected as too coarse to trust the
    windowed quadrature.
    """
    if points_per_prefetch < 8:
        raise GridTooCoarse(
            f"points_per_prefetch must be >= 8, got {points_per_prefetch}"
        )
    x, Z, mu = params.x, params.Z, model.mu
    step = x / mu / points_per_prefetch
    horizon = Z / mu
    n_t = int(np.ceil(horizon / step)) + 1
    t = np.arange(n_t) * step

    rho0, fill = _playback_start(model, x)
    ev = evaluator(model, x, "playback", method)
    L = model.n_states

    def stacked_density(omegas):
        H = np.asarray(ev(omegas))
        first = np.einsum("i,kij->kj", rho0, H)
        refetch = np.einsum("jn,knm->kjm", fill, H)
        return np.concatenate([first[:, None, :], refetch], axis=1)

    support = max(earliest_starvation_time(model, x), x / mu)
    first_density = np.zeros((n_t, L))
    kernel = np.zeros((n_t, L, L))
    feasible = ~((t < support) | (t == 0.0))
    if np.any(feasible):
        block = invert(stacked_density, t[feasible], inv)
        first_density[feasible] = block[:, 0]
        kernel[feasible] = block[:, 1:]
    first_density = _clamp_density(first_density, "first starvation density")
    kernel = _clamp_density(kernel, "continuation kernel")

    # where mu t >= Z - x the closure is certain and the cached 1 goes unused
    survive = np.ones((n_t, L))
    at_risk = mu * t < Z - x
    if np.any(at_risk):
        refetch_survival = _refetch_survival(model, x, fill, ev, inv)
        survive[at_risk] = refetch_survival(horizon - t[at_risk])

    return PathGrid(x=x, Z=Z, mu=mu, step=step, n_t=n_t, t=t, rho0=rho0,
                    fill=fill, first_density=first_density, kernel=kernel,
                    survive=survive)


@dataclass(frozen=True)
class StarvationPmf:
    """Count probabilities ``p[j]`` for ``j = 0 .. J_max`` plus residual mass.

    ``tail`` estimates the probability of more than ``J_max`` starvations;
    ``p`` and ``tail`` together account for all paths, so their total sits
    within quadrature error of 1.
    """

    p: np.ndarray
    tail: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < -1e-9):
            raise NumericError(f"count probability {float(np.min(p)):g} < -1e-9")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        total = float(p.sum() + self.tail)
        if not (1.0 - MASS_BAND <= total <= 1.0 + MASS_BAND):
            raise NumericError(
                f"count mass {total:.4f} is outside [{1 - MASS_BAND}, "
                f"{1 + MASS_BAND}]; refine the grid"
            )

    @property
    def expected_count(self) -> float:
        """Mean count with the residual mass folded in at the truncation."""
        j = np.arange(self.p.size)
        return float(j @ self.p + (self.p.size - 1) * self.tail)


def _window_weights(n_nodes: int, step: float) -> np.ndarray:
    """Composite-trapezoid weights over a window of consecutive nodes."""
    if n_nodes <= 1:
        return np.zeros(max(n_nodes, 0))
    w = np.full(n_nodes, step)
    w[0] = w[-1] = step / 2
    return w


def _chain_once(f: np.ndarray, grid: PathGrid, lower_gate: int) -> np.ndarray:
    """One continuation step: integrate ``f`` against the re-prefetch kernel.

    ``f[g1, j]`` is a starvation density; the result ``new[g2, m]`` gathers
    paths with the next starvation at node ``g2``, integrating ``g1`` over
    ``[lower_gate, g2 - ix]`` and cutting ``g2`` at the end of the file.
    The integral is a composite trapezoid, i.e. the plain sum
    ``sum_g1 f[g1, j] kernel[g2 - g1, j, m]`` (one convolution per ``(j, m)``)
    less half of each end node; the one-node window ``g2 = lower_gate + ix``
    gets weight 0.
    """
    ix = grid.nodes_per_prefetch
    new = np.zeros_like(f)
    g2_lo = lower_gate + ix
    g2_hi = min(grid.n_t, int(np.ceil(grid.Z / (grid.mu * grid.step))))
    n = g2_hi - g2_lo  # output nodes g2_lo .. g2_hi - 1
    if n <= 1:
        return new
    # row c of seg/ker is g1 = lower_gate + c and gap ix + c: the c-th
    # convolution output is g2 = g2_lo + c, summing g1 up to g2 - ix
    seg = f[lower_gate:lower_gate + n]
    ker = grid.kernel[ix:ix + n]
    L = f.shape[1]
    total = np.empty((n, L, L))
    for j in range(L):
        for m in range(L):
            total[:, j, m] = np.convolve(seg[:, j], ker[:, j, m])[:n]
    ends = seg[0][None, :, None] * ker + seg[:, :, None] * ker[0][None]
    new[g2_lo + 1:g2_hi] = grid.step * (total[1:] - 0.5 * ends[1:]).sum(axis=1)
    return new


def starvation_count_pmf(model: FluidModel, params: SessionParams,
                         j_max: int = 3, grid: PathGrid | None = None,
                         inv: InversionParams = DEFAULT_PARAMS,
                         points_per_prefetch: int = 16,
                         method: str = "auto") -> StarvationPmf:
    """Probability of exactly ``0 .. j_max`` starvations in a session.

    ``p[0]`` comes from the overall starvation probability (one code path for
    both quantities).  One chain serves every count: step ``j - 1`` of it is
    the density of the ``j``-th starvation, which ``p[j]`` closes with the
    no-more-starvations probability.  The per-count support bound (the
    ``l``-th starvation of ``j`` must leave room for ``j - l - 1`` more) only
    cuts nodes that neither the next step nor the closure reads, so the chain
    runs without it.  The residual mass beyond ``j_max`` is the mass of the
    last step that goes on to starve at least once more; if it exceeds 5% the
    truncation is refused.
    """
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")
    if np.all(model.lam >= model.mu):
        # no state drains the buffer, so it can never empty mid-session
        return StarvationPmf(p=np.eye(j_max + 1)[0], tail=0.0)
    if grid is None:
        grid = build_path_grid(model, params, inv, points_per_prefetch, method)
    ix = grid.nodes_per_prefetch
    iz = grid.Z / (grid.mu * grid.step)  # file end in node units (possibly fractional)

    p = np.zeros(j_max + 1)
    p[0] = 1.0 - starvation_probability(model, params, inv, method)

    node = np.arange(grid.n_t)
    f = grid.first_density.copy()
    f[(node < ix) | (node >= iz)] = 0.0
    p[1] = _close_chain(f, grid, 1)
    for j in range(2, j_max + 1):
        f = _chain_once(f, grid, lower_gate=(j - 1) * ix)
        p[j] = _close_chain(f, grid, j)
    tail = _continue_mass(f, grid)
    if tail > TAIL_LIMIT:
        raise TailTooLarge(
            f"residual count mass {tail:.3f} beyond j_max={j_max} exceeds "
            f"{TAIL_LIMIT}; raise j_max"
        )
    return StarvationPmf(p=p, tail=tail)


def _close_chain(f: np.ndarray, grid: PathGrid, j: int) -> float:
    """Integrate a ``j``-th starvation density against the closure."""
    ix = grid.nodes_per_prefetch
    iz = grid.Z / (grid.mu * grid.step)
    lo = j * ix
    hi = min(grid.n_t - 1, int(np.ceil(iz)) - 1)
    if hi <= lo:
        return 0.0
    w = _window_weights(hi - lo + 1, grid.step)
    certain = grid.mu * grid.t[lo:hi + 1] >= grid.Z - grid.x
    closure = np.where(certain[:, None], 1.0, grid.survive[lo:hi + 1])
    return float(np.einsum("n,nj,nj->", w, f[lo:hi + 1], closure))


def _continue_mass(f: np.ndarray, grid: PathGrid) -> float:
    """Probability mass that goes on to at least one more starvation."""
    iz = grid.Z / (grid.mu * grid.step)
    hi = min(grid.n_t - 1, int(np.ceil(iz)) - 1)
    if hi <= 0:
        return 0.0
    w = _window_weights(hi + 1, grid.step)
    at_risk = grid.mu * grid.t[:hi + 1] < grid.Z - grid.x
    more = np.where(at_risk[:, None], 1.0 - grid.survive[:hi + 1], 0.0)
    return float(np.einsum("n,nj,nj->", w, f[:hi + 1], more))

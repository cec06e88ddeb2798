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
The densities and kernels of every node come from one inversion of the
starvation transform, and the survivals from one :func:`starvation_cdf`
call, which takes the passage law's atoms out before inverting like every
passage CDF of the package.  The inversion is linear, so both are inverted
as is and mixed with the entry law and the fill matrix afterwards, on real
per-node arrays rather than at every complex frequency.  One chain serves
every count: each step is a windowed discrete convolution of the previous
starvation density with the continuation kernel (the k-th starvation cannot
happen before ``k x`` frames have played), and the ``j``-th step's density,
closed with the survival, gives the probability of exactly ``j``
starvations.  The bound that the remaining starvations must still fit in
the file cuts only nodes the later steps never read, so the chain need not
be rebuilt per count.  A session starves fewer than ``Z/x`` times, so the
chain runs until no further starvation fits in the file; the counts beyond
the requested truncation are summed into an exact tail rather than
estimated.  State is carried along the chain: densities are resolved per
starvation state, because re-prefetch outcomes and subsequent passages
depend on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeDensityWarning, NumericError
from .inversion import DEFAULT_PARAMS, InversionParams, invert
from .model import FluidModel, SessionParams, _is_integer, stationary_distribution
from .spectral import transform_matrix
from .starvation import starvation_atoms, starvation_cdf, starvation_probability
from .startup import prefetch_end_distribution

NEGATIVE_DENSITY_TOL = -1e-6
MASS_BAND = 0.02
# path-grid nodes per prefetch interval x/mu
NODES_PER_PREFETCH = 16


def _clamp_density(values: np.ndarray, what: str) -> np.ndarray:
    low = float(np.min(values, initial=0.0))
    if low < NEGATIVE_DENSITY_TOL:
        warnings.warn(
            f"{what}: inversion ripple reached {low:.2e} before clamping",
            NegativeDensityWarning,
            stacklevel=3,
        )
    return np.clip(values, 0.0, None)


@dataclass(frozen=True)
class _PathGrid:
    """Uniform playback-time grid with the per-node quantities the count
    distribution needs.

    The step is ``x/mu`` over :data:`NODES_PER_PREFETCH`, so every support
    bound that is a multiple of the prefetch interval lands on a node, and
    the grid reaches past the end of the file.  Cached arrays (all ungated;
    windows are applied where the grid is consumed):

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
    first_density: np.ndarray
    kernel: np.ndarray
    survive: np.ndarray


def _build_path_grid(model: FluidModel, params: SessionParams,
                     inv: InversionParams = DEFAULT_PARAMS) -> _PathGrid:
    """Evaluate densities, kernels and survivals on an aligned uniform grid.

    The starvation transform is inverted as is at the feasible nodes, and
    its CDF at the remaining horizons of the nodes at risk; the inversion is
    linear, so the entry law and the fill matrix mix both afterwards.  A
    horizon shorter than the fastest drain gets the CDF's exact 0, so its
    survival is exactly 1.
    """
    x, Z, mu = params.x, params.Z, model.mu
    step = x / mu / NODES_PER_PREFETCH
    horizon = Z / mu
    n_t = int(np.ceil(horizon / step)) + 1
    t = np.arange(n_t) * step

    fill = prefetch_end_distribution(model, 0.0, x)
    rho0 = stationary_distribution(model) @ fill
    L = model.n_states

    support = max(np.min(starvation_atoms(model, x)[0]), x / mu)
    first_density = np.zeros((n_t, L))
    kernel = np.zeros((n_t, L, L))
    feasible = ~((t < support) | (t == 0.0))
    if np.any(feasible):
        dens = invert(lambda omegas: transform_matrix(model, x, omegas), t[feasible], inv)
        first_density[feasible] = rho0 @ dens
        kernel[feasible] = fill @ dens
    first_density = _clamp_density(first_density, "first starvation density")
    kernel = _clamp_density(kernel, "continuation kernel")

    # where mu t >= Z - x the closure is certain and the cached 1 goes unused
    survive = np.ones((n_t, L))
    at_risk = mu * t < Z - x
    if np.any(at_risk):
        cdf = starvation_cdf(model, x, horizon - t[at_risk], inv)
        survive[at_risk] = 1.0 - np.clip(cdf.sum(-1) @ fill.T, 0.0, 1.0)

    return _PathGrid(x=x, Z=Z, mu=mu, step=step, n_t=n_t, t=t,
                     first_density=first_density, kernel=kernel, survive=survive)


@dataclass(frozen=True)
class StarvationPmf:
    """Count probabilities ``p[j]`` for ``j = 0 .. J_max`` plus residual mass.

    ``tail`` is the probability of more than ``J_max`` starvations, the sum
    of the chain's counts beyond the truncation; ``p`` and ``tail`` together
    account for all paths, so their total sits within quadrature error of 1.
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
                f"{1 + MASS_BAND}]: the path-grid quadrature does not resolve "
                f"this session"
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


def _chain_once(f: np.ndarray, grid: _PathGrid, lower_gate: int) -> np.ndarray:
    """One continuation step: integrate ``f`` against the re-prefetch kernel.

    ``f[g1, j]`` is a starvation density; the result ``new[g2, m]`` gathers
    paths with the next starvation at node ``g2``, integrating ``g1`` over
    ``[lower_gate, g2 - ix]`` and cutting ``g2`` at the end of the file.
    The integral is a composite trapezoid, i.e. the plain sum
    ``sum_g1 f[g1, j] kernel[g2 - g1, j, m]`` (one convolution per ``(j, m)``)
    less half of each end node; the one-node window ``g2 = lower_gate + ix``
    gets weight 0.
    """
    ix = NODES_PER_PREFETCH
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
                         j_max: int = 3,
                         inv: InversionParams = DEFAULT_PARAMS) -> StarvationPmf:
    """Probability of exactly ``0 .. j_max`` starvations in a session.

    ``p[0]`` comes from the overall starvation probability (one code path for
    both quantities).  One chain serves every count: step ``j - 1`` of it is
    the density of the ``j``-th starvation, which ``p[j]`` closes with the
    no-more-starvations probability.  The per-count support bound (the
    ``l``-th starvation of ``j`` must leave room for ``j - l - 1`` more) only
    cuts nodes that neither the next step nor the closure reads, so the chain
    runs without it.  The ``j``-th starvation cannot come before ``j x``
    frames have played, so the chain ends once the next one no longer fits
    in the file; the counts it closes beyond ``j_max`` add up to ``tail``,
    and the counts past its end are exactly 0.
    """
    if not _is_integer(j_max) or j_max < 1:
        raise DomainError(f"j_max must be an integer >= 1, got {j_max!r}")
    if np.all(model.lam >= model.mu):
        # no state drains the buffer, so it can never empty mid-session
        return StarvationPmf(p=np.eye(j_max + 1)[0], tail=0.0)
    grid = _build_path_grid(model, params, inv)
    ix = NODES_PER_PREFETCH
    iz = grid.Z / (grid.mu * grid.step)  # file end in node units (possibly fractional)

    p = np.zeros(j_max + 1)
    p[0] = 1.0 - starvation_probability(model, params, inv)
    tail = 0.0
    node = np.arange(grid.n_t)
    f = grid.first_density.copy()
    f[(node < ix) | (node >= iz)] = 0.0
    j = 1
    while True:
        count = _close_chain(f, grid, j)
        if j <= j_max:
            p[j] = count
        else:
            tail += count
        if (j + 1) * ix >= iz:
            break
        f = _chain_once(f, grid, lower_gate=j * ix)
        j += 1
    return StarvationPmf(p=p, tail=tail)


def _close_chain(f: np.ndarray, grid: _PathGrid, j: int) -> float:
    """Integrate a ``j``-th starvation density against the closure."""
    iz = grid.Z / (grid.mu * grid.step)
    lo = j * NODES_PER_PREFETCH
    hi = min(grid.n_t - 1, int(np.ceil(iz)) - 1)
    if hi <= lo:
        return 0.0
    w = _window_weights(hi - lo + 1, grid.step)
    certain = grid.mu * grid.t[lo:hi + 1] >= grid.Z - grid.x
    closure = np.where(certain[:, None], 1.0, grid.survive[lo:hi + 1])
    return float(np.einsum("n,nj,nj->", w, f[lo:hi + 1], closure))

"""Session cost model and prefetch/bitrate optimization.

A session is scored as a weighted sum of the three QoE penalties: expected
starvation count, expected start-up delay, and quality loss from time spent
at a reduced bitrate.  Scenario descriptions translate network throughput
and per-quality frame sizes into fluid models: progressive streaming always
ships the top quality (big frames, so low frame rates when throughput dips);
adaptive streaming drops to smaller frames in states whose throughput cannot
sustain top-quality playback, trading quality for fewer stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError, InfeasiblePlayout
from .events import starvation_count_pmf
from .inversion import DEFAULT_PARAMS, InversionParams
from .model import FluidModel, SessionParams, stationary_distribution
from .startup import expected_startup_delay


@dataclass(frozen=True, slots=True)
class CostWeights:
    """User-preference weights: per starvation event, per second of start-up
    delay, and per unit of quality loss; each finite and >= 0."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        weights = (self.c1, self.c2, self.c3)
        if not all(0 <= c < np.inf for c in weights):  # NaN fails both
            raise DomainError(f"cost weights must be finite and >= 0, got {weights}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Two-state network scenario with a quality ladder.

    ``throughput`` gives the link rate per modulating state (bits/second);
    ``frame_sizes`` the encoded frame size per quality level in strictly
    ascending order (bits/frame, last = best quality); ``delta_f`` the
    quality loss per level step; ``alpha``/``beta`` the state transition
    rates and ``mu`` the playout rate.  ``mode`` selects the streaming
    policy the scenario represents.
    """

    throughput: tuple
    frame_sizes: tuple
    alpha: float
    beta: float
    mu: float
    delta_f: float = 1.0
    mode: str = "progressive"

    def __post_init__(self):
        object.__setattr__(self, "throughput", tuple(float(v) for v in self.throughput))
        object.__setattr__(self, "frame_sizes", tuple(float(v) for v in self.frame_sizes))
        numbers = {"throughput": self.throughput, "frame_sizes": self.frame_sizes,
                   "alpha": self.alpha, "beta": self.beta, "mu": self.mu,
                   "delta_f": self.delta_f}
        for name, values in numbers.items():
            if not np.all(np.isfinite(values)):
                raise DomainError(f"{name} must be finite, got {values}")
        if len(self.throughput) != 2:
            raise DimensionMismatch(
                f"scenario needs one throughput per state of the 2-state chain, "
                f"got {len(self.throughput)}"
            )
        if any(v <= 0 for v in self.throughput):
            raise DomainError("throughput must be > 0 in every state")
        if len(self.frame_sizes) < 1 or any(v <= 0 for v in self.frame_sizes):
            raise DomainError("frame sizes must be positive")
        if any(a >= b for a, b in zip(self.frame_sizes, self.frame_sizes[1:])):
            raise DomainError("frame sizes must be strictly ascending")
        if self.delta_f < 0:
            raise DomainError("quality loss per level must be >= 0")
        if self.mode not in ("progressive", "adaptive"):
            raise DomainError(
                f"mode must be 'progressive' or 'adaptive', got {self.mode!r}"
            )
        if not (self.alpha > 0 and self.beta > 0):
            raise DomainError("transition rates must be > 0")
        if not (self.mu > 0):
            raise DomainError("playout rate must be > 0")


def quality_levels(spec: ScenarioSpec) -> np.ndarray:
    """Quality level index chosen in each state under the scenario's policy.

    Progressive always picks the top level.  Adaptive picks the best level
    the state's throughput can sustain at the playout rate, falling back to
    the lowest level when none suffices.
    """
    top = len(spec.frame_sizes) - 1
    if spec.mode == "progressive":
        return np.full(len(spec.throughput), top, dtype=int)
    levels = np.zeros(len(spec.throughput), dtype=int)
    for i, rate in enumerate(spec.throughput):
        for lvl in range(top, -1, -1):
            if rate / spec.frame_sizes[lvl] >= spec.mu:
                levels[i] = lvl
                break
        else:
            levels[i] = 0
    return levels


def scenario_to_model(spec: ScenarioSpec) -> FluidModel:
    """Fluid model induced by the scenario's quality policy.

    The per-state frame arrival rate is throughput divided by the size of
    the frames the policy ships in that state.
    """
    levels = quality_levels(spec)
    lam = np.array([t / spec.frame_sizes[l] for t, l in zip(spec.throughput, levels)])
    if np.all(lam == 0):
        raise InfeasiblePlayout("scenario delivers no frames in any state")
    Q = np.array([[-spec.beta, spec.beta], [spec.alpha, -spec.alpha]])
    return FluidModel(Q=Q, lam=lam, mu=spec.mu)


def quality_loss_fraction(spec: ScenarioSpec) -> float:
    """Stationary quality-loss rate: loss per level step times the
    time-average number of steps dropped below top quality."""
    levels = quality_levels(spec)
    model = scenario_to_model(spec)
    pi = stationary_distribution(model)
    top = len(spec.frame_sizes) - 1
    return float(spec.delta_f * (pi @ (top - levels)))


@dataclass(frozen=True)
class CostBreakdown:
    """Cost terms of one session configuration and their weighted total."""

    expected_starvations: float
    expected_startup: float
    quality_term: float
    total: float


def session_cost(model: FluidModel, params: SessionParams, weights: CostWeights,
                 quality_term: float = 0.0, j_max: int | None = None,
                 inv: InversionParams = DEFAULT_PARAMS) -> CostBreakdown:
    """Weighted session cost for a concrete fluid model.

    The starvation term is the expected count over every count the file
    allows (fewer than ``Z/x`` starvations), so nothing is truncated; the
    start-up term is the stationary-entry expected delay; ``quality_term``
    carries the scenario's quality loss (zero for a model without bitrate
    reduction).  Terms with a zero weight are skipped entirely.  ``j_max`` is
    accepted for older callers and ignored.
    """
    starv = 0.0
    if weights.c1 != 0.0:
        every = math.ceil(params.Z / params.x)
        starv = starvation_count_pmf(model, params, j_max=every, inv=inv).expected_count
    delay = 0.0
    if weights.c2 != 0.0:
        delay = expected_startup_delay(model, params.x)
    total = weights.c1 * starv + weights.c2 * delay + weights.c3 * quality_term
    return CostBreakdown(expected_starvations=starv, expected_startup=delay,
                         quality_term=quality_term, total=total)


def scenario_cost(spec: ScenarioSpec, params: SessionParams, weights: CostWeights,
                  inv: InversionParams = DEFAULT_PARAMS) -> CostBreakdown:
    """Session cost of a scenario: model and quality term derived together."""
    model = scenario_to_model(spec)
    quality = quality_loss_fraction(spec)
    return session_cost(model, params, weights, quality_term=quality, inv=inv)


@dataclass(frozen=True)
class CrossoverReport:
    """Progressive-vs-adaptive comparison over a file-size grid.

    ``crossover_Z`` is the smallest grid size at which adaptive streaming is
    no more expensive than progressive, or None if it never is.
    """

    Z_grid: np.ndarray
    x: float
    progressive: tuple
    adaptive: tuple
    crossover_Z: float | None


def compare_scenarios(spec: ScenarioSpec, weights: CostWeights, Z_grid, x: float,
                      inv: InversionParams = DEFAULT_PARAMS) -> CrossoverReport:
    """Cost both policies over ascending file sizes and locate the crossover."""
    Z_grid = np.asarray(Z_grid, dtype=float)
    if Z_grid.ndim != 1 or Z_grid.size == 0 or np.any(np.diff(Z_grid) <= 0):
        raise DomainError("Z_grid must be a nonempty ascending 1-D grid")
    prog_spec = replace(spec, mode="progressive")
    adap_spec = replace(spec, mode="adaptive")
    prog, adap = [], []
    crossover = None
    for Z in Z_grid:
        params = SessionParams(x=x, Z=float(Z))
        p = scenario_cost(prog_spec, params, weights, inv)
        a = scenario_cost(adap_spec, params, weights, inv)
        prog.append(p)
        adap.append(a)
        # strictly cheaper: a tie (identical arms) expresses no preference
        if crossover is None and a.total < p.total:
            crossover = float(Z)
    return CrossoverReport(Z_grid=Z_grid, x=float(x), progressive=tuple(prog),
                           adaptive=tuple(adap), crossover_Z=crossover)


@dataclass(frozen=True)
class ThresholdReport:
    """Cost sweep over prefetch thresholds with the minimizer."""

    x_grid: np.ndarray
    costs: tuple
    best_x: float
    best_cost: CostBreakdown


def optimize_threshold(model: FluidModel, Z: float, weights: CostWeights, x_grid,
                       quality_term: float = 0.0,
                       inv: InversionParams = DEFAULT_PARAMS) -> ThresholdReport:
    """Grid-minimize the session cost over the prefetch threshold.

    Ties resolve to the smaller threshold (the grid is ascending and the
    first minimum wins).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0 or np.any(np.diff(x_grid) <= 0):
        raise DomainError("x_grid must be a nonempty ascending 1-D grid")
    if x_grid[0] <= 0 or x_grid[-1] > Z:
        raise DomainError("x_grid must lie inside (0, Z]")
    costs = []
    for x in x_grid:
        params = SessionParams(x=float(x), Z=float(Z))
        costs.append(session_cost(model, params, weights, quality_term, inv=inv))
    totals = np.array([c.total for c in costs])
    best = int(np.argmin(totals))
    return ThresholdReport(x_grid=x_grid, costs=tuple(costs),
                           best_x=float(x_grid[best]), best_cost=costs[best])

"""QoE analytics for media streaming over a Markov-modulated fluid link.

The package predicts rebuffering (starvation) probabilities, starvation-count
distributions, start-up delay distributions and mean playback times for a
playout buffer fed by a fluid source modulated by a continuous-time Markov
chain, validates every analytical result against an embedded event-driven
Monte Carlo simulator, and optimizes a weighted QoE cost over the prefetch
threshold and the streaming policy.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    FluidQoeError,
    InfeasiblePlayout,
    NegativeDensityWarning,
    NegativeOffDiagonal,
    NonConvergence,
    NonPositivePlayoutRate,
    NumericError,
    OutOfRange,
    OverflowRisk,
    Reducible,
    RowSumViolation,
    SingularSystem,
    Unstable,
    ValidationError,
)
from .events import StarvationPmf, starvation_count_pmf
from .inversion import (
    DEFAULT_PARAMS,
    InversionParams,
    SelfTestReport,
    invert,
    invert_cdf,
    self_test,
)
from .model import (
    DriftReport,
    FluidModel,
    SessionParams,
    effective_rates,
    mean_drift,
    stationary_distribution,
    validate_model,
)
from .qoe import (
    CostBreakdown,
    CostWeights,
    CrossoverReport,
    ScenarioSpec,
    ThresholdReport,
    compare_scenarios,
    optimize_threshold,
    quality_loss_fraction,
    scenario_cost,
    scenario_to_model,
    session_cost,
)
from .simulator import (
    SessionOutcome,
    SimConfig,
    SimStats,
    counter_uniform,
    first_passage_times,
    monte_carlo,
    prefetch_times,
    simulate_session,
)
from .spectral import transform_matrix
from .starvation import (
    SeverityMatrix,
    mean_playback_time,
    starvation_cdf,
    starvation_probability,
    starvation_transform,
)
from .startup import (
    expected_startup_delay,
    prefetch_end_distribution,
    startup_delay_cdf,
    startup_transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]

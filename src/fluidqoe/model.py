"""Markov-modulated fluid model: validation, stationary analysis, rates.

The playout buffer is fed by a fluid source whose instantaneous arrival rate
``lam[i]`` (frames/second) is selected by the state of a background
continuous-time Markov chain with generator ``Q`` (1/seconds).  Content is
consumed at a fixed playout rate ``mu`` (frames/second) while the player is
playing.  All downstream analytics read their inputs from this module's types
and nothing else.

Units are fixed package-wide: content in frames, time in seconds, rates in
frames/second or 1/seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NegativeOffDiagonal,
    NonPositivePlayoutRate,
    Reducible,
    RowSumViolation,
    SingularSystem,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12


def _communicating_classes(edges: np.ndarray) -> int:
    """Number of communicating classes of the directed graph ``edges[i, j]``.

    States communicate when each reaches the other; reachability is closed
    by repeated boolean squaring, and each class shares one row of mutual
    reachability.
    """
    reach = np.eye(edges.shape[0], dtype=bool) | edges
    while True:
        closed = reach @ reach
        if np.array_equal(closed, reach):
            break
        reach = closed
    return len(np.unique(reach & reach.T, axis=0))


@dataclass(frozen=True)
class FluidModel:
    """Validated fluid source: generator ``Q``, arrival rates ``lam``, playout ``mu``.

    Instances are immutable; construct through :func:`validate_model` (or the
    constructor, which runs the same checks).
    """

    Q: np.ndarray
    lam: np.ndarray
    mu: float

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        lam = np.array(self.lam, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch(f"Q must be square, got shape {Q.shape}")
        L = Q.shape[0]
        if lam.shape != (L,):
            raise DimensionMismatch(
                f"lambda must have length {L} to match Q, got shape {lam.shape}"
            )
        scale = max(1.0, float(np.max(np.abs(Q))))
        rowsum = Q.sum(axis=1)
        bad = np.nonzero(np.abs(rowsum) > ROW_SUM_TOL * scale)[0]
        if bad.size:
            i = int(bad[0])
            raise RowSumViolation(f"row {i} of Q sums to {rowsum[i]:g}, expected 0")
        off = Q - np.diag(np.diag(Q))
        neg = np.argwhere(off < 0)
        if neg.size:
            i, j = map(int, neg[0])
            raise NegativeOffDiagonal(f"Q[{i},{j}] = {Q[i, j]:g} is negative off-diagonal")
        if np.any(np.diag(Q) > 0):
            i = int(np.argmax(np.diag(Q)))
            raise NegativeOffDiagonal(f"Q[{i},{i}] = {Q[i, i]:g} is a positive diagonal")
        if np.any(lam < 0):
            i = int(np.argmin(lam))
            raise NonPositivePlayoutRate(f"lambda[{i}] = {lam[i]:g} is negative")
        if not (self.mu > 0):
            raise NonPositivePlayoutRate(f"mu = {self.mu:g} must be > 0")
        if L > 1:
            n_comp = _communicating_classes(off > 0)
            if n_comp != 1:
                raise Reducible(
                    f"transition pattern splits into {n_comp} communicating classes"
                )
        Q.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class SessionParams:
    """Session geometry: prefetch threshold ``x`` and file size ``Z``, both in frames."""

    x: float
    Z: float

    def __post_init__(self):
        if not (self.x > 0):
            raise DomainError(f"threshold x = {self.x:g} must be > 0")
        if not (self.Z > 0):
            raise DomainError(f"file size Z = {self.Z:g} must be > 0")
        if self.x > self.Z:
            raise DomainError(f"threshold x = {self.x:g} exceeds file size Z = {self.Z:g}")


@dataclass(frozen=True)
class DriftReport:
    """Stationary vector, mean net drift (frames/second), and stability verdict."""

    pi: np.ndarray
    drift: float
    stable: bool


def validate_model(Q, lam, mu) -> FluidModel:
    """Build a :class:`FluidModel` from raw arrays, or raise a named diagnostic.

    Checks, in order: shapes, zero row sums (tolerance 1e-12 relative to the
    largest entry), sign pattern of ``Q``, nonnegative arrival rates, positive
    playout rate, and irreducibility of the transition pattern.
    """
    return FluidModel(Q=np.asarray(Q, dtype=float), lam=np.asarray(lam, dtype=float), mu=mu)


def stationary_distribution(model: FluidModel) -> np.ndarray:
    """Stationary probability vector ``pi`` of the modulating chain.

    Solves the linear system obtained by replacing one equation of
    ``pi Q = 0`` with the normalization ``sum(pi) = 1``.  The computation is
    performed on ``Q`` scaled to unit magnitude, so the result is invariant
    under uniform rescaling of the generator.
    """
    L = model.n_states
    if L == 1:
        return np.ones(1)
    scale = float(np.max(np.abs(model.Q)))
    A = (model.Q / scale).T.copy()
    A[-1, :] = 1.0
    b = np.zeros(L)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationary system is singular: {exc}") from exc
    residual = float(np.max(np.abs(pi @ (model.Q / scale))))
    if residual > STATIONARY_TOL:
        raise SingularSystem(f"stationary residual {residual:g} exceeds {STATIONARY_TOL:g}")
    return pi


def mean_drift(model: FluidModel) -> DriftReport:
    """Mean net buffer drift ``sum(pi_i lam_i) - mu`` during playback."""
    pi = stationary_distribution(model)
    drift = float(pi @ model.lam - model.mu)
    return DriftReport(pi=pi, drift=drift, stable=drift < 0)


def effective_rates(model: FluidModel, mode: str = "playback") -> np.ndarray:
    """Per-state net buffer rates.

    ``playback`` mode returns ``lam_i - mu`` (arrivals minus playout);
    ``prefetch`` mode returns ``-lam_i``, the drain rates of the dual process
    used for start-up delay analysis.
    """
    if mode == "playback":
        return model.lam - model.mu
    if mode == "prefetch":
        return -model.lam
    raise ValueError(f"mode must be 'playback' or 'prefetch', got {mode!r}")

"""Event-driven Monte Carlo simulation of the fluid playout buffer.

Sessions are simulated exactly: within a sojourn of the modulating chain the
buffer trajectory is linear, so threshold crossings (reaching the prefetch
target, running empty, exhausting the file) are solved in closed form and no
time-step discretization bias enters.  A session alternates prefetch phases
(playback paused, buffer filling to the target) and playback phases (net
rate ``lam_i - mu``); a starvation ends a playback phase and triggers a
re-prefetch of ``min(x, remaining frames)``; the session ends when the
cumulative playback time reaches ``Z / mu``.

Randomness comes from a counter-based generator (splitmix64 finalizer over
``(seed, replication, draw index)``), so every replication owns an
independent stream addressed by pure arithmetic: results are bit-identical
no matter how replications are batched.

One lockstep engine serves full sessions, fill-only runs (the start-up
oracle) and drain-only runs (the first-passage oracle).  Replications are
simulated as numpy arrays, one event per iteration per live replication;
finished replications leave the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import DomainError, NonConvergence
from .model import FluidModel, SessionParams, stationary_distribution

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT11 = np.uint64(11)
_INV53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: bijective avalanche mix of 64-bit words."""
    z = (z ^ (z >> _SHIFT30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _SHIFT27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> _SHIFT31)


def counter_uniform(seed: int, stream, counter) -> np.ndarray:
    """Uniform(0, 1) values addressed by ``(seed, stream, counter)``.

    ``stream`` and ``counter`` broadcast together; identical addresses give
    identical values on every platform and in any execution order.
    """
    s = np.asarray(stream, dtype=np.uint64)
    c = np.asarray(counter, dtype=np.uint64)
    sd = np.asarray(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    key = _mix64(sd * _GOLDEN ^ _mix64(s * _STREAM_SALT + _GOLDEN))
    word = _mix64(key + c * _GOLDEN)
    return ((word >> _SHIFT11).astype(np.float64)) * _INV53


def _is_integer(value) -> bool:
    """A Python or numpy integer; ``bool`` is not a count or an index."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: count, seed, arrival capping, initial-state rule.

    ``arrival_cap_mode='unbounded'`` matches the analytical model (the source
    keeps sending past the file size); ``'capped_at_Z'`` stops arrivals once
    ``Z`` frames have been delivered.  ``initial_state_mode`` is either
    ``'stationary'`` or a fixed state index.
    """

    replications: int = 1
    seed: int = 0
    arrival_cap_mode: str = "unbounded"
    initial_state_mode: "str | int" = "stationary"

    def __post_init__(self):
        for name in ("replications", "seed"):
            if not _is_integer(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")
        if self.arrival_cap_mode not in ("unbounded", "capped_at_Z"):
            raise DomainError(
                f"arrival_cap_mode must be 'unbounded' or 'capped_at_Z', "
                f"got {self.arrival_cap_mode!r}"
            )
        mode = self.initial_state_mode
        if not (mode == "stationary" or _is_integer(mode)):
            raise DomainError(
                "initial_state_mode must be 'stationary' or a state index"
            )


@dataclass(frozen=True)
class SessionOutcome:
    """One simulated session: start-up delay and starvation instants."""

    startup_delay: float
    starvation_times: tuple
    starvation_count: int


@dataclass(frozen=True)
class MetricStats:
    """Sample mean, variance, and 95% confidence half-width of one metric."""

    mean: float
    var: float
    ci_half: float


@dataclass(frozen=True)
class SimStats:
    """Aggregates over independent replications of a full session."""

    replications: int
    starvation_probability: MetricStats
    starvation_count: MetricStats
    startup_delay: MetricStats
    count_histogram: np.ndarray
    startup_grid: np.ndarray | None = None
    startup_cdf: np.ndarray | None = None
    first_starvation_grid: np.ndarray | None = None
    first_starvation_cdf: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "replications": self.replications,
            "starvation_probability": vars(self.starvation_probability),
            "starvation_count": vars(self.starvation_count),
            "startup_delay": vars(self.startup_delay),
            "count_histogram": self.count_histogram.tolist(),
        }
        if self.startup_grid is not None:
            out["startup_grid"] = self.startup_grid.tolist()
            out["startup_cdf"] = self.startup_cdf.tolist()
        if self.first_starvation_grid is not None:
            out["first_starvation_grid"] = self.first_starvation_grid.tolist()
            out["first_starvation_cdf"] = self.first_starvation_cdf.tolist()
        return out


_MAX_EVENTS = 20_000_000


def _jump_tables(model: FluidModel):
    exit_rates = -np.diag(model.Q).copy()
    L = model.n_states
    cum = np.zeros((L, L))
    for i in range(L):
        if exit_rates[i] > 0:
            probs = model.Q[i] / exit_rates[i]
            probs = probs.copy()
            probs[i] = 0.0
            cum[i] = np.cumsum(probs)
        cum[i, -1] = max(cum[i, -1], 1.0)
    return exit_rates, cum


class _Batch:
    """Per-replication arrays of the replications still running.

    ``streams`` and ``counters`` address each replication's draws from
    :func:`counter_uniform`; :meth:`keep` drops finished replications from
    every array at once.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def draw(self, seed: int, idx, k: int = 1) -> np.ndarray:
        """``k`` uniforms per selected replication, shape ``(k, len)``."""
        counters = self.counters[idx]
        u = counter_uniform(seed, self.streams[idx],
                            counters + np.arange(k, dtype=np.uint64)[:, None])
        self.counters[idx] = counters + np.uint64(k)
        return u

    def keep(self, live) -> None:
        for name, a in list(vars(self).items()):
            setattr(self, name, a.take(live))


def _initial_states(model: FluidModel, cfg: SimConfig, batch: _Batch) -> np.ndarray:
    n = batch.streams.size
    if cfg.initial_state_mode == "stationary":
        cum_pi = np.cumsum(stationary_distribution(model))
        cum_pi[-1] = max(cum_pi[-1], 1.0)
        u = batch.draw(cfg.seed, slice(None))[0]
        return np.searchsorted(cum_pi, u, side="right").astype(np.int64)
    state0 = int(cfg.initial_state_mode)
    if not (0 <= state0 < model.n_states):
        raise DomainError(f"initial state {state0} outside 0..{model.n_states - 1}")
    return np.full(n, state0, dtype=np.int64)


def _sojourns(u, exit_rates, states) -> np.ndarray:
    if exit_rates.size == 1:
        return np.full(u.size, np.inf)  # a one-state chain never leaves
    # an irreducible chain of two or more states leaves every state
    return -np.log1p(-u) / exit_rates[states]


def _jump_targets(u, cum_jump, states) -> np.ndarray:
    # each row of cum_jump is nondecreasing and ends at >= 1 > u, so the
    # first entry above u comes after every entry at or below it
    target = np.zeros(states.size, dtype=np.int64)
    for column in cum_jump[:, :-1].T:
        target += column[states] <= u
    return target


# On the unsorted masks the engine produces, masked numpy selects (np.where,
# boolean-mask assignment, ``where=``) ran 5-15x slower than plain arithmetic
# (numpy 2.4, 2-vCPU x86 VM, 20 000 rows), so candidate columns are masked by
# adding -0.0 (an exact no-op) or inf.
_PAD = np.array([np.inf, -0.0])


def _unless(ok) -> np.ndarray:
    """-0.0 where ``ok``, inf elsewhere: adding it masks a finite column."""
    return _PAD[ok.view(np.int8)]


def _quotient(num, den, ok) -> np.ndarray:
    """``num / den`` where ``ok``, else inf (``num`` and ``den`` finite)."""
    return num / (den * ok + ~ok) + _unless(ok)


def _lockstep(model: FluidModel, phase: str, x: float, limit: float, cfg: SimConfig,
              rep_lo: int = 0, rep_hi: int | None = None, record_times: bool = False):
    """Simulate replications ``rep_lo .. rep_hi - 1`` (default: all) of one phase.

    ``phase`` is one of
    ``"session"``: fill to ``min(x, Z)``, play, and re-prefetch after each
    starvation until ``Z / mu`` seconds have played (``limit`` is ``Z``);
    ``"fill"``: from an empty buffer, stop at the first crossing of ``x``
    (``limit`` is unused);
    ``"drain"``: play from level ``x``, stop at the first starvation or after
    ``limit`` seconds of playback.

    Returns per-replication arrays: ``startup`` (wall time of the first
    crossing) and ``first_starvation`` (its playback instant), both NaN for
    none; ``count`` of starvations; ``end_state``, the state at the crossing
    or starvation that ends a fill or drain run (-1 otherwise); the total
    ``play_time`` of a session; and, with ``record_times``, the lists of
    starvation instants.
    """
    rep_hi = cfg.replications if rep_hi is None else rep_hi
    n = rep_hi - rep_lo
    lam, mu = model.lam, model.mu
    session, drain = phase == "session", phase == "drain"
    capped = session and cfg.arrival_cap_mode == "capped_at_Z"
    final = {"session": None, "fill": "cross", "drain": "starve"}[phase]
    exit_rates, cum_jump = _jump_tables(model)

    b = _Batch(streams=np.arange(rep_lo, rep_hi, dtype=np.uint64),
               counters=np.zeros(n, dtype=np.uint64), rows=np.arange(n))
    b.state = _initial_states(model, cfg, b)
    b.tau = _sojourns(b.draw(cfg.seed, slice(None))[0], exit_rates, b.state)
    b.buf = np.full(n, float(x) if drain else 0.0)
    b.clock = np.zeros(n)  # wall clock; the playback clock of a drain run
    if session:
        b.playing = np.zeros(n, dtype=bool)
        b.target = np.full(n, float(min(x, limit)))
        b.played = np.zeros(n)
        b.play_time = np.zeros(n)
        if capped:
            b.arrived = np.zeros(n)

    startup = np.full(n, np.nan)
    first_starv = np.full(n, np.nan)
    nstarv = np.zeros(n, dtype=np.int64)
    end_state = np.full(n, -1, dtype=np.int64)
    play_time = np.zeros(n)
    times = [[] for _ in range(n)] if record_times else None

    # a session buffer within float noise of its target has reached it, and
    # one that runs empty at the very moment the file ends has not starved
    grace = 1e-9 * max(1.0, x)
    end_grace = 1e-9 * max(1.0, limit / mu)
    for _ in range(_MAX_EVENTS):
        m = b.rows.size
        if m == 0:
            break
        if session:
            playing = b.playing
            any_play, all_play = bool(playing.any()), bool(playing.all())
        else:
            playing, any_play, all_play = np.bool_(drain), drain, drain
        rate = lam[b.state]
        if capped:
            rate = rate * (b.arrived < limit)

        # candidate event times in priority order: ties go to the earlier
        # column, so exhausting the file (or reaching the drain horizon)
        # beats an exactly simultaneous starvation, and every event beats a
        # jump; columns no live row can use are left out
        cols = []
        with np.errstate(divide="ignore", invalid="ignore"):
            if any_play:
                end = (limit - b.played) / mu if session else limit - b.clock
                if not all_play:
                    end = end + _unless(playing)
                cols.append(("end", end))
            if not all_play:
                need = (b.target if session else x) - b.buf
                cross = _quotient(need, rate, ~playing & (rate > 0))
                if session:
                    cross[~playing & (need <= grace)] = 0.0
                cols.append(("cross", cross))
            if any_play:
                net = rate - mu
                starve = _quotient(b.buf, -net, playing & (net < 0))
                if session:
                    starve[playing & (starve >= end - end_grace)] = np.inf
                cols.append(("starve", starve))
            if capped:
                cols.append(("cap", _quotient(limit - b.arrived, rate, rate > 0)))

        dt = b.tau
        for _, when in cols:
            dt = np.minimum(dt, when)
        if not np.all(np.isfinite(dt)):
            raise NonConvergence(
                "simulation deadlocked: no finite next event (does any state "
                "deliver content?)"
            )
        # each replication takes the first column that attains its minimum
        hit, earlier = {}, np.zeros(m, dtype=bool)
        for event, when in cols:
            hit[event] = (when == dt) & ~earlier
            earlier |= hit[event]

        b.clock += dt
        b.tau -= dt
        b.buf += (rate - mu * playing) * dt
        if session:
            b.played += mu * dt * playing
            b.play_time += dt * playing
            if capped:
                b.arrived += rate * dt

        stop = hit.get("end", False)
        if "cross" in hit:
            idx = np.flatnonzero(hit["cross"])
            r = b.rows[idx]
            fresh = np.isnan(startup[r])
            startup[r[fresh]] = b.clock[idx[fresh]]
            if session:
                b.buf[idx] = b.target[idx]
                b.playing[idx] = True

        if "starve" in hit:
            idx = np.flatnonzero(hit["starve"])
            r = b.rows[idx]
            nstarv[r] += 1
            t_play = b.played[idx] / mu if session else b.clock[idx]
            fresh = np.isnan(first_starv[r])
            first_starv[r[fresh]] = t_play[fresh]
            if record_times:
                for i, t in zip(r, t_play):
                    times[i].append(float(t))
            if session:
                b.buf[idx] = 0.0
                b.playing[idx] = False
                b.target[idx] = np.minimum(x, limit - b.played[idx])

        if capped:
            # from here on the buffer is exactly the unplayed remainder;
            # re-sync it so the final drain ties with the end event
            idx = np.flatnonzero(hit["cap"])
            b.arrived[idx] = limit
            b.buf[idx] = limit - b.played[idx]

        if final is not None:
            idx = np.flatnonzero(hit[final])
            end_state[b.rows[idx]] = b.state[idx]
            stop = stop | hit[final]

        # the rest reach the end of their sojourn: jump, draw the next one
        idx = np.flatnonzero(~earlier)
        if idx.size:
            u_next, u_stay = b.draw(cfg.seed, idx, 2)
            state = _jump_targets(u_next, cum_jump, b.state[idx])
            b.state[idx] = state
            b.tau[idx] = _sojourns(u_stay, exit_rates, state)

        if np.any(stop):
            if session:
                play_time[b.rows[stop]] = b.play_time[stop]
            b.keep(np.flatnonzero(~stop))
    else:
        raise NonConvergence(f"{phase} simulation exceeded {_MAX_EVENTS} events")

    return {
        "startup": startup,
        "count": nstarv,
        "first_starvation": first_starv,
        "end_state": end_state,
        "play_time": play_time,
        "times": times,
    }


def simulate_session(model: FluidModel, params: SessionParams, cfg: SimConfig,
                     replication: int = 0) -> SessionOutcome:
    """Simulate one session (the replication index selects the random stream).

    Bit-identical to the same replication inside a :func:`monte_carlo` batch.
    """
    out = _lockstep(model, "session", params.x, params.Z, cfg,
                    replication, replication + 1, record_times=True)
    return SessionOutcome(
        startup_delay=float(out["startup"][0]),
        starvation_times=tuple(out["times"][0]),
        starvation_count=int(out["count"][0]),
    )


def _metric(values: np.ndarray) -> MetricStats:
    n = values.size
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) if n >= 2 else 0.0
    half = 1.96 * np.sqrt(var / n) if n >= 2 else 0.0
    return MetricStats(mean=mean, var=var, ci_half=float(half))


def monte_carlo(model: FluidModel, params: SessionParams, cfg: SimConfig,
                startup_grid=None, first_starvation_grid=None) -> SimStats:
    """Replicated sessions with confidence intervals and empirical CDFs.

    Every replication owns a counter-addressed random stream, so each
    session is bit-identical to :func:`simulate_session` with its index.
    """
    n = cfg.replications
    out = _lockstep(model, "session", params.x, params.Z, cfg)
    startup, counts, first = out["startup"], out["count"], out["first_starvation"]

    stats = SimStats(
        replications=n,
        starvation_probability=_metric((counts >= 1).astype(float)),
        starvation_count=_metric(counts.astype(float)),
        startup_delay=_metric(startup),
        count_histogram=np.bincount(counts) / n,
    )
    if startup_grid is not None:
        grid = np.asarray(startup_grid, dtype=float)
        stats = dc_replace(stats, startup_grid=grid,
                           startup_cdf=(startup[None, :] <= grid[:, None]).mean(axis=1))
    if first_starvation_grid is not None:
        grid = np.asarray(first_starvation_grid, dtype=float)
        stats = dc_replace(stats, first_starvation_grid=grid,
                           first_starvation_cdf=(first[None, :] <= grid[:, None]).mean(axis=1))
    return stats


def prefetch_times(model: FluidModel, x: float, cfg: SimConfig):
    """Oracle for the fill process: per-replication ``(delay, end state)``.

    Simulates only the prefetch phase, from an empty buffer to level ``x``.
    """
    if not (x > 0):
        raise DomainError(f"x must be > 0, got {x}")
    if np.all(model.lam == 0):
        raise DomainError("no state delivers content")
    out = _lockstep(model, "fill", x, np.inf, cfg)
    return out["startup"], out["end_state"]


def first_passage_times(model: FluidModel, x: float, horizon: float, cfg: SimConfig):
    """Oracle for the draining process: time for the buffer to empty from ``x``.

    Playback-only runs; returns ``(tau, end_state)`` with ``tau = inf`` (and
    ``end_state = -1``) when the buffer survives past ``horizon``.
    """
    if not (x > 0) or not (horizon > 0):
        raise DomainError("x and horizon must be > 0")
    out = _lockstep(model, "drain", x, horizon, cfg)
    taus = out["first_starvation"]
    taus[np.isnan(taus)] = np.inf
    return taus, out["end_state"]

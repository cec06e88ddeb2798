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
finished replications leave the arrays (the last rows move into their
places).

Per-code tables.  Each row carries one code, ``state + L * playing``.  Its
arrival rate, buffer drift, playback flag and the denominators and pads of
its candidate columns are read from small tables indexed by that code, with
no per-row masks.  A pad is -0.0 (an exact no-op when added) where a column
applies and inf where it does not.  In a ``capped_at_Z`` session the columns
are read at ``code + 2L`` once the source has delivered ``Z`` frames; its
rate there is 0.

The event pick.  The candidate columns are the end of playback (the drain
horizon), a starvation, a prefetch crossing and, when capped, the source
reaching ``Z``.  End and starvation apply to playing rows only and crossings
to prefetching rows only.  A starvation at the end of playback, or in a
session within ``end_grace`` of it, is dropped and left to the end event.
So at most one of the first three columns attains a row's next event time
``dt``, and the event is the column equal to ``dt``.  A row jumps only when
its sojourn ends strictly first; a tie goes to the event.  The cap loses
ties to every other event.

The counter layout.  A stationary start reads counter 0 for the initial
state, and every run then reads its first sojourn at the next counter.  A
jump reads the pair ``(c, c + 1)``: the jump uniform at ``c`` and the next
sojourn at ``c + 1``.  The jump uniform is not computed when every state has
one successor, as in every two-state chain.  Each iteration every live row
draws and takes the jump; the rows with an event then get their code,
sojourn and counter back, so the counter advances by 2 only for rows that
jumped.  So a stationary two-state run reads its sojourns at counters 1, 3,
5, ...  The engine reads replication ``s``'s counter ``c`` as counter
``f(s) + c`` of stream 0, with ``f`` computed once per run (see
``_fold_streams``).  The hashed word is ``c * gamma + k(s)`` modulo 2**64
for an odd ``gamma``, so this is the same address and the same value bit for
bit, and a draw hashes one stream key per call instead of one per row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import DomainError, NonConvergence
from .model import FluidModel, SessionParams, _is_integer, stationary_distribution

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_GOLDEN_INV = np.uint64(0xF1DE83E19937733D)  # _GOLDEN * _GOLDEN_INV == 1 mod 2**64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_STREAM0 = np.zeros(1, dtype=np.uint64)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT11 = np.uint64(11)
_INV53 = float(2.0**-53)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: bijective avalanche mix of 64-bit words.

    Mixes an array in place (a scalar by rebinding) and returns it.
    """
    z ^= z >> _SHIFT30
    z *= _MIX1
    z ^= z >> _SHIFT27
    z *= _MIX2
    z ^= z >> _SHIFT31
    return z


def _stream_key(seed: int, stream: np.ndarray) -> np.ndarray:
    """The key ``k(s)`` that :func:`counter_uniform` adds to ``c * gamma``."""
    key = _mix64(stream * _STREAM_SALT + _GOLDEN)
    key ^= np.asarray(int(seed) & _MASK64, dtype=np.uint64) * _GOLDEN
    return _mix64(key)


def counter_uniform(seed: int, stream, counter) -> np.ndarray:
    """Uniform(0, 1) values addressed by ``(seed, stream, counter)``.

    ``stream`` and ``counter`` broadcast together; identical addresses give
    identical values on every platform and in any execution order.  The
    value hashes the word ``c * gamma + k(s)``, with ``gamma`` the odd
    golden-ratio constant and ``k(s)`` a splitmix64 key of the seed and the
    stream, so an address depends on its stream only through that word.
    Scalar addresses give a scalar.
    """
    # 0-d operands would take numpy's scalar arithmetic, which warns on the
    # intended wrap modulo 2**64; 1-d operands broadcast to the same shape
    s = np.atleast_1d(np.asarray(stream, dtype=np.uint64))
    c = np.atleast_1d(np.asarray(counter, dtype=np.uint64))
    word = _mix64(c * _GOLDEN + _stream_key(seed, s))
    word >>= _SHIFT11
    # below 2**53, so the signed view converts exactly (and faster)
    u = word.view(np.int64).astype(np.float64)
    u *= _INV53
    return u[0] if np.ndim(stream) == np.ndim(counter) == 0 else u


def _fold_streams(seed: int, streams: np.ndarray) -> np.ndarray:
    """Counters on stream 0 that address each stream's counter 0.

    ``counter_uniform(seed, s, c)`` equals ``counter_uniform(seed, 0,
    _fold_streams(seed, s) + c)`` bit for bit, for every ``c``: the hashed
    word ``c * gamma + k(s)`` is ``(c + f) * gamma + k(0)`` modulo 2**64
    with ``f = (k(s) - k(0)) * gamma**-1``, and ``gamma`` is odd, so
    invertible modulo 2**64.
    """
    shift = _stream_key(seed, streams) - _stream_key(seed, _STREAM0)
    shift *= _GOLDEN_INV
    return shift


@dataclass(frozen=True, slots=True)
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
_U_MAX = 1.0 - 2.0**-53  # the largest value counter_uniform returns
_JUMP_DRAWS = np.array([[0], [1]], dtype=np.uint64)
_TWO = np.uint64(2)


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


def _jump_targets(u, cum_jump, states) -> np.ndarray:
    # each row of cum_jump is nondecreasing and ends at >= 1 > u, so the
    # first entry above u comes after every entry at or below it
    target = np.zeros(np.shape(states), dtype=np.int64)
    for column in cum_jump[:, :-1].T:
        target += column[states] <= u
    return target


# Masked selects branch on every element.  Over 100 000 rows with a random
# half-true mask, np.where took 670 us and a boolean-mask assignment 940 us.
# The comparison that builds the mask took 38 us, and dividing by the mask
# in place 165 us (numpy 2.4.6, Python 3.11, 2-vCPU x86 VM).  So the engine
# masks its columns with arithmetic: a per-code denominator and pad (see
# _masked), and a division by a boolean for the starvations that the end
# event pre-empts.  Jumps are committed by writing every row and restoring the
# rows with an event.  np.where remains only where its mask is rarely
# built (a buffer within grace of its target).
def _masked(den, ok):
    """Denominator and pad of a masked quotient: ``num / den + pad`` is
    ``num / den`` where ``ok`` (the pad -0.0 is an exact no-op) and inf
    elsewhere, for finite ``num``."""
    return np.where(ok, den, 1.0), np.where(ok, -0.0, np.inf)


class _CodeTables:
    """Per-code constants of the event loop (see the module docstring)."""

    def __init__(self, model: FluidModel, capped: bool):
        L, lam, mu = model.n_states, model.lam, model.mu
        code = np.arange((4 if capped else 2) * L)
        state, playing, cut = code % L, code // L % 2 == 1, code >= 2 * L
        self.rate = lam[state] * ~cut
        self.drift = self.rate - mu * playing
        self.on = playing.astype(float)
        self.cross_den, self.cross_pad = _masked(self.rate, ~playing & (self.rate > 0))
        net = self.rate - mu
        self.starve_den, self.starve_pad = _masked(-net, playing & (net < 0))
        self.cap_den, self.cap_pad = _masked(self.rate, self.rate > 0)

        # jump tables: stored codes 0 .. 2L - 1, and a jump keeps the
        # playing bit
        exit_rates, cum = _jump_tables(model)
        state = state[:2 * L]
        self.neg_exit = -exit_rates[state]
        self.base = code[:2 * L] - state
        first = _jump_targets(0.0, cum, np.arange(L))
        if np.array_equal(first, _jump_targets(_U_MAX, cum, np.arange(L))):
            # every state has one successor: the jump uniform is never read
            self.next, self.cum = self.base + first[state], None
        else:
            self.next, self.cum = None, cum[state][:, :-1].T.copy()


class _Batch:
    """Per-replication arrays of the replications still running.

    ``counters`` address each replication's draws on stream 0 of
    :func:`counter_uniform`: each replication's own stream is folded into
    its counter once, at the start (see :func:`_fold_streams`), so a draw
    hashes one key per call instead of one per replication.
    :meth:`drop` removes finished replications from every array at once.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def draw(self, seed: int) -> np.ndarray:
        """One uniform per replication, at its counter."""
        u = counter_uniform(seed, _STREAM0, self.counters)
        self.counters += np.uint64(1)
        return u

    def drop(self, stop) -> None:
        """Remove the replications at the sorted positions ``stop``.

        The last replications move into the freed positions and every array
        shrinks to a view of its head, so the cost grows with the
        replications removed, not with those that stay.
        """
        size = self.rows.size - stop.size
        holes = stop[:np.searchsorted(stop, size)]
        stays = np.ones(stop.size, dtype=bool)
        stays[stop[holes.size:] - size] = False
        movers = size + np.flatnonzero(stays)
        for name, a in list(vars(self).items()):
            a[holes] = a[movers]
            setattr(self, name, a[:size])


def _initial_states(model: FluidModel, cfg: SimConfig, batch: _Batch) -> np.ndarray:
    n = batch.rows.size
    if cfg.initial_state_mode == "stationary":
        cum_pi = np.cumsum(stationary_distribution(model))
        cum_pi[-1] = max(cum_pi[-1], 1.0)
        return np.searchsorted(cum_pi, batch.draw(cfg.seed), side="right").astype(np.int64)
    state0 = int(cfg.initial_state_mode)
    if not (0 <= state0 < model.n_states):
        raise DomainError(f"initial state {state0} outside 0..{model.n_states - 1}")
    return np.full(n, state0, dtype=np.int64)


def _sojourns(u, neg_exit_rates) -> np.ndarray:
    """Exponential sojourns ``-log(1 - u) / rate``, computed in ``u``'s place
    (``log1p(-u) / -rate`` equals ``-log1p(-u) / rate`` bit for bit)."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= neg_exit_rates
    return u


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
    L, mu = model.n_states, model.mu
    session, drain = phase == "session", phase == "drain"
    capped = session and cfg.arrival_cap_mode == "capped_at_Z"
    tab = _CodeTables(model, capped)

    streams = np.arange(rep_lo, rep_hi, dtype=np.uint64)
    b = _Batch(counters=_fold_streams(cfg.seed, streams), rows=np.arange(n))
    b.code = _initial_states(model, cfg, b) + (L if drain else 0)
    u = b.draw(cfg.seed)
    # a one-state chain never leaves; an irreducible chain of two or more
    # states leaves every state
    b.tau = np.full(n, np.inf) if L == 1 else _sojourns(u, tab.neg_exit[b.code])
    b.buf = np.full(n, float(x) if drain else 0.0)
    b.clock = np.zeros(n)  # wall clock; the playback clock of a drain run
    if session:
        b.target = np.full(n, float(min(x, limit)))
        b.played = np.zeros(n)
        b.play_time = np.zeros(n)
        if capped:
            b.arrived = np.zeros(n)
    n_play = n if drain else 0  # live rows with code >= L

    startup = np.full(n, np.nan)
    first_starv = np.full(n, np.nan)
    nstarv = np.zeros(n, dtype=np.int64)
    end_state = np.full(n, -1, dtype=np.int64)
    play_time = np.zeros(n)
    times = [[] for _ in range(n)] if record_times else None
    none = np.zeros(0, dtype=np.int64)

    # a session buffer within float noise of its target has reached it, and
    # one that runs empty at the very moment the file ends has not starved
    grace = 1e-9 * max(1.0, x)
    end_grace = 1e-9 * max(1.0, limit / mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_EVENTS):
            m = b.rows.size
            if m == 0:
                break
            code = b.code
            if capped:
                code = code + (2 * L) * (b.arrived >= limit)

            # candidate event times, of which at most one of end, starvation
            # and crossing can equal a row's dt (see the module docstring);
            # columns no live row can use are left out
            soonest = None
            if n_play:
                end = limit - b.played if session else limit - b.clock
                if session:
                    end /= mu
                starve = b.buf / tab.starve_den[code]
                starve += tab.starve_pad[code]
                # dividing by False drops a starvation that the end event
                # pre-empts: it becomes inf, or nan for 0/0, which np.fmin
                # and == skip as they skip inf
                starve /= starve < (end - end_grace if session else end)
                soonest = np.fmin(end, starve)
            if n_play < m:
                # once sessions play, prefetching rows are few: solve their
                # crossings at their positions only
                filling = slice(None) if soonest is None else np.flatnonzero(b.code < L)
                need = (b.target[filling] if session else x) - b.buf[filling]
                fill_code = code[filling]
                cross = need / tab.cross_den[fill_code]
                cross += tab.cross_pad[fill_code]
                if session:
                    full = need <= grace
                    if full.any():
                        cross = np.where(full, 0.0, cross)
                if soonest is None:
                    soonest = cross
                else:
                    end[filling] = np.inf
                    soonest[filling] = cross
            event = soonest
            if capped:
                cap = (limit - b.arrived) / tab.cap_den[code] + tab.cap_pad[code]
                soonest = np.fmin(event, cap)
            # ties go to the event; a row that jumps has dt = tau < every
            # candidate, so events, and a deadlock, are sought at hit only
            hit = np.flatnonzero(~(b.tau < soonest))
            dt = np.fmin(b.tau, soonest)
            dt_hit = dt[hit]
            if hit.size and not dt_hit.max() < np.inf:
                raise NonConvergence(
                    "simulation deadlocked: no finite next event (does any state "
                    "deliver content?)"
                )

            b.clock += dt
            b.tau[hit] -= dt_hit
            step = tab.drift[code]
            step *= dt
            b.buf += step
            if session:
                step = tab.on[code]
                step *= dt  # dt while playing, else 0
                b.play_time += step
                step *= mu
                b.played += step
                if capped:
                    b.arrived += tab.rate[code] * dt

            ends = hit[end[hit] == dt_hit] if n_play else none
            starves = hit[starve[hit] == dt_hit] if n_play else none
            crosses = none
            if n_play < m:
                if n_play:  # few rows fill: compare at their positions
                    crosses = filling[cross == dt[filling]]
                else:
                    crosses = hit[cross[hit] == dt_hit]
            if crosses.size:
                r = b.rows[crosses]
                fresh = np.isnan(startup[r])
                startup[r[fresh]] = b.clock[crosses[fresh]]
                if session:
                    b.buf[crosses] = b.target[crosses]
                    b.code[crosses] += L
                    n_play += crosses.size

            if starves.size:
                r = b.rows[starves]
                nstarv[r] += 1
                t_play = b.played[starves] / mu if session else b.clock[starves]
                fresh = np.isnan(first_starv[r])
                first_starv[r[fresh]] = t_play[fresh]
                if record_times:
                    for i, t in zip(r, t_play):
                        times[i].append(float(t))
                if session:
                    b.buf[starves] = 0.0
                    b.code[starves] -= L
                    b.target[starves] = np.minimum(x, limit - b.played[starves])
                    n_play -= starves.size

            if capped:
                # the cap loses ties; from here on the buffer is exactly the
                # unplayed remainder, re-synced so the final drain ties with
                # the end event
                caps = hit[(cap[hit] == dt_hit) & (event[hit] != dt_hit)]
                b.arrived[caps] = limit
                b.buf[caps] = limit - b.played[caps]

            if session:
                stop = ends
            elif drain:
                end_state[b.rows[starves]] = b.code[starves] - L
                stop = np.sort(np.concatenate([ends, starves]))
            else:
                end_state[b.rows[crosses]] = b.code[crosses]
                stop = crosses

            # the rest reach the end of their sojourn: they jump and draw the
            # next one; every row draws and takes the jump, and the rows with
            # an event then get their own code, sojourn and counter back
            if L > 1 and hit.size < m:
                if tab.cum is None:
                    u_stay = counter_uniform(cfg.seed, _STREAM0, b.counters + np.uint64(1))
                    new_code = tab.next[b.code]
                else:
                    u_next, u_stay = counter_uniform(cfg.seed, _STREAM0,
                                                     b.counters + _JUMP_DRAWS)
                    new_code = tab.base[b.code]
                    for column in tab.cum:
                        new_code += column[b.code] <= u_next
                tau = _sojourns(u_stay, tab.neg_exit[new_code])
                new_code[hit] = b.code[hit]
                tau[hit] = b.tau[hit]
                b.code, b.tau = new_code, tau
                b.counters += _TWO
                b.counters[hit] -= _TWO

            if stop.size:
                if session:
                    play_time[b.rows[stop]] = b.play_time[stop]
                b.drop(stop)
                if session or drain:  # rows stop there only while playing
                    n_play -= stop.size
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


def _require_content(model: FluidModel) -> None:
    # no prefetch could ever complete: refuse instead of running to the
    # event limit
    if np.all(model.lam == 0):
        raise DomainError("no state delivers content")


def simulate_session(model: FluidModel, params: SessionParams, cfg: SimConfig,
                     replication: int = 0) -> SessionOutcome:
    """Simulate one session (the replication index selects the random stream).

    Bit-identical to the same replication inside a :func:`monte_carlo` batch.
    """
    _require_content(model)
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
    _require_content(model)
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
    _require_content(model)
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

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

Row blocks.  The per-replication outputs are allocated once, and the event
loop runs on blocks of at most ``_BLOCK`` consecutive replications, one
after another, writing into views of them.  So working memory is bounded
by the block, plus 40 B of output per replication (and, for a recorded
session, its list of starvation instants), however many replications a run
has; large arrays would also outgrow the cache and slow every pass.  The
streams are counter-addressed, so the split changes no bit of any output.
``_MAX_EVENTS`` caps the lockstep iterations of one block.

Per-code tables.  Each row carries one code, ``state + L * playing``.  Its
buffer drift, playback flag and the denominators and pads of its candidate
columns are read from small tables indexed by that code, with no per-row
masks.  A pad is -0.0 (an exact no-op when added) where a column applies
and inf where it does not.

The event pick.  The candidate columns are the end of playback (the drain
horizon), a starvation and a prefetch crossing.  End and starvation apply to
playing rows only and crossings to prefetching rows only.  A starvation at
the end of playback, or in a session within ``end_grace`` of it, is dropped
and left to the end event.  So at most one column attains a row's next event
time ``dt``, and the event is the column equal to ``dt``.  A row jumps only
when its sojourn ends strictly first; a tie goes to the event.

The counter layout.  A stationary start reads counter 0 for the initial
state, and every run then reads its first sojourn at the next counter.  A
jump reads the pair ``(c, c + 1)``: the jump uniform at ``c`` and the next
sojourn at ``c + 1``.  The jump uniform is not computed when every state has
one successor, as in every two-state chain.  Each iteration every live row
draws and takes the jump; the rows with an event then get their code,
sojourn and counter back, so the counter advances by 2 only for rows that
jumped.  So a stationary two-state run reads its sojourns at counters 1, 3,
5, ...  Each row carries its replication's stream key ``k(s)``, hashed once
per block, and its own counter, which starts at 0.  So every draw is at the
public address ``(seed, s, c)``, hashed by ``_uniforms`` without
:func:`counter_uniform`'s argument checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NonConvergence
from .model import FluidModel, SessionParams, _is_integer, stationary_distribution

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = 0xFFFFFFFFFFFFFFFF
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

    ``seed`` is a Python or numpy integer, and ``stream`` and ``counter``
    integers in 0 .. 2**64 - 1 or arrays of them, which broadcast together;
    identical addresses give identical values on every platform and in any
    execution order.  The value hashes the word ``c * gamma + k(s)``, with
    ``gamma`` the odd golden-ratio constant and ``k(s)`` a splitmix64 key of
    the seed and the stream, so an address depends on its stream only
    through that word.  Scalar addresses give a scalar.
    """
    if not _is_integer(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    s, c = _address("stream", stream), _address("counter", counter)
    u = _uniforms(_stream_key(seed, s), c)
    return u[0] if np.ndim(stream) == np.ndim(counter) == 0 else u


def _address(name: str, value) -> np.ndarray:
    """``value`` as a 1-d uint64 array (a 0-d operand would take numpy's
    scalar arithmetic, which warns on the intended wrap modulo 2**64).

    Refuses, rather than truncate or wrap to another address, a non-integer
    (a bool included) and an integer outside 0 .. 2**64 - 1.
    """
    a = np.asarray(value)
    if not (isinstance(value, np.ndarray) and a.dtype.kind in "iu"):
        # checked one by one: numpy reads [2**63, 1] as floats, [1, True] as ints
        a = np.asarray(value, dtype=object)
        if not all(_is_integer(v) for v in a.flat):
            raise DomainError(f"{name} must be an integer or integers, got {value!r}")
    if a.size and not (0 <= a.min() and a.max() <= _MASK64):
        raise DomainError(f"{name} must lie in 0..2**64 - 1, got {value!r}")
    return np.atleast_1d(a.astype(np.uint64))


def _uniforms(key: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The hashing core of :func:`counter_uniform`: the uniforms at the
    uint64 counters ``c`` of the streams whose keys are ``key``, one key for
    every counter or one for all."""
    word = _mix64(c * _GOLDEN + key)
    word >>= _SHIFT11
    # below 2**53, so the signed view converts exactly (and faster)
    u = word.view(np.int64).astype(np.float64)
    u *= _INV53
    return u


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Replication plan: count, seed, initial-state rule.

    As in the analytical model, the source keeps sending past the file size
    ``Z``.  ``initial_state_mode`` is either ``'stationary'`` or a fixed
    state index.
    """

    replications: int = 1
    seed: int = 0
    initial_state_mode: "str | int" = "stationary"

    def __post_init__(self):
        for name in ("replications", "seed"):
            if not _is_integer(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")
        if self.replications > np.iinfo(np.intp).max:
            raise DomainError(f"replications must be at most {np.iinfo(np.intp).max} "
                              f"(the largest array index), got {self.replications}")
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

    def to_dict(self) -> dict:
        return {**asdict(self), "count_histogram": self.count_histogram.tolist()}


_MAX_EVENTS = 20_000_000  # lockstep iterations per block
_BLOCK = 32_768  # replications per run of the event loop
_ONE = np.uint64(1)
_TWO = np.uint64(2)


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

    def __init__(self, model: FluidModel):
        L, mu = model.n_states, model.mu
        code = np.arange(2 * L)
        state, playing = code % L, code >= L
        rate = model.lam[state]
        self.drift = rate - mu * playing
        self.on = playing.astype(float)
        self.cross_den, self.cross_pad = _masked(rate, ~playing & (rate > 0))
        net = rate - mu
        self.starve_den, self.starve_pad = _masked(-net, playing & (net < 0))

        # jump tables: a jump keeps the playing bit; a state that never
        # leaves (exit rate 0) has a zero row, divided by 1 to stay zero
        exit_rates = -np.diag(model.Q)
        jump = model.Q / np.where(exit_rates > 0, exit_rates, 1.0)[:, None]
        np.fill_diagonal(jump, 0.0)
        self.neg_exit = -exit_rates[state]
        self.base = code - state
        # the positive entries of Q are its off-diagonal rates
        successors = model.Q > 0
        if (successors.sum(axis=1) == 1).all():
            # every state has one successor: the jump uniform is never read
            self.next, self.cum = self.base + successors.argmax(axis=1)[state], None
        else:
            self.next, self.cum = None, np.cumsum(jump, axis=1)[state][:, :-1].T.copy()


class _Batch:
    """Per-replication arrays of the replications still running.

    ``keys`` and ``counters`` address each replication's draws: row ``i``
    draws at counter ``counters[i]`` of the stream whose key is ``keys[i]``
    (see :func:`counter_uniform`).  :meth:`drop` removes finished
    replications from every array at once.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def draw(self) -> np.ndarray:
        """One uniform per replication, at its counter."""
        u = _uniforms(self.keys, self.counters)
        self.counters += _ONE
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
        return np.searchsorted(cum_pi, batch.draw(), side="right").astype(np.int64)
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

    Row blocks.  These outputs are allocated once, 40 B per replication
    (``times`` aside), and each block of at most ``_BLOCK`` replications
    runs the event loop into views of them, so the working memory beyond
    them is bounded by the block.  The split changes no bit of any output.
    """
    rep_hi = cfg.replications if rep_hi is None else rep_hi
    n = rep_hi - rep_lo
    out = {
        "startup": np.full(n, np.nan),
        "count": np.zeros(n, dtype=np.int64),
        "first_starvation": np.full(n, np.nan),
        "end_state": np.full(n, -1, dtype=np.int64),
        "play_time": np.zeros(n),
        "times": [[] for _ in range(n)] if record_times else None,
    }
    tab = _CodeTables(model)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block = {name: None if a is None else a[lo:hi] for name, a in out.items()}
        _run_block(model, tab, phase, x, limit, cfg, rep_lo + lo, rep_lo + hi, **block)
    return out


def _run_block(model: FluidModel, tab: _CodeTables, phase: str, x: float,
               limit: float, cfg: SimConfig, rep_lo: int, rep_hi: int,
               startup, count, first_starvation, end_state, play_time, times) -> None:
    """Run the event loop on replications ``rep_lo .. rep_hi - 1``, writing
    into the views of :func:`_lockstep`'s outputs (``times`` a list of the
    block's lists, or None), whose row ``i`` is replication ``rep_lo + i``."""
    n = rep_hi - rep_lo
    L, mu = model.n_states, model.mu
    session, drain = phase == "session", phase == "drain"

    streams = np.arange(rep_lo, rep_hi, dtype=np.uint64)
    b = _Batch(keys=_stream_key(cfg.seed, streams), counters=np.zeros_like(streams),
               rows=np.arange(n))
    b.code = _initial_states(model, cfg, b) + (L if drain else 0)
    u = b.draw()
    # a one-state chain never leaves; an irreducible chain of two or more
    # states leaves every state
    b.tau = np.full(n, np.inf) if L == 1 else _sojourns(u, tab.neg_exit[b.code])
    b.buf = np.full(n, float(x) if drain else 0.0)
    b.clock = np.zeros(n)  # wall clock; the playback clock of a drain run
    if session:
        b.target = np.full(n, float(min(x, limit)))
        b.played = np.zeros(n)
        b.play_time = np.zeros(n)
    n_play = n if drain else 0  # live rows with code >= L
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

            # candidate event times, of which at most one of end, starvation
            # and crossing can equal a row's dt (see the module docstring);
            # columns no live row can use are left out
            soonest = None
            if n_play:
                end = limit - b.played if session else limit - b.clock
                if session:
                    end /= mu
                starve = b.buf / tab.starve_den[b.code]
                starve += tab.starve_pad[b.code]
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
                fill_code = b.code[filling]
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
            step = tab.drift[b.code]
            step *= dt
            b.buf += step
            if session:
                step = tab.on[b.code]
                step *= dt  # dt while playing, else 0
                b.play_time += step
                step *= mu
                b.played += step

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
                count[r] += 1
                t_play = b.played[starves] / mu if session else b.clock[starves]
                fresh = np.isnan(first_starvation[r])
                first_starvation[r[fresh]] = t_play[fresh]
                if times is not None:
                    for i, t in zip(r, t_play):
                        times[i].append(float(t))
                if session:
                    b.buf[starves] = 0.0
                    b.code[starves] -= L
                    b.target[starves] = np.minimum(x, limit - b.played[starves])
                    n_play -= starves.size

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
                u_stay = _uniforms(b.keys, b.counters + _ONE)
                if tab.cum is None:
                    new_code = tab.next[b.code]
                else:
                    u_next = _uniforms(b.keys, b.counters)
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
            raise NonConvergence(
                f"{phase} simulation exceeded {_MAX_EVENTS} lockstep iterations "
                f"in one block of {n} replications")


def _require_content(model: FluidModel) -> None:
    # no prefetch could ever complete: refuse instead of running to the
    # event limit
    if np.all(model.lam == 0):
        raise DomainError("no state delivers content")


def simulate_session(model: FluidModel, params: SessionParams, cfg: SimConfig,
                     replication: int = 0) -> SessionOutcome:
    """Simulate one session (the replication index selects the random stream).

    Bit-identical to the same replication inside a :func:`monte_carlo` batch.
    Any index of a 64-bit stream is allowed, also ``cfg.replications`` and
    above: each index names its own stream.
    """
    if not (_is_integer(replication) and 0 <= replication <= _MASK64):
        raise DomainError(
            f"replication must be an integer in 0..2**64 - 1, got {replication!r}")
    _require_content(model)
    rep = int(replication)  # a numpy index would wrap at its own width
    out = _lockstep(model, "session", params.x, params.Z, cfg, rep, rep + 1,
                    record_times=True)
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


def monte_carlo(model: FluidModel, params: SessionParams, cfg: SimConfig) -> SimStats:
    """Replicated sessions with confidence intervals.

    Every replication owns a counter-addressed random stream, so each
    session is bit-identical to :func:`simulate_session` with its index.
    """
    _require_content(model)
    n = cfg.replications
    out = _lockstep(model, "session", params.x, params.Z, cfg)
    counts = out["count"]
    return SimStats(
        replications=n,
        starvation_probability=_metric((counts >= 1).astype(float)),
        starvation_count=_metric(counts.astype(float)),
        startup_delay=_metric(out["startup"]),
        count_histogram=np.bincount(counts) / n,
    )


def prefetch_times(model: FluidModel, x: float, cfg: SimConfig):
    """Oracle for the fill process: per-replication ``(delay, end state)``.

    Simulates only the prefetch phase, from an empty buffer to level ``x``.
    """
    if not 0 < x < np.inf:
        raise DomainError(f"x must be finite and > 0, got {x}")
    _require_content(model)
    out = _lockstep(model, "fill", x, np.inf, cfg)
    return out["startup"], out["end_state"]


def first_passage_times(model: FluidModel, x: float, horizon: float, cfg: SimConfig):
    """Oracle for the draining process: time for the buffer to empty from ``x``.

    Playback-only runs; returns ``(tau, end_state)`` with ``tau = inf`` (and
    ``end_state = -1``) when the buffer survives past ``horizon``.
    """
    if not (0 < x < np.inf and 0 < horizon < np.inf):
        raise DomainError(f"x and horizon must be finite and > 0, got x={x}, horizon={horizon}")
    out = _lockstep(model, "drain", x, horizon, cfg)
    taus = out["first_starvation"]
    taus[np.isnan(taus)] = np.inf
    return taus, out["end_state"]

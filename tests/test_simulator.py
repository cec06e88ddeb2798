import tracemalloc
import warnings

import numpy as np
import pytest

from fluidqoe import (
    DomainError,
    FluidModel,
    NonConvergence,
    SessionParams,
    SimConfig,
    counter_uniform,
    first_passage_times,
    monte_carlo,
    prefetch_times,
    simulate_session,
    starvation_cdf,
    starvation_probability,
    stationary_distribution,
    validate_model,
)
from fluidqoe import simulator
from fluidqoe.simulator import _lockstep

_STREAM0 = np.zeros(1, dtype=np.uint64)


# Reference engine: the lockstep loop with per-column masks and jumps drawn
# for the jumping rows only, kept verbatim (its helpers too) as the oracle the
# table-driven engine in fluidqoe.simulator must reproduce bit for bit.

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


def _reference_lockstep(model: FluidModel, phase: str, x: float, limit: float, cfg: SimConfig,
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




class TestCounterRng:
    def test_deterministic_and_order_free(self):
        a = counter_uniform(42, np.arange(10), np.zeros(10, dtype=np.uint64))
        b = counter_uniform(42, np.arange(9, -1, -1), np.zeros(10, dtype=np.uint64))
        np.testing.assert_array_equal(a, b[::-1])

    def test_streams_differ(self):
        u = counter_uniform(42, np.arange(1000), np.zeros(1000, dtype=np.uint64))
        assert np.unique(u).size == 1000

    def test_uniform_range_and_moments(self):
        u = counter_uniform(7, np.zeros(200000, dtype=np.uint64), np.arange(200000))
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_seed_changes_everything(self):
        a = counter_uniform(1, np.arange(100), np.zeros(100, dtype=np.uint64))
        b = counter_uniform(2, np.arange(100), np.zeros(100, dtype=np.uint64))
        assert not np.any(a == b)

    @pytest.mark.parametrize("seed,stream,counter,value", [
        (0, 0, 0, 0.20310281705476096),
        (42, 7, 3, 0.8692161292513213),
        (2**64 - 1, 123456, 99, 0.9913845055892057),
        (901, 2**40, 2**33, 0.8770660430106015),
    ])
    def test_golden_values(self, seed, stream, counter, value):
        u = counter_uniform(seed, np.array([stream], dtype=np.uint64),
                            np.array([counter], dtype=np.uint64))
        assert u.tolist() == [value]

    @pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, -1, 2**64 - 1, np.uint32(4),
                                      np.int64(-1)])
    def test_scalar_addresses_match_array_form(self, seed):
        # 0-d addresses must not take numpy's scalar arithmetic, which warns
        # on the mod-2**64 wrap; a scalar address still gives a scalar
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stream, counter in ((0, 0), (7, 3), (2**40, 2**64 - 1)):
                got = counter_uniform(seed, stream, counter)
                want = counter_uniform(int(seed), np.array([stream], dtype=np.uint64),
                                       np.array([counter], dtype=np.uint64))
                assert type(got) is np.float64 and np.shape(got) == ()
                assert got == want[0]
            mixed = counter_uniform(seed, 5, np.arange(4))
            assert mixed.shape == (4,)
            np.testing.assert_array_equal(
                mixed, counter_uniform(int(seed), np.full(4, 5, dtype=np.uint64),
                                       np.arange(4, dtype=np.uint64)))

    def test_numpy_integer_seed_matches_python_int(self, reference_model,
                                                   reference_session):
        a = monte_carlo(reference_model, reference_session,
                        SimConfig(replications=50, seed=np.int64(7)))
        b = monte_carlo(reference_model, reference_session,
                        SimConfig(replications=50, seed=7))
        assert a.starvation_count == b.starvation_count
        np.testing.assert_array_equal(a.count_histogram, b.count_histogram)

    def test_seeds_equal_modulo_2_64_draw_alike(self, reference_model,
                                               reference_session):
        a = counter_uniform(-1, _STREAM0, np.arange(3))
        b = counter_uniform(2**64 - 1, _STREAM0, np.arange(3))
        np.testing.assert_array_equal(a, b)
        a, b = (monte_carlo(reference_model, reference_session,
                            SimConfig(replications=50, seed=seed)).to_dict()
                for seed in (-1, 2**64 - 1))
        np.testing.assert_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 901, 2**64 - 1])
    def test_stream0_spellings_agree(self, seed):
        counters = np.arange(5, dtype=np.uint64)
        want = counter_uniform(seed, _STREAM0, counters)
        for stream in (0, np.zeros(1, np.uint64), np.uint64(0)):
            np.testing.assert_array_equal(counter_uniform(seed, stream, counters), want)
        assert counter_uniform(seed, 0, 3) == want[3]

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(1.0), True, False, np.bool_(True),
                                      "7", None])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed would otherwise truncate to another seed's stream
        with pytest.raises(DomainError, match="^seed must be an integer"):
            counter_uniform(seed, 0, 1)
        with pytest.raises(DomainError, match="^seed must be an integer"):
            counter_uniform(seed, _STREAM0, np.arange(3))

    @pytest.mark.parametrize("name,stream,counter", [
        ("stream", 0.5, 0),
        ("counter", 0, 1.7),
        ("stream", True, 0),
        ("stream", -1, 0),
        ("counter", 0, -1),
        ("counter", 0, 2**64),
        ("counter", 0, np.array([3, -2, 5])),
    ])
    def test_address_must_name_itself(self, name, stream, counter):
        # a float or bool would truncate, and a negative or too large index
        # wrap, to another address's value
        with pytest.raises(DomainError, match=f"^{name} must"):
            counter_uniform(0, stream, counter)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_engine_raises_no_warning_in_any_phase(self, L):
        model = {1: validate_model([[0.0]], [20.0], 25.0),
                 2: validate_model([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0),
                 3: validate_model([[-3, 2, 1], [1, -2, 1], [2, 2, -4]],
                                   [5.0, 20.0, 40.0], 25.0)}[L]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phase, limit in (("session", 300.0), ("fill", np.inf), ("drain", 6.0)):
                for initial in ("stationary", L - 1):
                    cfg = SimConfig(replications=60, seed=2**63 + 5,
                                    initial_state_mode=initial)
                    _assert_matches_reference(model, phase, 20.0, limit, cfg)

    def test_fill_reads_sojourns_at_odd_counters(self):
        # a stationary two-state run reads its initial state at counter 0
        # and its sojourns at counters 1, 3, 5: rebuild the first three of
        # one replication and put x inside the third
        lam, exit_rates = np.array([10.0, 30.0]), np.array([6.0, 2.0])
        model = validate_model([[-6.0, 6.0], [2.0, -2.0]], lam, 25.0)
        seed, rep = 17, 3
        u = counter_uniform(seed, np.full(6, rep, dtype=np.uint64),
                            np.arange(6, dtype=np.uint64))
        cum_pi = np.cumsum(stationary_distribution(model))
        cum_pi[-1] = max(cum_pi[-1], 1.0)
        s0 = int(np.searchsorted(cum_pi, u[0], side="right"))
        states = (s0, 1 - s0, s0)
        sojourns = [-np.log1p(-u[c]) / exit_rates[s] for c, s in zip((1, 3, 5), states)]
        x = lam[states[0]] * sojourns[0] + lam[states[1]] * sojourns[1] \
            + 0.5 * lam[states[2]] * sojourns[2]
        delays, end_states = prefetch_times(model, x, SimConfig(replications=rep + 1,
                                                                 seed=seed))
        assert delays[rep] == pytest.approx(sum(sojourns[:2]) + 0.5 * sojourns[2],
                                            rel=1e-12)
        assert end_states[rep] == s0


class TestSingleStateSessions:
    def test_deterministic_drain_cycle(self):
        # fill at 20, play at 25: startup 100/20 = 5 s; each playback leg
        # drains the 100-frame buffer in 20 s while playing 500 frames
        m = validate_model([[0.0]], [20.0], 25.0)
        out = simulate_session(m, SessionParams(x=100, Z=1000), SimConfig(seed=1))
        assert out.startup_delay == 5.0
        assert out.starvation_times == (20.0,)
        assert out.starvation_count == 1

    def test_emptying_exactly_at_the_end_is_not_starvation(self):
        # second leg would hit empty exactly when the file ends
        m = validate_model([[0.0]], [20.0], 25.0)
        out = simulate_session(m, SessionParams(x=100, Z=1000), SimConfig(seed=9))
        assert out.starvation_count == 1  # not 2

    @pytest.mark.parametrize("Z,expected", [(900, 1), (1000, 1), (1100, 2), (2000, 3)])
    def test_cycle_count_formula(self, Z, expected):
        # ceil((Z - x mu/(mu-lam)) (mu-lam) / (x mu)) starvations
        x, mu, lam = 100.0, 25.0, 20.0
        m = validate_model([[0.0]], [lam], mu)
        predicted = int(np.ceil((Z - x * mu / (mu - lam)) * (mu - lam) / (x * mu)))
        assert predicted == expected
        out = simulate_session(m, SessionParams(x=x, Z=Z), SimConfig(seed=2))
        assert out.starvation_count == expected

    def test_fast_source_never_starves(self):
        m = validate_model([[0.0]], [30.0], 25.0)
        out = simulate_session(m, SessionParams(x=90, Z=600), SimConfig(seed=3))
        assert out.startup_delay == pytest.approx(3.0)
        assert out.starvation_count == 0


class TestDeterminism:
    @staticmethod
    def assert_stats_identical(a, b):
        assert a.starvation_probability == b.starvation_probability
        assert a.starvation_count == b.starvation_count
        assert a.startup_delay == b.startup_delay
        np.testing.assert_array_equal(a.count_histogram, b.count_histogram)

    def test_same_seed_bitwise_identical(self, reference_model, reference_session):
        cfg = SimConfig(replications=3000, seed=77)
        a = monte_carlo(reference_model, reference_session, cfg)
        b = monte_carlo(reference_model, reference_session, cfg)
        self.assert_stats_identical(a, b)

    @pytest.mark.parametrize("phase,limit", [("session", 500.0), ("fill", np.inf),
                                             ("drain", 20.0)])
    def test_chunk_invariance(self, reference_model, phase, limit):
        # counter-addressed streams make every replication independent of
        # how the replications are batched
        cfg = SimConfig(replications=5000, seed=78)
        whole = _lockstep(reference_model, phase, 40.0, limit, cfg, record_times=True)
        parts = [_lockstep(reference_model, phase, 40.0, limit, cfg, lo, hi,
                           record_times=True) for lo, hi in ((0, 1237), (1237, 5000))]
        for key, value in whole.items():
            if key == "times":
                assert value == parts[0][key] + parts[1][key]
            else:
                np.testing.assert_array_equal(
                    value, np.concatenate([p[key] for p in parts]))

    def test_session_equals_batch_member(self, reference_model, reference_session):
        cfg = SimConfig(replications=500, seed=79)
        batch = _lockstep(reference_model, "session", reference_session.x,
                          reference_session.Z, cfg)
        one = simulate_session(reference_model, reference_session, cfg, replication=123)
        assert one.startup_delay == batch["startup"][123]
        assert one.starvation_count == batch["count"][123]

    def test_prefetch_equals_session_startup(self, onoff_model, reference_session):
        # a session's first prefetch is a fill run on the same stream
        cfg = SimConfig(replications=60, seed=91)
        delays, states = prefetch_times(onoff_model, reference_session.x, cfg)
        for rep in range(cfg.replications):
            one = simulate_session(onoff_model, reference_session, cfg, replication=rep)
            assert delays[rep] == one.startup_delay
        assert np.all(states == 0)  # the crossing happens while delivering


class TestSessionInvariants:
    def test_playback_clock_identity(self, reference_model, reference_session):
        out = _lockstep(reference_model, "session", reference_session.x,
                        reference_session.Z, SimConfig(replications=400, seed=81))
        np.testing.assert_allclose(
            out["play_time"], reference_session.Z / reference_model.mu, atol=1e-9
        )

    def test_starvation_times_sorted_and_after_prefetch(self, reference_model):
        params = SessionParams(x=40, Z=2000)
        for rep in range(30):
            out = simulate_session(reference_model, params,
                                   SimConfig(seed=82), replication=rep)
            times = np.array(out.starvation_times)
            assert out.starvation_count == times.size
            if times.size:
                assert np.all(np.diff(times) > 0)
                assert times[0] >= 40.0 / 25.0

    @pytest.mark.parametrize("x", [5.0, 40.0])
    @pytest.mark.parametrize("source", ["bursty", "three_state"])
    def test_shorter_file_is_a_prefix_of_a_longer_one(self, reference_model, source, x):
        # the source keeps sending past Z, so a replication's session for Z
        # is the head of its session for any longer file, bit for bit
        model = reference_model if source == "bursty" else validate_model(
            [[-3, 2, 1], [1, -2, 1], [2, 2, -4]], [5.0, 20.0, 40.0], 25.0)
        cfg = SimConfig(replications=300, seed=93)
        longer = _lockstep(model, "session", x, 1000.0, cfg, record_times=True)
        for Z in (x, 250.0, 500.0):
            out = _lockstep(model, "session", x, Z, cfg, record_times=True)
            np.testing.assert_array_equal(out["startup"], longer["startup"])
            head = [[t for t in times if t < Z / model.mu] for times in longer["times"]]
            assert out["times"] == head
            np.testing.assert_array_equal(out["count"], [len(t) for t in head])

    def test_stationary_mixes_fixed_state_runs(self, reference_model,
                                                reference_session):
        pi = stationary_distribution(reference_model)
        mix = 0.0
        for state in (0, 1):
            s = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=30000, seed=83,
                                      initial_state_mode=state))
            mix += pi[state] * s.starvation_probability.mean
        stat = monte_carlo(reference_model, reference_session,
                           SimConfig(replications=30000, seed=84))
        assert stat.starvation_probability.mean == pytest.approx(mix, abs=0.01)


class TestAgainstAnalytics:
    def test_starvation_probability(self, reference_model, reference_session):
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=50000, seed=85))
        analytic = starvation_probability(reference_model, reference_session)
        assert analytic == pytest.approx(
            stats.starvation_probability.mean,
            abs=stats.starvation_probability.ci_half + 0.01,
        )

    def test_first_passage_cdf(self, reference_model):
        taus, states = first_passage_times(
            reference_model, 40.0, 30.0,
            SimConfig(replications=40000, seed=86, initial_state_mode=1),
        )
        for t in (5.0, 12.0, 25.0):
            analytic = starvation_cdf(reference_model, 40.0, t).sum(axis=1)[1]
            assert analytic == pytest.approx(float((taus <= t).mean()), abs=0.015)

    def test_first_passage_terminal_state_is_draining(self, reference_model):
        taus, states = first_passage_times(
            reference_model, 20.0, 40.0, SimConfig(replications=5000, seed=87)
        )
        hit = states[np.isfinite(taus)]
        assert np.all(hit == 0)  # only state 1 drains


class TestSilentSource:
    @pytest.mark.parametrize("Q,lam", [([[0.0]], [0.0]),
                                       ([[-1.0, 1.0], [2.0, -2.0]], [0.0, 0.0])])
    def test_refused_before_simulating(self, Q, lam, reference_session):
        # no prefetch can ever complete, so no run may start
        model = validate_model(Q, lam, 25.0)
        with pytest.raises(DomainError, match="no state delivers content"):
            monte_carlo(model, reference_session, SimConfig(replications=5))
        with pytest.raises(DomainError, match="no state delivers content"):
            simulate_session(model, reference_session, SimConfig())
        with pytest.raises(DomainError, match="no state delivers content"):
            prefetch_times(model, 40.0, SimConfig())


class TestOracleArguments:
    """Levels and horizons that no run could reach are refused before any
    run starts."""

    @pytest.mark.parametrize("x", [np.inf, np.nan, 0.0, -1.0])
    def test_prefetch_threshold(self, reference_model, x):
        with pytest.raises(DomainError, match="^x must be finite and > 0"):
            prefetch_times(reference_model, x, SimConfig(replications=1))

    @pytest.mark.parametrize("x,horizon", [(40.0, np.inf), (np.inf, 10.0), (40.0, np.nan),
                                           (np.nan, 10.0), (0.0, 10.0), (40.0, -1.0)])
    def test_first_passage_threshold_and_horizon(self, x, horizon):
        # the buffer drifts up at +1.5 frames/s, so without a finite horizon
        # a surviving run would never end
        model = validate_model([[-2.0, 2.0], [6.0, -6.0]], [22.0, 40.0], 25.0)
        with pytest.raises(DomainError, match="^x and horizon must be finite and > 0"):
            first_passage_times(model, x, horizon, SimConfig(replications=50))


class TestConfigValidation:
    def test_bad_replications(self):
        for bad in (0, 2.5, True, "3"):
            with pytest.raises(DomainError):
                SimConfig(replications=bad)

    @pytest.mark.parametrize("count", [2**63, 2**70])
    def test_replications_beyond_an_array_index(self, count):
        # refused at construction, so no array of that length is attempted
        with pytest.raises(DomainError, match="^replications must be at most"):
            SimConfig(replications=count)
        assert SimConfig(replications=np.iinfo(np.intp).max).replications > 0

    def test_bad_seed(self):
        for bad in (1.5, False, "7"):
            with pytest.raises(DomainError):
                SimConfig(seed=bad)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(replications=np.int64(3), seed=np.uint32(4),
                        initial_state_mode=np.int8(1))
        assert (cfg.replications, cfg.seed, cfg.initial_state_mode) == (3, 4, 1)

    def test_bad_initial_state(self, reference_model, reference_session):
        with pytest.raises(DomainError):
            SimConfig(initial_state_mode=2.5)
        with pytest.raises(DomainError):
            SimConfig(initial_state_mode=True)
        cfg = SimConfig(initial_state_mode=5)
        with pytest.raises(DomainError):
            simulate_session(reference_model, reference_session, cfg)

    @pytest.mark.parametrize("bad", [-1, 2.5, True, np.bool_(False), 2**64, "3", None])
    def test_bad_replication_index(self, reference_model, reference_session, bad):
        with pytest.raises(DomainError, match="^replication must be an integer"):
            simulate_session(reference_model, reference_session,
                             SimConfig(replications=2), replication=bad)

    def test_replication_index_past_the_batch(self, reference_model, reference_session):
        # each index names its own stream, so it need not be below
        # cfg.replications; numpy indices name the same stream
        batch = _lockstep(reference_model, "session", reference_session.x,
                          reference_session.Z, SimConfig(replications=256, seed=92))
        cfg = SimConfig(replications=1, seed=92)
        for rep in (7, np.int64(7), np.uint8(7), 255, np.uint8(255)):
            one = simulate_session(reference_model, reference_session, cfg, replication=rep)
            assert one.startup_delay == batch["startup"][int(rep)]
            assert one.starvation_count == batch["count"][int(rep)]
        top = simulate_session(reference_model, reference_session, cfg,
                               replication=2**64 - 1)
        assert top == simulate_session(reference_model, reference_session, cfg,
                                       replication=np.uint64(2**64 - 1))

    def test_histogram_mass(self, reference_model, reference_session):
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=4000, seed=88))
        assert stats.count_histogram.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ci_halfwidth_formula(self, reference_model, reference_session):
        stats = monte_carlo(reference_model, reference_session,
                            SimConfig(replications=4000, seed=89))
        m = stats.starvation_probability
        assert m.ci_half == pytest.approx(1.96 * np.sqrt(m.var / 4000))


def _random_source(seed):
    """1-4-state source with a zero-rate state and a single-successor state;
    some seeds give a zero-drift state (rate == mu) or a pure cycle, whose
    every state has one successor."""
    rng = np.random.default_rng(seed)
    L = 1 + seed % 4
    mu = 25.0
    if L == 1:
        return validate_model([[0.0]], [rng.choice([15.0, 25.0, 40.0])], mu)
    ring = np.roll(np.eye(L), 1, axis=1) * rng.uniform(0.5, 6.0, (L, 1))
    extra = rng.uniform(0.2, 4.0, (L, L)) * (rng.random((L, L)) < 0.5)
    Q = ring if seed % 5 == 1 else ring + extra
    Q[0] = ring[0]  # state 0 has one successor
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    lam = rng.uniform(0.0, 50.0, L)
    lam[rng.integers(L)] = 0.0
    if seed % 3 == 0:
        lam[np.flatnonzero(lam)[0]] = mu
    return validate_model(Q, lam, mu)


# the outputs that each phase returns, with record_times
_PHASE_OUTPUTS = {"session": {"startup", "count", "play_time", "times"},
                  "fill": {"startup", "end_state"},
                  "drain": {"first_starvation", "end_state"}}


def _assert_same_outputs(got, want, phase):
    # ``want`` may hold more outputs than the phase returns
    assert set(got) == _PHASE_OUTPUTS[phase]
    for key in got:
        if key == "times":
            assert got[key] == want[key]
        else:
            assert got[key].dtype == want[key].dtype
            assert np.array_equal(got[key], want[key], equal_nan=True), key


def _assert_matches_reference(model, phase, x, limit, cfg, *reps):
    want = _reference_lockstep(model, phase, x, limit, cfg, *reps, record_times=True)
    _assert_same_outputs(_lockstep(model, phase, x, limit, cfg, *reps, record_times=True),
                         want, phase)


class TestReferenceEngine:
    """The engine reproduces the reference engine bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference(self, seed):
        model = _random_source(seed)
        for phase in ("session", "fill", "drain"):
            for x, Z in ((5.0, 60.0), (20.0, 12.0)):
                limit = {"session": Z, "fill": np.inf, "drain": Z / model.mu}[phase]
                for initial in ("stationary", model.n_states - 1):
                    cfg = SimConfig(replications=40, seed=1000 + seed,
                                    initial_state_mode=initial)
                    _assert_matches_reference(model, phase, x, limit, cfg)

    @pytest.mark.parametrize("phase,limit", [("session", 60.0), ("fill", np.inf),
                                             ("drain", 2.4)])
    def test_matches_reference_at_the_top_replications(self, phase, limit):
        # replications 2**64 - 40 .. 2**64 - 2, at the top of the 64-bit
        # index; three states, one with two successors
        _assert_matches_reference(_random_source(18), phase, 5.0, limit,
                                  SimConfig(replications=40, seed=1018),
                                  2**64 - 40, 2**64 - 1)

    @staticmethod
    def _sojourn_tie_source():
        # state 0's exit rate makes replication 0's first sojourn exactly
        # 2.0 s, the time it takes to fill x = 40 at 20 frames/s
        v = -np.log1p(-counter_uniform(5, np.zeros(1, dtype=np.uint64),
                                       np.zeros(1, dtype=np.uint64))[0])
        return validate_model([[-v / 2.0, v / 2.0], [3.0, -3.0]], [20.0, 35.0], 25.0)

    @pytest.mark.parametrize("case", ["drain_horizon", "grace", "file_end", "sojourn"])
    def test_matches_reference_at_exact_ties(self, case):
        one_state = validate_model([[0.0]], [20.0], 25.0)
        model, phase, x, limit = {
            # the starvation falls exactly on the drain horizon: 40 / (25 - 5)
            "drain_horizon": (validate_model([[0.0]], [5.0], 25.0), "drain", 40.0, 2.0),
            # the first target, min(x, Z), is exactly the grace 1e-9 max(1, x)
            "grace": (one_state, "session", 1.0, 1e-9),
            # the buffer runs empty exactly when the file ends
            "file_end": (one_state, "session", 100.0, 1000.0),
            "sojourn": (self._sojourn_tie_source(), "session", 40.0, 500.0),
        }[case]
        cfg = SimConfig(replications=20, seed=5, initial_state_mode=0)
        _assert_matches_reference(model, phase, x, limit, cfg)


_THREE_STATE = validate_model([[-3, 2, 1], [1, -2, 1], [2, 2, -4]], [5.0, 20.0, 40.0], 25.0)


class TestRowBlocks:
    """The event loop runs on one resident batch of at most ``_BLOCK`` rows,
    whose finished rows take the next queued replications."""

    @pytest.mark.parametrize("block,n", [(1, 30), (7, 100), (4096, 9000)])
    def test_block_edges_are_invisible(self, monkeypatch, reference_model, block, n):
        runs = [(model, phase, limit, SimConfig(replications=n, seed=61,
                                                initial_state_mode=initial))
                for model in (reference_model, _THREE_STATE)
                for phase, limit in (("session", 500.0), ("fill", np.inf), ("drain", 20.0))
                for initial in ("stationary", 1)]
        assert n < simulator._BLOCK
        whole = [_lockstep(model, phase, 40.0, limit, cfg, record_times=True)
                 for model, phase, limit, cfg in runs]
        monkeypatch.setattr(simulator, "_BLOCK", block)
        for (model, phase, limit, cfg), want in zip(runs, whole):
            _assert_same_outputs(
                _lockstep(model, phase, 40.0, limit, cfg, record_times=True), want, phase)

    def test_reference_engine_across_block_edges(self, monkeypatch):
        monkeypatch.setattr(simulator, "_BLOCK", 7)
        # three states, one with two successors and one with zero drift
        model = _random_source(18)
        for phase, limit in (("session", 60.0), ("fill", np.inf), ("drain", 2.4)):
            _assert_matches_reference(model, phase, 5.0, limit,
                                      SimConfig(replications=40, seed=1018))

    @pytest.mark.parametrize("source", ["reference", "three-state"])
    def test_memory_is_flat_in_the_replications(self, monkeypatch, reference_model,
                                                source):
        # tracemalloc sees numpy's buffers; past the batch's working memory
        # a session keeps 24 B of output per replication, and a fill or
        # drain run 16 B
        model = reference_model if source == "reference" else _THREE_STATE
        session = SessionParams(x=20.0, Z=100.0)  # short, to keep the test fast
        block = 4096
        monkeypatch.setattr(simulator, "_BLOCK", block)

        def peak(run, n):
            tracemalloc.start()
            try:
                run(SimConfig(replications=n, seed=62))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for run, bound in ((lambda cfg: monte_carlo(model, session, cfg), 32),
                           (lambda cfg: first_passage_times(model, 20.0, 4.0, cfg), 24),
                           (lambda cfg: prefetch_times(model, 20.0, cfg), 24)):
            slope = (peak(run, 6 * block) - peak(run, 2 * block)) / (4 * block)
            assert slope <= bound, slope

    @pytest.mark.parametrize("phase,limit", [("session", 500.0), ("fill", np.inf),
                                             ("drain", 20.0)])
    def test_event_cap_counts_the_whole_run(self, monkeypatch, phase, limit):
        # a one-state source plays every replication alike, so a full batch
        # finishes in a fixed number of iterations; a longer run refills the
        # batch, and its iterations count against the same cap
        model = validate_model([[0.0]], [20.0], 25.0)
        monkeypatch.setattr(simulator, "_BLOCK", 3)

        def run(n):
            return _lockstep(model, phase, 40.0, limit, SimConfig(replications=n))

        for cap in range(1, 11):  # the smallest cap under which a full batch finishes
            monkeypatch.setattr(simulator, "_MAX_EVENTS", cap)
            try:
                run(3)
                break
            except NonConvergence:
                pass
        else:
            pytest.fail("one batch of one-state replications did not finish")
        for limit_events, n in ((cap - 1, 3), (cap, 4), (cap, 30)):
            monkeypatch.setattr(simulator, "_MAX_EVENTS", limit_events)
            with pytest.raises(NonConvergence, match=(
                    f"^{phase} simulation exceeded {limit_events} lockstep iterations "
                    f"in a run of {n} replications$")):
                run(n)

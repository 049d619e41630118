import sys
import tracemalloc
from math import isqrt
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from onoffpriv import sim
from onoffpriv.markov import TransitionMatrix, conditional_table, symmetric_chain
from onoffpriv.scheme import ZeroLikelihoodContext
from onoffpriv.sim import (
    DEPENDENCE_P_THRESHOLD,
    DRAW_BLOCK_STEPS,
    MIN_BUCKET_SAMPLES,
    InsufficientSamples,
    PrivacySchedule,
    SimConfig,
    SimTrace,
    _draw_queries,
    _gap_tables,
    _sample_path,
    average_download_rate,
    build_scheme_for_gap,
    empirical_privacy_test,
    empirical_privacy_tests,
    run_simulation,
)
from onoffpriv.verify import VERIFY_TOL

from conftest import (
    DRIFTING_POWERS,
    RECURRING_TABLES,
    ROUNDING_TWO_CYCLE,
    entries_of,
    mass_by_context,
    reference_privacy_stats,
    reference_sample_path,
    sample_query_indices,
    scheme_from_entries,
)


def reference_run(cfg, scheme_overrides=None):
    """The protocol one step at a time, with a fresh scheme per gap: the
    seed contract that run_simulation must reproduce bit for bit."""
    P, n, T = cfg.chain, cfg.chain.n, cfg.horizon
    path_ss, flag_ss, query_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    path_rng = np.random.default_rng(path_ss)
    flag_rng = np.random.default_rng(flag_ss)
    query_rng = np.random.default_rng(query_ss)
    cum = np.cumsum(P.entries, axis=1)
    draws = path_rng.random(T + 1)
    x = [int(np.searchsorted(np.cumsum(np.full(n, 1.0 / n)), draws[0], side="right"))]
    for t in range(1, T + 1):
        x.append(int(np.searchsorted(cum[x[-1]], draws[t], side="right")))
    flags = cfg.schedule.realize(T, flag_rng)
    schemes = dict(scheme_overrides or {})
    tau, rows, queries, buckets = 0, [], [], {}
    for t in range(T):
        if flags[t]:
            tau = t
        delta = t - tau
        u = x[tau] * n + x[t + 1]
        if delta not in schemes:
            schemes[delta] = build_scheme_for_gap(P, delta)
        ids, cum = mass_by_context(schemes[delta], x[t], u)
        j = int(np.searchsorted(cum, query_rng.random() * cum[-1], side="right"))
        q = schemes[delta].queries[ids[min(j, len(ids) - 1)]]
        rows.append((x[t], delta, u, x[t] in q))
        queries.append(q)
        agg = buckets.setdefault(delta, [0, 0])
        agg[0] += 1
        agg[1] += len(q)
    cols = np.array(rows, dtype=np.int64).reshape(T, 4).T
    arrays = dict(zip(("x", "delta", "contexts"), cols))
    arrays.update(flag=flags, decodes=cols[3].astype(bool))
    return arrays, queries, [tuple(buckets[d]) for d in range(len(buckets))]


def reference_flags(schedule, horizon, rng):
    """PrivacySchedule.realize with one expression a kind and one draw
    for all the steps: the flags a seed must give."""
    if schedule.kind == "explicit":
        out = np.array(schedule.arg[:horizon], dtype=bool)
    elif schedule.kind == "always-on":
        out = np.ones(horizon, dtype=bool)
    elif schedule.kind == "off-after-0":
        out = np.zeros(horizon, dtype=bool)
    elif schedule.kind == "bernoulli":
        out = rng.random(horizon) < schedule.arg
    else:
        out = np.arange(horizon) % schedule.arg == 0
    out[0] = True
    return out


def query_sizes(trace):
    """The member count of every step's query."""
    return np.array([len(trace.query_keys[i]) for i in trace.query_ids.tolist()])


def run(n=3, alpha=0.6, schedule="periodic:2", horizon=4000, seed=5, **kw):
    cfg = SimConfig(
        chain=symmetric_chain(n, alpha),
        schedule=PrivacySchedule.parse(schedule),
        horizon=horizon,
        seed=seed,
        **kw,
    )
    return run_simulation(cfg)


class TestPrivacySchedule:
    def test_parse_forms(self):
        assert PrivacySchedule.parse("always-on") == PrivacySchedule("always-on")
        assert PrivacySchedule.parse(" Off-After-0") == PrivacySchedule("off-after-0")
        assert PrivacySchedule.parse("bernoulli:0.3").arg == 0.3
        assert PrivacySchedule.parse("periodic:4").arg == 4
        assert PrivacySchedule.parse("explicit:1,0,1").arg == (True, False, True)

    def test_parse_rejects_unknown(self):
        # off-after-0 has one spelling, and neither it nor always-on takes
        # an argument
        for spec in (
            "sometimes", "always-off-after-0", "always-on:banana", "off-after-0:7"
        ):
            with pytest.raises(ValueError):
                PrivacySchedule.parse(spec)

    @settings(max_examples=200, deadline=None)
    @given(
        tokens=hst.lists(
            hst.one_of(
                hst.sampled_from(["0", "1", " 1", "0 "]),
                hst.integers(-3, 12).map(str),
                hst.sampled_from(["", "+1", "01", "1.0", "true", "x", "1_0"]),
            ),
            min_size=1, max_size=6,
        )
    )
    def test_explicit_flags_are_zero_or_one(self, tokens):
        spec = "explicit:" + ",".join(tokens)
        flags = [tok.strip() for tok in tokens]
        if set(flags) <= {"0", "1"} and flags[0] == "1":
            sch = PrivacySchedule.parse(spec)
            assert sch.arg == tuple(f == "1" for f in flags)
            assert PrivacySchedule.parse(sch.spec_string()) == sch
        else:
            with pytest.raises(ValueError):
                PrivacySchedule.parse(spec)

    def test_spec_string_round_trip(self):
        for text in ("always-on", "off-after-0", "bernoulli:0.25", "periodic:3"):
            sch = PrivacySchedule.parse(text)
            assert PrivacySchedule.parse(sch.spec_string()) == sch

    @settings(max_examples=200, deadline=None)
    @given(
        sch=hst.one_of(
            hst.sampled_from(["always-on", "off-after-0"]).map(PrivacySchedule),
            hst.floats(0.0, 1.0).map(lambda p: PrivacySchedule("bernoulli", p)),
            hst.integers(0, 1).map(lambda p: PrivacySchedule("bernoulli", p)),
            hst.integers(1, 2**70).map(lambda k: PrivacySchedule("periodic", k)),
            hst.lists(hst.booleans(), max_size=20).map(
                lambda f: PrivacySchedule("explicit", [True, *f])
            ),
        )
    )
    def test_every_schedule_round_trips_its_spec(self, sch):
        again = PrivacySchedule.parse(sch.spec_string())
        assert again == sch
        assert type(again.arg) is type(sch.arg)

    @settings(max_examples=300, deadline=None)
    @given(
        text=hst.one_of(
            hst.text(max_size=30),
            hst.tuples(
                hst.sampled_from(
                    ["always-on", "off-after-0", "bernoulli", "periodic",
                     "explicit", " Periodic ", "BERNOULLI", "nope", ""]
                ),
                hst.sampled_from(["", ":"]),
                hst.one_of(
                    hst.text(max_size=12),
                    hst.from_regex(r"[-+ ]?[0-9._e]{0,6}( ?, ?[0-9.]{0,3}){0,3}"),
                    hst.sampled_from(["nan", "inf", "-0.0", "1e400", "0x1"]),
                ),
            ).map("".join),
        )
    )
    def test_parse_gives_a_schedule_or_a_value_error(self, text):
        try:
            sch = PrivacySchedule.parse(text)
        except ValueError:
            return
        assert PrivacySchedule.parse(sch.spec_string()) == sch

    @pytest.mark.parametrize(
        "kind, arg",
        [("periodic", True), ("periodic", 2.5), ("bernoulli", "0.3"),
         ("bernoulli", False), ("bernoulli", float("nan")), ("always-on", 1),
         ("explicit", "101"), ("explicit", (1, 2)), ("explicit", None),
         ("sometimes", None)],
    )
    def test_construction_refuses_a_bad_argument(self, kind, arg):
        with pytest.raises(ValueError):
            PrivacySchedule(kind, arg)

    def test_first_step_is_always_on(self):
        rng = np.random.default_rng(0)
        for sch in (
            PrivacySchedule("off-after-0"),
            PrivacySchedule("bernoulli", 0.0),
            PrivacySchedule("periodic", 7),
        ):
            assert sch.realize(10, rng)[0]

    def test_explicit_must_start_on(self):
        with pytest.raises(ValueError):
            PrivacySchedule("explicit", (0, 1))

    def test_explicit_must_cover_horizon(self):
        sch = PrivacySchedule("explicit", (1, 0, 1))
        with pytest.raises(ValueError):
            sch.realize(5, np.random.default_rng(0))

    def test_periodic_pattern(self):
        sch = PrivacySchedule("periodic", 3)
        flags = sch.realize(7, np.random.default_rng(0))
        assert flags.tolist() == [True, False, False, True, False, False, True]

    @settings(max_examples=150, deadline=None)
    @given(
        schedule=hst.one_of(
            hst.sampled_from(["always-on", "off-after-0"]),
            hst.integers(min_value=1, max_value=12).map(lambda k: f"periodic:{k}"),
            hst.floats(min_value=0.0, max_value=1.0).map(lambda p: f"bernoulli:{p}"),
            hst.lists(hst.booleans(), min_size=150, max_size=150).map(
                lambda f: "explicit:1," + ",".join("1" if b else "0" for b in f)
            ),
        ),
        horizon=hst.integers(min_value=1, max_value=150),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
        block=hst.integers(min_value=1, max_value=64),
    )
    def test_realize_gives_the_flags_of_one_call(self, schedule, horizon, seed, block):
        sch = PrivacySchedule.parse(schedule)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(sim, "DRAW_BLOCK_STEPS", block):
            got = sch.realize(horizon, got_rng)
        want = reference_flags(sch, horizon, want_rng)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # and the draws leave the generator where one call leaves it
        assert got_rng.random() == want_rng.random()


class TestRunSimulation:
    def test_deterministic_given_seed(self):
        a = run(horizon=500, seed=11)
        b = run(horizon=500, seed=11)
        assert np.array_equal(a.x, b.x)
        assert a.query_keys == b.query_keys
        assert a.query_ids.tobytes() == b.query_ids.tobytes()
        c = run(horizon=500, seed=12)
        assert not np.array_equal(query_sizes(a), query_sizes(c))

    def test_request_path_ignores_the_schedule(self):
        a = run(horizon=300, seed=9, schedule="always-on")
        b = run(horizon=300, seed=9, schedule="periodic:5")
        assert np.array_equal(a.x, b.x)

    def test_always_on_downloads_everything(self):
        trace = run(horizon=100, schedule="always-on")
        assert set(query_sizes(trace).tolist()) == {3}
        assert trace.decodes().all()
        assert average_download_rate(trace)["overall"] == pytest.approx(1 / 3)

    def test_uniform_chain_downloads_singletons_when_off(self):
        trace = run(alpha=1 / 3, horizon=200, schedule="off-after-0")
        sizes = query_sizes(trace)
        assert sizes[0] == 3  # flag on at the first step
        assert set(sizes[1:].tolist()) == {1}
        assert trace.decodes().all()

    def test_gap_counter_follows_the_flags(self):
        trace = run(horizon=20, schedule="periodic:4")
        assert np.array_equal(trace.delta, np.arange(20) % 4)
        assert np.array_equal(trace.delta == 0, np.arange(20) % 4 == 0)

    def test_every_query_contains_the_request(self):
        trace = run(horizon=2000, schedule="bernoulli:0.3", seed=3)
        assert trace.decodes().all()
        for t, i in enumerate(trace.query_ids.tolist()):
            assert int(trace.x[t]) in trace.query_keys[i]

    def test_bytes_scale_with_message_length(self):
        trace = run(horizon=50, msg_len=32)
        assert trace.total_bytes() == 32 * int(query_sizes(trace).sum())

    def test_requires_strict_positivity(self):
        cfg = SimConfig(
            chain=symmetric_chain(3, 0.0),
            schedule=PrivacySchedule("always-on"),
            horizon=10,
        )
        with pytest.raises(ValueError):
            run_simulation(cfg)

    def test_injected_decode_fault_is_counted(self):
        # reroute one context's singleton to the wrong message
        honest = build_scheme_for_gap(symmetric_chain(3, 1 / 3), 1)
        entries = entries_of(honest)
        moved = entries.pop(((0,), 0, 0))
        entries[((1,), 0, 0)] = entries.get(((1,), 0, 0), 0.0) + moved
        bad = scheme_from_entries(3, 1, "set", entries)
        cfg = SimConfig(
            chain=symmetric_chain(3, 1 / 3),
            schedule=PrivacySchedule("periodic", 2),
            horizon=3000,
            seed=2,
        )
        trace = run_simulation(cfg, scheme_overrides={1: bad})
        failures = trace.decode_failures()
        assert failures > 0
        mask = (trace.delta == 1) & (trace.x == 0) & (trace.contexts() == 0)
        assert failures == int(mask.sum())

    def test_config_validation(self):
        P = symmetric_chain(3, 0.6)
        with pytest.raises(ValueError):
            SimConfig(chain=P, schedule=PrivacySchedule("always-on"), horizon=0)
        with pytest.raises(ValueError):
            SimConfig(
                chain=P,
                schedule=PrivacySchedule("always-on"),
                horizon=5,
                msg_len=0,
            )
        with pytest.raises(ValueError, match="seed"):
            SimConfig(
                chain=P, schedule=PrivacySchedule("always-on"), horizon=5, seed=-1
            )

    @settings(max_examples=50, deadline=None)
    @given(seed=hst.integers(max_value=-1))
    def test_a_negative_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed must be non-negative, got {seed}"):
            SimConfig(
                chain=symmetric_chain(3, 0.6), schedule=PrivacySchedule("always-on"),
                horizon=5, seed=seed,
            )


@settings(max_examples=200, deadline=None)
@given(
    n=hst.integers(min_value=2, max_value=60),
    msg_len=hst.one_of(
        hst.integers(min_value=1, max_value=2**64),
        hst.integers(min_value=0, max_value=64).map(lambda k: 2**k),
    ),
    horizon=hst.integers(min_value=1, max_value=10**7),
    below=hst.booleans(),
)
def test_byte_counts_must_fit_in_int64(n, msg_len, horizon, below):
    # the largest message length whose run still fits, or the given one
    if below:
        msg_len = min(msg_len, (2**63 - 1) // (n * horizon))
        assume(msg_len >= 1)
    kw = dict(
        chain=symmetric_chain(n, 0.5), schedule=PrivacySchedule("always-on"),
        horizon=horizon, msg_len=msg_len,
    )
    if n * msg_len * horizon < 2**63:
        assert SimConfig(**kw).msg_len == msg_len
    else:
        with pytest.raises(ValueError, match="int64"):
            SimConfig(**kw)


class TestSeedContract:
    @settings(max_examples=40, deadline=None)
    @given(
        P=hst.builds(
            symmetric_chain,
            hst.integers(min_value=2, max_value=5),
            hst.floats(min_value=0.02, max_value=0.98),
        ),
        schedule=hst.one_of(
            hst.sampled_from(["always-on", "off-after-0"]),
            hst.integers(min_value=1, max_value=12).map(lambda k: f"periodic:{k}"),
            hst.floats(min_value=0.0, max_value=1.0).map(lambda p: f"bernoulli:{p}"),
            hst.lists(hst.booleans(), min_size=150, max_size=150).map(
                lambda f: "explicit:1," + ",".join("1" if b else "0" for b in f)
            ),
        ),
        horizon=hst.integers(min_value=1, max_value=150),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
        overrides=hst.dictionaries(
            hst.integers(min_value=1, max_value=8),
            hst.integers(min_value=1, max_value=8),
            max_size=2,
        ),
        # the draws' block length, or None for DRAW_BLOCK_STEPS
        block=hst.one_of(hst.none(), hst.integers(min_value=1, max_value=64)),
    )
    # gaps 0-399, three times each: the walk holds the chain's power from
    # gap 60 on. Gap 60 is the held power's first gap, and gap 201 lies far
    # past it; neither passes its override on to another gap
    @example(
        P=ROUNDING_TWO_CYCLE, schedule="periodic:400", horizon=1200, seed=3,
        overrides={60: 1, 201: 2}, block=None,
    )
    # gaps 0-49, ten times each: the power is held from gap 19 on, and gap
    # 23's table recurs at gaps 32 and 41, which must not take its override
    @example(
        P=RECURRING_TABLES, schedule="periodic:50", horizon=500, seed=3,
        overrides={23: 1}, block=None,
    )
    # the path's draws, and the query draw, in 10 blocks of 15 steps
    @example(
        P=symmetric_chain(4, 0.4), schedule="bernoulli:0.3", horizon=150,
        seed=11, overrides={2: 5}, block=15,
    )
    def test_matches_the_step_by_step_reference(
        self, P, schedule, horizon, seed, overrides, block
    ):
        cfg = SimConfig(
            chain=P, schedule=PrivacySchedule.parse(schedule), horizon=horizon,
            msg_len=8, seed=seed,
        )
        # each override gap gets the honest scheme of another gap
        swapped = {d: build_scheme_for_gap(P, other) for d, other in overrides.items()}
        with mock.patch.object(sim, "DRAW_BLOCK_STEPS", block or DRAW_BLOCK_STEPS):
            trace = run_simulation(cfg, scheme_overrides=swapped)
        arrays, queries, buckets = reference_run(cfg, scheme_overrides=swapped)
        got = {
            "x": trace.x, "flag": trace.delta == 0, "delta": trace.delta,
            "contexts": trace.contexts(), "decodes": trace.decodes(),
        }
        for name, want in arrays.items():
            assert got[name].dtype == want.dtype, name
            assert np.array_equal(got[name], want), name
        assert [trace.query_keys[i] for i in trace.query_ids.tolist()] == queries
        sums = trace.gap_size_sums.tolist()
        assert list(zip(trace.gap_counts.tolist(), sums)) == buckets

    def test_long_off_runs_build_a_bounded_number_of_schemes(self):
        # one gap per step: each chain's power is held once it has mixed,
        # within a few dozen gaps or, for the drifting chain, 115, and every
        # later gap reuses that gap's scheme. The plain products of the
        # last three never settle bit for bit
        for P in (
            symmetric_chain(4, 0.3), ROUNDING_TWO_CYCLE, RECURRING_TABLES,
            DRIFTING_POWERS,
        ):
            cfg = SimConfig(
                chain=P, schedule=PrivacySchedule.parse("off-after-0"),
                horizon=20000, seed=5,
            )
            trace = run_simulation(cfg)
            assert trace.schemes_built <= 200
            assert trace.schemes_built + trace.schemes_reused == 20000

    def test_an_override_is_not_reused_by_later_gaps(self):
        # at n = 3, alpha = 0.6 the tables of gaps 43 and up are equal, so
        # honest gaps after the override would reuse a scheme if allowed to
        P = symmetric_chain(3, 0.6)
        honest = build_scheme_for_gap(P, 50)
        entries = {k: v for k, v in entries_of(honest).items() if k[1:] != (0, 0)}
        entries[((1,), 0, 0)] = sum(
            v for k, v in entries_of(honest).items() if k[1:] == (0, 0)
        )
        bad = scheme_from_entries(3, 50, "set", entries)
        cfg = SimConfig(
            chain=P, schedule=PrivacySchedule("periodic", 60), horizon=30000, seed=1
        )
        trace = run_simulation(cfg, scheme_overrides={50: bad})
        hit = (trace.delta == 50) & (trace.x == 0) & (trace.contexts() == 0)
        assert hit.sum() > 0
        assert np.array_equal(~trace.decodes(), hit)


@hst.composite
def path_cases(draw):
    """A chain, a path length and a seed."""
    n = draw(hst.integers(min_value=2, max_value=12))
    seed = draw(hst.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    concentration = draw(hst.sampled_from([0.05, 1.0, 5.0, None]))
    if concentration is None:
        # rows of a symmetric chain share most of their breakpoints
        P = symmetric_chain(n, draw(hst.floats(min_value=0.0, max_value=1.0)))
    else:
        P = TransitionMatrix(gen.dirichlet(np.full(n, concentration), size=n))
    # the walk cuts its steps into blocks of L = isqrt(steps // n); with
    # B = n L + 1 blocks, L stays the same from L B - 1 to L B + 1 steps
    L = draw(hst.integers(min_value=1, max_value=isqrt(50_000 // n) - 1))
    steps = draw(
        hst.sampled_from([0, 1, n - 1])
        | hst.integers(min_value=0, max_value=50_000)
        | hst.sampled_from([-1, 0, 1]).map(lambda d: L * (n * L + 1) + d)
    )
    return P, steps + 1, seed


class StubDraws:
    """A generator whose uniform draws are given in advance, handed out in
    order, as many as each call asks for."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=float)
        self.used = 0

    def random(self, size):
        assert self.used + size <= len(self.draws)
        self.used += size
        return self.draws[self.used - size : self.used].copy()


class TestSamplePath:
    @settings(max_examples=120, deadline=None)
    @given(case=path_cases())
    def test_matches_the_per_step_walk(self, case):
        P, length, seed = case
        got = _sample_path(P, length, np.random.default_rng(seed))
        want = reference_sample_path(P, length, np.random.default_rng(seed))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_draws_on_and_next_to_every_breakpoint(self):
        # the last row sums to 1 - 3e-10, within the row tolerance, so a
        # draw may lie past all of its breakpoints
        P = TransitionMatrix(
            [[0.25, 0.25, 0.5], [0.5, 0.25, 0.25], [0.25, 0.5, 0.25 - 3e-10]]
        )
        cum = np.cumsum(P.entries, axis=1).ravel()
        draws = [0.0, *cum, *np.nextafter(cum, 0.0), np.nextafter(1.0, 0.0)]
        for s in range(P.n):
            # a first draw in the middle of s's share of the uniform start,
            # so the one step taken leaves s
            start = (s + 0.5) / P.n
            for r in draws:
                want = reference_sample_path(P, 2, StubDraws([start, r]))
                assert want[0] == s
                assert np.array_equal(_sample_path(P, 2, StubDraws([start, r])), want)
        # and a long path that meets every draw in many blocks
        draws = np.random.default_rng(3).permutation(np.repeat(draws, 50))
        want = reference_sample_path(P, len(draws), StubDraws(draws))
        got = _sample_path(P, len(draws), StubDraws(draws))
        assert np.array_equal(got, want)


@hst.composite
def draw_chains(draw, max_n=8):
    """A symmetric chain or a Dirichlet(0.05, 1 or 5) chain, n = 2..max_n,
    with every entry at least 1e-3 / n: Dirichlet(0.05) rows may hold exact
    zeros, and the simulator takes strictly positive chains only."""
    n = draw(hst.integers(2, max_n), label="n")
    concentration = draw(hst.sampled_from([None, 0.05, 1.0, 5.0]))
    if concentration is None:
        return symmetric_chain(n, draw(hst.floats(0.02, 0.98), label="alpha"))
    seed = draw(hst.integers(0, 2**32 - 1), label="seed")
    rows = np.random.default_rng(seed).dirichlet(np.full(n, concentration), size=n)
    return TransitionMatrix(0.999 * rows + 1e-3 / n)


def boundary_draws(cum):
    """0, the largest float below 1, and every cum[k] / total with the
    floats on either side."""
    edges = cum / cum[-1]
    return np.concatenate((
        [0.0, np.nextafter(1.0, 0.0)],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
    ))


class TestDrawQueries:
    @settings(max_examples=40, deadline=None)
    @given(P=draw_chains())
    def test_boundary_draws_pick_as_the_per_pair_sampler(self, P):
        # gaps 1 and 2 as two schemes, so that groups of both are keyed
        n = P.n
        schemes = [build_scheme_for_gap(P, 1), build_scheme_for_gap(P, 2)]
        scheme_of_gap = np.array([0, 0, 1])
        steps, want = [], []
        for delta, s in ((1, schemes[0]), (2, schemes[1])):
            pairs = sorted(set(zip(s.x.tolist(), s.u.tolist())))
            for x, u in pairs:
                draws = boundary_draws(mass_by_context(s, x, u)[1])
                picks = sample_query_indices(s, x, u, draws)
                want += [s.queries[i] for i in picks.tolist()]
                steps += [(delta, x, u, r) for r in draws.tolist()]
        # every step in a frame of four steps whose first is its tau, so
        # that the path gives it its request and context; the other steps
        # of a frame take gap 0 and draw 0
        path = np.zeros(4 * len(steps) + 1, dtype=np.int64)
        delta = np.zeros(4 * len(steps), dtype=np.int64)
        draws = np.zeros(4 * len(steps))
        at = []
        for k, (gap, x, u, r) in enumerate(steps):
            t = 4 * k + gap
            path[4 * k], path[t], path[t + 1] = u // n, x, u % n
            delta[t], draws[t] = gap, r
            at.append(t)
        ids, keys = _draw_queries(
            schemes, scheme_of_gap, path, delta, n, StubDraws(draws)
        )
        assert keys == sorted(set(schemes[0].queries) | set(schemes[1].queries))
        assert ids.dtype == np.min_scalar_type(len(keys) - 1)
        assert [keys[i] for i in ids[at].tolist()] == want

    @pytest.mark.parametrize("fault", ["no rows", "zero mass"])
    def test_an_override_without_mass_names_gap_request_and_context(self, fault):
        P = symmetric_chain(3, 0.6)
        entries = entries_of(build_scheme_for_gap(P, 1))
        for key in [k for k in entries if k[1:] == (0, 0)]:
            if fault == "no rows":
                del entries[key]
            else:
                entries[key] = 0.0
        bad = scheme_from_entries(3, 1, "set", entries)
        cfg = SimConfig(
            chain=P, schedule=PrivacySchedule("periodic", 2), horizon=2000, seed=4
        )
        with pytest.raises(
            ZeroLikelihoodContext, match=r"^gap 1: no mass for request 0 in context 0$"
        ):
            run_simulation(cfg, scheme_overrides={1: bad})

    def test_an_empty_context_first_met_in_a_later_block_is_named(self):
        P = symmetric_chain(3, 0.6)
        cfg = SimConfig(
            chain=P, schedule=PrivacySchedule("periodic", 2), horizon=2000, seed=4
        )
        honest = run_simulation(cfg)
        # the (request, context) pair of gap 1 that occurs first the latest
        gap1 = np.flatnonzero(honest.delta == 1)
        pairs = list(zip(honest.x[gap1].tolist(), honest.contexts()[gap1].tolist()))
        first_step = {}
        for t, pair in zip(gap1.tolist(), pairs):
            first_step.setdefault(pair, t)
        (x, u), t = max(first_step.items(), key=lambda item: item[1])
        entries = entries_of(build_scheme_for_gap(P, 1))
        bad = scheme_from_entries(
            3, 1, "set", {k: v for k, v in entries.items() if k[1:] != (x, u)}
        )
        # blocks short enough that step t lies in the fourth or a later one
        block = t // 4
        assert block >= 1 and t // block >= 3
        with mock.patch.object(sim, "DRAW_BLOCK_STEPS", block):
            with pytest.raises(
                ZeroLikelihoodContext,
                match=rf"^gap 1: no mass for request {x} in context {u}$",
            ):
                run_simulation(cfg, scheme_overrides={1: bad})


def sorting_contingency(rows, cols):
    """The contingency table with labels ranked by np.unique: the reference
    that each gap's table from _gap_tables must match, dtypes too."""
    row_vals, r = np.unique(rows, return_inverse=True)
    col_vals, c = np.unique(cols, return_inverse=True)
    shape = (len(row_vals), len(col_vals))
    flat = np.bincount(r * shape[1] + c, minlength=shape[0] * shape[1])
    return row_vals, col_vals, flat.reshape(shape).astype(float)


@hst.composite
def label_pairs(draw):
    """Row and column labels, each drawn from a few values with gaps."""
    row_pool = sorted(draw(hst.sets(hst.integers(0, 60), min_size=1, max_size=5)))
    col_pool = sorted(draw(hst.sets(hst.integers(0, 60), min_size=1, max_size=5)))
    size = draw(hst.integers(min_value=1, max_value=200))
    pick = hst.lists(hst.integers(0, 10**6), min_size=size, max_size=size)
    rows = [row_pool[i % len(row_pool)] for i in draw(pick)]
    cols = [col_pool[i % len(col_pool)] for i in draw(pick)]
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def label_trace(delta, rows, cols, query_keys=None):
    """A stand-in trace with the fields that empirical_privacy_tests reads:
    row labels as query ids and column labels as contexts."""
    return SimpleNamespace(
        delta=delta, gap_counts=np.bincount(delta), query_ids=rows,
        contexts=lambda lo, hi: cols[lo:hi],
        query_keys=range(int(rows.max()) + 1) if query_keys is None else query_keys,
    )


class TestContingency:
    @settings(max_examples=150, deadline=None)
    @given(
        labels=label_pairs(),
        # None keeps the int64 labels; else the rows count down from
        # n_queries - 1, in the narrow dtype of a trace's query ids
        n_queries=hst.sampled_from([None, 255, 256, 257]),
        # the block length of the numerals' digits
        block=hst.integers(min_value=1, max_value=64),
        data=hst.data(),
    )
    def test_one_pass_tables_match_the_sorting_reference(
        self, labels, n_queries, block, data
    ):
        rows, cols = labels
        keys = None
        if n_queries is not None:
            keys = range(n_queries)
            rows = n_queries - 1 - rows
        size = len(rows)
        delta = np.array(
            data.draw(hst.lists(hst.integers(0, 4), min_size=size, max_size=size)),
            dtype=np.int64,
        )
        # any of the gaps present; the steps of the others share one slot
        present = sorted(set(delta.tolist()))
        listed = data.draw(
            hst.lists(hst.sampled_from(present), min_size=1, unique=True)
        )
        ids = rows if keys is None else rows.astype(np.min_scalar_type(keys[-1]))
        with mock.patch.object(sim, "DRAW_BLOCK_STEPS", block):
            tables = _gap_tables(label_trace(delta, ids, cols, keys), listed)
        assert sorted(tables) == sorted(listed)
        for gap in listed:
            mask = delta == gap
            want = sorting_contingency(rows[mask], cols[mask])
            for got, expected in zip(tables[gap], want):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "rows", [[0, 5, 9, 9, 0, 5, 5], [7, 7, 7, 7, 7, 7, 7]], ids=["gaps", "one"]
    )
    def test_labels_with_gaps_and_a_single_label(self, rows):
        rows = np.array(rows)
        cols = np.array([3, 3, 0, 3, 0, 0, 3])
        got = _gap_tables(label_trace(np.zeros(7, dtype=np.int64), rows, cols), [0])[0]
        assert got[0].tolist() == sorted(set(rows.tolist()))
        assert got[1].tolist() == [0, 3]
        assert got[2].sum() == len(rows)
        for part, want in zip(got, sorting_contingency(rows, cols)):
            assert np.array_equal(part, want)

    def test_cell_numbers_must_fit_in_int64(self):
        # one listed gap and the shared slot, 2^61 queries and 2 contexts:
        # the largest cell number is 2^63 - 1, and one more query overflows
        delta = np.array([0, 0, 1], dtype=np.int64)
        rows = np.array([0, 1, 1], dtype=np.int64)
        cols = np.array([1, 0, 1], dtype=np.int64)
        trace = label_trace(delta, rows, cols)
        trace.query_keys = range(2**61)
        assert _gap_tables(trace, [0])[0][2].tolist() == [[0.0, 1.0], [1.0, 0.0]]
        trace.query_keys = range(2**61 + 1)
        with pytest.raises(OverflowError, match="int64"):
            _gap_tables(trace, [0])


class TestEmpiricalStats:
    def test_small_bucket_is_refused(self):
        trace = run(horizon=1500, schedule="off-after-0")
        # the gap value 1 appears exactly once in this run
        with pytest.raises(InsufficientSamples):
            empirical_privacy_test(trace, 1)

    def test_honest_run_is_not_flagged(self):
        trace = run(horizon=20000, seed=21)
        stats = empirical_privacy_test(trace, 1)
        assert stats.n_samples == 10000
        assert not stats.flags_dependence()
        assert 0.0 <= stats.chi2_pvalue <= 1.0

    def test_faulty_scheme_is_flagged(self):
        P = symmetric_chain(3, 0.6)
        honest = build_scheme_for_gap(P, 1)
        entries = entries_of(honest)
        entries[((0, 1, 2), 0, 0)] -= 0.1
        entries[((0,), 0, 0)] = entries.get(((0,), 0, 0), 0.0) + 0.1
        bad = scheme_from_entries(3, 1, "set", entries)
        cfg = SimConfig(
            chain=P,
            schedule=PrivacySchedule("periodic", 2),
            horizon=60000,
            seed=0,
        )
        trace = run_simulation(cfg, scheme_overrides={1: bad})
        stats = empirical_privacy_test(trace, 1)
        assert stats.flags_dependence()
        assert stats.max_tv_gap > 0.05
        assert stats.chi2_pvalue < 1e-10

    @settings(max_examples=8, deadline=None)
    @given(
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
        n=hst.integers(min_value=3, max_value=5),
    )
    def test_a_fault_in_a_frequent_context_is_flagged(self, seed, n):
        # 0.1 of mass moves from the heaviest row of the likeliest context
        # at gap 1 to another query naming the same request, as in
        # acceptance criterion 8: the marginals survive, and the context is
        # seen thousands of times
        rows = np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
        P = TransitionMatrix(0.8 * rows + 0.2 / n)
        pi = np.full(n, 1.0 / n) @ np.linalg.matrix_power(P.entries, 200)
        u = int(np.argmax(pi[:, None] * (P.entries @ P.entries)))
        entries = entries_of(build_scheme_for_gap(P, 1))
        (q, x, _), mass = max(
            (item for item in entries.items() if item[0][2] == u),
            key=lambda item: item[1],
        )
        assume(mass >= 0.1)
        to = tuple(range(n)) if q == (x,) else (x,)
        entries[q, x, u] -= 0.1
        entries[to, x, u] = entries.get((to, x, u), 0.0) + 0.1
        bad = scheme_from_entries(n, 1, "set", entries)
        cfg = SimConfig(
            chain=P, schedule=PrivacySchedule("periodic", 2), horizon=100_000, seed=0
        )
        trace = run_simulation(cfg, scheme_overrides={1: bad})
        stats = empirical_privacy_test(trace, 1)
        assert u in stats.context_ids
        assert stats.counts[:, stats.context_ids.index(u)].sum() >= 1000
        assert stats.flags_dependence()

    def test_rare_contexts_are_left_out_of_the_gate(self):
        # one gap bucket of three contexts, one of them seen 10 times with
        # a query of its own: the full table depends on the context, the
        # gate's leaves that context out
        counts = np.array([[650, 500, 0], [350, 500, 0], [0, 0, 10]])
        qids, us = np.nonzero(counts)
        reps = counts[qids, us]
        trace = label_trace(
            np.zeros(reps.sum(), dtype=np.int64), np.repeat(qids, reps),
            np.repeat(us, reps), [(0,), (1,), (0, 1)],
        )
        stats = empirical_privacy_test(trace, 0)
        assert (stats.max_tv_gap, stats.chi2_dof) == (1.0, 4)
        assert stats.chi2_pvalue < 1e-100
        assert (stats.contexts_left_out, stats.samples_left_out) == (1, 10)
        assert stats.gate_max_tv_gap == pytest.approx(0.15)
        assert stats.gate_chi2_dof == 1
        assert stats.gate_chi2_pvalue == scipy.stats.chi2.sf(stats.gate_chi2_stat, 1)
        assert stats.flags_dependence()
        assert stats.to_json_obj()["gate"]["contexts_left_out"] == 1

    def test_honest_sparse_buckets_pass_the_gate(self):
        # a 20-state chain: at gaps 1-7 most of the up to 400 contexts are
        # seen a few times each, and the full tables' p-values fall below
        # the threshold from noise alone
        P = TransitionMatrix(np.random.default_rng(20).dirichlet(np.ones(20), size=20))
        cfg = SimConfig(
            chain=P, schedule=PrivacySchedule("bernoulli", 0.3), horizon=150_000,
            seed=0,
        )
        trace = run_simulation(cfg)
        tested = np.flatnonzero(trace.gap_counts >= MIN_BUCKET_SAMPLES).tolist()
        stats = empirical_privacy_tests(trace, tested)
        assert any(s.chi2_pvalue < DEPENDENCE_P_THRESHOLD for s in stats)
        assert not any(s.flags_dependence() for s in stats)

    def test_zero_gap_bucket_is_trivially_independent(self):
        trace = run(horizon=4000, schedule="always-on")
        stats = empirical_privacy_test(trace, 0)
        assert stats.max_tv_gap == 0.0
        assert stats.chi2_dof == 0

    @settings(max_examples=200, deadline=None)
    @given(
        counts=hst.integers(2, 6).flatmap(
            lambda r: hst.integers(2, 6).flatmap(
                lambda c: hst.lists(
                    hst.lists(hst.integers(0, 3000), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        )
    )
    def test_pvalue_is_the_chi2_survival_function(self, counts):
        # the package avoids importing scipy.stats; its p-value must still be
        # exactly what scipy.stats.chi2.sf gives
        counts = np.array(counts)
        assume((counts.sum(axis=0) > 0).all() and (counts.sum(axis=1) > 0).all())
        assume(counts.sum() >= MIN_BUCKET_SAMPLES)
        qids, us = np.nonzero(counts)
        reps = counts[qids, us]
        trace = label_trace(
            np.zeros(reps.sum(), dtype=np.int64), np.repeat(qids, reps),
            np.repeat(us, reps), [(i,) for i in range(counts.shape[0])],
        )
        stats = empirical_privacy_test(trace, 0)
        assert stats.chi2_dof == (counts.shape[0] - 1) * (counts.shape[1] - 1)
        expected = float(scipy.stats.chi2.sf(stats.chi2_stat, stats.chi2_dof))
        assert stats.chi2_pvalue == expected

    def test_stats_json_is_plain_data(self):
        import json

        trace = run(horizon=4000)
        obj = empirical_privacy_test(trace, 1).to_json_obj()
        assert json.loads(json.dumps(obj)) == obj

    @settings(max_examples=25, deadline=None)
    @given(
        P=draw_chains(),
        schedule=hst.one_of(
            hst.sampled_from(["always-on"]),
            hst.integers(min_value=1, max_value=12).map(lambda k: f"periodic:{k}"),
            hst.floats(min_value=0.4, max_value=1.0).map(lambda p: f"bernoulli:{p}"),
        ),
        horizon=hst.integers(min_value=3000, max_value=12000),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
    )
    # twelve gaps of 1000 steps each
    @example(P=symmetric_chain(3, 0.6), schedule="periodic:12", horizon=12000, seed=1)
    def test_one_pass_stats_match_the_counter_reference(
        self, P, schedule, horizon, seed
    ):
        cfg = SimConfig(
            chain=P, schedule=PrivacySchedule.parse(schedule), horizon=horizon,
            seed=seed,
        )
        trace = run_simulation(cfg)
        tested = np.flatnonzero(trace.gap_counts >= MIN_BUCKET_SAMPLES).tolist()
        assume(tested)
        got = empirical_privacy_tests(trace, tested)
        assert [stats.delta for stats in got] == tested
        for stats in got:
            want = reference_privacy_stats(trace, stats.delta)
            for name, value in want.items():
                if name == "counts":
                    assert stats.counts.dtype == value.dtype
                    assert np.array_equal(stats.counts, value)
                else:
                    assert getattr(stats, name) == value, name
            # one gap alone goes through the same pass
            alone = empirical_privacy_test(trace, stats.delta)
            assert alone.to_json_obj() == stats.to_json_obj()

    def test_a_gap_in_the_list_without_enough_samples_is_refused(self):
        trace = run(horizon=4000, schedule="periodic:3")
        with pytest.raises(InsufficientSamples, match="^gap 3 has 0 samples"):
            empirical_privacy_tests(trace, [0, 1, 3])
        assert empirical_privacy_tests(trace, []) == []
        # by default, every bucket of at least MIN_BUCKET_SAMPLES steps
        assert [s.delta for s in empirical_privacy_tests(trace)] == [0, 1, 2]

    def test_work_arrays_stay_within_their_budget(self):
        # tracemalloc counts numpy's array buffers. The trace keeps 17 bytes
        # a step (the path, the gaps and uint8 query ids); past them the run
        # holds block-long work arrays only, and the privacy tests one int64
        # and one flag per step; each budget leaves some room above that
        T = 300_000
        trace = run(horizon=T, seed=2)  # and any one-time set-up with it
        empirical_privacy_tests(trace, [0, 1])
        tracemalloc.start()
        try:
            trace = run(horizon=T, seed=2)
            kept, peak = tracemalloc.get_traced_memory()
            assert kept <= 17 * T + (1 << 15)
            assert peak - kept <= 64 * DRAW_BLOCK_STEPS
            tracemalloc.reset_peak()
            empirical_privacy_tests(trace, [0, 1])
            assert tracemalloc.get_traced_memory()[1] - kept <= 10 * T
        finally:
            tracemalloc.stop()

    def test_the_pvalue_alone_loads_scipy(self):
        trace = run(horizon=4000)
        # any import of scipy fails while these entries are None
        with mock.patch.dict(sys.modules, {"scipy": None, "scipy.special": None}):
            stats = empirical_privacy_tests(trace, [0, 1])
            assert stats[0].chi2_dof == 0
            assert stats[0].chi2_pvalue == 1.0
            assert not stats[0].flags_dependence()
            assert stats[1].chi2_dof > 0
            with pytest.raises(ImportError):
                stats[1].chi2_pvalue
        assert stats[1].chi2_pvalue == reference_privacy_stats(trace, 1)["chi2_pvalue"]


def off_run_law(P, schemes, x_tau):
    """The exact law P(q_0 ... q_{L-1} | x_tau) of the queries of an off-run
    of L = len(schemes) steps whose on-step tau requests x_tau, where step
    tau + d draws from schemes[d], as a flat array over the tuples of the
    schemes' query indices, the first step's the most significant.

    A forward recursion over x_{d+1}: step d multiplies in P[x_d, x_{d+1}]
    g_d(q | x_d, u) / p_d(x_d | u) with u = (x_tau, x_{d+1}), and x_L is
    summed out at the end."""
    n = P.n
    law = np.zeros((1, n))  # over (the tuple so far, x_d)
    law[0, x_tau] = 1.0
    for d, s in enumerate(schemes):
        mine = s.u // n == x_tau
        x, u = s.x[mine], s.u[mine]
        y = u % n
        step = np.zeros((len(s.queries), n, n))  # over (q, x_d, x_{d+1})
        step[s.q[mine], x, y] = (
            P.entries[x, y] * s.mass[mine] / conditional_table(P, d).values[u, x]
        )
        law = np.einsum("kx,qxy->kqy", law, step).reshape(-1, n)
    return law.sum(axis=1)


class TestOffRunJointLaw:
    """Given (x_tau, x_{t+1}), the query of step t is independent of the
    later queries (the Markov property and fresh draws), and its gap's
    scheme gives it the same law s_{t - tau} in every context. Summing out
    x_{t+1} one step at a time, an off-run's queries follow the product of
    the s_d whatever x_tau is: the per-gap property covers whole off-runs."""

    @settings(max_examples=40, deadline=None)
    @given(P=draw_chains(max_n=4), length=hst.integers(1, 4))
    @example(P=symmetric_chain(3, 0.6), length=4)
    def test_an_off_runs_queries_do_not_depend_on_its_on_step(self, P, length):
        schemes = [build_scheme_for_gap(P, d) for d in range(length)]
        laws = np.array([off_run_law(P, schemes, x) for x in range(P.n)])
        assert (laws.max(axis=0) - laws.min(axis=0)).max() <= VERIFY_TOL
        # and each is the product of the gaps' query laws, read in context 0
        product = np.ones(1)
        for s in schemes:
            context0 = s.u == 0
            product = np.kron(product, np.bincount(
                s.q[context0], s.mass[context0], minlength=len(s.queries)
            ))
        assert np.abs(laws - product).max() <= VERIFY_TOL

    def test_a_leaky_gap_shows_in_the_joint_law(self):
        # at gap 2, every row whose on-step request lies below n / 2 asks for
        # its request alone
        P, n = symmetric_chain(3, 0.6), 3
        schemes = [build_scheme_for_gap(P, d) for d in range(3)]
        leaky: dict = {}
        for (members, x, u), mass in entries_of(schemes[2]).items():
            key = ((x,) if u // n < n / 2 else members, x, u)
            leaky[key] = leaky.get(key, 0.0) + mass
        schemes[2] = scheme_from_entries(n, 2, "set", leaky)
        laws = np.array([off_run_law(P, schemes, x) for x in range(n)])
        assert (laws.max(axis=0) - laws.min(axis=0)).max() > 0.1


class TestAverageRate:
    def test_rates_per_gap(self):
        trace = run(horizon=20000, seed=8)
        rates = average_download_rate(trace)
        assert rates["per_delta"][0] == pytest.approx(1 / 3, abs=1e-12)
        # the one-step gap attains roughly the achievable rate 11/27
        assert rates["per_delta"][1] == pytest.approx(11 / 27, abs=0.01)
        assert (
            min(rates["per_delta"].values())
            <= rates["overall"]
            <= max(rates["per_delta"].values())
        )

    def test_means_divide_the_exact_sums(self):
        # a size sum past 2^53 has no exact float; dividing the ints rounds
        # once, and float division would round twice to another value
        size_sum, count = 2**54 + 1, 3
        assert size_sum / count != float(size_sum) / float(count)
        trace = SimTrace(
            n=3, msg_len=1, path=np.zeros(count + 1, dtype=np.int64),
            delta=np.zeros(count, dtype=np.int64),
            query_ids=np.zeros(count, dtype=np.uint8), query_keys=[(0, 1, 2)],
            gap_counts=np.array([count]), gap_size_sums=np.array([size_sum]),
        )
        assert (trace.delta == 0).all() and trace.decodes().all()
        rates = average_download_rate(trace)
        assert rates["per_delta"] == {0: 1.0 / (size_sum / count)}
        assert rates["overall"] == 1.0 / (size_sum / count)
        assert trace.total_bytes() == size_sum


def test_the_trace_stores_17_bytes_a_step():
    # at n = 3 the queries number at most 7, so their ids take one byte;
    # the path holds one state more than the horizon
    trace = run(horizon=1000)
    assert trace.query_ids.dtype == np.uint8
    assert trace.path.dtype == trace.delta.dtype == np.int64
    stored = trace.path.nbytes + trace.delta.nbytes + trace.query_ids.nbytes
    assert stored == 17 * 1000 + 8
    assert np.shares_memory(trace.x, trace.path)


def test_trace_exposes_consistent_lengths():
    trace = run(horizon=123)
    assert isinstance(trace, SimTrace)
    for arr in (trace.x, trace.delta == 0, trace.delta, trace.query_ids,
                trace.contexts(), trace.decodes()):
        assert arr.shape == (123,)
    assert trace.horizon == 123
    assert trace.total_bytes() == trace.msg_len * int(query_sizes(trace).sum())

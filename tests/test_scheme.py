import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from onoffpriv.bounds import rate_inner, theta_profile
from onoffpriv.markov import (
    ConditionalTable,
    TransitionMatrix,
    ZeroContextProbability,
    conditional_table,
    symmetric_chain,
    u_index,
)
from onoffpriv.scheme import (
    SchemeDistribution,
    ZeroLikelihoodContext,
    build_scheme,
    collapse_to_sets,
    sample_query_indices,
)
from onoffpriv.verify import check_scheme

from conftest import entries_of, scheme_from_entries


def built(n, alpha, delta):
    cond = conditional_table(symmetric_chain(n, alpha), delta)
    profile = theta_profile(cond)
    return cond, profile, build_scheme(profile, cond)


def sizes(s):
    """The download size of every row's query."""
    return np.array([len(members) for members in s.queries])[s.q]


def total_weighted_size(s):
    return float(sizes(s) @ s.mass)


def context_totals(s, m):
    """m x n array of the summed mass of every (x, u) pair."""
    total = np.zeros((m, s.n))
    np.add.at(total, (s.u, s.x), s.mass)
    return total


class TestConstruction:
    def test_uniform_chain_sends_singletons(self):
        _, _, s = built(3, 1 / 3, 2)
        assert all(len(z) == 1 for z in s.queries)

    def test_zero_gap_sends_everything(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 3), 0)
        s = build_scheme(theta_profile(cond), cond)
        assert s.queries == [(0, 1, 2)]

    def test_marginals_reconstruct_the_table(self, rng, chain_factory):
        for n in (2, 3, 5):
            for delta in (1, 2):
                cond = conditional_table(chain_factory(rng, n), delta)
                s = build_scheme(theta_profile(cond), cond)
                total = context_totals(s, cond.m)
                assert np.abs(total - cond.values).max() <= 1e-12

    def test_query_size_law_per_context(self, rng, chain_factory):
        # P(download size = l | u) equals theta_l for every context
        cond = conditional_table(chain_factory(rng, 4), 2)
        profile = theta_profile(cond)
        s = build_scheme(profile, cond)
        by_size = np.zeros((cond.m, 4))
        np.add.at(by_size, (s.u, sizes(s) - 1), s.mass)
        for u in range(cond.m):
            assert np.allclose(by_size[u], profile.theta, atol=1e-9)

    def test_expected_size_attains_inner_bound(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 5), 3)
        profile = theta_profile(cond)
        s = build_scheme(profile, cond)
        cost = total_weighted_size(s) / cond.m
        assert cost == pytest.approx(rate_inner(profile), abs=1e-9)

    def test_entry_budget(self, rng, chain_factory):
        for n in (2, 4, 6):
            cond = conditional_table(chain_factory(rng, n), 2)
            s = build_scheme(theta_profile(cond), cond)
            assert s.entry_count <= n * n * n**4

    def test_residual_rows_carry_the_tail_mass(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 4), 1)
        profile = theta_profile(cond)
        _, ledger = build_scheme(profile, cond, return_ledger=True)
        assert np.allclose(
            ledger.m_final.sum(axis=1), profile.theta[-1], atol=1e-9
        )
        assert ledger.m_initial.min() >= 0.0

    def test_tiny_increment_keeps_its_mass(self):
        # p(0 | u) is 0.2 in context 0 and 5e-13 more in context 1, so the
        # cardinality-2 increment of request 0 lies in (1e-13, 1e-12]
        col0 = np.array([0.2, 0.2 + 5e-13, 0.25, 0.3, 0.35, 0.4, 0.45, 0.3, 0.25])
        col1 = np.array([0.5, 0.3, 0.4, 0.2, 0.45, 0.3, 0.25, 0.35, 0.5])
        cond = ConditionalTable(
            n=3, delta=1, values=np.column_stack([col0, col1, 1 - col0 - col1])
        )
        profile = theta_profile(cond)
        increment = profile.lambda_xi[0, 1] - profile.lambda_xi[0, 0]
        assert 1e-13 < increment <= 1e-12
        report = check_scheme(build_scheme(profile, cond), cond, profile)
        assert report.max_marginal_error < 1e-15

    def test_profile_table_mismatch_is_rejected(self, rng, chain_factory):
        cond_a = conditional_table(chain_factory(rng, 3), 1)
        cond_b = conditional_table(chain_factory(rng, 3), 1)
        with pytest.raises(ValueError):
            build_scheme(theta_profile(cond_a), cond_b)


class TestDistributionObject:
    def test_set_collapse_conserves_mass_and_helps_cost(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 4), 2)
        ms = build_scheme(theta_profile(cond), cond)
        st = collapse_to_sets(ms)
        for k, x in zip(st.q.tolist(), st.x.tolist()):
            assert x in st.queries[k]
        tot_ms, tot_st = context_totals(ms, cond.m), context_totals(st, cond.m)
        assert np.abs(tot_st - tot_ms).max() <= 1e-12
        assert total_weighted_size(st) <= total_weighted_size(ms) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=5),
        delta=hst.integers(min_value=0, max_value=3),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_json_round_trip_is_exact(self, n, delta, seed):
        rows = np.random.default_rng(seed).dirichlet(np.full(n, 2.0), size=n)
        cond = conditional_table(TransitionMatrix(0.9 * rows + 0.1 / n), delta)
        ms = build_scheme(theta_profile(cond), cond)
        for s in (ms, collapse_to_sets(ms)):
            obj = json.loads(json.dumps(s.to_json_obj()))
            back = SchemeDistribution.from_json_obj(obj)
            assert back.n == s.n and back.delta == s.delta
            assert back.form == s.form
            assert back.queries == s.queries
            for col in ("q", "x", "u", "mass"):
                assert np.array_equal(getattr(back, col), getattr(s, col))

    @settings(max_examples=60, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=5),
        delta=hst.integers(min_value=0, max_value=3),
        chain=hst.sampled_from(["dirichlet-2", "dirichlet-0.2", "symmetric-1/n"]),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_keys_are_sorted_member_tuples(self, n, delta, chain, seed):
        # Dirichlet(0.2) rows and the uniform chain make ties and near-zero
        # residuals common
        rng = np.random.default_rng(seed)
        if chain == "dirichlet-2":
            rows = rng.dirichlet(np.full(n, 2.0), size=n)
            P = TransitionMatrix(0.9 * rows + 0.1 / n)
        elif chain == "dirichlet-0.2":
            P = TransitionMatrix(rng.dirichlet(np.full(n, 0.2), size=n))
        else:
            P = symmetric_chain(n, 1 / n)
        try:
            cond = conditional_table(P, delta)
        except ZeroContextProbability:
            assume(False)
        ms, ledger = build_scheme(theta_profile(cond), cond, return_ledger=True)
        # the download size of each query: the cardinality it was carved at
        size = {tuple(range(n)): n}
        for (ell, x), segs in ledger.segments.items():
            for zeta, _ in segs:
                size[tuple(sorted((x, *zeta)))] = ell
        for z in ms.queries:
            assert len(z) == size[z]
        st = collapse_to_sets(ms)
        assert all(len(set(q)) == len(q) for q in st.queries)
        for s in (ms, st):
            assert s.queries == sorted(set(s.queries))
            for q in s.queries:
                assert list(q) == sorted(q) and all(0 <= i < n for i in q)
            rows = s.to_json_obj()["entries"]
            keys = [q for q, _, _ in sorted(entries_of(s))]
            assert [row["q"] for row in rows] == [list(q) for q in keys]

    @settings(max_examples=80, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=4),
        form=hst.sampled_from(["multiset", "set"]),
        field=hst.sampled_from(["q", "x", "xtau", "xnext", "alias"]),
        bad=hst.one_of(
            hst.integers(min_value=-5, max_value=-1),
            hst.integers(min_value=0, max_value=5),
        ),
        pick=hst.integers(min_value=0),
    )
    def test_out_of_range_states_are_rejected(self, n, form, field, bad, pick):
        _, _, ms = built(n, 0.6, 1)
        obj = (ms if form == "multiset" else collapse_to_sets(ms)).to_json_obj()
        row = obj["entries"][pick % len(obj["entries"])]
        if bad >= 0:
            bad += n
        if field == "q":
            row["q"][pick % len(row["q"])] = bad
        elif field == "x":
            row["x"] = bad
        elif field == "alias":
            # (xtau + 1, xnext - n) flattens to the same row index
            row["u"] = [row["u"][0] + 1, row["u"][1] - n]
        else:
            row["u"][field == "xnext"] = bad
        with pytest.raises(ValueError, match="out of range"):
            SchemeDistribution.from_json_obj(obj)

    @settings(max_examples=60, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=4),
        delta=hst.integers(min_value=0, max_value=3),
        form=hst.sampled_from(["multiset", "set"]),
        pick=hst.integers(min_value=0),
        shuffle_seed=hst.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_repeated_rows_are_rejected(self, n, delta, form, pick, shuffle_seed):
        _, _, ms = built(n, 0.6, delta)
        obj = (ms if form == "multiset" else collapse_to_sets(ms)).to_json_obj()
        row = obj["entries"][pick % len(obj["entries"])]
        # the same query, request and context, members listed in another order
        twin = json.loads(json.dumps(row))
        np.random.default_rng(shuffle_seed).shuffle(twin["q"])
        obj["entries"].append(twin)
        with pytest.raises(ValueError, match="repeated entry"):
            SchemeDistribution.from_json_obj(obj)

    @settings(max_examples=40, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=4),
        pick=hst.integers(min_value=0),
    )
    def test_repeated_set_members_are_rejected(self, n, pick):
        _, _, ms = built(n, 0.6, 1)
        obj = collapse_to_sets(ms).to_json_obj()
        row = obj["entries"][pick % len(obj["entries"])]
        row["q"].append(row["q"][pick % len(row["q"])])
        with pytest.raises(ValueError, match="repeated query member"):
            SchemeDistribution.from_json_obj(obj)

    def test_accepts_damaged_entries_for_later_checking(self):
        # the container must be able to hold a bad artifact; judging it
        # is the checker's job, not the constructor's
        s = scheme_from_entries(2, 1, "set", {((0,), 0, 0): -0.25})
        assert s.entry_count == 1

    def test_rows_of_a_context_are_one_slice_in_query_order(self):
        _, _, ms = built(4, 0.3, 2)
        for s in (ms, collapse_to_sets(ms)):
            by_xu: dict = {}
            for (members, x, u), mass in sorted(entries_of(s).items()):
                by_xu.setdefault((x, u), []).append((members, mass))
            assert sum(map(len, by_xu.values())) == s.entry_count
            for (x, u), items in by_xu.items():
                ids, cum = s.mass_by_context(x, u)
                assert [s.queries[k] for k in ids] == [k for k, _ in items]
                assert np.array_equal(cum, np.cumsum([p for _, p in items]))

    def test_container_sorts_merges_and_drops_unnamed_queries(self):
        # queries given out of order, one named by no row
        s = SchemeDistribution(
            2, 1, "set", [(1,), (0, 1), (0,)], [2, 0, 2], [0, 1, 0], [3, 0, 0],
            [0.25, 0.5, 0.125],
        )
        assert s.queries == [(0,), (1,)]
        assert entries_of(s) == {
            ((0,), 0, 3): 0.25, ((1,), 1, 0): 0.5, ((0,), 0, 0): 0.125,
        }
        # rows that share (q, x, u) merge; a scheme file may not repeat one
        twice = SchemeDistribution(
            2, 1, "set", [(0,)], [0, 0], [0, 0], [1, 1], [0.5, 0.25]
        )
        assert entries_of(twice) == {((0,), 0, 1): 0.75}

    def test_unknown_context_raises(self):
        _, _, s = built(3, 0.6, 0)
        bad_x = 1  # impossible request when the context says x equals 0
        with pytest.raises(ZeroLikelihoodContext):
            s.mass_by_context(bad_x, u_index(0, 0, 3))


class TestSampler:
    def test_frequencies_track_masses(self, rng):
        cond, _, ms = built(3, 0.6, 1)
        s = collapse_to_sets(ms)
        x, u = 0, u_index(1, 2, 3)
        ids, cum = s.mass_by_context(x, u)
        probs = np.diff(np.concatenate([[0.0], cum])) / cum[-1]
        draws = 20000
        picks = sample_query_indices(s, x, u, rng.random(draws))
        counts = np.bincount(picks, minlength=len(s.queries))
        assert set(picks.tolist()) <= set(ids.tolist())
        for k, p in zip(ids, probs):
            se = (p * (1 - p) / draws) ** 0.5
            assert abs(counts[k] / draws - p) <= 4 * se + 1e-9

    def test_batched_draws_match_one_at_a_time(self):
        _, _, ms = built(3, 0.6, 2)
        s = collapse_to_sets(ms)
        for x, u in ((0, 0), (2, 5), (1, 7)):
            picks = sample_query_indices(s, x, u, np.random.default_rng(3).random(500))
            rng = np.random.default_rng(3)
            one_by_one = [
                int(sample_query_indices(s, x, u, rng.random(1))[0])
                for _ in range(500)
            ]
            assert picks.tolist() == one_by_one

    def test_deterministic_under_seed(self):
        _, _, ms = built(3, 0.25, 2)
        s = collapse_to_sets(ms)
        a = sample_query_indices(s, 1, 4, np.random.default_rng(7).random(5))
        b = sample_query_indices(s, 1, 4, np.random.default_rng(7).random(5))
        assert a.tolist() == b.tolist()

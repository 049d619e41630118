import json
import math
import re
from unittest import mock

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
import onoffpriv.scheme as scheme_module
from onoffpriv.scheme import (
    SchemeDistribution,
    TooManyEntries,
    ZeroLikelihoodContext,
    build_scheme,
    collapse_to_sets,
)
from onoffpriv.verify import VERIFY_TOL, check_scheme

from conftest import (
    entries_of,
    float_bits,
    json_slots,
    mass_by_context,
    reference_from_json_obj,
    reference_json_obj,
    sample_query_indices,
    schema1_json_obj,
    scheme_from_entries,
    section_text,
)


def built(n, alpha, delta):
    cond = conditional_table(symmetric_chain(n, alpha), delta)
    profile = theta_profile(cond)
    return cond, profile, build_scheme(profile, cond)


def sizes(s):
    """The download size of every row's query."""
    return np.array([len(members) for members in s.queries])[s.q]


def parsed(s):
    """The document a scheme file section of s parses to."""
    return json.loads(section_text(s))


def bits(column):
    """A column's bytes, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(column).tobytes()


def assert_same_distribution(a, b):
    assert (a.n, a.delta, a.form, a.queries) == (b.n, b.delta, b.form, b.queries)
    for col in ("q", "x", "u", "mass"):
        assert bits(getattr(a, col)) == bits(getattr(b, col))


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

    def test_too_many_rows_are_refused_before_they_are_joined(self, monkeypatch):
        # the symmetric 4-state chain's gap-1 scheme has 116 rows, none
        # merged by the constructor
        cond = conditional_table(symmetric_chain(4, 0.6), 1)
        profile = theta_profile(cond)
        assert build_scheme(profile, cond).entry_count == 116
        joined = mock.Mock(side_effect=AssertionError("the rows were joined"))
        for limit in (0, 20, 115):
            monkeypatch.setattr(scheme_module, "MAX_ENTRIES", limit)
            with mock.patch.object(scheme_module, "SchemeDistribution", joined):
                with pytest.raises(TooManyEntries) as err:
                    build_scheme(profile, cond)
            found = re.fullmatch(
                rf"the scheme needs at least (\d+) rows, above the limit of {limit}",
                str(err.value),
            )
            assert found and limit < int(found[1]) <= 116
        monkeypatch.setattr(scheme_module, "MAX_ENTRIES", 116)
        assert build_scheme(profile, cond).entry_count == 116

    def test_residual_rows_carry_the_tail_mass(self, rng, chain_factory):
        # the leftover residual rows ride on the full query, and each
        # context's leftover sums to theta_n
        cond = conditional_table(chain_factory(rng, 4), 1)
        profile = theta_profile(cond)
        s = build_scheme(profile, cond)
        on_full = s.q == s.queries.index(tuple(range(4)))
        tail = np.bincount(s.u[on_full], weights=s.mass[on_full], minlength=cond.m)
        assert np.allclose(tail, profile.theta[-1], atol=1e-9)
        assert s.mass.min() >= 0.0

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

    def test_every_positive_increment_is_placed(self):
        # this chain has increments below 1e-13; skipping them would leave
        # request x short in the other contexts by up to 1.25e-13
        rows = np.random.default_rng(2).dirichlet(np.full(8, 0.2), size=8)
        cond = conditional_table(TransitionMatrix(rows), 1)
        profile = theta_profile(cond)
        increments = np.diff(profile.lambda_xi[:, :7], axis=1, prepend=0.0)
        assert ((increments > 0.0) & (increments <= 1e-13)).any()
        report = check_scheme(build_scheme(profile, cond), cond, profile, tol=1e-14)
        assert report.passes(), report.max_marginal_error

    @pytest.mark.parametrize("delta", [15, 16])
    def test_increments_below_the_drop_limit_fold_onto_the_full_query(self, delta):
        # near mixing, most increments of this chain lie below
        # MASS_DROP_LIMIT: 544 of 870 at gap 15, 1.6e-10 in all
        rows = np.random.default_rng(15).dirichlet(np.ones(30), size=30)
        cond = conditional_table(TransitionMatrix(rows), delta)
        profile = theta_profile(cond)
        increments = np.diff(profile.lambda_xi[:, :29], axis=1, prepend=0.0)
        tiny = (increments > 0.0) & (increments < scheme_module.MASS_DROP_LIMIT)
        assert tiny.sum() > 100
        s = build_scheme(profile, cond)
        for form in (s, collapse_to_sets(s)):
            report = check_scheme(form, cond, profile, tol=VERIFY_TOL)
            assert report.passes(), form.form
            # skipping the folded increments, or taking them from the
            # supplying rows too, leaves errors above 1e-14
            assert report.max_marginal_error < 5e-15
            assert report.max_privacy_gap < 5e-15

    @settings(max_examples=100, deadline=None)
    @given(
        concentration=hst.sampled_from([0.2, 1.0, 5.0]),
        n=hst.integers(2, 12),
        delta=hst.integers(0, 40),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_every_chain_builds_a_passing_scheme_at_every_gap(
        self, concentration, n, delta, seed
    ):
        rows = np.random.default_rng(seed).dirichlet(np.full(n, concentration), size=n)
        cond = conditional_table(TransitionMatrix(rows), delta)
        profile = theta_profile(cond)
        s = build_scheme(profile, cond)
        for form in (s, collapse_to_sets(s)):
            report = check_scheme(form, cond, profile, tol=VERIFY_TOL)
            assert report.passes(), (form.form, report.max_marginal_error)
            assert report.max_marginal_error < 5e-15, form.form

    @pytest.mark.parametrize(
        "n, concentration, seed, delta",
        [(7, 0.2, 0, 21), (9, 1.0, 2, 20), (10, 1.0, 1, 20), (6, 1.0, 2, 20)],
    )
    def test_increments_are_cut_at_the_exact_row_boundaries(
        self, n, concentration, seed, delta
    ):
        # these chains have supplying-row boundaries within 1e-12 of each
        # other or of an increment's end; a cut placed anywhere but at each
        # exact boundary moves up to 9.7e-13 of mass onto a neighbouring state
        rows = np.random.default_rng(seed).dirichlet(np.full(n, concentration), size=n)
        cond = conditional_table(TransitionMatrix(rows), delta)
        profile = theta_profile(cond)
        s = build_scheme(profile, cond)
        for form in (s, collapse_to_sets(s)):
            report = check_scheme(form, cond, profile, tol=1e-14)
            assert report.passes(), (form.form, report.max_marginal_error)
            assert report.max_marginal_error < 5e-15, form.form

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

    @settings(max_examples=60, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=8),
        delta=hst.integers(min_value=0, max_value=3),
        chain=hst.sampled_from(
            ["dirichlet-0.2", "dirichlet-1", "dirichlet-5", "symmetric"]
        ),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
        block=hst.sampled_from([1, 2, 3, 100]),
    )
    def test_json_round_trip_is_exact(self, n, delta, chain, seed, block):
        # the text parses to the per-row reference document, loads back bit
        # for bit, and does not depend on how many rows go per write
        rng = np.random.default_rng(seed)
        if chain == "symmetric":
            P = symmetric_chain(n, rng.uniform(0.05, 0.95))
        else:
            conc = float(chain.split("-")[1])
            P = TransitionMatrix(rng.dirichlet(np.full(n, conc), size=n))
        try:
            cond = conditional_table(P, delta)
        except ZeroContextProbability:
            assume(False)
        ms = build_scheme(theta_profile(cond), cond)
        for s in (ms, collapse_to_sets(ms)):
            text = section_text(s)
            # a header line, then queries, masses and one line per column
            assert len(text.splitlines()) == 3 + len(scheme_module.COLUMNS)
            assert json.loads(text) == reference_json_obj(s)
            assert_same_distribution(
                SchemeDistribution.from_json_obj(json.loads(text)), s
            )
            with mock.patch.object(scheme_module, "CSV_BLOCK_ROWS", block):
                assert section_text(s) == text

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
        profile = theta_profile(cond)
        ms = build_scheme(profile, cond)
        # each query's download size is the cardinality it was carved at,
        # so the size law holds in every context
        assert check_scheme(ms, cond, profile).max_size_law_error < VERIFY_TOL
        st = collapse_to_sets(ms)
        assert all(len(set(q)) == len(q) for q in st.queries)
        for s in (ms, st):
            assert s.queries == sorted(set(s.queries))
            for q in s.queries:
                assert list(q) == sorted(q) and all(0 <= i < n for i in q)
            doc = parsed(s)
            assert doc["queries"] == [list(q) for q in s.queries]
            assert doc["q"] == s.q.tolist()

    @settings(max_examples=80, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=4),
        form=hst.sampled_from(["multiset", "set"]),
        field=hst.sampled_from(["member", "q", "x", "u0", "u1", "p", "alias"]),
        bad=hst.one_of(
            hst.integers(min_value=-5, max_value=-1),
            hst.integers(min_value=0, max_value=5),
        ),
        pick=hst.integers(min_value=0),
    )
    def test_out_of_range_states_are_rejected(self, n, form, field, bad, pick):
        _, _, ms = built(n, 0.6, 1)
        obj = parsed(ms if form == "multiset" else collapse_to_sets(ms))
        i = pick % len(obj["q"])
        top = {"q": len(obj["queries"]), "p": len(obj["masses"])}.get(field, n)
        if bad >= 0:
            bad += top
        if field == "member":
            # the first query gets a member below it, the last one above
            # it, so that the queries stay in ascending order
            if bad < 0:
                obj["queries"][0].insert(0, bad)
            else:
                obj["queries"][-1].append(bad)
        elif field == "alias":
            # (xtau + 1, xnext - n) flattens to the same row index
            obj["u0"][i] += 1
            obj["u1"][i] -= n
        else:
            obj[field][i] = bad
        with pytest.raises(ValueError, match="out of range"):
            SchemeDistribution.from_json_obj(obj)

    @settings(max_examples=60, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=4),
        delta=hst.integers(min_value=0, max_value=3),
        form=hst.sampled_from(["multiset", "set"]),
        pick=hst.integers(min_value=0),
        mass_pick=hst.integers(min_value=0),
    )
    def test_repeated_rows_are_rejected(self, n, delta, form, pick, mass_pick):
        _, _, ms = built(n, 0.6, delta)
        obj = parsed(ms if form == "multiset" else collapse_to_sets(ms))
        i = pick % len(obj["q"])
        # the same query, request and context, with any mass
        for name in scheme_module.COLUMNS:
            obj[name].append(obj[name][i])
        obj["p"][-1] = mass_pick % len(obj["masses"])
        with pytest.raises(ValueError, match="repeated entry"):
            SchemeDistribution.from_json_obj(obj)

    @settings(max_examples=40, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=4),
        pick=hst.integers(min_value=0),
    )
    def test_repeated_set_members_are_rejected(self, n, pick):
        _, _, ms = built(n, 0.6, 1)
        obj = parsed(collapse_to_sets(ms))
        # repeating the last member keeps the queries in ascending order
        members = obj["queries"][pick % len(obj["queries"])]
        members.append(members[-1])
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
                ids, cum = mass_by_context(s, x, u)
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

    def test_repeated_rows_add_up_in_the_order_given(self):
        # with masses of 1e16 the sum depends on the order, so a sort that
        # reorders the rows of one (q, x, u) changes the merged bits
        rng = np.random.default_rng(1)
        u = rng.integers(0, 4, 200)
        mass = rng.choice([1e16, 1.0, -1e16, 3.0, -3.0], 200)
        zeros = np.zeros(200)
        s = SchemeDistribution(2, 1, "set", [(0,)], zeros, zeros, u, mass)
        want = {}
        for k, p in zip(u.tolist(), mass.tolist()):
            want[k] = want.get(k, 0.0) + p
        assert s.u.tolist() == sorted(want)
        assert bits(s.mass) == bits(np.array([want[k] for k in sorted(want)]))

    def test_rows_out_of_range_are_refused(self):
        # the row key would alias them with rows in range
        for column in range(3):
            cols = [[0], [0], [0]]
            cols[column] = [-1] if column else [1]
            with pytest.raises(ValueError, match="row 0: .* out of range"):
                SchemeDistribution(2, 1, "set", [(0,)], *cols, [0.5])
        with pytest.raises(ValueError, match="row 1: context 4 out of range"):
            SchemeDistribution(2, 1, "set", [(0,)], [0, 0], [0, 0], [3, 4], [1, 1])

    def test_row_key_overflow_is_refused(self):
        # (x n^2 + u) Q + q must fit in an int64
        edge = 2**21 - 1  # edge**3 < 2**63 <= (edge + 1)**3
        s = SchemeDistribution(edge, 1, "set", [(0,)], [0], [edge - 1], [3], [1.0])
        assert s.entry_count == 1
        with pytest.raises(ValueError, match="overflows the row key"):
            SchemeDistribution(edge + 1, 1, "set", [(0,)], [0], [0], [0], [1.0])
        with pytest.raises(ValueError, match="overflows the row key"):
            SchemeDistribution(
                edge, 1, "set", [(0,), (1,)], [0, 1], [0, 0], [0, 0], [1, 1]
            )

    def test_unknown_context_raises(self):
        _, _, s = built(3, 0.6, 0)
        bad_x = 1  # impossible request when the context says x equals 0
        with pytest.raises(ZeroLikelihoodContext):
            mass_by_context(s, bad_x, u_index(0, 0, 3))


JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats()
    | hst.text(max_size=4),
    lambda inner: hst.lists(inner, max_size=3)
    | hst.dictionaries(hst.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestSchemeFile:
    @settings(max_examples=60, deadline=None)
    @given(
        masses=hst.lists(
            hst.sampled_from([5e-324, 1e-300, 0.0, -0.0, -5e-324, 1e300, 1 / 3])
            | hst.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=18,
        ),
        form=hst.sampled_from(["multiset", "set"]),
    )
    def test_extreme_masses_round_trip_bit_for_bit(self, masses, form):
        queries = [(0,), (1,), (0, 1)] + ([(0, 0, 1)] if form == "multiset" else [])
        keys = [(k, x, u) for k in queries for x in (0, 1) for u in range(4)]
        s = scheme_from_entries(2, 1, form, dict(zip(keys, masses)))
        # no rows share a key, so the container keeps every mass, -0.0 too
        assert sorted(map(float_bits, s.mass.tolist())) == sorted(
            map(float_bits, masses)
        )
        text = section_text(s)
        doc = json.loads(text)
        assert doc == reference_json_obj(s)
        # one palette entry per bit pattern: 0.0 and -0.0 stay apart
        assert sorted(map(float_bits, doc["masses"])) == sorted(
            set(map(float_bits, masses))
        )
        assert_same_distribution(SchemeDistribution.from_json_obj(doc), s)

    def test_signed_zeros_get_separate_palette_entries(self):
        s = scheme_from_entries(
            2, 1, "set", {((0,), 0, 0): 0.0, ((0,), 0, 1): -0.0, ((1,), 1, 0): 0.0}
        )
        doc = parsed(s)
        # in the order of the bit patterns as int64: -0.0 is the smallest
        assert [math.copysign(1.0, m) for m in doc["masses"]] == [-1.0, 1.0]
        assert doc["p"] == [1, 0, 1]
        assert_same_distribution(SchemeDistribution.from_json_obj(doc), s)

    @settings(max_examples=300, deadline=None)
    @given(
        form=hst.sampled_from(["multiset", "set"]),
        mutation=hst.sampled_from(
            ["delete", "replace", "wrap", "twin", "swap", "extend", "drop"]
        ),
        pick=hst.integers(min_value=0),
        value=JSON_VALUES | hst.integers(min_value=-1, max_value=3),
    )
    def test_loader_agrees_with_the_per_row_reference(
        self, form, mutation, pick, value
    ):
        # a mutated section of the saved n = 3 file loads exactly when the
        # per-row loader loads it, and gives the same columns
        _, _, ms = built(3, 0.6, 1)
        obj = parsed(ms if form == "multiset" else collapse_to_sets(ms))
        rows = len(obj["q"])
        if mutation == "twin":
            for name in scheme_module.COLUMNS:
                obj[name].append(obj[name][pick % rows])
        elif mutation == "swap":
            i, j = pick % rows, (pick // rows) % rows
            for col in (obj[name] for name in scheme_module.COLUMNS):
                col[i], col[j] = col[j], col[i]
        elif mutation in ("extend", "drop"):
            lists = [node for node, _ in json_slots(obj) if isinstance(node, list)]
            node = lists[pick % len(lists)]
            node.append(value) if mutation == "extend" else node.pop()
        else:
            slots = [
                (node, key) for node, key in json_slots(obj)
                if mutation != "delete" or isinstance(node, dict)
            ]
            node, key = slots[pick % len(slots)]
            if mutation == "delete":
                del node[key]
            elif mutation == "wrap":
                node[key] = [node[key]]
            else:
                node[key] = value
        try:
            want = reference_from_json_obj(obj)
        except (ValueError, KeyError, TypeError, OverflowError):
            want = None
        try:
            got = SchemeDistribution.from_json_obj(obj)
        except (ValueError, OverflowError):
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_distribution(got, want)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda obj: obj.pop("form"), "an object with keys"),
            (lambda obj: obj.pop("schema"), "regenerate the file with `onoffpriv"),
            (lambda obj: obj.__setitem__("q", {}), "q must be a list"),
            (lambda obj: obj["u0"].pop(), "u0 has 47 entries, q has 48"),
            (lambda obj: obj["q"].__setitem__(3, 1.5), "entry 3: q must"),
            (lambda obj: obj["x"].__setitem__(3, True), "entry 3: x must .*got True"),
            (lambda obj: obj["u0"].__setitem__(3, [1]), r"entry 3: u0 must .*\[1\]"),
            (lambda obj: obj["p"].__setitem__(3, 2**64), "entry 3: p must be a 64-bit"),
            (lambda obj: obj["u1"].__setitem__(3, 3), "entry 3: context"),
            (lambda obj: obj["x"].__setitem__(3, 3), "row 3: request"),
            (lambda obj: obj["p"].__setitem__(3, 8), "entry 3: mass"),
            (lambda obj: obj["masses"].__setitem__(1, math.nan), "entry 1: .*nan"),
            (lambda obj: obj["masses"].__setitem__(1, -math.inf), "entry 1: .*-inf"),
            (lambda obj: obj["masses"].__setitem__(1, "0.1"), "entry 1: masses must"),
            (lambda obj: obj["queries"].reverse(), "does not follow"),
            (lambda obj: obj["queries"][1].reverse(), "is not ascending"),
        ],
    )
    def test_malformed_documents_raise_value_errors(self, spoil, message):
        _, _, ms = built(3, 0.6, 1)
        obj = parsed(ms)
        assert (len(obj["q"]), len(obj["masses"])) == (48, 8)
        spoil(obj)
        with pytest.raises(ValueError, match=message):
            SchemeDistribution.from_json_obj(obj)

    @pytest.mark.parametrize("form", ["multiset", "set"])
    def test_schema_1_sections_ask_to_regenerate_the_file(self, form):
        _, _, ms = built(3, 0.6, 1)
        s = ms if form == "multiset" else collapse_to_sets(ms)
        for doc in (schema1_json_obj(s), [parsed(s)], None):
            with pytest.raises(ValueError, match="regenerate the file"):
                SchemeDistribution.from_json_obj(doc)


class TestSampler:
    def test_frequencies_track_masses(self, rng):
        cond, _, ms = built(3, 0.6, 1)
        s = collapse_to_sets(ms)
        x, u = 0, u_index(1, 2, 3)
        ids, cum = mass_by_context(s, x, u)
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

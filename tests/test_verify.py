import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from onoffpriv.bounds import rate_inner, theta_profile
from onoffpriv.markov import (
    TransitionMatrix,
    ZeroContextProbability,
    conditional_table,
    symmetric_chain,
    u_pair,
)
from onoffpriv.scheme import build_scheme, collapse_to_sets
from onoffpriv.verify import DimensionMismatch, check_scheme, expected_cost

from conftest import distribution_cases, entries_of, scheme_from_entries


def reference_check(entries, form, cond, profile):
    """check_scheme's arithmetic as plain loops over a dict of rows
    {(query members, x, u): mass}: the per-query masses, marginals, size
    law, privacy gap and expected cost, for the array checker to match."""
    n, m = cond.n, cond.m
    violations = set()
    query_mass: dict = {}
    marginals = np.zeros((m, n))
    for (qkey, x, u), mass in entries.items():
        if mass <= 0.0:
            violations.add((qkey, x, u_pair(u, n)))
            continue
        if x not in qkey:
            violations.add((qkey, x, u_pair(u, n)))
        row = query_mass.setdefault(qkey, np.zeros(m))
        row[u] += mass
        marginals[u, x] += mass
    gaps = {qkey: row.max() - row.min() for qkey, row in query_mass.items()}
    size_law = None
    if form == "multiset":
        by_size = np.zeros((n + 1, m))
        for qkey, row in query_mass.items():
            by_size[len(qkey)] += row
        size_law = np.abs(by_size[1:] - profile.theta[:, None]).max(axis=1)
    cost = 0.0
    for (qkey, _x, u), mass in entries.items():
        cost += len(qkey) * mass / m
    return {
        "violations": violations,
        "marginal_errors": np.abs(marginals - cond.values),
        "gaps": gaps,
        "size_law": size_law,
        "cost": cost,
    }


def fresh(rng, chain_factory, n=3, delta=1):
    cond = conditional_table(chain_factory(rng, n), delta)
    profile = theta_profile(cond)
    return cond, profile, build_scheme(profile, cond)


class TestCheckScheme:
    def test_constructed_schemes_pass(self, rng, chain_factory):
        for n in (2, 3, 4):
            for delta in (0, 1, 3):
                cond, profile, s = fresh(rng, chain_factory, n, delta)
                report = check_scheme(s, cond, profile)
                assert report.passes(), (n, delta)
                assert report.decodability_violations == []
                assert report.max_privacy_gap < 1e-12
                assert report.max_marginal_error < 1e-12
                assert report.max_size_law_error < 1e-12
                assert abs(report.cost_slack) < 1e-9

    def test_set_form_passes_without_size_law(self, rng, chain_factory):
        cond, profile, ms = fresh(rng, chain_factory)
        report = check_scheme(collapse_to_sets(ms), cond, profile)
        assert report.passes()
        assert report.size_law_errors is None
        assert report.max_size_law_error == 0.0

    def test_moved_mass_breaks_privacy_not_marginals(self, rng, chain_factory):
        cond, profile, ms = fresh(rng, chain_factory)
        s = collapse_to_sets(ms)
        entries = entries_of(s)
        # reroute mass between two queries for one (x, u): marginals hold,
        # the query distribution seen by the server now depends on u
        eps = 1e-5
        full = (0, 1, 2)
        donor = next(
            k for k in entries if k[0] == full and entries[k] > 2 * eps
        )
        _, x, u = donor
        entries[donor] -= eps
        key = ((x,), x, u)
        entries[key] = entries.get(key, 0.0) + eps
        bad = scheme_from_entries(3, 1, "set", entries)
        report = check_scheme(bad, cond, profile)
        assert not report.passes()
        assert report.max_privacy_gap == pytest.approx(eps, rel=1e-6)
        assert report.max_marginal_error < 1e-12

    def test_missing_mass_breaks_marginals(self, rng, chain_factory):
        cond, profile, ms = fresh(rng, chain_factory)
        entries = entries_of(ms)
        key = max(entries, key=entries.get)
        entries[key] -= 1e-5
        bad = scheme_from_entries(3, 1, "multiset", entries)
        report = check_scheme(bad, cond, profile)
        assert not report.passes()
        assert report.max_marginal_error == pytest.approx(1e-5, rel=1e-6)

    def test_request_outside_query_is_a_violation(self, rng, chain_factory):
        cond, profile, ms = fresh(rng, chain_factory)
        s = collapse_to_sets(ms)
        entries = entries_of(s)
        (qkey, x, u), mass = next(iter(entries.items()))
        del entries[(qkey, x, u)]
        other = next(i for i in range(3) if i != x)
        entries[((other,), x, u)] = entries.get(((other,), x, u), 0.0) + mass
        bad = scheme_from_entries(3, 1, "set", entries)
        report = check_scheme(bad, cond, profile)
        assert report.decodability_violations
        assert not report.passes()

    def test_full_download_is_private_but_oversized(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 3), 1)
        profile = theta_profile(cond)
        entries = {
            ((0, 1, 2), x, u): cond.values[u, x]
            for u in range(cond.m)
            for x in range(3)
        }
        s = scheme_from_entries(3, 1, "set", entries)
        report = check_scheme(s, cond, profile)
        # decodable and private at any cost; the set form carries no size
        # pledge, so the only trace is the negative slack
        assert report.passes()
        assert report.expected_cost == pytest.approx(3.0, abs=1e-12)
        assert report.cost_slack < 0

    def test_full_download_fails_the_multiset_size_pledge(
        self, rng, chain_factory
    ):
        cond = conditional_table(chain_factory(rng, 3), 1)
        profile = theta_profile(cond)
        entries = {
            ((0, 1, 2), x, u): cond.values[u, x]
            for u in range(cond.m)
            for x in range(3)
        }
        s = scheme_from_entries(3, 1, "multiset", entries)
        report = check_scheme(s, cond, profile)
        assert not report.passes()
        assert report.max_size_law_error > 0.1

    def test_dimension_mismatch(self, rng, chain_factory):
        cond, profile, s = fresh(rng, chain_factory, 3, 1)
        other = conditional_table(chain_factory(rng, 4), 1)
        with pytest.raises(DimensionMismatch):
            check_scheme(s, other, theta_profile(other))
        cond2 = conditional_table(chain_factory(rng, 3), 2)
        with pytest.raises(DimensionMismatch):
            check_scheme(s, cond2, theta_profile(cond2))

    def test_report_json_is_plain_data(self, rng, chain_factory):
        import json

        cond, profile, s = fresh(rng, chain_factory)
        obj = check_scheme(s, cond, profile).to_json_obj()
        text = json.dumps(obj)
        assert json.loads(text) == obj


    @settings(max_examples=80, deadline=None)
    @given(
        n=hst.integers(min_value=2, max_value=6),
        delta=hst.integers(min_value=0, max_value=3),
        concentration=hst.sampled_from([0.2, 1.0, 5.0]),
        form=hst.sampled_from(["multiset", "set"]),
        damage=hst.sampled_from(["negate", "move", "outside"]),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
        pick=hst.integers(min_value=0),
    )
    def test_agrees_with_the_loop_reference_on_a_damaged_entry(
        self, n, delta, concentration, form, damage, seed, pick
    ):
        rows = np.random.default_rng(seed).dirichlet(np.full(n, concentration), n)
        try:
            cond = conditional_table(TransitionMatrix(rows), delta)
        except ZeroContextProbability:
            assume(False)
        profile = theta_profile(cond)
        ms = build_scheme(profile, cond)
        entries = entries_of(ms if form == "multiset" else collapse_to_sets(ms))
        key = list(entries)[pick % len(entries)]
        qkey, x, u = key
        if damage == "negate":
            entries[key] = -entries[key]
        else:
            # half the mass moves to a one-member query: the request itself,
            # or for "outside" another state, which the request is not in
            member = x if damage == "move" else (x + 1 + pick % (n - 1)) % n
            target = ((member,), x, u)
            if target == key:
                target = (tuple(range(n)), x, u)
            half = entries[key] / 2
            entries[key] -= half
            entries[target] = entries.get(target, 0.0) + half
        bad = scheme_from_entries(n, delta, form, entries)
        report = check_scheme(bad, cond, profile)
        ref = reference_check(entries, form, cond, profile)

        got = {(q, xx, uu) for q, xx, uu in report.decodability_violations}
        assert got == ref["violations"]
        assert np.abs(report.marginal_errors - ref["marginal_errors"]).max() <= 1e-12
        max_gap = max(ref["gaps"].values(), default=0.0)
        assert abs(report.max_privacy_gap - max_gap) <= 1e-12
        if ref["gaps"]:
            worst = tuple(report.worst_privacy["q"])
            assert abs(ref["gaps"][worst] - max_gap) <= 1e-12
        if form == "multiset":
            assert np.abs(report.size_law_errors - ref["size_law"]).max() <= 1e-12
        else:
            assert report.size_law_errors is None
        assert abs(report.expected_cost - ref["cost"]) <= 1e-12


class TestExpectedCost:
    def test_prior_independence_for_private_schemes(self, rng, chain_factory):
        cond, profile, ms = fresh(rng, chain_factory, 4, 2)
        uniform = np.full(cond.m, 1.0 / cond.m)
        skewed = rng.dirichlet(np.full(cond.m, 0.7))
        a = expected_cost(ms, cond, uniform)
        b = expected_cost(ms, cond, skewed)
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(rate_inner(profile), abs=1e-9)

    def test_prior_validation(self, rng, chain_factory):
        cond, _, ms = fresh(rng, chain_factory)
        with pytest.raises(ValueError):
            expected_cost(ms, cond, np.full(5, 0.2))
        with pytest.raises(ValueError):
            expected_cost(ms, cond, np.full(cond.m, 0.5))

    @settings(max_examples=100, deadline=None)
    @given(case=distribution_cases(9))
    def test_prior_must_be_a_finite_distribution(self, case):
        prior, valid = case
        cond = conditional_table(symmetric_chain(3, 0.6), 1)
        profile = theta_profile(cond)
        ms = build_scheme(profile, cond)
        if valid:
            assert expected_cost(ms, cond, prior) == pytest.approx(rate_inner(profile))
        else:
            with pytest.raises(ValueError, match="finite, non-negative"):
                expected_cost(ms, cond, prior)

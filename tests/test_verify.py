import numpy as np
import pytest

from onoffpriv.bounds import rate_inner, theta_profile
from onoffpriv.markov import conditional_table, symmetric_chain
from onoffpriv.scheme import SchemeDistribution, build_scheme, collapse_to_sets
from onoffpriv.verify import DimensionMismatch, check_scheme, expected_cost


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
        entries = dict(s.entries)
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
        bad = SchemeDistribution(n=3, delta=1, form="set", entries=entries)
        report = check_scheme(bad, cond, profile)
        assert not report.passes()
        assert report.max_privacy_gap == pytest.approx(eps, rel=1e-6)
        assert report.max_marginal_error < 1e-12

    def test_missing_mass_breaks_marginals(self, rng, chain_factory):
        cond, profile, ms = fresh(rng, chain_factory)
        entries = dict(ms.entries)
        key = max(entries, key=entries.get)
        entries[key] -= 1e-5
        bad = SchemeDistribution(n=3, delta=1, form="multiset", entries=entries)
        report = check_scheme(bad, cond, profile)
        assert not report.passes()
        assert report.max_marginal_error == pytest.approx(1e-5, rel=1e-6)

    def test_request_outside_query_is_a_violation(self, rng, chain_factory):
        cond, profile, ms = fresh(rng, chain_factory)
        s = collapse_to_sets(ms)
        entries = dict(s.entries)
        (qkey, x, u), mass = next(iter(entries.items()))
        del entries[(qkey, x, u)]
        other = next(i for i in range(3) if i != x)
        entries[((other,), x, u)] = entries.get(((other,), x, u), 0.0) + mass
        bad = SchemeDistribution(n=3, delta=1, form="set", entries=entries)
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
        s = SchemeDistribution(n=3, delta=1, form="set", entries=entries)
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
        s = SchemeDistribution(n=3, delta=1, form="multiset", entries=entries)
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

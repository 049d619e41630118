import numpy as np
import pytest

from onoffpriv.bounds import (
    OutOfRegime,
    WrongArity,
    closed_form_small_alpha,
    closed_form_symmetric,
    closed_form_two_states,
    rate_inner,
    rate_outer,
    theta_profile,
)
from onoffpriv.markov import conditional_table, symmetric_chain


def profile_for(n, alpha, delta):
    return theta_profile(conditional_table(symmetric_chain(n, alpha), delta))


class TestThetaProfile:
    def test_frozen_increments(self):
        # frozen: n=3, alpha=0.6, delta=1 gives (3/11, 0, 8/11)
        prof = profile_for(3, 0.6, 1)
        assert np.allclose(prof.theta, [3 / 11, 0.0, 8 / 11], atol=1e-12)

    def test_increments_form_a_distribution(self, rng, chain_factory):
        for n in (2, 3, 4, 6):
            for delta in (0, 1, 3):
                prof = theta_profile(
                    conditional_table(chain_factory(rng, n), delta)
                )
                assert prof.theta.min() >= 0.0
                assert prof.theta.sum() == pytest.approx(1.0, abs=1e-9)

    def test_row_sums_are_sorted_column_sums(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 4), 2)
        prof = theta_profile(cond)
        # lambda_xi[x, i] is the (i+1)-th smallest likelihood for request x
        expected = np.sort(cond.values, axis=0)
        assert np.allclose(prof.lambda_xi, expected.T, atol=1e-12)
        assert np.allclose(prof.lambda_rows, expected.sum(axis=1), atol=1e-12)

    def test_uniform_chain_downloads_one_message(self):
        prof = profile_for(3, 1 / 3, 2)
        assert np.allclose(prof.theta, [1.0, 0.0, 0.0], atol=1e-12)
        assert rate_inner(prof) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gap_downloads_everything(self, rng, chain_factory):
        prof = theta_profile(conditional_table(chain_factory(rng, 4), 0))
        assert np.allclose(prof.theta, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert rate_inner(prof) == pytest.approx(4.0, abs=1e-12)

    def test_order_is_a_stable_sort_of_each_column(self, rng, chain_factory):
        # ascending likelihood, ties by ascending context index; the
        # symmetric tables tie many contexts exactly
        tables = [conditional_table(symmetric_chain(4, a), 1) for a in (0.25, 0.6)]
        tables += [conditional_table(chain_factory(rng, n), 2) for n in (2, 5)]
        for cond in tables:
            prof = theta_profile(cond)
            values = cond.values.tolist()
            expected = [
                sorted(range(cond.m), key=lambda u: (values[u][x], u))
                for x in range(cond.n)
            ]
            assert prof.order.dtype == np.int64
            assert prof.order.tolist() == expected
            assert prof.lambda_xi.tolist() == [
                [values[u][x] for u in row] for x, row in enumerate(expected)
            ]
            assert prof.order.flags.c_contiguous and prof.lambda_xi.flags.c_contiguous

    def test_duplicate_columns_keep_profile_stable(self):
        # ties everywhere must not produce out-of-range increments
        prof = profile_for(4, 0.25, 3)
        assert prof.theta.min() >= 0.0
        assert prof.theta.sum() == pytest.approx(1.0, abs=1e-12)


class TestRateBounds:
    def test_frozen_asymmetric_regime(self):
        # frozen: n=3, alpha=0.25, delta=1
        prof = profile_for(3, 0.25, 1)
        assert rate_inner(prof) == pytest.approx(1.5974025974025974, abs=1e-9)
        assert rate_outer(prof) == pytest.approx(9 / 7, abs=1e-9)

    def test_frozen_coinciding_regime(self):
        prof = profile_for(3, 0.6, 1)
        assert rate_inner(prof) == pytest.approx(27 / 11, abs=1e-9)
        assert rate_outer(prof) == pytest.approx(27 / 11, abs=1e-9)

    def test_outer_never_exceeds_inner(self, rng, chain_factory):
        for n in (2, 3, 5):
            for delta in (1, 2, 4):
                prof = theta_profile(conditional_table(chain_factory(rng, n), delta))
                assert rate_outer(prof) <= rate_inner(prof) + 1e-9
                assert rate_outer(prof) >= 1.0 - 1e-9

    def test_two_state_bounds_coincide(self, rng, chain_factory):
        for _ in range(10):
            for delta in (1, 2, 3):
                prof = theta_profile(conditional_table(chain_factory(rng, 2), delta))
                assert rate_inner(prof) == pytest.approx(
                    rate_outer(prof), abs=1e-12
                )

    def test_cost_decays_as_the_gap_grows(self):
        # once the self-loop dominates, extra gap can only help
        for n, alpha in ((3, 0.6), (3, 0.9), (4, 0.5)):
            costs = [rate_inner(profile_for(n, alpha, d)) for d in range(1, 11)]
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


class TestClosedForms:
    def test_two_state_matches_profile_routes(self, rng, chain_factory):
        for _ in range(10):
            cond = conditional_table(chain_factory(rng, 2), 2)
            direct = closed_form_two_states(cond)
            prof = theta_profile(cond)
            assert direct == pytest.approx(rate_inner(prof), abs=1e-12)
            assert direct == pytest.approx(rate_outer(prof), abs=1e-12)

    def test_two_state_rejects_other_sizes(self):
        with pytest.raises(WrongArity):
            closed_form_two_states(conditional_table(symmetric_chain(3, 0.5), 1))

    def test_symmetric_form_matches_numeric(self):
        for n in (3, 4, 5):
            for alpha in (1 / n, 0.5, 0.8, 0.999):
                if alpha < 1 / n:
                    continue
                for delta in (1, 2, 3, 4):
                    cf = closed_form_symmetric(n, alpha, delta)
                    prof = profile_for(n, alpha, delta)
                    assert cf == pytest.approx(rate_inner(prof), abs=1e-9)
                    assert cf == pytest.approx(rate_outer(prof), abs=1e-9)

    def test_small_alpha_form_matches_numeric(self):
        for n in (3, 4):
            for alpha in (0.05, 0.15, 1 / n - 1e-3):
                for delta in (1, 2, 3, 4):
                    inv_o, inv_i = closed_form_small_alpha(n, alpha, delta)
                    prof = profile_for(n, alpha, delta)
                    assert inv_i == pytest.approx(rate_inner(prof), abs=1e-9)
                    assert inv_o == pytest.approx(rate_outer(prof), abs=1e-9)

    def test_zero_gap_costs_everything(self):
        assert closed_form_symmetric(3, 0.6, 0) == 3.0
        assert closed_form_small_alpha(3, 0.2, 0) == (3.0, 3.0)

    def test_regime_guards(self):
        with pytest.raises(OutOfRegime):
            closed_form_symmetric(3, 0.2, 1)
        with pytest.raises(OutOfRegime):
            closed_form_small_alpha(3, 0.5, 1)

import itertools

import numpy as np
import pytest
import scipy.linalg

from onoffpriv.bounds import rate_inner, rate_outer, theta_profile
from onoffpriv.lp import (
    Infeasible,
    LpProblem,
    TooLarge,
    all_subsets,
    formulate_lp,
    optimal_rate,
    solve_simplex,
)
from onoffpriv.markov import conditional_table, symmetric_chain
from onoffpriv.scheme import build_scheme, collapse_to_sets

from conftest import entries_of


def enumerate_vertices_minimum(p: LpProblem) -> float:
    """Independent optimum: scan every basic feasible solution.

    Only viable for the 2-state instance, where the column count is tiny.
    """
    A, b, c = p.A, p.b, p.c
    r = np.linalg.matrix_rank(A)
    _, _, piv = scipy.linalg.qr(A.T, pivoting=True)
    rows = piv[:r]
    best = np.inf
    for cols in itertools.combinations(range(A.shape[1]), r):
        M = A[np.ix_(rows, cols)]
        try:
            x_basic = np.linalg.solve(M, b[rows])
        except np.linalg.LinAlgError:
            continue
        if x_basic.min() < -1e-9:
            continue
        x = np.zeros(A.shape[1])
        x[list(cols)] = x_basic
        if np.abs(A @ x - b).max() > 1e-7:
            continue
        best = min(best, float(c @ x))
    return best


class TestFormulation:
    def test_subset_enumeration(self):
        subs = all_subsets(3)
        assert len(subs) == 7
        assert subs[0] == (0,)
        assert subs[-1] == (0, 1, 2)

    def test_problem_dimensions(self):
        sizes = {2: (19, 20), 3: (115, 90), 4: (527, 304)}
        for n, (nvars, nrows) in sizes.items():
            cond = conditional_table(symmetric_chain(n, 0.5), 1)
            p = formulate_lp(cond)
            assert (len(p.var_keys), len(p.row_keys)) == (nvars, nrows)

    def test_too_many_states(self):
        cond = conditional_table(symmetric_chain(6, 0.5), 1)
        with pytest.raises(TooLarge):
            formulate_lp(cond)

    def test_constraint_rows_encode_the_table(self, rng, chain_factory):
        # read each row through the keys: a marginal row sums the joint
        # masses of one (x, u) over every query holding x; a tie row sums
        # one query's masses at u and subtracts its shared probability
        for n in (2, 3, 4, 5):
            cond = conditional_table(chain_factory(rng, n), 1)
            p = formulate_lp(cond)
            assert p.A.shape == (len(p.row_keys), len(p.var_keys))
            for i, key in enumerate(p.row_keys):
                if key[0] == "marginal":
                    _, x, u = key
                    want = {
                        k: 1.0 for k in p.var_keys
                        if k[0] == "a" and k[2:] == (x, u)
                    }
                    assert len(want) == 2 ** (n - 1)
                    assert p.b[i] == cond.values[u, x]
                else:
                    _, q, u = key
                    want = {("a", q, x, u): 1.0 for x in q}
                    want[("s", q)] = -1.0
                    assert p.b[i] == 0.0
                cols = np.flatnonzero(p.A[i])
                assert {p.var_keys[j]: p.A[i, j] for j in cols} == want
            n_marginal = sum(key[0] == "marginal" for key in p.row_keys)
            assert n_marginal == n * cond.m
            assert np.array_equal(
                p.b[:n_marginal].reshape(n, cond.m), cond.values.T
            )
            assert p.c.tolist() == [
                0.0 if k[0] == "a" else float(len(k[1])) for k in p.var_keys
            ]


class TestSimplex:
    def test_uniform_chain_costs_one(self):
        cond = conditional_table(symmetric_chain(3, 1 / 3), 2)
        sol = solve_simplex(formulate_lp(cond))
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.status == "optimal"

    def test_two_state_optimum_is_the_closed_form(self, rng, chain_factory):
        for _ in range(20):
            delta = int(rng.integers(1, 6))
            cond = conditional_table(chain_factory(rng, 2), delta)
            sol = solve_simplex(formulate_lp(cond))
            prof = theta_profile(cond)
            assert sol.value == pytest.approx(rate_outer(prof), abs=1e-7)

    def test_matches_exhaustive_vertex_scan(self, rng, chain_factory):
        for _ in range(3):
            cond = conditional_table(chain_factory(rng, 2), 1)
            p = formulate_lp(cond)
            brute = enumerate_vertices_minimum(p)
            sol = solve_simplex(p)
            assert sol.value == pytest.approx(brute, abs=1e-7)

    def test_solution_is_primal_feasible(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 3), 2)
        p = formulate_lp(cond)
        sol = solve_simplex(p)
        x = np.zeros(len(p.var_keys))
        key_pos = {k: i for i, k in enumerate(p.var_keys)}
        for key, val in sol.primal.items():
            x[key_pos[key]] = val
        assert np.abs(p.A @ x - p.b).max() < 1e-7
        assert x.min() >= -1e-10
        assert p.c @ x == pytest.approx(sol.value, abs=1e-9)

    def test_value_sits_between_the_bounds(self, rng, chain_factory):
        for n in (2, 3, 4, 5):
            for delta in (1, 2):
                cond = conditional_table(chain_factory(rng, n), delta)
                prof = theta_profile(cond)
                sol = solve_simplex(formulate_lp(cond))
                assert rate_outer(prof) - 1e-8 <= sol.value
                assert sol.value <= rate_inner(prof) + 1e-8

    def test_constructed_scheme_is_a_feasible_point(self, rng, chain_factory):
        # the construction's set form satisfies every LP row, so its cost
        # can never undercut the LP optimum
        cond = conditional_table(chain_factory(rng, 3), 1)
        prof = theta_profile(cond)
        s = collapse_to_sets(build_scheme(prof, cond))
        p = formulate_lp(cond)
        key_pos = {k: i for i, k in enumerate(p.var_keys)}
        x = np.zeros(len(p.var_keys))
        entries = entries_of(s)
        for (qkey, xx, u), mass in entries.items():
            x[key_pos[("a", qkey, xx, u)]] = mass
        for qkey in all_subsets(3):
            # tie value taken at context 0; privacy makes every context agree
            total = sum(entries.get((qkey, xx, 0), 0.0) for xx in qkey)
            x[key_pos[("s", qkey)]] = total
        assert np.abs(p.A @ x - p.b).max() < 1e-9
        cost = float(p.c @ x)
        sol = solve_simplex(p)
        assert cost >= sol.value - 1e-8

    def test_infeasible_system_is_reported(self):
        p = LpProblem(
            c=np.array([1.0]),
            A=np.array([[1.0], [1.0]]),
            b=np.array([1.0, 2.0]),
            var_keys=[("s", (0,))],
            row_keys=[("marginal", 0, 0), ("marginal", 0, 1)],
        )
        with pytest.raises(Infeasible):
            solve_simplex(p)

    def test_optimal_rate_inverts_the_cost(self, rng, chain_factory):
        cond = conditional_table(chain_factory(rng, 2), 1)
        rate = optimal_rate(cond)
        sol = solve_simplex(formulate_lp(cond))
        assert rate == pytest.approx(1.0 / sol.value, abs=1e-12)

import dataclasses
import itertools
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy.optimize import linprog

import onoffpriv.lp
from onoffpriv.bounds import rate_inner, rate_outer, theta_profile
from onoffpriv.cli import main
from onoffpriv.lp import (
    IterationLimit,
    TooLarge,
    all_subsets,
    formulate_lp,
    solve_simplex,
)
from onoffpriv.markov import (
    ConditionalTable,
    TransitionMatrix,
    ZeroContextProbability,
    conditional_table,
    symmetric_chain,
)
from onoffpriv.scheme import SchemeDistribution, build_scheme, collapse_to_sets
from onoffpriv.verify import VERIFY_TOL, check_scheme, expected_cost

from conftest import entries_of, full_point, full_program


# The reference solve: HiGHS's defaults allow a row to miss by up to 1e-7
# (1.7e-8 on a Dirichlet(0.2) chain at n = 3), and presolve off with tight
# tolerances makes it return an exact vertex.
HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def enumerate_vertices_minimum(p) -> float:
    """Independent optimum: scan every basic feasible solution of an
    equality-form program.

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


def shared_masses(p, s) -> np.ndarray:
    """The s(q) of a set-form distribution, each query's mass in context 0,
    in the columns of p."""
    shared = dict.fromkeys(p.var_keys, 0.0)
    for (q, _, u), mass in entries_of(s).items():
        if u == 0 and ("s", q) in shared:
            shared["s", q] += mass
    return np.array(list(shared.values()))


@hst.composite
def lp_cases(draw):
    """A likelihood table at n = 2..5 and gap 0..4, of a Dirichlet(0.2, 1
    or 5) chain or of a symmetric chain, whose contexts tie."""
    n = draw(hst.integers(2, 5))
    delta = draw(hst.integers(0, 4))
    if draw(hst.booleans()):
        P = symmetric_chain(n, draw(hst.sampled_from([1 / n, 0.3, 0.5, 0.8, 0.95])))
    else:
        conc = draw(hst.sampled_from([0.2, 1.0, 5.0]))
        rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
        P = TransitionMatrix(rng.dirichlet(np.full(n, conc), size=n))
    try:
        return conditional_table(P, delta)
    except ZeroContextProbability:
        assume(False)


class TestFormulation:
    def test_subset_enumeration(self):
        subs = all_subsets(3)
        assert len(subs) == 7
        assert subs[0] == (0,)
        assert subs[-1] == (0, 1, 2)

    def test_problem_dimensions(self):
        # the reduced program has a column per query and a row per request
        # set, the full one excepted, and the total row; the full program it
        # replaced is pinned too
        full_sizes = {2: (19, 20), 3: (115, 90), 4: (527, 304), 5: (2031, 900)}
        for n, full_size in full_sizes.items():
            cond = conditional_table(symmetric_chain(n, 0.5), 1)
            p = formulate_lp(cond)
            assert (len(p.var_keys), len(p.row_keys)) == (2**n - 2, 2**n - 1)
            assert p.A.shape == (2**n - 1, 2**n - 2)
            full = full_program(cond)
            assert (len(full.var_keys), len(full.row_keys)) == full_size

    def test_too_many_states(self):
        cond = conditional_table(symmetric_chain(6, 0.5), 1)
        with pytest.raises(TooLarge):
            formulate_lp(cond)

    def test_constraint_rows_encode_the_table(self, rng, chain_factory):
        # read each row through the keys: a floor row sums the shared masses
        # of the queries inside its request set, against that set's least
        # mass over the contexts; the total row sums every shared mass
        for n in (2, 3, 4, 5):
            cond = conditional_table(chain_factory(rng, n), 1)
            p = formulate_lp(cond)
            proper = all_subsets(n)[:-1]
            assert p.var_keys == [("s", q) for q in proper]
            assert p.row_keys == [("floor", t) for t in proper] + [("total",)]
            assert p.A.shape == (len(p.row_keys), len(p.var_keys))
            for i, key in enumerate(p.row_keys):
                if key[0] == "floor":
                    t = set(key[1])
                    want = {k: 1.0 for k in p.var_keys if set(k[1]) <= t}
                    floor = min(
                        sum(cond.values[u, x] for x in t) for u in range(cond.m)
                    )
                    assert p.b[i] == pytest.approx(floor, abs=1e-15)
                else:
                    want = {k: 1.0 for k in p.var_keys}
                    assert p.b[i] == 1.0
                cols = np.flatnonzero(p.A[i])
                assert {p.var_keys[j]: p.A[i, j] for j in cols} == want
            assert p.c.tolist() == [float(n - len(k[1])) for k in p.var_keys]

    def test_a_floor_below_zero_is_taken_as_zero(self):
        # rounding may leave a likelihood just below 0, and a negative floor
        # would make the slack basis infeasible
        values = np.array([[-1e-16, 1 + 1e-16], [0.5, 0.5], [0.5, 0.5], [0.3, 0.7]])
        p = formulate_lp(ConditionalTable(n=2, delta=1, values=values))
        assert p.b.tolist() == [0.0, 0.5, 1.0]
        assert solve_simplex(p).value == pytest.approx(1.5, abs=1e-15)

    def test_full_program_rows_encode_the_table(self, rng, chain_factory):
        # the reference program, read through its keys: a marginal row sums
        # the joint masses of one (x, u) over every query holding x; a tie
        # row sums one query's masses at u and subtracts its shared mass
        for n in (2, 3, 4):
            cond = conditional_table(chain_factory(rng, n), 1)
            p = full_program(cond)
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
            assert p.c.tolist() == [
                0.0 if k[0] == "a" else float(len(k[1])) for k in p.var_keys
            ]


class TestSimplex:
    def test_uniform_chain_costs_one(self):
        cond = conditional_table(symmetric_chain(3, 1 / 3), 2)
        sol = solve_simplex(formulate_lp(cond))
        assert sol.value == pytest.approx(1.0, abs=1e-9)

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
            brute = enumerate_vertices_minimum(full_program(cond))
            sol = solve_simplex(formulate_lp(cond))
            assert sol.value == pytest.approx(brute, abs=1e-7)

    def test_solution_is_primal_feasible(self, rng, chain_factory):
        # the point meets the reduced rows, and, with its per-context
        # masses, every row of the full program at the same cost
        for n in (2, 3, 4, 5):
            cond = conditional_table(chain_factory(rng, n), 2)
            p = formulate_lp(cond)
            sol = solve_simplex(p)
            s = shared_masses(p, sol.scheme)
            assert (p.A @ s - p.b).max() < 1e-9
            assert n - p.c @ s == pytest.approx(sol.value, abs=1e-12)
            full = full_program(cond)
            x = full_point(full, sol.scheme)
            assert np.abs(full.A @ x - full.b).max() < 1e-9
            assert x.min() >= 0.0
            assert full.c @ x == pytest.approx(sol.value, abs=1e-9)

    def test_value_sits_between_the_bounds(self, rng, chain_factory):
        for n in (2, 3, 4, 5):
            for delta in (1, 2):
                cond = conditional_table(chain_factory(rng, n), delta)
                prof = theta_profile(cond)
                sol = solve_simplex(formulate_lp(cond))
                assert rate_outer(prof) - 1e-8 <= sol.value
                assert sol.value <= rate_inner(prof) + 1e-8

    def test_constructed_scheme_is_a_feasible_point(self, rng, chain_factory):
        # the construction's set form satisfies every row of both programs,
        # so its cost can never undercut the LP optimum
        cond = conditional_table(chain_factory(rng, 3), 1)
        prof = theta_profile(cond)
        setform = collapse_to_sets(build_scheme(prof, cond))
        entries = entries_of(setform)
        # shared masses taken at context 0; privacy makes every context agree
        shared = {
            q: sum(entries.get((q, x, 0), 0.0) for x in q) for q in all_subsets(3)
        }
        p = formulate_lp(cond)
        s = np.array([shared[k[1]] for k in p.var_keys])
        assert (p.A @ s - p.b).max() < 1e-9
        assert sum(shared.values()) == pytest.approx(1.0, abs=1e-9)
        full = full_program(cond)
        x = full_point(full, setform)
        assert np.abs(full.A @ x - full.b).max() < 1e-9
        sol = solve_simplex(p)
        assert 3 - p.c @ s >= sol.value - 1e-8
        assert full.c @ x >= sol.value - 1e-8

    def test_negative_right_hand_side_is_refused(self):
        # the slack basis is the simplex's only start, so it must be feasible
        p = formulate_lp(conditional_table(symmetric_chain(3, 0.6), 1))
        for bad in (-1e-3, np.nan):
            b = p.b.copy()
            b[2] = bad
            with pytest.raises(ValueError, match="right-hand side"):
                solve_simplex(dataclasses.replace(p, b=b))

    def test_pivot_cap_raises_iteration_limit(self, monkeypatch):
        p = formulate_lp(conditional_table(symmetric_chain(4, 0.1), 1))
        assert solve_simplex(p).iterations > 2
        monkeypatch.setattr(onoffpriv.lp, "MAX_PIVOTS", 2)
        with pytest.raises(IterationLimit):
            solve_simplex(p)

    def test_optimal_rate_inverts_the_cost(self, rng, chain_factory, tmp_path):
        # the rate the lp command reports is the inverse of the LP optimum
        P = chain_factory(rng, 2)
        out = tmp_path / "lp.json"
        spec = json.dumps({"rows": P.entries.tolist()})
        assert main(["lp", "--chain", spec, "--delta", "1", "--out", str(out)]) == 0
        rate = json.loads(out.read_text())["optimal_rate"]
        sol = solve_simplex(formulate_lp(conditional_table(P, 1)))
        assert rate == pytest.approx(1.0 / sol.value, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(cond=lp_cases())
    def test_matches_highs_on_the_full_program(self, cond):
        full = full_program(cond)
        res = linprog(
            full.c, A_eq=full.A, b_eq=full.b, method="highs-ds",
            options=HIGHS_OPTIONS,
        )
        assert res.status == 0, res.message
        assert np.abs(full.A @ res.x - full.b).max() < 1e-9
        sol = solve_simplex(formulate_lp(cond))
        assert sol.value == pytest.approx(res.fun, abs=1e-9)
        x = full_point(full, sol.scheme)
        assert np.abs(full.A @ x - full.b).max() < 1e-9
        assert full.c @ x == pytest.approx(sol.value, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lp_file_passes_verify_scheme(self, n, rng, chain_factory, tmp_path):
        # the set section that lp writes is the solver's point, column for
        # column, and verify --scheme reads and passes it
        P = chain_factory(rng, n)
        chain = ["--chain", json.dumps({"rows": P.entries.tolist()}), "--delta", "1"]
        out = tmp_path / "lp.json"
        assert main(["lp", *chain, "--out", str(out)]) == 0
        report = tmp_path / "report.json"
        argv = ["verify", *chain, "--scheme", str(out), "--out", str(report)]
        assert main(argv) == 0
        loaded = SchemeDistribution.from_json_obj(json.loads(out.read_text())["set"])
        s = solve_simplex(formulate_lp(conditional_table(P, 1))).scheme
        assert (loaded.n, loaded.delta, loaded.form) == (n, 1, "set")
        assert loaded.queries == s.queries
        for col in ("q", "x", "u", "mass"):
            assert getattr(loaded, col).tobytes() == getattr(s, col).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lp_point_passes_the_independent_checker(self, n, rng, chain_factory):
        # the per-context masses, as a set-form scheme, pass every check of
        # verify.py, and cost what the LP says
        for delta in (0, 1, 3):
            cond = conditional_table(chain_factory(rng, n), delta)
            sol = solve_simplex(formulate_lp(cond))
            s = sol.scheme
            report = check_scheme(s, cond, theta_profile(cond), tol=VERIFY_TOL)
            assert report.passes(), report.to_json_obj()
            prior = np.full(cond.m, 1.0 / cond.m)
            assert expected_cost(s, cond, prior) == pytest.approx(sol.value, abs=1e-9)

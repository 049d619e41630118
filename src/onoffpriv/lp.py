"""Exact optimal download cost via linear programming, for small n.

The optimal private query distribution solves

    minimize    sum_q |q| * s(q)
    subject to  sum_{q containing x} a(q, x, u) = p(x | u)   for all x, u
                sum_{x in q} a(q, x, u) - s(q) = 0           for all q, u
                a, s >= 0

where a(q, x, u) = p(x, q | u) ranges over subset queries q that contain x,
and s(q) is the common value of p(q | u) forced by privacy. Variables with
x outside q are never instantiated. The program has on the order of
n^3 * 2^n variables, which is why it is only solved for n <= 5; the
construction in scheme.py exists precisely because this does not scale.

The program is handed to scipy's HiGHS dual simplex. The returned point is
not taken on trust: it is re-checked for sign and for the residual of every
constraint before a value is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onoffpriv.markov import ConditionalTable

MAX_STATES = 5
NONNEG_TOL = 1e-10
RESIDUAL_TOL = 1e-8
PRIMAL_ZERO_TOL = 1e-12
# Presolve off and tight tolerances make HiGHS return an exact vertex; with
# its defaults, postsolve can hand back entries near -1e-7 that the sign
# check in solve_simplex rejects.
HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class TooLarge(ValueError):
    """The chain has too many states for the exact LP to stay tractable."""


class IterationLimit(RuntimeError):
    """The solver stopped at its iteration limit without an optimum."""


class Infeasible(RuntimeError):
    """The solver found the equality constraints unsatisfiable.

    Downloading everything is always a feasible private scheme, so this can
    only mean the problem matrix was built wrong.
    """


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Equality-form LP: minimize c @ v subject to A @ v = b, v >= 0.

    var_keys annotates each column: ("a", q, x, u) for joint query mass or
    ("s", q) for shared query probability, with q a sorted member tuple.
    row_keys annotates each row: ("marginal", x, u) or ("tie", q, u).
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    var_keys: list
    row_keys: list


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Optimal point of an LpProblem.

    value is the optimal expected query size (an inverse rate). primal maps
    the semantic key of every variable above PRIMAL_ZERO_TOL to its value.
    status is "optimal" whenever the solver returns instead of raising; the
    other states ("infeasible", "iteration-limit") surface as exceptions and
    the field exists so serialized records can carry them.
    """

    value: float
    primal: dict
    status: str
    iterations: int

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "status": self.status,
            "iterations": self.iterations,
            "primal": [
                {"key": _key_to_json(k), "value": v}
                for k, v in sorted(self.primal.items(), key=lambda kv: str(kv[0]))
            ],
        }


def _key_to_json(key: tuple):
    if key[0] == "a":
        _, q, x, u = key
        return {"kind": "a", "q": list(q), "x": x, "u": u}
    return {"kind": "s", "q": list(key[1])}


def all_subsets(n: int) -> list[tuple]:
    """Nonempty subsets of range(n) as sorted tuples, in bitmask order."""
    return [
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)
    ]


def formulate_lp(cond: ConditionalTable) -> LpProblem:
    """Build the exact-cost LP for one likelihood table.

    Queries are the bitmasks 1 .. 2^n - 1. Each (query, member) pair k, in
    bitmask order and then ascending member, owns the columns k*m + u; the
    s(q) columns follow. The marginal row of (x, u) is x*m + u and the tie
    row of query index i is (n + i)*m + u.

    Raises:
        TooLarge: n exceeds 5 and the dense program would be unreasonable.
    """
    n, m = cond.n, cond.m
    if n > MAX_STATES:
        raise TooLarge(f"exact LP limited to n <= {MAX_STATES}, got n={n}")
    subsets = all_subsets(n)
    bits = np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1
    pair_q, pair_x = np.nonzero(bits)
    n_q, n_a, ctx = len(subsets), len(pair_q) * m, np.arange(m)
    a_cols = np.arange(len(pair_q))[:, None] * m + ctx
    s_q = np.arange(n_q)[:, None]

    A = np.zeros(((n + n_q) * m, n_a + n_q))
    A[pair_x[:, None] * m + ctx, a_cols] = 1.0
    A[(n + pair_q)[:, None] * m + ctx, a_cols] = 1.0
    A[(n + s_q) * m + ctx, n_a + s_q] = -1.0
    b = np.concatenate([cond.values.T.ravel(), np.zeros(n_q * m)])
    c = np.concatenate([np.zeros(n_a), bits.sum(axis=1, dtype=float)])

    var_keys = [
        ("a", subsets[q], x, u)
        for q, x in zip(pair_q.tolist(), pair_x.tolist()) for u in range(m)
    ] + [("s", q) for q in subsets]
    row_keys = [("marginal", x, u) for x in range(n) for u in range(m)] + [
        ("tie", q, u) for q in subsets for u in range(m)
    ]
    return LpProblem(c=c, A=A, b=b, var_keys=var_keys, row_keys=row_keys)


def solve_simplex(p: LpProblem) -> LpSolution:
    """Solve the LP with scipy's HiGHS dual simplex, then re-check the point.

    Raises:
        Infeasible: the solver proves the constraints unsatisfiable.
        IterationLimit: the solver stops at its iteration limit.
        ArithmeticError: any other solver failure, or a returned point that
            is negative or misses a constraint by more than the tolerances.
    """
    # imported here, so that only a caller that solves pays for loading it
    from scipy.optimize import linprog

    res = linprog(
        p.c, A_eq=p.A, b_eq=p.b, bounds=(0, None), method="highs-ds",
        options=HIGHS_OPTIONS,
    )
    if res.status == 2:
        raise Infeasible(res.message)
    if res.status == 1:
        raise IterationLimit(res.message)
    if res.status != 0:
        raise ArithmeticError(f"linprog status {res.status}: {res.message}")

    x = res.x
    if x.min() < -NONNEG_TOL:
        raise ArithmeticError(f"negative primal value {x.min():g}")
    residual = float(np.abs(p.A @ x - p.b).max())
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(f"constraint residual {residual:g}")

    value = float(p.c @ x)
    primal = {
        p.var_keys[k]: float(x[k]) for k in np.nonzero(x > PRIMAL_ZERO_TOL)[0]
    }
    return LpSolution(
        value=value, primal=primal, status="optimal", iterations=int(res.nit)
    )


def optimal_rate(cond: ConditionalTable) -> float:
    """Exact optimal download rate (messages recovered per message sent).

    The inverse of the LP optimum; errors from the formulation and the
    solver propagate.
    """
    sol = solve_simplex(formulate_lp(cond))
    return 1.0 / sol.value

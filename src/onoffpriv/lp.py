"""Exact optimal download cost via linear programming, for small n.

The optimal private query distribution solves the full program

    minimize    sum_q |q| * s(q)
    subject to  sum_{q containing x} a(q, x, u) = p(x | u)   for all x, u
                sum_{x in q} a(q, x, u) = s(q)               for all q, u
                a, s >= 0

where a(q, x, u) = p(x, q | u) ranges over subset queries q that contain x,
and s(q) is the common value of p(q | u) forced by privacy. For fixed s, the
rows of one context u ask for a flow that carries each query's mass s(q) to
the requests x in q and meets the demands p(x | u). By Gale's supply-demand
theorem (D. Gale, "A theorem on flows in networks", Pacific J. Math. 1957)
that flow exists exactly when the queries inside any request set T fit in
T's smallest mass over the contexts, its floor:

    sum_{q inside T} s(q) <= floor(T) = min_u sum_{x in T} p(x | u).

So the a(q, x, u) drop out. Writing s([n]) = 1 - sum of the other s(q)
leaves a program over the 2^n - 2 other queries,

    maximize    sum_{q != [n]} (n - |q|) * s(q)
    subject to  sum_{q inside T} s(q) <= floor(T)   for every proper nonempty T
                sum_{q != [n]} s(q) <= 1,   s >= 0,

whose optimal cost is n minus its maximum. Every right-hand side is
nonnegative, so the slack basis, which downloads everything, is a feasible
start: the program can be neither infeasible nor unbounded. A dense tableau
simplex with Bland's lowest-index rule (R. G. Bland, "New finite pivoting
rules for the simplex method", Math. Oper. Res. 1977) solves it.

The answer is not taken on trust. The simplex's dual certificate is checked
against the program's own rows. Each context's a(q, x, u) is then recovered
by the same simplex, as a maximum flow that must carry all of the mass, and
the assembled (a, s) point is checked against every row of the full program.
The point is a set-form SchemeDistribution of the a(q, x, u), the format
`onoffpriv scheme` writes; s(q) is one context's sum of the masses of q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onoffpriv.markov import ConditionalTable
from onoffpriv.scheme import SchemeDistribution

MAX_STATES = 5
NONNEG_TOL = 1e-10
RESIDUAL_TOL = 1e-8
PRIMAL_ZERO_TOL = 1e-12
# a tableau entry this close to 0 is never a pivot, and a reduced cost this
# close to 0 never enters: both are rounding of a 0
PIVOT_TOL = 1e-9
# Bland's rule cannot cycle, so the cap only stops a tableau that rounding
# has broken; the largest program, at n = 5, takes a few dozen pivots
MAX_PIVOTS = 10_000


class TooLarge(ValueError):
    """The chain has too many states for the exact LP to stay tractable."""


class IterationLimit(RuntimeError):
    """The simplex stopped at its pivot cap without an optimum."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """The program over shared query masses: maximize c @ v subject to
    A @ v <= b, v >= 0; the optimal cost is cond.n minus the maximum.

    var_keys annotates each column: ("s", q) for every query q other than
    the full one, as a sorted member tuple. row_keys annotates each row:
    ("floor", T) for every proper nonempty request set T, then ("total",).
    cond is the likelihood table the per-context masses are recovered from.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    var_keys: list
    row_keys: list
    cond: ConditionalTable


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Optimal point of an LpProblem.

    value is the optimal expected query size (an inverse rate). scheme is
    the full program's point as a set-form SchemeDistribution over the
    queries all_subsets(n): every a(q, x, u) above PRIMAL_ZERO_TOL.
    iterations counts the pivots of the program over shared masses. The
    pivot cap surfaces as IterationLimit, so a returned solution is optimal.
    """

    value: float
    scheme: SchemeDistribution
    iterations: int


def all_subsets(n: int) -> list[tuple]:
    """Nonempty subsets of range(n) as sorted tuples, in bitmask order."""
    return [
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)
    ]


def _member_bits(n: int) -> np.ndarray:
    """bits[i, x] = 1 when state x belongs to the subset with bitmask i + 1."""
    return np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1


def formulate_lp(cond: ConditionalTable) -> LpProblem:
    """Build the program over shared query masses for one likelihood table.

    Queries and request sets are both the bitmasks 1 .. 2^n - 2, in order;
    column q of row T is 1 when q lies inside T, and the total row is all 1.
    A floor that rounding leaves below 0 is taken as 0.

    Raises:
        TooLarge: n exceeds MAX_STATES, beyond which recovering the
            per-context masses stops being quick.
    """
    n = cond.n
    if n > MAX_STATES:
        raise TooLarge(f"exact LP limited to n <= {MAX_STATES}, got n={n}")
    masks = np.arange(1, (1 << n) - 1)
    bits = _member_bits(n)[:-1]
    inside = (masks[None, :] & ~masks[:, None]) == 0
    A = np.vstack([inside, np.ones(len(masks))]).astype(float)
    floor = np.maximum((cond.values @ bits.T).min(axis=0), 0.0)
    b = np.append(floor, 1.0)
    c = (n - bits.sum(axis=1)).astype(float)
    proper = all_subsets(n)[:-1]
    return LpProblem(
        c=c, A=A, b=b, var_keys=[("s", q) for q in proper],
        row_keys=[("floor", t) for t in proper] + [("total",)], cond=cond,
    )


def _simplex(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Maximize c @ v subject to A @ v <= b, v >= 0, for b >= 0: the optimal
    v and the pivot count.

    The tableau starts from the slack basis. Bland's rule enters the lowest
    column with a positive reduced cost and, among the rows tied in the
    ratio test, leaves the one whose basic variable has the lowest index.

    Raises:
        IterationLimit: the pivots reach MAX_PIVOTS.
        ArithmeticError: a column can grow without bound, or the optimum
            fails its certificate: v >= 0 and A @ v <= b, the duals y read
            off the slack columns with y >= 0 and y @ A >= c, and
            y @ b = c @ v, each within NONNEG_TOL or RESIDUAL_TOL.
    """
    rows, cols = A.shape
    tab = np.zeros((rows + 1, cols + rows + 1))
    tab[:rows, :cols] = A
    tab[:rows, cols:-1] = np.eye(rows)
    tab[:rows, -1] = b
    tab[-1, :cols] = -c
    basis = np.arange(cols, cols + rows)
    pivots = 0
    while True:
        entering = np.flatnonzero(tab[-1, :-1] < -PIVOT_TOL)
        if not entering.size:
            break
        if pivots == MAX_PIVOTS:
            raise IterationLimit(f"no optimum after {MAX_PIVOTS} pivots")
        j = entering[0]
        rising = np.flatnonzero(tab[:rows, j] > PIVOT_TOL)
        if not rising.size:
            raise ArithmeticError(f"column {j} is unbounded")
        ratios = tab[rising, -1] / tab[rising, j]
        tied = rising[ratios == ratios.min()]
        i = tied[basis[tied].argmin()]
        tab[i] /= tab[i, j]
        factors = tab[:, j].copy()
        factors[i] = 0.0
        tab -= np.outer(factors, tab[i])
        basis[i] = j
        pivots += 1

    v = np.zeros(cols + rows)
    v[basis] = tab[:rows, -1]
    v = v[:cols]
    y = tab[-1, cols:-1]
    if v.min() < -NONNEG_TOL or (A @ v - b).max() > RESIDUAL_TOL:
        raise ArithmeticError("simplex point leaves the feasible region")
    if y.min() < -NONNEG_TOL or (c - y @ A).max() > RESIDUAL_TOL:
        raise ArithmeticError("simplex duals are infeasible")
    gap = abs(float(y @ b - c @ v))
    if gap > RESIDUAL_TOL:
        raise ArithmeticError(f"simplex point and duals differ in value by {gap:g}")
    return np.maximum(v, 0.0), pivots


def solve_simplex(p: LpProblem) -> LpSolution:
    """Solve the program over shared masses, then recover and re-check the
    full program's point.

    Each context u gets the flow that maximizes sum a(q, x, u) subject to
    sum_{q containing x} a <= p(x | u), sum_{x in q} a <= s(q) and a >= 0,
    solved by the same simplex; the flow must reach 1. The assembled (a, s)
    must then meet every marginal and tie row of the full program within
    RESIDUAL_TOL.

    Raises:
        ValueError: a right-hand side is negative, so the slack basis is not
            a feasible start.
        IterationLimit: a simplex reaches its pivot cap.
        ArithmeticError: a certificate fails, a flow falls short of 1, or the
            assembled point misses a row of the full program.
    """
    if not (p.b >= 0.0).all():
        raise ValueError("every right-hand side must be nonnegative")
    s, iterations = _simplex(p.c, p.A, p.b)
    cond = p.cond
    n, m = cond.n, cond.m
    s_all = np.append(s, max(1.0 - s.sum(), 0.0))

    # columns are the (query, member) pairs in bitmask order, then ascending
    # member; rows are the members' demands, then the queries' supplies
    pair_q, pair_x = np.nonzero(_member_bits(n))
    flow = np.zeros((n + len(s_all), len(pair_q)))
    flow[pair_x, np.arange(len(pair_q))] = 1.0
    flow[n + pair_q, np.arange(len(pair_q))] = 1.0
    ones = np.ones(len(pair_q))
    a = np.empty((m, len(pair_q)))
    for u in range(m):
        a[u], _ = _simplex(
            ones, flow, np.concatenate([np.maximum(cond.values[u], 0.0), s_all])
        )
    shortfall = float(1.0 - a.sum(axis=1).min())
    if shortfall > RESIDUAL_TOL:
        raise ArithmeticError(f"a context's flow falls {shortfall:g} short of 1")
    rows = a @ flow.T - np.hstack([cond.values, np.tile(s_all, (m, 1))])
    residual = float(np.abs(rows).max())
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(f"full-program residual {residual:g}")

    us, ks = np.nonzero(a > PRIMAL_ZERO_TOL)
    scheme = SchemeDistribution(
        n, cond.delta, "set", all_subsets(n), pair_q[ks], pair_x[ks], us, a[us, ks]
    )
    return LpSolution(value=n - float(p.c @ s), scheme=scheme, iterations=iterations)

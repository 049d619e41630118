import math
import struct
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as hst

from onoffpriv.lp import all_subsets
from onoffpriv.markov import (
    ConditionalTable, TransitionMatrix, as_index, as_number,
    u_index,
)
from onoffpriv.scheme import COLUMNS, SchemeDistribution, ZeroLikelihoodContext


class FullProgram(NamedTuple):
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


def full_program(cond: ConditionalTable) -> FullProgram:
    """The exact-cost LP over every (a, s) variable, which lp.formulate_lp
    replaced with the program over s alone, kept as the reference the
    reduced program must agree with.

    Queries are the bitmasks 1 .. 2^n - 1. Each (query, member) pair k, in
    bitmask order and then ascending member, owns the columns k*m + u; the
    s(q) columns follow. The marginal row of (x, u) is x*m + u and the tie
    row of query index i is (n + i)*m + u.
    """
    n, m = cond.n, cond.m
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
    return FullProgram(c=c, A=A, b=b, var_keys=var_keys, row_keys=row_keys)


def full_point(program: FullProgram, s: SchemeDistribution) -> np.ndarray:
    """A set-form distribution placed in the full program's columns: its
    rows as the a(q, x, u), and each query's mass in context 0 as s(q)."""
    column = {key: i for i, key in enumerate(program.var_keys)}
    v = np.zeros(len(program.var_keys))
    for (q, x, u), mass in entries_of(s).items():
        v[column["a", q, x, u]] = mass
        if u == 0:
            v[column["s", q]] += mass
    return v


def random_chain(rng, n: int) -> TransitionMatrix:
    """Strictly positive chain: Dirichlet rows blended with a uniform floor."""
    rows = rng.dirichlet(np.full(n, 2.0), size=n)
    return TransitionMatrix(entries=0.9 * rows + 0.1 / n)


# a strictly positive Dirichlet(1) chain whose plain products never settle:
# from product 67 on they alternate between two arrays. The walk holds its
# power from gap 60 on, once mixed, before the cycle begins
ROUNDING_TWO_CYCLE = TransitionMatrix(
    np.random.default_rng(8).dirichlet(np.ones(3), size=3)
)


# a strictly positive Dirichlet(1) 2-state chain whose plain products never
# repeat bit for bit, while its likelihood tables do at gaps far apart (gap
# 23's recurs at gaps 32 and 41). The walk holds its power from gap 19 on
RECURRING_TABLES = TransitionMatrix(
    np.random.default_rng(3).dirichlet(np.ones(2), size=2)
)


# a strictly positive Dirichlet(0.2) 5-state chain whose plain products
# neither repeat nor settle within 4 eps in 20,000 products, so a walk to a
# bitwise repeat would build one scheme per gap. The walk holds its power
# from gap 115 on
DRIFTING_POWERS = TransitionMatrix(
    np.random.default_rng(9).dirichlet(np.full(5, 0.2), size=5)
)


def entries_of(s: SchemeDistribution) -> dict:
    """The rows of a distribution as {(query members, x, u): mass}."""
    return {
        (s.queries[k], x, u): p
        for k, x, u, p in zip(
            s.q.tolist(), s.x.tolist(), s.u.tolist(), s.mass.tolist()
        )
    }


def scheme_from_entries(n: int, delta: int, form: str, entries: dict):
    """The distribution whose rows are {(query members, x, u): mass}."""
    keys = list(entries)
    queries = sorted({members for members, _, _ in keys})
    ids = {members: i for i, members in enumerate(queries)}
    return SchemeDistribution(
        n, delta, form, queries,
        [ids[k[0]] for k in keys], [k[1] for k in keys], [k[2] for k in keys],
        list(entries.values()),
    )


def mass_by_context(s: SchemeDistribution, x: int, u: int):
    """Indices into s.queries, ascending, and the cumulative masses of the
    rows of one (x, u) pair.

    Raises:
        ZeroLikelihoodContext: the pair has no positive total mass.
    """
    lo, hi = np.searchsorted(s.x, (x, x + 1))
    a, b = lo + np.searchsorted(s.u[lo:hi], (u, u + 1))
    cum = np.cumsum(s.mass[a:b])
    if a == b or cum[-1] <= 0.0:
        raise ZeroLikelihoodContext(f"no mass for request {x} in context {u}")
    return s.q[a:b], cum


def sample_query_indices(s: SchemeDistribution, x: int, u: int, draws):
    """The per-pair query sampler that the simulator's one-pass draw must
    match: indices into s.queries of the queries that the uniform draws in
    [0, 1) select, one per draw.

    A draw r selects the first query, in sorted order, whose cumulative
    mass exceeds r * p(x | u), so each query follows
    w(q | x, u) = g(q, x, u) / p(x | u).
    """
    ids, cum = mass_by_context(s, x, u)
    j = np.searchsorted(cum, draws * cum[-1], side="right")
    return ids[np.minimum(j, len(ids) - 1)]


def symmetric_table(n: int, delta: int, sigmas: tuple) -> ConditionalTable:
    """The five case values of a symmetric chain at gap delta expanded into
    a full likelihood table."""
    s1, s2, s3, s4, s5 = sigmas
    # row u = xtau * n + xnext, column x
    xtau, xnext, x = np.indices((n, n, n)).reshape(3, -1)
    values = np.select(
        [(xtau == x) & (x == xnext), xtau == x, x == xnext, xtau == xnext],
        [s1, s2, s3, s4],
        s5,
    )
    return ConditionalTable(n=n, delta=delta, values=values.reshape(n * n, n))


def json_slots(node):
    """Every (container, key) pair of a parsed JSON document, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from json_slots(child)


def section_text(s: SchemeDistribution) -> str:
    """The text of the chunks SchemeDistribution.json_chunks yields for s."""
    return "".join(s.json_chunks())


def reference_steps(trace):
    """Every step's (t, x, tau, delta, query id, u), derived one step at a
    time in plain Python from the arrays the trace stores."""
    path, n = trace.path.tolist(), trace.n
    for t, (d, i) in enumerate(zip(trace.delta.tolist(), trace.query_ids.tolist())):
        tau = t - d
        yield t, path[t], tau, d, i, path[tau] * n + path[t + 1]


def reference_trace_csv(trace) -> str:
    """The text a trace file that sim.simulate writes must hold, one row
    a step from reference_steps."""
    keys = trace.query_keys
    rows = [
        f"{t},{x},{int(d == 0)},{tau},{d},{len(keys[i])},"
        f"{len(keys[i]) * trace.msg_len},{int(x in keys[i])}\n"
        for t, x, tau, d, i, _ in reference_steps(trace)
    ]
    return "t,x,f,tau,delta,q_size,bytes,decode_ok\n" + "".join(rows)


def reference_gap_table(trace, delta: int):
    """One gap bucket's contingency table counted step by step: the query
    ids and the contexts of its steps, each sorted, and the float table of
    their pair counts in that order."""
    pairs = Counter(
        (q, u) for _, _, _, d, q, u in reference_steps(trace) if d == delta
    )
    qids = sorted({q for q, _ in pairs})
    contexts = sorted({u for _, u in pairs})
    counts = np.array([[float(pairs[q, u]) for u in contexts] for q in qids])
    return qids, contexts, counts


def reference_privacy_stats(trace, delta: int) -> dict:
    """The fields of one gap bucket's EmpiricalStats from its step-by-step
    table, by the textbook formulas, with scipy.stats for the p-value."""
    qids, contexts, counts = reference_gap_table(trace, delta)
    return {
        "delta": delta,
        "n_samples": int(counts.sum()),
        "query_keys": [trace.query_keys[i] for i in qids],
        "context_ids": contexts,
        "counts": counts,
        **reference_table_stats(counts),
    }


def reference_table_stats(counts) -> dict:
    """The TableStats fields of a queries-by-contexts table by the textbook
    formulas, with scipy.stats for the p-value; the dof count the rows with
    a sample, and a table of no column tests nothing."""
    import scipy.stats

    if counts.shape[1] == 0:
        return {"max_tv_gap": 0.0, "chi2_stat": 0.0, "chi2_dof": 0, "chi2_pvalue": 1.0}
    row_tot, col_tot = counts.sum(axis=1), counts.sum(axis=0)
    cond_freq = counts / col_tot[None, :]
    expected = np.outer(row_tot, col_tot) / counts.sum()
    with np.errstate(invalid="ignore", divide="ignore"):
        cells = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
    chi2_stat = float(cells.sum())
    chi2_dof = (np.count_nonzero(row_tot) - 1) * (counts.shape[1] - 1)
    return {
        "max_tv_gap": float((cond_freq.max(axis=1) - cond_freq.min(axis=1)).max()),
        "chi2_stat": chi2_stat,
        "chi2_dof": chi2_dof,
        "chi2_pvalue": (
            float(scipy.stats.chi2.sf(chi2_stat, chi2_dof)) if chi2_dof > 0 else 1.0
        ),
    }


def reference_sample_path(P: TransitionMatrix, length: int, rng):
    """The per-step path walk that sim._sample_path replaced, kept as a
    reference: the path a seed must give, dtype too."""
    n = P.n
    draws = rng.random(length)

    def pick(cum, draw):
        return np.minimum(np.searchsorted(cum, draw, side="right"), n - 1)

    # successor[i][t]: the state after state i when step t draws draws[t],
    # in the smallest integer type that holds a state
    small = np.min_scalar_type(n - 1)
    successor = [
        memoryview(pick(row, draws).astype(small))
        for row in np.cumsum(P.entries, axis=1)
    ]
    state = int(pick(np.cumsum(np.full(n, 1.0 / n)), draws[0]))
    path = [state]
    for t in range(1, length):
        state = successor[state][t]
        path.append(state)
    return np.array(path, dtype=np.int64)


def float_bits(mass: float) -> int:
    """The bit pattern of a float as a signed 64-bit integer."""
    return struct.unpack("<q", struct.pack("<d", mass))[0]


def reference_json_obj(s: SchemeDistribution) -> dict:
    """A scheme file section built row by row in plain Python: the document
    that the text SchemeDistribution.json_chunks yields must parse to."""
    palette = sorted({float_bits(m) for m in s.mass.tolist()})
    slot = {bits: i for i, bits in enumerate(palette)}
    doc = {
        "delta": s.delta, "form": s.form, "n": s.n, "schema": 2,
        "queries": [list(members) for members in s.queries],
        "masses": [struct.unpack("<d", struct.pack("<q", b))[0] for b in palette],
        "q": [], "x": [], "u0": [], "u1": [], "p": [],
    }
    for k, x, u, m in zip(s.q.tolist(), s.x.tolist(), s.u.tolist(), s.mass.tolist()):
        for name, value in zip(COLUMNS, (k, x, u // s.n, u % s.n, slot[float_bits(m)])):
            doc[name].append(value)
    return doc


def reference_from_json_obj(obj) -> SchemeDistribution:
    """A per-row loader of a scheme file section, kept as a reference for
    what a section may hold: it loads exactly the sections that the
    columnar SchemeDistribution.from_json_obj loads."""
    if obj.get("schema") != 2:
        raise ValueError("not a schema-2 section")
    n = as_index(obj["n"], "n")
    delta = as_index(obj["delta"], "delta")
    queries = []
    for members in obj["queries"]:
        if type(members) is not list:
            raise ValueError("a query must be a list")
        members = tuple(as_index(i, "query member") for i in members)
        if list(members) != sorted(members) or (queries and queries[-1] >= members):
            raise ValueError("queries must be ascending")
        queries.append(members)
    masses = [as_number(m, "mass") for m in obj["masses"]]
    if not all(map(math.isfinite, masses)):
        raise ValueError("a mass is not finite")
    q, xs, us, ps = [], [], [], []
    for k, x, xtau, xnext, p in zip(*(obj[name] for name in COLUMNS), strict=True):
        q.append(as_index(k, "query"))
        xs.append(as_index(x, "request"))
        us.append(u_index(as_index(xtau, "xtau"), as_index(xnext, "xnext"), n))
        if not 0 <= as_index(p, "mass index") < len(masses):
            raise ValueError("mass index out of range")
        ps.append(masses[p])
    s = SchemeDistribution(n, delta, obj["form"], queries, q, xs, us, ps)
    if s.entry_count != len(ps):
        raise ValueError("repeated entry: rows share query, request and context")
    return s


def schema1_json_obj(s: SchemeDistribution) -> dict:
    """A section of s in the schema-1 layout, one object per row, which
    the loader no longer reads."""
    return {
        "n": s.n, "delta": s.delta, "form": s.form,
        "entries": [
            {"q": list(s.queries[k]), "x": x, "u": [u // s.n, u % s.n], "p": p}
            for k, x, u, p in zip(
                s.q.tolist(), s.x.tolist(), s.u.tolist(), s.mass.tolist()
            )
        ],
    }


@hst.composite
def distribution_cases(draw, size: int):
    """(vector, valid): a distribution over size >= 2 entries or, when not
    valid, a distribution over size - 1 entries with a NaN, infinite or
    negative entry put in among them, so that the total may still be 1."""
    valid = draw(hst.booleans())
    k = size if valid else size - 1
    weights = draw(hst.lists(hst.floats(0.0, 1.0), min_size=k, max_size=k).filter(any))
    vector = np.array(weights) / sum(weights)
    if not valid:
        bad = draw(
            hst.sampled_from([math.nan, math.inf, -math.inf])
            | hst.floats(max_value=0.0, exclude_max=True)
        )
        vector = np.insert(vector, draw(hst.integers(0, k)), bad)
    return vector, valid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chain_factory():
    return random_chain

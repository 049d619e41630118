"""Greedy construction of a sparse private query distribution.

Given the likelihood table p(x | u) and its sorted profile, the construction
outputs a joint distribution g(z, x, u) = p(z, x | u) over multiset queries z
such that

    1. x is always a member of z (the answer stays decodable),
    2. the induced p(z | u) is identical for every context u (a server
       watching queries learns nothing about the context), and
    3. the probability of downloading ell messages is exactly theta_ell,
       so the expected query size meets the achievable bound.

Each context u owns a residual row: for every state c, the part of p(c | u)
above the (n-1)-th smallest likelihood of c. The cardinality-ell mass for
request x is the increment lambda_xi[x][ell-1] - lambda_xi[x][ell-2]. Every
context except the ell-1 where p(x | u) is smallest sends it as mass of x
itself; those ell-1 contexts must send the same queries, so each supplies
the same amount from its residual row. A row always gives up its states
left to right, so its state is one number, how much of its cumulative sum
is used up, and each supply is an interval of that sum. Cutting the
increment at every row boundary inside it gives segments on which each
supplying row names one state; every segment becomes one multiset query of
x and those ell-1 companions. What is left of the rows rides on the full
query. Collapsing repeated elements afterwards gives ordinary subset
queries whose expected size can only shrink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from onoffpriv.bounds import ThetaProfile
from onoffpriv.markov import ConditionalTable, as_index

BOUNDARY_TOL = 1e-12
EXTRACTION_TOL = 1e-12
NEGLIGIBLE_INCREMENT = 1e-13
MASS_DROP_LIMIT = 1e-15
MASS_DROP_BUDGET = 1e-10
# scheme file rows formatted and written at once; bounds the memory it takes
JSON_BLOCK_ROWS = 8192


class ExtractionInfeasible(ArithmeticError):
    """A residual row had less mass left than an increment needs.

    The row-budget identity guarantees this never happens on a valid
    likelihood table, so it firing signals an implementation bug or a
    tolerance failure, not bad input.
    """


class ZeroLikelihoodContext(ValueError):
    """Sampling was requested for an (x, u) pair with p(x | u) = 0."""


@dataclass(frozen=True, eq=False)
class ExtractionLedger:
    """Bookkeeping snapshot of one construction run, for inspection.

    Attributes:
        m_initial: residual matrix before any extraction.
        m_final: residual matrix after all cardinalities below n are done;
            row sums at this point all equal theta_n.
        segments: (ell, x) -> list of (companion tuple, width).
    """

    m_initial: np.ndarray
    m_final: np.ndarray
    segments: dict


@dataclass(frozen=True, eq=False)
class SchemeDistribution:
    """Sparse joint query distribution g(q, x, u) = p(q, x | u), as columns.

    Attributes:
        n: number of states.
        delta: the gap this distribution was built for.
        form: "multiset" (a query may name a state more than once, and the
            sizes of its queries follow the theta increments) or "set" (no
            query names a state twice).
        queries: the distinct queries, sorted, each the sorted tuple of its
            members, repeats kept; its length is its download size.
        q, x, u, mass: one row per mass g(queries[q], x, u), sorted by
            (x, u, q). Any finite mass is accepted, so that a damaged
            artifact can be loaded and handed to the checker.

    The constructor keeps the named queries, sorts, and merges the rows that
    share (q, x, u), adding their masses in the order given. It rejects a
    row whose query, request or context index is out of range, a query with
    a member outside 0..n-1 or more than n members, a set query that
    repeats a member, a mass that is not finite, and an n so large that the
    row key (x n^2 + u) Q + q over Q queries would not fit in an int64.
    """

    n: int
    delta: int
    form: str
    queries: list
    q: np.ndarray
    x: np.ndarray
    u: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        if self.form not in ("multiset", "set"):
            raise ValueError(f"unknown form {self.form!r}")
        q, x, u = (np.asarray(c, dtype=np.int64) for c in (self.q, self.x, self.u))
        mass = np.asarray(self.mass, dtype=float)
        if not np.isfinite(mass).all():
            raise ValueError("a mass is not finite")
        n, nq = self.n, len(self.queries)
        ranges = (("query", q, nq), ("request", x, n), ("context", u, n * n))
        for name, col, top in ranges:
            if col.size and not (0 <= col.min() and col.max() < top):
                i = np.flatnonzero((col < 0) | (col >= top))[0]
                raise ValueError(f"row {i}: {name} {col[i]} out of range for n={n}")
        named = sorted(np.unique(q).tolist(), key=self.queries.__getitem__)
        queries = [tuple(self.queries[i]) for i in named]
        for members in queries:
            if self.form == "set" and len(set(members)) != len(members):
                raise ValueError(f"repeated query member in set query {members}")
            if not all(0 <= i < n for i in members) or len(members) > n:
                raise ValueError(f"query {members} is out of range for n={n}")
        if n**3 * len(queries) >= 2**63:
            raise ValueError(f"n={n} with {len(queries)} queries overflows the row key")
        rank = np.zeros(nq, dtype=np.int64)
        rank[named] = np.arange(len(named))
        # one int64 key orders the rows by (x, u, q); a stable sort keeps the
        # rows of one (q, x, u) in their given order, so that bincount adds
        # them up from the first to the last
        key = (x * (n * n) + u) * len(queries) + rank[q]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        mass = np.bincount(np.cumsum(first) - 1, weights=mass[order])
        order = order[first]
        columns = {
            "queries": queries, "q": rank[q[order]], "x": x[order], "u": u[order],
            "mass": mass,
        }
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    @property
    def entry_count(self) -> int:
        return self.mass.size

    def mass_by_context(self, x: int, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices into queries, ascending, and the cumulative masses of the
        rows of one (x, u) pair.

        Raises:
            ZeroLikelihoodContext: the pair has no positive total mass.
        """
        lo, hi = np.searchsorted(self.x, (x, x + 1))
        a, b = lo + np.searchsorted(self.u[lo:hi], (u, u + 1))
        cum = np.cumsum(self.mass[a:b])
        if a == b or cum[-1] <= 0.0:
            raise ZeroLikelihoodContext(f"no mass for request {x} in context {u}")
        return self.q[a:b], cum

    def write_json(self, fh) -> None:
        """Write the distribution to the text file fh as a JSON object with
        one entry per line, rows sorted by (query, x, u), formatting
        JSON_BLOCK_ROWS rows at a time; from_json_obj reads it back.

        %r of a float is the text json writes for it, and the constructor
        admits no NaN or inf, so each row is one format over the columns.
        """
        # the rows are sorted by (x, u, q), so a stable sort on q alone gives
        # (q, x, u)
        order = np.argsort(self.q, kind="stable")
        members = [json.dumps(list(m)) for m in self.queries]
        row = '{"p": %r, "q": %s, "u": [%d, %d], "x": %d}'
        fh.write('{"delta": %d, "entries": [\n' % self.delta)
        for lo in range(0, order.size, JSON_BLOCK_ROWS):
            rows = order[lo : lo + JSON_BLOCK_ROWS]
            xtau, xnext = np.divmod(self.u[rows], self.n)
            cols = (
                self.mass[rows].tolist(),
                map(members.__getitem__, self.q[rows].tolist()),
                xtau.tolist(), xnext.tolist(), self.x[rows].tolist(),
            )
            if lo:
                fh.write(",\n")
            fh.write(",\n".join([row % c for c in zip(*cols)]))
        fh.write('\n], "form": %s, "n": %d}' % (json.dumps(self.form), self.n))

    @classmethod
    def from_json_obj(cls, obj) -> "SchemeDistribution":
        """Load a parsed scheme file, one column at a time; inverse of
        write_json.

        Raises:
            ValueError: the document is not an object with keys delta,
                entries, form and n, or an entry not an object with keys p,
                q, u and x; n, delta, a query member or a state is not an
                integer, q is not a list, u is not a pair, or a mass is not a
                number; a state lies outside 0..n-1, where it would alias
                another entry; two rows share query, request and context; or
                the constructor rejects the rows. The message names the first
                bad entry. A negative mass loads, so that the checker can
                judge it.
            OverflowError: a state or a mass does not fit in 64 bits.
        """
        if not _has_keys(obj, ("delta", "entries", "form", "n")):
            raise ValueError("a scheme is an object with keys delta, entries, form, n")
        n = as_index(obj["n"], "n")
        delta = as_index(obj["delta"], "delta")
        rows = obj["entries"]
        if type(rows) is not list:
            raise ValueError("entries must be a list")
        try:
            qs, xs, us, ps = ([row[k] for row in rows] for k in "qxup")
        except (KeyError, TypeError):
            i = next(i for i, row in enumerate(rows) if not _has_keys(row, "pqux"))
            raise ValueError(f"entry {i}: not an object with keys p, q, u, x") from None
        _require(qs, {list}, "q must be a list")
        _require(qs, {int}, "query members must be integers", members=True)
        _require(xs, {int}, "request must be an integer")
        _require(us, {list}, "u must be a pair")
        if set(map(len, us)) - {2}:
            i = next(i for i, v in enumerate(us) if len(v) != 2)
            raise ValueError(f"entry {i}: u must be a pair, got {us[i]!r}")
        _require(us, {int}, "context states must be integers", members=True)
        _require(ps, {int, float}, "mass must be a number")
        members = list(map(tuple, qs))
        ids: dict = {}
        canonical = {
            m: ids.setdefault(tuple(sorted(m)), len(ids)) for m in dict.fromkeys(members)
        }
        pairs = np.fromiter(chain.from_iterable(us), np.int64, 2 * len(us))
        pairs = pairs.reshape(len(us), 2)
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if outside.any():
            i = np.flatnonzero(outside)[0]
            raise ValueError(f"entry {i}: context {us[i]} out of range for n={n}")
        q = list(map(canonical.__getitem__, members))
        u = pairs[:, 0] * n + pairs[:, 1]
        s = cls(n, delta, obj["form"], list(ids), q, xs, u, np.array(ps, dtype=float))
        if s.entry_count != len(rows):
            raise ValueError("repeated entry: rows share query, request and context")
        return s


def _has_keys(row, keys) -> bool:
    return type(row) is dict and row.keys() >= set(keys)


def _require(column: list, types: set, what: str, members: bool = False):
    """Raise a ValueError naming the first entry whose value, or with
    members=True any of its members, has a type outside types."""
    found = set(map(type, chain.from_iterable(column) if members else column))
    if found <= types:
        return
    for i, v in enumerate(column):
        if not set(map(type, v if members else [v])) <= types:
            raise ValueError(f"entry {i}: {what}, got {v!r}")


def build_scheme(
    profile: ThetaProfile,
    cond: ConditionalTable,
    return_ledger: bool = False,
):
    """Construct the multiset query distribution achieving the inner bound.

    Args:
        profile: sorted-likelihood profile of `cond`.
        cond: the likelihood table itself.
        return_ledger: also return the ExtractionLedger of the run.

    Returns:
        A SchemeDistribution in multiset form, or (distribution, ledger)
        when return_ledger is set.

    Raises:
        ExtractionInfeasible: a residual row could not supply its increment;
            cannot happen on a profile/table pair that actually match.
    """
    n, m = cond.n, cond.m
    values = cond.values
    if profile.n != n or profile.m != m:
        raise ValueError("profile does not match table dimensions")
    sorted_check = np.take_along_axis(values.T, profile.order, axis=1)
    if not np.array_equal(sorted_check, profile.lambda_xi):
        raise ValueError("profile was not built from this table")

    order = profile.order
    lambda_xi = profile.lambda_xi
    # increments[x, ell - 1]: the cardinality-ell mass of request x
    increments = np.diff(lambda_xi[:, : n - 1], axis=1, prepend=0.0)

    # residual mass above the (n-1)-th smallest likelihood of each column;
    # rows are used up left to right, so a row's state is one offset into
    # its cumulative sum
    m_initial = np.maximum(values - lambda_xi[:, n - 2][None, :], 0.0)
    ends = np.cumsum(m_initial, axis=1)
    used = np.zeros(m)

    segments_log: dict = {}
    ids: dict = {}  # query -> index, in order of first use
    blocks = []  # (query, request, context, mass) columns per (ell, x)

    for ell in range(1, n):
        for x in range(n):
            need = increments[x, ell - 1]
            if need <= NEGLIGIBLE_INCREMENT:
                continue
            rows = order[x, : ell - 1]
            # the state boundaries of each supplying row, past its used part
            rel = ends[rows] - used[rows, None]
            short = need - rel[:, -1]
            if (short > EXTRACTION_TOL).any():
                raise ExtractionInfeasible(
                    f"row budget short by {short.max():g} (needed {need:g})"
                )
            used[rows] += need
            # every boundary inside (0, need) cuts the increment; one within
            # BOUNDARY_TOL above a kept cut, or below need, merges into it
            cuts = np.sort(rel[(rel > 0.0) & (rel < need - BOUNDARY_TOL)])
            cuts = cuts[np.diff(cuts, prepend=-np.inf) > BOUNDARY_TOL]
            edges = np.concatenate(([0.0], cuts, [need]))
            widths = np.diff(edges)
            # each row names the state whose interval holds a segment's
            # middle; a row short by up to EXTRACTION_TOL names its last
            mids = 0.5 * (edges[:-1] + edges[1:])
            cols = np.empty((ell - 1, mids.size), dtype=np.int64)
            for i, r in enumerate(rel):
                cols[i] = np.searchsorted(r, mids, side="right")
            cols = np.minimum(cols, n - 1).T
            segs = list(zip(map(tuple, cols.tolist()), widths.tolist()))
            segments_log[(ell, x)] = segs
            qids = [ids.setdefault(tuple(sorted((x, *z))), len(ids)) for z, _ in segs]
            # a segment's rows: request x in every other context, then each
            # supplying row's named state in that row's context
            requests = np.hstack((np.full((len(segs), m - ell + 1), x), cols))
            contexts = np.tile(np.concatenate((order[x, ell - 1 :], rows)), len(segs))
            blocks.append(
                (np.repeat(qids, m), requests.ravel(), contexts, np.repeat(widths, m))
            )

    # whatever is left of each row rides on the full query; row sums equal
    # theta_n
    m_final = np.clip(ends - used[:, None], 0.0, m_initial)
    u_left, x_left = np.nonzero(m_final > 0.0)
    full = np.full(u_left.size, ids.setdefault(tuple(range(n)), len(ids)))
    blocks.append((full, x_left, u_left, m_final[u_left, x_left]))
    columns = [np.concatenate(c) for c in zip(*blocks)]
    dist = SchemeDistribution(n, cond.delta, "multiset", list(ids), *columns)
    tiny = dist.mass < MASS_DROP_LIMIT
    if dist.mass[tiny].sum() > MASS_DROP_BUDGET:
        raise ArithmeticError(f"dropped {dist.mass[tiny].sum():g} of negligible mass")
    if tiny.any():
        columns = [c[~tiny] for c in (dist.q, dist.x, dist.u, dist.mass)]
        dist = SchemeDistribution(n, cond.delta, "multiset", dist.queries, *columns)
    if return_ledger:
        ledger = ExtractionLedger(
            m_initial=m_initial, m_final=m_final, segments=segments_log
        )
        return dist, ledger
    return dist


def collapse_to_sets(s: SchemeDistribution) -> SchemeDistribution:
    """Merge repeated elements of every multiset query into a plain subset.

    Masses of multisets sharing a support are pooled; per-(x, u) totals are
    conserved exactly, and the expected query size can only decrease.
    """
    if s.form != "multiset":
        raise ValueError("can only collapse a multiset-form distribution")
    supports: dict = {}
    support_of = [
        supports.setdefault(tuple(sorted(set(k))), len(supports)) for k in s.queries
    ]
    q = np.array(support_of, dtype=np.int64)[s.q]
    return SchemeDistribution(s.n, s.delta, "set", list(supports), q, s.x, s.u, s.mass)


def sample_query_indices(
    s: SchemeDistribution, x: int, u: int, draws: np.ndarray
) -> np.ndarray:
    """Indices into s.queries of the queries that the uniform draws in
    [0, 1) select, one per draw.

    A draw r selects the first query, in sorted order, whose cumulative
    mass exceeds r * p(x | u), so each query follows
    w(q | x, u) = g(q, x, u) / p(x | u).

    Raises:
        ZeroLikelihoodContext: the (x, u) pair has no positive total mass.
    """
    ids, cum = s.mass_by_context(x, u)
    j = np.searchsorted(cum, draws * cum[-1], side="right")
    return ids[np.minimum(j, len(ids) - 1)]

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
increment at every distinct row boundary inside it gives segments on which
each supplying row names one state, the one that holds the segment's left
edge; every segment becomes one multiset query of x and those ell-1
companions. What is left of the rows rides on the full query. build_scheme
lists the only approximations. Collapsing repeated elements afterwards
gives ordinary subset queries whose expected size can only shrink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from onoffpriv.bounds import ThetaProfile
from onoffpriv.markov import ConditionalTable, as_index

EXTRACTION_TOL = 1e-12
MASS_DROP_LIMIT = 1e-15
# the most rows build_scheme makes: the n = 40 gap-1 scheme of 2.6M rows
# peaks at 317 MB in `onoffpriv scheme`, so this many peak near 2 GB
MAX_ENTRIES = 16_000_000
# rows of a scheme file column or of a trace CSV formatted and written at
# once; bounds the memory a writer takes
CSV_BLOCK_ROWS = 8192
# the scheme file layout that write_json writes and from_json_obj reads
SCHEMA = 2
# the int columns of a scheme file section, in the order written
COLUMNS = ("q", "x", "u0", "u1", "p")


class ExtractionInfeasible(ArithmeticError):
    """A residual row had less mass left than an increment needs.

    The row-budget identity guarantees this never happens on a valid
    likelihood table, so it firing signals an implementation bug or a
    tolerance failure, not bad input.
    """


class ZeroLikelihoodContext(ValueError):
    """Sampling was requested for an (x, u) pair with p(x | u) = 0."""


class TooManyEntries(ValueError):
    """A construction would make more than MAX_ENTRIES rows."""


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
    share (q, x, u), adding their masses in the order given; if no rows
    share, every mass is kept bit for bit, -0.0 included. It rejects a
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
        named = np.flatnonzero(np.bincount(q)).tolist()
        named.sort(key=self.queries.__getitem__)
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
        mass = mass[order]
        if not first.all():
            mass = np.bincount(np.cumsum(first) - 1, weights=mass)
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

    def write_json(self, fh) -> None:
        """Write the distribution to the text file fh as one JSON object of
        columns (schema 2); from_json_obj reads it back.

        The rows keep their (x, u, q) order in the int columns q, x, u0 and
        u1, with (u0, u1) the (x_tau, x_next) pair of u, and p. The masses
        go as a palette: `masses` lists the distinct masses in the order of
        their bit patterns, so that -0.0 and 0.0 stay apart, and p indexes
        it. json writes a float as its repr, which reads back bit for bit.
        Each int column is formatted CSV_BLOCK_ROWS rows at a time.
        """
        palette, p = np.unique(self.mass.view(np.int64), return_inverse=True)
        xtau, xnext = np.divmod(self.u, self.n)
        fh.write('{"delta": %d, "form": %s, "n": %d, "schema": %d,\n' % (
            self.delta, json.dumps(self.form), self.n, SCHEMA
        ))
        fh.write('    "queries": %s,\n    "masses": %s' % (
            json.dumps(self.queries), json.dumps(palette.view(float).tolist())
        ))
        for name, col in zip(COLUMNS, (self.q, self.x, xtau, xnext, p)):
            fh.write(',\n    "%s": [' % name)
            for lo in range(0, col.size, CSV_BLOCK_ROWS):
                text = csv_digits([col[lo : lo + CSV_BLOCK_ROWS]], newline=b",")
                fh.write(("," if lo else "") + text[:-1].decode())
            fh.write("]")
        fh.write("}")

    @classmethod
    def from_json_obj(cls, obj) -> "SchemeDistribution":
        """Load a parsed scheme file section, one np.asarray per column;
        inverse of write_json.

        Raises:
            ValueError: the section is not an object with schema 2 (a file
                of an older schema must be written again with `onoffpriv
                scheme`) and the keys write_json writes; n or delta is not
                an integer; queries is not an ascending list of distinct
                ascending lists of integers; a column is not a list of
                integers (masses: of numbers) that fit in 64 bits; the
                columns differ in length; a context state or a palette
                index is out of range; a mass is not finite; two rows share
                query, request and context; or the constructor rejects the
                rows. The message names the column and its first bad entry.
                A negative mass loads, so that the checker can judge it.
            OverflowError: n does not fit in 64 bits.
        """
        if type(obj) is not dict or obj.get("schema") != SCHEMA:
            raise ValueError(
                f"not a schema-{SCHEMA} scheme section; "
                "regenerate the file with `onoffpriv scheme`"
            )
        keys = ("delta", "form", "n", "queries", "masses", *COLUMNS)
        if not obj.keys() >= set(keys):
            raise ValueError(f"a scheme section is an object with keys {keys}")
        n = as_index(obj["n"], "n")
        delta = as_index(obj["delta"], "delta")
        queries = _queries(obj["queries"])
        masses = _column(obj, "masses", float)
        if not np.isfinite(masses).all():
            i = np.flatnonzero(~np.isfinite(masses))[0]
            raise ValueError(f"entry {i}: masses holds {masses[i]}, not a finite mass")
        columns = {name: _column(obj, name) for name in COLUMNS}
        q, x, xtau, xnext, p = columns.values()
        for name, col in columns.items():
            if col.size != q.size:
                raise ValueError(f"{name} has {col.size} entries, q has {q.size}")
        # a context state outside 0..n-1 would alias another context
        ranges = (
            ("context state u0", xtau, n), ("context state u1", xnext, n),
            ("mass index p", p, masses.size),
        )
        for what, col, top in ranges:
            bad = (col < 0) | (col >= top)
            if bad.any():
                i = np.flatnonzero(bad)[0]
                raise ValueError(
                    f"entry {i}: {what} {col[i]} out of range 0..{top - 1}"
                )
        s = cls(n, delta, obj["form"], queries, q, x, xtau * n + xnext, masses[p])
        if s.entry_count != q.size:
            raise ValueError("repeated entry: rows share query, request and context")
        return s


def _queries(value) -> list:
    """The queries of a scheme section, as tuples: distinct ascending lists
    of integers, in ascending order."""
    if type(value) is not list:
        raise ValueError("queries must be a list")
    queries = []
    for i, members in enumerate(value):
        if (
            type(members) is not list or set(map(type, members)) - {int}
            or members != sorted(members)
        ):
            raise ValueError(f"queries[{i}]: {members!r} is not ascending integers")
        queries.append(tuple(members))
        if i and queries[-2] >= queries[-1]:
            raise ValueError(f"queries[{i}]: {members} does not follow {value[i - 1]}")
    return queries


def _column(obj, name: str, dtype=np.int64) -> np.ndarray:
    """The list obj[name] as a 1-D array: of JSON integers, or of JSON
    numbers for a float dtype. The types are checked first, since np.asarray
    reads true as 1 and [1.5, 2] as floats."""
    values = obj[name]
    if type(values) is not list:
        raise ValueError(f"{name} must be a list")
    types = {int, float} if dtype is float else {int}
    if set(map(type, values)) <= types:
        try:
            return np.asarray(values, dtype=dtype)
        except OverflowError:
            pass
    for i, v in enumerate(values):
        try:
            if type(v) in types:
                np.asarray(v, dtype=dtype)
                continue
        except OverflowError:
            pass
        kind = "number" if dtype is float else "integer"
        raise ValueError(f"entry {i}: {name} must be a 64-bit {kind}, got {v!r}")


def csv_digits(columns, newline: bytes = b"\n") -> bytes:
    """CSV rows, one per index, of non-empty equal-length columns of
    non-negative integers, each row ended by the byte newline.

    Each column takes as many cells of a uint8 matrix as its largest value
    has digits. Digit k of a value is value // 10**k % 10; a cell above the
    value's leading digit (value < 10**k, k >= 1) holds NUL, which the final
    mask drops.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    widths = [len(str(int(c.max()))) for c in columns]
    mat = np.zeros((columns[0].size, sum(widths) + len(widths)), dtype=np.uint8)
    end = 0
    for lead, width in zip(columns, widths):
        end += width
        mat[:, end] = ord(",")
        # lead runs through value // 10**k; one scalar division per digit
        for k in range(1, width + 1):
            rest = lead // 10
            digit = lead - 10 * rest + ord("0")
            if k > 1:
                digit[lead == 0] = 0
            mat[:, end - k] = digit
            lead = rest
        end += 1
    mat[:, -1] = ord(newline)
    return mat[mat != 0].tobytes()


def build_scheme(profile: ThetaProfile, cond: ConditionalTable) -> SchemeDistribution:
    """The multiset-form SchemeDistribution achieving the inner bound for the
    likelihood table cond, given its sorted-likelihood profile.

    Each increment is cut at the rows' exact boundaries. The only
    approximations are these:
        1. an increment below MASS_DROP_LIMIT rides uncut on the full query,
           so the marginals and privacy stay exact, and the size law moves
           by at most the folded mass F and the cost by at most (n - 1) F;
        2. a full-query cell below MASS_DROP_LIMIT, at most n per context,
           is residue and is not placed;
        3. a supplying row short by up to EXTRACTION_TOL names its last
           state for the rest of the increment.

    Raises:
        ExtractionInfeasible: a residual row could not supply its increment;
            cannot happen on a profile/table pair that actually match.
        TooManyEntries: the rows made pass MAX_ENTRIES; raised as they do,
            before the rows are joined.
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
    folded = np.zeros((m, n))

    ids: dict = {}  # query -> index, in order of first use
    blocks = []  # (query, request, context, mass) columns per (ell, x)
    entries = 0  # the rows in blocks

    for ell in range(1, n):
        for x in range(n):
            need = increments[x, ell - 1]
            if need <= 0.0:
                continue
            if need < MASS_DROP_LIMIT:
                # too small to cut; the supplying rows keep their share
                folded[order[x, ell - 1 :], x] += need
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
            # every distinct boundary inside (0, need) cuts the increment
            cuts = np.sort(rel[(rel > 0.0) & (rel < need)])
            cuts = cuts[np.diff(cuts, prepend=-np.inf) > 0.0]
            edges = np.concatenate(([0.0], cuts, [need]))
            widths = np.diff(edges)
            # each row names the state whose interval holds a segment's left
            # edge, the count of its boundaries at or below that edge; a row
            # short by up to EXTRACTION_TOL names its last
            cols = np.minimum((rel <= edges[:-1, None, None]).sum(axis=2), n - 1)
            qids = [
                ids.setdefault(tuple(sorted((x, *z))), len(ids)) for z in cols.tolist()
            ]
            # a segment's rows: request x in every other context, then each
            # supplying row's named state in that row's context
            requests = np.hstack((np.full((widths.size, m - ell + 1), x), cols))
            contexts = np.tile(np.concatenate((order[x, ell - 1 :], rows)), widths.size)
            entries = _count_entries(entries, contexts.size)
            blocks.append(
                (np.repeat(qids, m), requests.ravel(), contexts, np.repeat(widths, m))
            )

    # the rows' leftovers and the folded increments ride on the full query
    m_final = np.clip(ends - used[:, None], 0.0, m_initial) + folded
    u_left, x_left = np.nonzero(m_final >= MASS_DROP_LIMIT)
    full = np.full(u_left.size, ids.setdefault(tuple(range(n)), len(ids)))
    _count_entries(entries, full.size)
    blocks.append((full, x_left, u_left, m_final[u_left, x_left]))
    columns = [np.concatenate(c) for c in zip(*blocks)]
    return SchemeDistribution(n, cond.delta, "multiset", list(ids), *columns)


def _count_entries(entries: int, added: int) -> int:
    """entries + added, or TooManyEntries when that passes MAX_ENTRIES."""
    entries += added
    if entries > MAX_ENTRIES:
        raise TooManyEntries(
            f"the scheme needs at least {entries} rows, above the limit of "
            f"{MAX_ENTRIES}"
        )
    return entries


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


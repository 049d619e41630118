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

import math
from dataclasses import dataclass

import numpy as np

from onoffpriv.bounds import ThetaProfile
from onoffpriv.markov import ConditionalTable, as_index, u_index, u_pair

BOUNDARY_TOL = 1e-12
EXTRACTION_TOL = 1e-12
NEGLIGIBLE_INCREMENT = 1e-13
MASS_DROP_LIMIT = 1e-15
MASS_DROP_BUDGET = 1e-10


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
    """Sparse joint query distribution g(q, x, u) = p(q, x | u).

    Attributes:
        n: number of states.
        delta: the gap this distribution was built for.
        form: "multiset" (a query may name a state more than once, and the
            sizes of its queries follow the theta increments) or "set" (no
            query names a state twice).
        entries: dict mapping (query key, x, u) to probability mass, where
            the key of a query is the sorted tuple of its members, repeats
            kept, so its length is the number of messages it downloads. The
            construction only stores positive masses, but the container
            accepts anything so a damaged artifact can still be loaded and
            handed to the checker for a verdict.
    """

    n: int
    delta: int
    form: str
    entries: dict

    def __post_init__(self):
        if self.form not in ("multiset", "set"):
            raise ValueError(f"unknown form {self.form!r}")
        by_xu: dict = {}
        for (qkey, x, u), mass in self.entries.items():
            by_xu.setdefault((x, u), []).append((qkey, mass))
        index = {}
        for xu, items in by_xu.items():
            items.sort(key=lambda it: it[0])
            keys = [qkey for qkey, _ in items]
            cum = np.cumsum([mass for _, mass in items])
            index[xu] = (keys, cum)
        object.__setattr__(self, "_by_xu", index)

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def mass_by_context(self, x: int, u: int) -> tuple[list, np.ndarray]:
        """Query keys and cumulative masses for one (x, u) pair."""
        try:
            return self._by_xu[(x, u)]
        except KeyError:
            raise ZeroLikelihoodContext(
                f"no query mass for request {x} in context {u}"
            ) from None

    def to_json_obj(self) -> dict:
        """Serialize to plain data; inverse of from_json_obj."""
        rows = []
        for (qkey, x, u), mass in sorted(self.entries.items()):
            rows.append(
                {"q": list(qkey), "x": x, "u": list(u_pair(u, self.n)), "p": mass}
            )
        return {
            "n": self.n,
            "delta": self.delta,
            "form": self.form,
            "entries": rows,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SchemeDistribution":
        """Load a serialized distribution; inverse of to_json_obj.

        Raises:
            ValueError: n, delta or a state is not an integer; a state lies
                outside 0..n-1, where it would alias another entry; a query
                has more than n members, which the construction never
                makes; a set-form query names a member twice; two rows
                share their query, request and context, so one would
                overwrite the other; or a mass is NaN or infinite. A
                negative mass loads, so that the checker can judge it.
        """
        n = as_index(obj["n"], "n")
        delta = as_index(obj["delta"], "delta")
        form = obj["form"]
        entries = {}
        for row in obj["entries"]:
            members = [as_index(i, "query member") for i in row["q"]]
            x = as_index(row["x"], "request")
            if not all(0 <= i < n for i in members + [x]):
                raise ValueError(f"state out of range for n={n} in entry {row}")
            xtau, xnext = row["u"]
            u = u_index(as_index(xtau, "xtau"), as_index(xnext, "xnext"), n)
            if form == "set" and len(set(members)) != len(members):
                raise ValueError(f"repeated query member in set entry {row}")
            if len(members) > n:
                raise ValueError(f"query longer than n={n} in entry {row}")
            mass = float(row["p"])
            if not math.isfinite(mass):
                raise ValueError(f"mass is not finite in entry {row}")
            key = (tuple(sorted(members)), x, u)
            if key in entries:
                raise ValueError(f"repeated entry {row}")
            entries[key] = mass
        return cls(n=n, delta=delta, form=form, entries=entries)


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
    g: dict = {}

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
            # each row names the state whose interval holds a segment's
            # middle; a row short by up to EXTRACTION_TOL names its last
            mids = 0.5 * (edges[:-1] + edges[1:])
            cols = np.empty((ell - 1, mids.size), dtype=np.int64)
            for i, r in enumerate(rel):
                cols[i] = np.searchsorted(r, mids, side="right")
            segs = list(zip(
                map(tuple, np.minimum(cols, n - 1).T.tolist()),
                np.diff(edges).tolist(),
            ))
            segments_log[(ell, x)] = segs
            plus_contexts = order[x, ell - 1 :].tolist()
            minus_contexts = rows.tolist()
            for zeta, nu in segs:
                zkey = tuple(sorted((x, *zeta)))
                for u in plus_contexts:
                    key = (zkey, x, u)
                    g[key] = g.get(key, 0.0) + nu
                for col, u in zip(zeta, minus_contexts):
                    key = (zkey, col, u)
                    g[key] = g.get(key, 0.0) + nu

    # whatever is left of each row rides on the full query; row sums equal
    # theta_n
    m_final = np.clip(ends - used[:, None], 0.0, m_initial)
    full_key = tuple(range(n))
    for u, x in np.argwhere(m_final > 0.0).tolist():
        g[(full_key, x, u)] = m_final[u, x]

    dropped = 0.0
    for key in [k for k, v in g.items() if v < MASS_DROP_LIMIT]:
        dropped += g.pop(key)
    if dropped > MASS_DROP_BUDGET:
        raise ArithmeticError(f"dropped {dropped:g} of negligible mass")

    dist = SchemeDistribution(n=n, delta=cond.delta, form="multiset", entries=g)
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
    entries: dict = {}
    for (zkey, x, u), mass in s.entries.items():
        key = (tuple(sorted(set(zkey))), x, u)
        entries[key] = entries.get(key, 0.0) + mass
    return SchemeDistribution(n=s.n, delta=s.delta, form="set", entries=entries)


def sample_query_indices(
    s: SchemeDistribution, x: int, u: int, draws: np.ndarray
) -> np.ndarray:
    """Positions in s.mass_by_context(x, u)[0] of the queries that the
    uniform draws in [0, 1) select, one per draw.

    A draw r selects the first query whose cumulative mass exceeds
    r * p(x | u), so each query follows w(q | x, u) = g(q, x, u) / p(x | u).

    Raises:
        ZeroLikelihoodContext: no mass is recorded for this (x, u) pair.
    """
    keys, cum = s.mass_by_context(x, u)
    total = cum[-1]
    if total <= 0.0:
        raise ZeroLikelihoodContext(
            f"no query mass for request {x} in context {u}"
        )
    j = np.searchsorted(cum, draws * total, side="right")
    return np.minimum(j, len(keys) - 1)


def conditional_query_sampler(s: SchemeDistribution, x: int, u: int, rng) -> tuple:
    """Draw one query for request x in context u from one rng.random() draw.

    Deterministic given the generator state.

    Raises:
        ZeroLikelihoodContext: no mass is recorded for this (x, u) pair.
    """
    keys, _ = s.mass_by_context(x, u)
    return keys[int(sample_query_indices(s, x, u, rng.random(1))[0])]

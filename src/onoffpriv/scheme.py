"""Greedy construction of a sparse private query distribution.

Given the likelihood table p(x | u) and its sorted profile, the construction
outputs a joint distribution g(z, x, u) = p(z, x | u) over multiset queries z
such that

    1. x is always a member of z (the answer stays decodable),
    2. the induced p(z | u) is identical for every context u (a server
       watching queries learns nothing about the context), and
    3. the probability of downloading ell messages is exactly theta_ell,
       so the expected query size meets the achievable bound.

The cardinality-ell mass for request x is carved out of a residual matrix M
in increments lambda_xi[x][ell-1] - lambda_xi[x][ell-2]. Each increment is
pulled from the rows of the ell-1 smallest-likelihood contexts of x, then the
ell-1 per-row extraction lists are cut into common segments; every segment
becomes one multiset query combining x with its obfuscating companions.
Collapsing repeated elements afterwards gives ordinary subset queries whose
expected size can only shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from onoffpriv.bounds import ThetaProfile
from onoffpriv.markov import ConditionalTable, u_index, u_pair

BOUNDARY_TOL = 1e-12
TOTALS_TOL = 1e-9
EXTRACTION_TOL = 1e-12
NEGLIGIBLE_INCREMENT = 1e-13
MASS_DROP_LIMIT = 1e-15
MASS_DROP_BUDGET = 1e-10


class ExtractionInfeasible(ArithmeticError):
    """A row of the residual matrix ran out of mass mid-extraction.

    The row-budget identity guarantees this never happens on a valid
    likelihood table, so it firing signals an implementation bug or a
    tolerance failure, not bad input.
    """


class MismatchedTotals(ValueError):
    """Extraction lists that must share a total differ beyond tolerance."""


class ZeroLikelihoodContext(ValueError):
    """Sampling was requested for an (x, u) pair with p(x | u) = 0."""


@dataclass(frozen=True, eq=False)
class ExtractionLedger:
    """Bookkeeping snapshot of one construction run, for inspection.

    Attributes:
        m_initial: residual matrix before any extraction.
        m_final: residual matrix after all cardinalities below n are done;
            row sums at this point all equal theta_n.
        extractions: (ell, x, i) -> list of (column, value) taken from the
            row of the i-th smallest-likelihood context of x.
        segments: (ell, x) -> list of (companion tuple, width).
    """

    m_initial: np.ndarray
    m_final: np.ndarray
    extractions: dict = field(default_factory=dict)
    segments: dict = field(default_factory=dict)


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
            ValueError: a query member, request or context state lies
                outside 0..n-1, where it would alias another entry; a
                set-form query names a member twice; two rows share
                their query, request and context, so one would overwrite
                the other; or a mass is NaN or infinite. A negative mass
                loads, so that the checker can judge it.
        """
        n = int(obj["n"])
        form = obj["form"]
        entries = {}
        for row in obj["entries"]:
            members = [int(i) for i in row["q"]]
            x = int(row["x"])
            if not all(0 <= i < n for i in members + [x]):
                raise ValueError(f"state out of range for n={n} in entry {row}")
            xtau, xnext = row["u"]
            u = u_index(int(xtau), int(xnext), n)
            if form == "set" and len(set(members)) != len(members):
                raise ValueError(f"repeated query member in set entry {row}")
            mass = float(row["p"])
            if not math.isfinite(mass):
                raise ValueError(f"mass is not finite in entry {row}")
            key = (tuple(sorted(members)), x, u)
            if key in entries:
                raise ValueError(f"repeated entry {row}")
            entries[key] = mass
        return cls(n=n, delta=int(obj["delta"]), form=form, entries=entries)


def _extract_from_row(row: np.ndarray, need: float) -> list[tuple[int, float]]:
    """Take `need` total mass from a nonnegative row, ascending column order.

    Consumes each column up to its content before moving right, so the
    returned columns are distinct and the row never goes negative.
    """
    taken = []
    remaining = need
    for col in range(row.shape[0]):
        if remaining <= 0.0:
            break
        avail = row[col]
        if avail <= 0.0:
            continue
        take = avail if avail < remaining else remaining
        row[col] = avail - take
        taken.append((col, take))
        remaining -= take
    if remaining > EXTRACTION_TOL:
        raise ExtractionInfeasible(
            f"row budget short by {remaining:g} (needed {need:g})"
        )
    return taken


def refine_segments(
    lists: list[list[tuple[int, float]]]
) -> list[tuple[tuple, float]]:
    """Cut several extraction lists of equal total into common segments.

    Each input list partitions the same interval [0, total] into blocks
    labeled by a column index. The output is the common refinement: one
    segment per run between consecutive block boundaries, labeled with the
    tuple of active columns, one from every list.

    Raises:
        MismatchedTotals: the list totals differ by more than 1e-9.
    """
    if not lists:
        raise ValueError("need at least one extraction list")
    totals = [math.fsum(v for _, v in lst) for lst in lists]
    if max(totals) - min(totals) > TOTALS_TOL:
        raise MismatchedTotals(
            f"list totals differ: min {min(totals):g}, max {max(totals):g}"
        )
    if any(not lst for lst in lists):
        # a completely empty list can only represent a negligible total
        if max(totals) > EXTRACTION_TOL:
            raise MismatchedTotals("empty extraction list with nonzero total")
        return []
    r = len(lists)
    end = min(totals)
    idx = [0] * r
    # block end positions recomputed as prefix sums of the stored values,
    # so boundary comparisons never accumulate drift
    prefix = [lists[i][0][1] for i in range(r)]
    segments = []
    cur = 0.0
    max_steps = sum(len(lst) for lst in lists) + r + 1
    for _ in range(max_steps):
        if cur >= end - BOUNDARY_TOL:
            break
        active = tuple(lists[i][idx[i]][0] for i in range(r))
        cut = min(min(prefix), end)
        if cut - cur > 0.0:
            segments.append((active, cut - cur))
        for i in range(r):
            while idx[i] < len(lists[i]) - 1 and prefix[i] <= cut + BOUNDARY_TOL:
                idx[i] += 1
                prefix[i] += lists[i][idx[i]][1]
        cur = cut
    else:
        raise AssertionError("segment sweep failed to terminate")
    return segments


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

    # residual mass above the (n-1)-th smallest likelihood of each column
    M = np.maximum(values - lambda_xi[:, n - 2][None, :], 0.0)
    m_initial = M.copy()

    extractions: dict = {}
    segments_log: dict = {}
    g: dict = {}

    for ell in range(1, n):
        for x in range(n):
            lo = lambda_xi[x, ell - 2] if ell >= 2 else 0.0
            need = lambda_xi[x, ell - 1] - lo
            if need <= NEGLIGIBLE_INCREMENT:
                continue
            if ell == 1:
                segs = [((), need)]
            else:
                lists = []
                for i in range(ell - 1):
                    u = int(order[x, i])
                    taken = _extract_from_row(M[u], need)
                    extractions[(ell, x, i)] = taken
                    lists.append(taken)
                segs = refine_segments(lists)
            segments_log[(ell, x)] = segs
            plus_contexts = order[x, ell - 1 :]
            for zeta, nu in segs:
                if nu <= 0.0:
                    continue
                zkey = tuple(sorted((x, *zeta)))
                for u in plus_contexts:
                    key = (zkey, x, int(u))
                    g[key] = g.get(key, 0.0) + nu
                for i, col in enumerate(zeta):
                    key = (zkey, int(col), int(order[x, i]))
                    g[key] = g.get(key, 0.0) + nu

    # whatever is left in M rides on the full query; row sums equal theta_n
    full_key = tuple(range(n))
    for u in range(m):
        for x in range(n):
            if M[u, x] > 0.0:
                key = (full_key, x, u)
                g[key] = g.get(key, 0.0) + M[u, x]

    dropped = 0.0
    for key in [k for k, v in g.items() if v < MASS_DROP_LIMIT]:
        dropped += g.pop(key)
    if dropped > MASS_DROP_BUDGET:
        raise ArithmeticError(f"dropped {dropped:g} of negligible mass")

    dist = SchemeDistribution(n=n, delta=cond.delta, form="multiset", entries=g)
    if return_ledger:
        ledger = ExtractionLedger(
            m_initial=m_initial,
            m_final=M,
            extractions=extractions,
            segments=segments_log,
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

"""Independent checks for query distributions.

Everything here recomputes its quantities from the distribution's rows
alone, as array sums over its columns, and deliberately shares no code with
the construction in scheme.py, so the two can vouch for each other. A
distribution passes when queries always contain the request, the induced
query distribution is context-independent, the per-(x, u) masses add up to
the likelihood table, the query-size law matches the theta increments, and
the expected size does not exceed the achievable bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onoffpriv.bounds import ThetaProfile, rate_inner
from onoffpriv.markov import ConditionalTable, u_pair

# default pass threshold of check_scheme and of `onoffpriv verify --tol`
VERIFY_TOL = 1e-9
# how far a context prior's total may stray from 1
PRIOR_SUM_TOL = 1e-9


class DimensionMismatch(ValueError):
    """Distribution, table, and profile do not describe the same instance."""


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Raw maxima of every checked property, for caller-chosen thresholds.

    Attributes:
        decodability_violations: entries whose query does not contain the
            request (or whose stored mass is not positive), as
            (members, x, (xtau, xnext)) triples, named as a scheme file
            names them.
        max_privacy_gap: largest |p(q | u) - p(q | u')| over queries and
            context pairs.
        marginal_errors: m x n array, |sum_q g(q, x, u) - p(x | u)|.
        size_law_errors: length-n vector of max-over-contexts deviations
            |P(|Z| = ell) - theta_ell|, or None for set-form distributions,
            whose size law only holds as an inequality.
        expected_cost: expected query size under a uniform context prior.
        cost_slack: achievable bound minus expected_cost.
        entry_count: number of stored (q, x, u) masses.
        worst_privacy: the query with the largest privacy gap, as
            {"q": members, "u_max": pair, "u_min": pair}: its members as a
            scheme file lists them, and the [xtau, xnext] contexts that give
            it its largest and smallest mass; None when there are no entries.
        worst_marginal: {"x": x, "u": pair} of the largest marginal error;
            None when there are no entries.
        tol: the threshold that passes() applies.
    """

    decodability_violations: list
    max_privacy_gap: float
    marginal_errors: np.ndarray
    size_law_errors: np.ndarray | None
    expected_cost: float
    cost_slack: float
    entry_count: int
    worst_privacy: dict | None = None
    worst_marginal: dict | None = None
    tol: float = VERIFY_TOL

    @property
    def max_marginal_error(self) -> float:
        return float(self.marginal_errors.max())

    @property
    def max_size_law_error(self) -> float:
        if self.size_law_errors is None:
            return 0.0
        return float(self.size_law_errors.max())

    def passes(self) -> bool:
        """True when every correctness property holds within self.tol.

        Cost is deliberately not gated: a distribution that downloads more
        than the achievable bound is wasteful, not wrong. cost_slack stays
        in the report for callers who do want to gate on it.
        """
        return (
            not self.decodability_violations
            and self.max_privacy_gap < self.tol
            and self.max_marginal_error < self.tol
            and self.max_size_law_error < self.tol
        )

    def to_json_obj(self) -> dict:
        return {
            "decodability_violations": [
                {"q": list(q), "x": x, "u": list(u)}
                for q, x, u in self.decodability_violations
            ],
            "max_privacy_gap": self.max_privacy_gap,
            "max_marginal_error": self.max_marginal_error,
            "marginal_errors": self.marginal_errors.tolist(),
            "size_law_errors": (
                None
                if self.size_law_errors is None
                else self.size_law_errors.tolist()
            ),
            "expected_cost": self.expected_cost,
            "cost_slack": self.cost_slack,
            "entry_count": self.entry_count,
            "worst_privacy": self.worst_privacy,
            "worst_marginal": self.worst_marginal,
        }


def check_scheme(
    s,
    cond: ConditionalTable,
    profile: ThetaProfile,
    tol: float = VERIFY_TOL,
) -> VerificationReport:
    """Recompute every property of a query distribution from its rows.

    All report fields carry raw maxima; tol is the threshold that
    report.passes() applies to them.

    Raises:
        DimensionMismatch: s, cond, and profile disagree on n or delta.
    """
    n, m = cond.n, cond.m
    if s.n != n or profile.n != n or profile.m != m:
        raise DimensionMismatch("state counts disagree")
    if s.delta != cond.delta:
        raise DimensionMismatch(
            f"distribution built for delta={s.delta}, table has {cond.delta}"
        )

    # how many messages each query downloads, and which states it names
    size = np.array([len(members) for members in s.queries], dtype=np.int64)
    names = np.zeros((len(s.queries), n), dtype=bool)
    query_of_member = np.repeat(np.arange(size.size), size)
    names[query_of_member, [i for k in s.queries for i in k]] = True
    positive = s.mass > 0.0
    bad = ~positive | ~names[s.q, s.x]
    violations = [
        (s.queries[k], x, u_pair(u, n))
        for k, x, u in zip(s.q[bad].tolist(), s.x[bad].tolist(), s.u[bad].tolist())
    ]
    q, x, u, mass = (c[positive] for c in (s.q, s.x, s.u, s.mass))
    marginals = np.bincount(u * n + x, weights=mass, minlength=m * n).reshape(m, n)
    marginal_errors = np.abs(marginals - cond.values)

    # per-query mass in every context, for the queries with positive mass
    query_mass = np.bincount(
        q * m + u, weights=mass, minlength=len(s.queries) * m
    ).reshape(-1, m)
    live = np.flatnonzero(np.bincount(q, minlength=len(s.queries)))

    worst_privacy = worst_marginal = None
    privacy_gap = 0.0
    if live.size:
        per_query = query_mass[live]
        gaps = per_query.max(axis=1) - per_query.min(axis=1)
        k = int(gaps.argmax())
        privacy_gap = float(gaps[k])
        worst_privacy = {
            "q": list(s.queries[live[k]]),
            "u_max": list(u_pair(int(per_query[k].argmax()), n)),
            "u_min": list(u_pair(int(per_query[k].argmin()), n)),
        }
        u, x = np.unravel_index(int(marginal_errors.argmax()), marginal_errors.shape)
        worst_marginal = {"x": int(x), "u": list(u_pair(int(u), n))}

    size_law_errors = None
    if s.form == "multiset":
        by_size = np.zeros((n + 1, m))
        np.add.at(by_size, size, query_mass)
        size_law_errors = np.abs(
            by_size[1:] - profile.theta[:, None]
        ).max(axis=1)

    cost = expected_cost(s, cond, np.full(m, 1.0 / m))

    return VerificationReport(
        decodability_violations=violations,
        max_privacy_gap=privacy_gap,
        marginal_errors=marginal_errors,
        size_law_errors=size_law_errors,
        expected_cost=cost,
        cost_slack=rate_inner(profile) - cost,
        entry_count=s.entry_count,
        worst_privacy=worst_privacy,
        worst_marginal=worst_marginal,
        tol=tol,
    )


def expected_cost(s, cond: ConditionalTable, u_prior: np.ndarray) -> float:
    """Expected query size under a context prior, in messages per step.

    For a private distribution the result does not depend on the prior,
    because p(q | u) is the same for every u.

    Raises:
        DimensionMismatch: the prior does not have one entry per context.
        ValueError: the prior is not finite, non-negative and summing to 1.
    """
    u_prior = np.asarray(u_prior, dtype=float)
    if u_prior.shape != (cond.m,):
        raise DimensionMismatch(f"prior must have length {cond.m}")
    # a NaN fails every comparison, and an infinite entry makes the sum miss 1
    if not ((u_prior >= 0.0).all() and abs(u_prior.sum() - 1.0) <= PRIOR_SUM_TOL):
        raise ValueError("prior must be finite, non-negative, sum to 1")
    size = np.array([len(members) for members in s.queries], dtype=float)
    return float(np.dot(size[s.q] * u_prior[s.u], s.mass))

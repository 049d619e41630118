"""Sorted-likelihood machinery and download-rate bounds.

Everything here is driven by one construction: for each request x, sort the
likelihoods p(x | u) over the m = n^2 contexts in ascending order. Summing
the i-th smallest values across x gives the row sums lambda_i, and their
successive increments theta_i turn out to be exactly the probability that an
optimal-within-its-class query downloads i messages.

Cost is measured in messages per step (expected query size), so bounds are
reported as inverse rates: inv_r = 1/R = expected number of messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from onoffpriv.markov import ConditionalTable, symmetric_sigmas

THETA_NOISE_TOL = 1e-12


class WrongArity(ValueError):
    """A closed form specialized to a fixed n was called with a different n."""


class OutOfRegime(ValueError):
    """A closed form was called outside the alpha range where it holds."""


class NegativeTheta(ArithmeticError):
    """A theta increment came out negative beyond floating noise.

    The increments are provably nonnegative for every chain, so this can
    only mean a corrupted likelihood table or an upstream bug.
    """


@dataclass(frozen=True, eq=False)
class ThetaProfile:
    """Sorted likelihoods, their row sums, and the increment vector.

    Attributes:
        n: number of states.
        m: number of contexts, n^2.
        order: n x m integer array; order[x][i] is the context with the
            i-th smallest likelihood for request x (ties broken by
            ascending context index).
        lambda_xi: n x m array of the sorted likelihoods themselves.
        lambda_rows: length-m vector, lambda_rows[i] = sum_x lambda_xi[x][i].
        theta: length-n increment vector; theta[0] = lambda_rows[0],
            theta[i] = lambda_rows[i] - lambda_rows[i-1] for middle i, and
            theta[n-1] = 1 - lambda_rows[n-2].
    """

    n: int
    m: int
    order: np.ndarray
    lambda_xi: np.ndarray
    lambda_rows: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in ("order", "lambda_xi", "lambda_rows", "theta"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def theta_profile(cond: ConditionalTable) -> ThetaProfile:
    """Sort the likelihood table per request and compute the increments.

    Raises:
        NegativeTheta: an increment fell below -1e-12. Values within noise
            of zero are clipped to zero instead.
    """
    n, m = cond.n, cond.m
    # stable sort = ascending likelihood, ties by ascending context index
    order = np.ascontiguousarray(np.argsort(cond.values, axis=0, kind="stable").T)
    lambda_xi = np.take_along_axis(cond.values.T, order, axis=1)
    lambda_rows = lambda_xi.sum(axis=0)
    theta = np.empty(n)
    theta[0] = lambda_rows[0]
    if n > 2:
        theta[1 : n - 1] = lambda_rows[1 : n - 1] - lambda_rows[: n - 2]
    theta[n - 1] = 1.0 - lambda_rows[n - 2]
    worst = theta.min()
    if worst < -THETA_NOISE_TOL:
        raise NegativeTheta(f"theta increment {worst:g} below tolerance")
    theta = np.maximum(theta, 0.0)
    return ThetaProfile(
        n=n,
        m=m,
        order=order,
        lambda_xi=lambda_xi,
        lambda_rows=lambda_rows,
        theta=theta,
    )


def rate_inner(profile: ThetaProfile) -> float:
    """Achievable expected download, sum over i of i * theta_i."""
    return float(np.arange(1, profile.n + 1) @ profile.theta)


def rate_outer(profile: ThetaProfile) -> float:
    """Converse bound on expected download, sum over x of max_u p(x | u)."""
    return float(profile.lambda_rows[-1])


def closed_form_two_states(cond: ConditionalTable) -> float:
    """Exact optimal cost for n = 2, where both bounds coincide.

    Equals the converse bound sum_x max_u p(x | u), computed directly from
    the table rather than through the sorted profile.

    Raises:
        WrongArity: the table is not for a 2-state chain.
    """
    if cond.n != 2:
        raise WrongArity(f"closed form requires n=2, got n={cond.n}")
    return float(cond.values.max(axis=0).sum())


def closed_form_symmetric(n: int, alpha: float, delta: int) -> float:
    """Exact optimal cost for a symmetric chain with alpha >= 1/n.

    In this regime both bounds coincide at n * sigma1, where sigma1 is the
    likelihood of the context whose three coordinates all agree. A zero gap
    means the flag is on right now, so the cost is exactly n.

    Raises:
        OutOfRegime: alpha < 1/n, where the bounds genuinely differ.
    """
    if alpha < 1.0 / n:
        raise OutOfRegime(f"requires alpha >= 1/n, got alpha={alpha}, n={n}")
    if delta == 0:
        return float(n)
    return n * symmetric_sigmas(n, alpha, delta)[0]


def closed_form_small_alpha(
    n: int, alpha: float, delta: int
) -> tuple[float, float]:
    """Both costs (outer, inner) for a symmetric chain with alpha < 1/n.

    The value alternates with the parity of delta because the dominant
    likelihood case flips between even and odd gaps:
        even delta: (n*s2, n*s3 + n - n^2*s3)
        odd delta:  (n*s5, s3*(2n - n^2) - n*s1 + n)
    A zero gap forces a full download, so both costs are n.

    Raises:
        OutOfRegime: alpha >= 1/n, where the single closed form applies.
    """
    if alpha >= 1.0 / n:
        raise OutOfRegime(f"requires alpha < 1/n, got alpha={alpha}, n={n}")
    if delta == 0:
        return float(n), float(n)
    s1, s2, s3, _, s5 = symmetric_sigmas(n, alpha, delta)
    if delta % 2 == 0:
        inv_outer = n * s2
        inv_inner = n * s3 + n - n * n * s3
    else:
        inv_outer = n * s5
        inv_inner = s3 * (2 * n - n * n) - n * s1 + n
    return float(inv_outer), float(inv_inner)

"""Markov request chains and the likelihood tables they induce.

States are indexed 0..n-1 throughout the package. A context is the pair
(xtau, xnext): the request made the last time privacy was on and the next
upcoming request. Contexts are flattened to a single row index
u = xtau * n + xnext, giving m = n^2 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9
# how far rounding may carry a likelihood below 0 or above 1
LIKELIHOOD_BELOW_ZERO_TOL = 1e-15
LIKELIHOOD_ABOVE_ONE_TOL = 1e-12
# a power has mixed once each column spreads across its rows by at most
# this share of its largest entry: 45 eps, as 4 eps misses a chain at 6.6 eps
MIXED_TOL = 1e-14


class ZeroContextProbability(ValueError):
    """A context pair (xtau, xnext) is unreachable under the chain.

    The likelihood table conditions on the context, so every pair must have
    positive probability after delta + 1 transitions.
    """


def as_index(value, name: str) -> int:
    """A state, count or gap read from JSON, which must be an integer.

    int() would read 1.7 as 1, and True or "2" as states too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_number(value, name: str) -> float:
    """A probability read from JSON: a JSON number, not "0.6" or true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def u_index(xtau: int, xnext: int, n: int) -> int:
    """Flatten a context pair into a row index."""
    if not (0 <= xtau < n and 0 <= xnext < n):
        raise ValueError(f"context pair ({xtau}, {xnext}) out of range for n={n}")
    return xtau * n + xnext


def u_pair(u: int, n: int) -> tuple[int, int]:
    """Recover the (xtau, xnext) pair from a flat row index."""
    if not 0 <= u < n * n:
        raise ValueError(f"context index {u} out of range for n={n}")
    xtau, xnext = divmod(u, n)
    return xtau, xnext


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic transition matrix of an n-state request chain.

    Attributes:
        entries: n x n array, entries[i][j] = probability of moving to
            state j from state i.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("transition matrix must be square")
        if entries.shape[0] < 2:
            raise ValueError("need at least 2 states")
        if not np.isfinite(entries).all():
            raise ValueError("transition probabilities must be finite")
        if (entries < 0).any():
            raise ValueError("transition probabilities must be nonnegative")
        row_err = np.abs(entries.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:g})")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def is_strictly_positive(self) -> bool:
        """True when every one-step transition has positive probability."""
        return bool((self.entries > 0).all())


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Likelihoods p(x | u) for every context u at a fixed gap delta.

    Attributes:
        n: number of states.
        delta: gap since privacy was last on (t - tau).
        values: m x n array with m = n^2; values[u][x] = p(x | u).
    """

    n: int
    delta: int
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        m = self.n * self.n
        if values.shape != (m, self.n):
            raise ValueError(f"values must have shape ({m}, {self.n})")
        if not np.isfinite(values).all():
            raise ValueError("likelihoods must be finite")
        if (values < -LIKELIHOOD_BELOW_ZERO_TOL).any() or (
            values > 1 + LIKELIHOOD_ABOVE_ONE_TOL
        ).any():
            raise ValueError("likelihoods must lie in [0, 1]")
        row_err = np.abs(values.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:g})")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.n * self.n


def symmetric_chain(n: int, alpha: float) -> TransitionMatrix:
    """Chain that stays put with probability alpha, else moves uniformly.

    Args:
        n: number of states, at least 2.
        alpha: self-transition probability in [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if n < 2:
        raise ValueError("need at least 2 states")
    entries = np.full((n, n), (1.0 - alpha) / (n - 1))
    np.fill_diagonal(entries, alpha)
    return TransitionMatrix(entries)


def matrix_powers(P: TransitionMatrix, start: int, stop: int):
    """Yield (first, P^delta) for each delta in range(start, stop), where
    first is the smallest gap known to share P^delta bit for bit.

    The powers are products taken one after another from the identity. The
    first to mix within MIXED_TOL is held for every later gap: the exact
    powers past it keep each entry within its column's spread, a share of
    the column's scale however small, while computed ones drift in their
    last bits (N. J. Higham and P. A. Knight, SIAM J. Matrix Anal. Appl.
    1995). A chain that never mixes, such as a periodic one, stops at a
    bitwise repeat: Brent's check (R. P. Brent, BIT 1980) compares each
    product with the one saved at the last power-of-two step, and on a
    match with period lam the cycle's powers are yielded again, so a start
    past the cycle lands on it at once. Squaring would be cheaper for one
    large delta but would change the rounding.
    """
    if start < 0:
        raise ValueError("delta must be nonnegative")
    power, k = np.eye(P.n), 0  # power is P^k
    saved, saved_at, cycle, lam = power.tobytes(), 0, [], 1
    for delta in range(start, stop):
        while k < delta and not cycle:
            k += 1
            power = power @ P.entries
            if (np.ptp(power, axis=0) <= MIXED_TOL * power.max(axis=0)).all():
                saved_at, cycle = k, [power]
            elif power.tobytes() == saved:
                cycle, lam = [power], k - saved_at  # cycle[i] is P^(saved_at + i)
            elif k & (k - 1) == 0:
                saved, saved_at = power.tobytes(), k
        if not cycle:
            yield delta, power
            continue
        i = (delta - saved_at) % lam
        while len(cycle) <= i:
            cycle.append(cycle[-1] @ P.entries)
        yield saved_at + i, cycle[i]


def matrix_power(P: TransitionMatrix, delta: int) -> np.ndarray:
    """P^delta as matrix_powers walks to it; delta = 0 gives the identity."""
    return next(matrix_powers(P, delta, delta + 1))[1]


def conditional_table(
    P: TransitionMatrix, delta: int, power: np.ndarray | None = None
) -> ConditionalTable:
    """Likelihood table p(x | u) induced by the chain at gap delta.

    With u = (xtau, xnext), Bayes gives
        p(x | u) = P[x, xnext] * (P^delta)[xtau, x] / (P^(delta+1))[xtau, xnext].

    Args:
        P: the chain.
        delta: the gap.
        power: P^delta when the caller already holds it, as walked by
            matrix_powers; by default it is computed here.

    Raises:
        ZeroContextProbability: some pair (xtau, xnext) cannot occur in
            delta + 1 steps, so conditioning on it is undefined.
    """
    n = P.n
    pd = matrix_power(P, delta) if power is None else power
    pd1 = pd @ P.entries
    if (pd1 <= 0.0).any():
        bad = np.argwhere(pd1 <= 0.0)[0]
        raise ZeroContextProbability(
            f"context pair ({bad[0]}, {bad[1]}) has zero probability at "
            f"delta={delta}"
        )
    # numer[xtau, xnext, x] = pd[xtau, x] * P[x, xnext]
    numer = pd[:, None, :] * P.entries.T[None, :, :]
    values = (numer / pd1[:, :, None]).reshape(n * n, n)
    return ConditionalTable(n=n, delta=delta, values=values)


def symmetric_sigmas(n: int, alpha: float, delta: int) -> tuple:
    """Closed-form likelihood values for a symmetric chain at gap delta >= 1.

    For a symmetric chain, p(x | u) with u = (xtau, xnext) takes only five
    values, determined by the equality pattern among xtau, x, and xnext;
    they are returned as the floats (sigma1, ..., sigma5):

        sigma1: xtau = x = xnext
        sigma2: xtau = x, x != xnext
        sigma3: xtau != x, x = xnext
        sigma4: xtau = xnext, x different
        sigma5: all three distinct (needs n >= 3)

    Writing r = ((n*alpha - 1) / (n-1))^delta, which lies in [-1, 1], the
    common denominators, divided by (n-1)^delta, are
        d_plus  = 1 + r * (n*alpha - 1)        (contexts with xtau = xnext)
        d_minus = (n-1) - r * (n*alpha - 1)     (contexts with xtau != xnext)
    and the five values follow by evaluating the delta-step and single-step
    transition probabilities case by case, each divided by (n-1)^delta, so
    that no term overflows at a large gap.
    """
    if n < 2:
        raise ValueError("need at least 2 states")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    r = ((n * alpha - 1.0) / (n - 1.0)) ** delta
    d_plus = 1.0 + r * (n * alpha - 1.0)
    d_minus = (n - 1.0) - r * (n * alpha - 1.0)
    if d_plus <= 0.0 or d_minus <= 0.0:
        raise ZeroContextProbability(
            f"symmetric chain with n={n}, alpha={alpha} has an unreachable "
            f"context at delta={delta}"
        )
    sigma1 = alpha * (1.0 + r * (n - 1.0)) / d_plus
    sigma2 = (1.0 - alpha) * (1.0 + r * (n - 1.0)) / d_minus
    sigma3 = alpha * (n - 1.0) * (1.0 - r) / d_minus
    sigma4 = (1.0 - alpha) * (1.0 - r) / (d_plus * (n - 1.0))
    sigma5 = (1.0 - alpha) * (1.0 - r) / d_minus
    return tuple(map(float, (sigma1, sigma2, sigma3, sigma4, sigma5)))


def chain_from_dict(spec) -> TransitionMatrix:
    """Build a chain from its JSON representation, which takes exactly one
    of two forms:
        {"n": 3, "rows": [[...], [...], [...]]}
        {"symmetric": {"n": 3, "alpha": 0.6}}
    An "n" beside "rows" or "symmetric" is optional, and must then be the
    chain's number of states.

    Raises:
        ValueError: naming the field that is missing or malformed.
    """
    if not isinstance(spec, dict):
        raise ValueError("a chain spec must be a JSON object")
    if ("rows" in spec) == ("symmetric" in spec):
        raise ValueError("a chain spec needs exactly one of 'rows' and 'symmetric'")
    if "symmetric" in spec:
        sym = spec["symmetric"]
        if not isinstance(sym, dict):
            raise ValueError("'symmetric' must be an object with 'n' and 'alpha'")
        for key in ("n", "alpha"):
            if key not in sym:
                raise ValueError(f"'symmetric' needs {key!r}")
        P = symmetric_chain(as_index(sym["n"], "n"), as_number(sym["alpha"], "alpha"))
    else:
        rows = spec["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("'rows' must be a list of lists of probabilities")
        rows = [[as_number(p, "probability") for p in r] for r in rows]
        P = TransitionMatrix(np.array(rows))
    if "n" in spec and as_index(spec["n"], "n") != P.n:
        raise ValueError(f"declared n does not match the chain's {P.n} states")
    return P

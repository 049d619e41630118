"""Discrete-time client/server retrieval protocol with privacy toggling.

Each step the client wants one of n messages, all refreshed by the server
every step. The request sequence follows the configured Markov chain; the
privacy flag follows the configured schedule. The client always knows its
next request one step ahead, so at step t it samples a query from the scheme
for gap delta = t - tau (tau = last time the flag was on) and downloads the
named messages, msg_len bytes each; decoding succeeds when the wanted
message is among them.

Empirical privacy is judged per gap bucket: within a bucket the sampled
query must be statistically independent of the context (request at tau,
next request), measured by the largest conditional-frequency gap and a
chi-square contingency statistic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from numbers import Integral, Real

import numpy as np

from onoffpriv.bounds import theta_profile
from onoffpriv.markov import TransitionMatrix, conditional_table, matrix_powers
from onoffpriv.scheme import (
    CSV_BLOCK_ROWS,
    SchemeDistribution,
    ZeroLikelihoodContext,
    build_scheme,
    collapse_to_sets,
    csv_digits,
)

MIN_BUCKET_SAMPLES = 1000
# the simulator draws its uniforms, and the query draw does its per-step
# work, this many steps at a time, so that no such work array outgrows it
# whatever the horizon
DRAW_BLOCK_STEPS = 1 << 15
# the gap and p-value thresholds of EmpiricalStats.flags_dependence
DEPENDENCE_GAP_THRESHOLD = 0.05
DEPENDENCE_P_THRESHOLD = 1e-6
# a context seen fewer times is left out of the gate's chi-square and gap:
# the chi-square approximation needs expected counts of about 5 a cell
# (Cochran's rule), which this many samples give every query drawn at least
# a sixth of the time, and a context seen once spreads by 1.0 from noise
MIN_CONTEXT_SAMPLES = 30


class InsufficientSamples(ValueError):
    """A gap bucket holds too few samples for a meaningful test."""


@dataclass(frozen=True)
class PrivacySchedule:
    """When the privacy flag is on, as a kind and its arg: explicit, the
    flag tuple; always-on and off-after-0 (on at step 0 only), None;
    bernoulli, the probability p that a step is on, drawn independently;
    periodic, the period, on at its multiples. Step 0 is always on.
    """

    kind: str
    arg: object = None

    def __post_init__(self):
        kind, arg = self.kind, self.arg
        if kind in ("always-on", "off-after-0"):
            if arg is not None:
                raise ValueError(f"{kind} takes no argument, got {arg!r}")
        elif kind == "bernoulli":
            if isinstance(arg, bool) or not isinstance(arg, Real):
                raise ValueError(f"p must be a real number, got {arg!r}")
            if not 0.0 <= arg <= 1.0:
                raise ValueError("p must lie in [0, 1]")
            object.__setattr__(self, "arg", float(arg))
        elif kind == "periodic":
            if isinstance(arg, bool) or not isinstance(arg, Integral):
                raise ValueError(f"period must be an integer, got {arg!r}")
            if arg < 1:
                raise ValueError("period must be at least 1")
            object.__setattr__(self, "arg", int(arg))
        elif kind == "explicit":
            if not isinstance(arg, (tuple, list)) or not all(f in (0, 1) for f in arg):
                raise ValueError(f"explicit flags must be a 0/1 list, got {arg!r}")
            if not arg or not arg[0]:
                raise ValueError("the flag at step 0 must be on")
            object.__setattr__(self, "arg", tuple(map(bool, arg)))
        else:
            raise ValueError(f"unknown schedule {kind!r}")

    @classmethod
    def parse(cls, text: str) -> "PrivacySchedule":
        """Parse a schedule spec such as 'periodic:2' or 'explicit:1,0,1'."""
        head, colon, arg = text.partition(":")
        kind = head.strip().lower()
        if kind in ("always-on", "off-after-0"):
            if colon:
                raise ValueError(f"{kind} takes no argument, got {text!r}")
            return cls(kind)
        if kind == "bernoulli":
            return cls(kind, float(arg))
        if kind == "periodic":
            return cls(kind, int(arg))
        if kind == "explicit":
            tokens = [tok.strip() for tok in arg.split(",")]
            if set(tokens) - {"0", "1"}:
                raise ValueError(f"explicit flags must each be 0 or 1, got {arg!r}")
            return cls(kind, tuple(tok == "1" for tok in tokens))
        raise ValueError(f"unknown schedule {text!r}")

    def spec_string(self) -> str:
        if self.kind == "explicit":
            return "explicit:" + ",".join("1" if f else "0" for f in self.arg)
        return self.kind if self.arg is None else f"{self.kind}:{self.arg}"

    def realize(self, horizon: int, rng) -> np.ndarray:
        """Flag vector for the whole run; forces the step-0 flag on."""
        if self.kind == "explicit":
            if len(self.arg) < horizon:
                raise ValueError(
                    f"explicit schedule covers {len(self.arg)} steps, "
                    f"horizon is {horizon}"
                )
            out = np.array(self.arg[:horizon], dtype=bool)
        elif self.kind == "bernoulli":
            # DRAW_BLOCK_STEPS draws at a time, the stream of one call
            out = np.empty(horizon, dtype=bool)
            for lo in range(0, horizon, DRAW_BLOCK_STEPS):
                block = out[lo:lo + DRAW_BLOCK_STEPS]
                np.less(rng.random(len(block)), self.arg, out=block)
        else:
            period = {"always-on": 1, "off-after-0": horizon}.get(self.kind, self.arg)
            out = np.zeros(horizon, dtype=bool)
            out[::period] = True
        out[0] = True
        return out


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: chain, schedule, length, message size, seed."""

    chain: TransitionMatrix
    schedule: PrivacySchedule
    horizon: int
    msg_len: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.msg_len < 1:
            raise ValueError("messages need at least 1 byte")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # a step downloads at most n messages, so every per-step byte count
        # and their sum over the run fit in an int64 below this bound
        if self.chain.n * self.msg_len * self.horizon >= 2**63:
            raise ValueError(
                f"n={self.chain.n} messages of {self.msg_len} bytes over "
                f"{self.horizon} steps overflow the int64 byte counts"
            )


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-step protocol record plus per-gap aggregates.

    The trace stores three arrays indexed by step, 17 bytes a step when
    n <= 8: path, the T + 1 requests with the one-step lookahead (int64);
    delta, the gap t - tau since the flag was last on (int64); and
    query_ids, in the narrowest unsigned dtype that holds
    len(query_keys) - 1. query_keys holds the queries of the run's schemes,
    sorted, each a sorted member tuple, and query_ids[t] indexes the query
    of step t in it; query_sizes and query_names give each key's member
    count and members.

    x is the view path[:-1], and a step's flag was on iff its delta is 0.
    contexts and decodes derive, over a range of steps, the context u =
    path[tau] * n + path[t + 1] and whether the query names x;
    write_trace_csv alone derives tau, the query size and the bytes of
    every step. gap_counts[d]
    and gap_size_sums[d] are the number of steps with gap d and the sum of
    their query sizes. schemes_built counts the per-gap schemes
    constructed; schemes_reused counts the honest gaps that took an earlier
    gap's scheme because matrix_powers gave them that gap's power of the
    chain, held or in a cycle.
    """

    n: int
    msg_len: int
    path: np.ndarray
    delta: np.ndarray
    query_ids: np.ndarray
    query_keys: list
    gap_counts: np.ndarray
    gap_size_sums: np.ndarray
    schemes_built: int = 0
    schemes_reused: int = 0

    @property
    def horizon(self) -> int:
        return self.delta.shape[0]

    @cached_property
    def query_sizes(self) -> np.ndarray:
        """The member count of every query key."""
        return _query_sizes(self.query_keys)

    @cached_property
    def query_names(self) -> np.ndarray:
        """query_names[i, s]: whether query_keys[i] names message s."""
        return np.array(
            [[s in q for s in range(self.n)] for q in self.query_keys], dtype=bool
        )

    @property
    def x(self) -> np.ndarray:
        return self.path[:-1]

    def contexts(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """u of the steps lo..hi - 1, as a slice bounds them."""
        return _contexts(self.path, self.delta, self.n, lo, hi)

    def decodes(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Whether each step lo..hi - 1, as a slice bounds them, decodes:
        the server answers exactly the queried messages, so the client
        decodes its wanted message iff the query names it."""
        return self.query_names[self.query_ids[lo:hi], self.x[lo:hi]]

    def decode_failures(self) -> int:
        """The number of steps that do not decode, counted a block at a
        time."""
        return sum(
            int(np.count_nonzero(~self.decodes(lo, lo + DRAW_BLOCK_STEPS)))
            for lo in range(0, self.horizon, DRAW_BLOCK_STEPS)
        )

    def total_bytes(self) -> int:
        return self.msg_len * int(self.gap_size_sums.sum())


def _contexts(path, delta, n: int, lo: int, hi: int | None) -> np.ndarray:
    """The context path[tau] * n + path[t + 1] of every step t that the
    slice lo:hi picks, where tau = t - delta[t]."""
    gap = delta[lo:hi]
    u = np.arange(lo, lo + len(gap))
    u -= gap
    u = path[u]
    u *= n
    u += path[lo + 1:lo + 1 + len(gap)]
    return u


def _query_sizes(keys) -> np.ndarray:
    return np.array([len(q) for q in keys], dtype=np.int64)


def _sample_path(P: TransitionMatrix, length: int, rng) -> np.ndarray:
    """A request path of `length` states from `length` uniform draws,
    started in a uniformly drawn state.

    The state after s on draw r is the number of breakpoints cum[s, :-1]
    at or below r, the same as min(searchsorted(cum[s], r, "right"), n - 1).
    That count is constant between consecutive breakpoints of all the rows,
    so each draw is placed once among them, in a cell, and a table gives
    every state's successor in every cell.

    The transitions are cut into B blocks of L steps. Every block is walked
    from all n states at once, which gives where it ends from each; a B-long
    loop chains the blocks' true starts; and every block is walked once
    more from its start: about 2L + B Python steps instead of one a step.
    """
    n = P.n
    start = rng.random(1)[0]
    first = int((np.cumsum(np.full(n, 1.0 / n))[:-1] <= start).sum())
    cum = np.cumsum(P.entries, axis=1)[:, :-1]
    edges = np.sort(cum, axis=None)
    # table[c * n + s]: the state after s on a draw in cell c, whose lower
    # end is -inf for c = 0 and edges[c - 1] after
    lower = np.concatenate(([-np.inf], edges))
    table = (cum <= lower[:, None, None]).sum(axis=2).ravel()

    steps = length - 1
    L = max(1, isqrt(steps // n))
    B = -(-steps // L)
    # each step's cell as an offset into table, from DRAW_BLOCK_STEPS draws
    # at a time; the cells that pad the last block come after the path's
    # end, whose states are cut off
    cells = np.zeros(B * L, dtype=np.intp)
    for lo in range(0, steps, DRAW_BLOCK_STEPS):
        hi = min(lo + DRAW_BLOCK_STEPS, steps)
        cell = np.searchsorted(edges, rng.random(hi - lo), "right")
        np.multiply(cell, n, out=cells[lo:hi])
    cells = cells.reshape(B, L)

    ends = np.broadcast_to(np.arange(n), (B, n))
    for j in range(L):
        ends = table[cells[:, j, None] + ends]
    starts = np.empty(B, dtype=np.intp)
    state = first
    for b in range(B):
        starts[b] = state
        state = ends[b, state]
    path = np.empty(1 + B * L, dtype=np.int64)
    path[0] = first
    blocks = path[1:].reshape(B, L)
    state = starts
    for j in range(L):
        state = table[cells[:, j] + state]
        blocks[:, j] = state
    return path[:length]


def build_scheme_for_gap(
    P: TransitionMatrix, delta: int, power: np.ndarray | None = None
) -> SchemeDistribution:
    """Set-form query distribution for one gap, built from scratch.

    power is P^delta when the caller already holds it.
    """
    cond = conditional_table(P, delta, power=power)
    profile = theta_profile(cond)
    return collapse_to_sets(build_scheme(profile, cond))


def _gap_schemes(P: TransitionMatrix, max_delta: int, overrides: dict):
    """The scheme of every gap 0..max_delta.

    Returns (schemes, index, built, reused), where index[delta] is the
    position in schemes of the scheme for that gap.

    The construction reads nothing of the chain but the likelihood table,
    a function of the bits of P^delta. The gaps are walked in order by
    matrix_powers: a gap whose power is an earlier gap's (held once mixed,
    or repeated in a cycle) takes that gap's scheme without computing its
    table. An override gap passes its scheme on to no other gap.
    """
    schemes: list = []
    honest: dict = {}  # first gap of a power -> position of its honest scheme
    index = np.empty(max_delta + 1, dtype=np.int64)
    for delta, (first, power) in enumerate(matrix_powers(P, 0, max_delta + 1)):
        if delta in overrides:
            index[delta] = len(schemes)
            schemes.append(overrides[delta])
            continue
        if first not in honest:
            honest[first] = len(schemes)
            schemes.append(build_scheme_for_gap(P, delta, power))
        index[delta] = honest[first]
    return schemes, index, len(honest), max_delta + 1 - len(schemes)


def _draw_queries(schemes: list, scheme_of_gap, path, delta, n: int, rng):
    """Query of every step, where step t has gap delta[t], request path[t],
    the context that _contexts derives from path and delta, and the uniform
    draw that rng gives it.

    A step with draw r picks the first row of its (scheme, request,
    context) group, in query order, whose cumulative mass exceeds r times
    the group's total, and the last row at the latest; so each query
    follows w(q | x, u) = g(q, x, u) / p(x | u). The rows of every scheme
    are in (x, u, q) order, so their concatenation is grouped by the key
    (scheme n + x) n^2 + u, and a table with a slot per key holds each
    group's row range. Each group's cumulative masses add the same floats
    in the same order as np.cumsum does, one position in the group at a
    time. The steps draw DRAW_BLOCK_STEPS at a time, one block of uniform
    draws each, which is the stream of one draw per step; every step of a
    block bisects its group's range with searchsorted(side="right")
    semantics, one round for all of them at once.
    Returns (ids, keys): keys are the queries of all the schemes, sorted,
    and ids[t] indexes the query of step t, in the narrowest unsigned dtype
    that holds len(keys) - 1.

    Raises:
        ZeroLikelihoodContext: a step's group has no positive total mass;
            the message names the first such step's gap, request and
            context.
    """
    keys = sorted(set().union(*(s.queries for s in schemes)))
    key_ids = {q: i for i, q in enumerate(keys)}
    id_dtype = np.min_scalar_type(len(keys) - 1)
    m = n * n
    # the rows of all schemes: query (as a position in keys), group, mass
    row_key = np.concatenate([
        np.array([key_ids[q] for q in s.queries], dtype=id_dtype)[s.q]
        for s in schemes
    ])
    group = np.concatenate([(i * n + s.x) * m + s.u for i, s in enumerate(schemes)])
    cum = np.concatenate([s.mass for s in schemes])
    # bounds[g] .. bounds[g + 1] is the row range of group g
    bounds = np.zeros(len(schemes) * n * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=bounds.size - 1), out=bounds[1:])
    starts, sizes = bounds[:-1], np.diff(bounds)
    for k in range(1, int(sizes.max())):
        longer = sizes > k
        starts, sizes = starts[longer], sizes[longer]
        cum[starts + k] += cum[starts + k - 1]

    ids = np.empty(len(delta), dtype=id_dtype)
    for first in range(0, len(delta), DRAW_BLOCK_STEPS):
        block = slice(first, min(first + DRAW_BLOCK_STEPS, len(delta)))
        step_group = scheme_of_gap[delta[block]]
        step_group *= n
        step_group += path[block]
        step_group *= m
        step_group += _contexts(path, delta, n, block.start, block.stop)
        lo = bounds[step_group]
        hi = bounds[1:][step_group]
        hi -= 1  # each step's last row
        del step_group
        empty = hi < lo
        if not empty.any():
            target = cum[hi]
            empty = target <= 0.0
        if empty.any():
            t = first + int(np.flatnonzero(empty)[0])
            u = _contexts(path, delta, n, t, t + 1)[0]
            raise ZeroLikelihoodContext(
                f"gap {delta[t]}: no mass for request {path[t]} in context {u}"
            )
        target *= rng.random(len(lo))
        # searchsorted(side="right") over each step's rows but the last, in
        # place, so that a pick is the last row at the latest
        mid = np.empty_like(lo)
        right = np.empty(lo.size, dtype=bool)
        for _ in range(int((hi - lo).max()).bit_length()):
            np.add(lo, hi, out=mid)
            mid >>= 1
            np.less(lo, hi, out=right)
            right &= cum[mid] <= target
            np.add(mid, 1, out=lo, where=right)
            np.copyto(hi, mid, where=~right)
        np.take(row_key, lo, out=ids[block])
    return ids, keys


def run_simulation(cfg: SimConfig, scheme_overrides: dict | None = None) -> SimTrace:
    """Run the protocol for cfg.horizon steps.

    Args:
        cfg: run configuration.
        scheme_overrides: optional map gap -> set-form SchemeDistribution
            used instead of the honest construction for that gap; intended
            for fault-injection tests. It may be built for another gap, but
            not for another n, whose contexts would alias this run's.

    The run is deterministic in (cfg.chain, cfg.schedule, cfg.horizon,
    cfg.msg_len, cfg.seed): three independent child generators drive the
    request path, the schedule and the query draws, so the request path
    depends on the chain and seed only. Each generator gives its draws in
    blocks of DRAW_BLOCK_STEPS, the same stream as one draw per step, so
    the trace of a seed is the one the step-by-step protocol would produce.
    The cost is linear in the horizon T: the request path takes O(n T)
    array work and about 2 sqrt(T / n) + sqrt(n T) Python steps, with no
    n x T table. Past the trace's own arrays, only the path's T cells and
    the schedule's T flags are held at once; every other work array is a
    block long.
    """
    P = cfg.chain
    if not P.is_strictly_positive():
        raise ValueError("simulation requires a strictly positive chain")
    n = P.n
    for gap, s in (scheme_overrides or {}).items():
        if s.n != n:
            raise ValueError(f"gap {gap}: the override has n={s.n}, the chain {n}")
    T = cfg.horizon
    path_ss, flag_ss, query_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    path_rng = np.random.default_rng(path_ss)
    flag_rng = np.random.default_rng(flag_ss)
    query_rng = np.random.default_rng(query_ss)

    # one extra state so the lookahead at the final step exists
    path = _sample_path(P, T + 1, path_rng)

    # derived in place: tau keeps the steps whose flag is on, then carries
    # the last of them forward, and the same buffer becomes the gap t - tau,
    # a block at a time
    delta = np.arange(T)
    delta *= cfg.schedule.realize(T, flag_rng)
    np.maximum.accumulate(delta, out=delta)
    for lo in range(0, T, DRAW_BLOCK_STEPS):
        block = delta[lo:lo + DRAW_BLOCK_STEPS]
        np.subtract(np.arange(lo, lo + len(block)), block, out=block)
    schemes, scheme_of_gap, built, reused = _gap_schemes(
        P, int(delta.max()), scheme_overrides or {}
    )
    query_ids, query_keys = _draw_queries(
        schemes, scheme_of_gap, path, delta, n, query_rng
    )

    gap_counts = np.bincount(delta)
    # summed in place a block at a time: a weighted bincount would take a
    # float copy of the query sizes
    sizes = _query_sizes(query_keys)
    gap_size_sums = np.zeros(len(gap_counts), dtype=np.int64)
    for lo in range(0, T, DRAW_BLOCK_STEPS):
        block = slice(lo, lo + DRAW_BLOCK_STEPS)
        np.add.at(gap_size_sums, delta[block], sizes[query_ids[block]])
    return SimTrace(
        n=n,
        msg_len=cfg.msg_len,
        path=path,
        delta=delta,
        query_ids=query_ids,
        query_keys=query_keys,
        gap_counts=gap_counts,
        gap_size_sums=gap_size_sums,
        schemes_built=built,
        schemes_reused=reused,
    )


@dataclass(frozen=True, eq=False)
class TableStats:
    """Independence statistics of one query-by-context contingency table.

    max_tv_gap is the largest spread of the empirical conditional frequency
    of any query across the table's contexts. The chi-square fields test
    independence of query and context. chi2_pvalue is computed on its first
    read, and the first read of one whose dof is positive is the only step
    of a simulation that loads scipy (scipy.special, about 25 MB), so that
    simulate frees the trace before it.
    """

    max_tv_gap: float
    chi2_stat: float
    chi2_dof: int

    @cached_property
    def chi2_pvalue(self) -> float:
        """The chi-square survival function at chi2_stat, as
        scipy.stats.chi2.sf evaluates it; 1.0 when chi2_dof is 0."""
        if self.chi2_dof == 0:
            return 1.0
        # imported here, so that importing onoffpriv loads no scipy module
        from scipy.special import chdtrc

        return float(chdtrc(self.chi2_dof, self.chi2_stat))

    def to_json_obj(self) -> dict:
        keys = ("max_tv_gap", "chi2_stat", "chi2_dof", "chi2_pvalue")
        return {key: getattr(self, key) for key in keys}


@dataclass(frozen=True, eq=False)
class EmpiricalStats(TableStats):
    """Independence diagnostics for one gap bucket: the TableStats of its
    whole table, counts, whose rows are the queries query_keys and whose
    columns are the contexts context_ids.

    gate is the TableStats of the contexts seen at least
    MIN_CONTEXT_SAMPLES times, which flags_dependence reads;
    contexts_left_out and samples_left_out count the rest.
    """

    delta: int
    n_samples: int
    query_keys: list
    context_ids: list
    counts: np.ndarray
    gate: TableStats
    contexts_left_out: int
    samples_left_out: int

    def flags_dependence(self) -> bool:
        """True when the bucket looks dependent on the context.

        Requires both statistical significance (the gate's chi-square
        p-value, calibrated at any sample size once rare contexts are left
        out) and a material effect (the gate's gap). Either alone misfires:
        small buckets show large gaps from noise, and huge buckets reach
        tiny p-values on negligible effects. A fault confined to contexts
        seen fewer than MIN_CONTEXT_SAMPLES times goes unseen.
        """
        p, gap = self.gate.chi2_pvalue, self.gate.max_tv_gap
        return p < DEPENDENCE_P_THRESHOLD and gap > DEPENDENCE_GAP_THRESHOLD

    def to_json_obj(self) -> dict:
        return {
            "delta": self.delta,
            "n_samples": self.n_samples,
            **super().to_json_obj(),
            "gate": {
                **self.gate.to_json_obj(),
                "contexts_left_out": self.contexts_left_out,
                "samples_left_out": self.samples_left_out,
            },
            "query_keys": [list(q) for q in self.query_keys],
            "context_ids": self.context_ids,
            "counts": self.counts.tolist(),
        }


def empirical_privacy_test(trace: SimTrace, delta: int) -> EmpiricalStats:
    """Test query/context independence within one gap bucket.

    Raises:
        InsufficientSamples: fewer than 1000 steps have this gap.
    """
    return empirical_privacy_tests(trace, [delta])[0]


def empirical_privacy_tests(trace: SimTrace, deltas: list | None = None) -> list:
    """The EmpiricalStats of every gap bucket in deltas, in that order, or
    by default of every bucket of at least MIN_BUCKET_SAMPLES steps, with
    all the buckets' contingency tables counted in one pass.

    Raises:
        InsufficientSamples: fewer than 1000 steps have one of the gaps.
    """
    sizes = trace.gap_counts
    if deltas is None:
        deltas = np.flatnonzero(sizes >= MIN_BUCKET_SAMPLES).tolist()
    for delta in deltas:
        size = int(sizes[delta]) if 0 <= delta < len(sizes) else 0
        if size < MIN_BUCKET_SAMPLES:
            raise InsufficientSamples(
                f"gap {delta} has {size} samples, need {MIN_BUCKET_SAMPLES}"
            )
    if not deltas:
        return []
    tables = _gap_tables(trace, deltas)
    return [
        _independence(trace.query_keys, delta, int(sizes[delta]), *tables[delta])
        for delta in deltas
    ]


def _gap_tables(trace: SimTrace, gaps) -> dict:
    """The query-by-context contingency table of every gap in gaps.

    Each step becomes one integer, its (gap slot, query id, context) read
    as the digits of a mixed-radix numeral; the steps of unlisted gaps
    share the slot after the listed ones. The contexts come from
    trace.contexts a block at a time, into the numerals' buffer, and the
    higher digits are added to them a block at a time. Sorting these
    integers in place puts equal cells next to each other, in (gap, query,
    context) order, so one scan gives every cell and its count. The cost
    is one sort of T integers plus each table's cells, however many gaps
    are listed, and the work arrays take 9 bytes a step and 8 a gap.

    Returns {gap: (query ids, contexts, counts)}: the distinct query ids and
    contexts of the gap's steps, each sorted, and the float table that
    counts the steps of every (query id, context) pair in that order.

    Raises:
        OverflowError: the numerals do not fit in an int64.
    """
    gaps = np.array(sorted(set(gaps)), dtype=np.int64)
    n_queries = len(trace.query_keys)
    steps = len(trace.delta)
    blocks = [
        slice(lo, min(lo + DRAW_BLOCK_STEPS, steps))
        for lo in range(0, steps, DRAW_BLOCK_STEPS)
    ]
    cells = np.empty(steps, dtype=np.int64)
    for block in blocks:
        cells[block] = trace.contexts(block.start, block.stop)
    m = int(cells.max()) + 1
    width = n_queries * m  # the numerals of one slot
    if (len(gaps) + 1) * width > 2**63:
        raise OverflowError(
            f"{len(gaps)} gaps of {n_queries} queries and {m} contexts "
            "overflow the int64 cell numbers"
        )
    slot = np.full(max(int(trace.delta.max()), int(gaps[-1])) + 1, len(gaps))
    slot[gaps] = np.arange(len(gaps))
    for block in blocks:
        high = slot[trace.delta[block]]
        high *= n_queries
        high += trace.query_ids[block]
        high *= m
        cells[block] += high
    del slot
    cells.sort()
    new = np.empty(len(cells), dtype=bool)
    new[0] = True
    np.not_equal(cells[1:], cells[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    counts = np.diff(starts, append=len(cells))
    cell_slot, cells = np.divmod(cells[starts], width)
    cell_query, cell_context = np.divmod(cells, m)
    bounds = np.searchsorted(cell_slot, np.arange(len(gaps) + 1))
    tables = {}
    for gap, lo, hi in zip(gaps.tolist(), bounds[:-1], bounds[1:]):
        qids, row = np.unique(cell_query[lo:hi], return_inverse=True)
        contexts, col = np.unique(cell_context[lo:hi], return_inverse=True)
        table = np.zeros((len(qids), len(contexts)))
        table[row, col] = counts[lo:hi]
        tables[gap] = (qids, contexts, table)
    return tables


def _independence(
    all_keys, delta, n_samples, qids, contexts, counts
) -> EmpiricalStats:
    """The statistics of one gap bucket's contingency table; query ids
    follow the sorted query keys, so its rows are in key order."""
    rare = counts.sum(axis=0) < MIN_CONTEXT_SAMPLES
    return EmpiricalStats(
        *_table_stats(counts), delta, n_samples,
        [all_keys[i] for i in qids.tolist()], contexts.tolist(), counts,
        TableStats(*_table_stats(counts[:, ~rare])),
        contexts_left_out=int(rare.sum()),
        samples_left_out=int(counts[:, rare].sum()),
    )


def _table_stats(counts: np.ndarray) -> tuple:
    """(max_tv_gap, chi2_stat, chi2_dof) of a contingency table; the dof
    count the rows with a sample, and a table of no column gives zeros."""
    if counts.shape[1] == 0:
        return 0.0, 0.0, 0
    col_tot = counts.sum(axis=0)
    cond_freq = counts / col_tot[None, :]
    max_tv_gap = float((cond_freq.max(axis=1) - cond_freq.min(axis=1)).max())

    row_tot = counts.sum(axis=1)
    total = counts.sum()
    expected = np.outer(row_tot, col_tot) / total
    with np.errstate(invalid="ignore", divide="ignore"):
        cells = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
    rows = int(np.count_nonzero(row_tot))
    return max_tv_gap, float(cells.sum()), (rows - 1) * (counts.shape[1] - 1)


def average_download_rate(trace: SimTrace) -> dict:
    """Empirical download rate overall and per gap bucket.

    The rate is messages wanted per message downloaded, the inverse of the
    mean query size. The means divide Python ints, so that a size sum at
    or above 2^53 is still rounded once. per_delta maps each gap to its
    rate, an item made as it is read.
    """
    sums = trace.gap_size_sums
    return {
        "overall": 1.0 / (int(sums.sum()) / trace.horizon),
        "per_delta": _PerGap(trace.gap_counts, sums, lambda c, mean: 1.0 / mean),
    }


def write_trace_csv(trace: SimTrace, fh) -> None:
    """Write the per-step trace as CSV to the binary file fh, formatting
    CSV_BLOCK_ROWS rows at a time, so the whole text is never held; the
    columns the trace does not store (f, tau, q_size, bytes, decode_ok) are
    derived a block at a time too."""
    fh.write(b"t,x,f,tau,delta,q_size,bytes,decode_ok\n")
    for lo in range(0, trace.horizon, CSV_BLOCK_ROWS):
        block = slice(lo, lo + CSV_BLOCK_ROWS)
        delta = trace.delta[block]
        t = np.arange(lo, lo + len(delta))
        q_size = trace.query_sizes[trace.query_ids[block]]
        fh.write(csv_digits([
            t, trace.x[block], delta == 0, t - delta, delta,
            q_size, q_size * trace.msg_len, trace.decodes(lo, lo + CSV_BLOCK_ROWS),
        ]))


class _PerGap(Mapping):
    """A read-only map of one item per gap d = 0 .. G - 1 of a run, keyed by
    the gap as an int, in gap order, and valued value(count, mean query
    size) from the gap's sample count and query size sum. It holds no item:
    each is made as it is read."""

    def __init__(self, counts, sums, value):
        self.counts, self.sums, self.value = counts, sums, value

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter(range(len(self)))

    def __getitem__(self, key):
        try:
            d = int(key)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(key) from None
        # int() also reads "1", "01" and 1.5, which, as in a dict, are no key
        if not (0 <= d < len(self) and d == key):
            raise KeyError(key)
        count = int(self.counts[d])
        return self.value(count, int(self.sums[d]) / count)


def simulate(cfg: SimConfig, trace_csv=None) -> dict:
    """Run cfg and return the statistics that `onoffpriv simulate` writes
    as JSON. "pass" holds when no step failed to decode and no bucket of
    MIN_BUCKET_SAMPLES steps or more looks dependent on the context.
    delta_buckets and rates["per_delta"] are keyed by the gap, an int.

    trace_csv, if given, is the path the trace CSV is written to. It is
    opened once every statistic but the p-values is known, so that a failed
    run opens no file. The p-values are read last, after the trace is freed,
    since their first read loads scipy.special.
    """
    trace = run_simulation(cfg)
    decode_failures = trace.decode_failures()
    privacy = empirical_privacy_tests(trace)
    stats = {
        "n": trace.n,
        "horizon": trace.horizon,
        "seed": cfg.seed,
        "schedule": cfg.schedule.spec_string(),
        "msg_len": trace.msg_len,
        "decode_failures": decode_failures,
        "total_bytes": trace.total_bytes(),
        "schemes_built": trace.schemes_built,
        "schemes_reused": trace.schemes_reused,
        "rates": average_download_rate(trace),
        "delta_buckets": _PerGap(
            trace.gap_counts, trace.gap_size_sums,
            lambda c, mean: {"count": c, "mean_q_size": mean},
        ),
    }
    if trace_csv is not None:
        with open(trace_csv, "wb") as fh:
            write_trace_csv(trace, fh)
    del trace
    stats["privacy"] = [s.to_json_obj() for s in privacy]
    dependent = any(s.flags_dependence() for s in privacy)
    stats["pass"] = decode_failures == 0 and not dependent
    return stats

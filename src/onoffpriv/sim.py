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

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _scipy_stats

from onoffpriv.bounds import theta_profile
from onoffpriv.markov import TransitionMatrix, conditional_table
from onoffpriv.scheme import (
    SchemeDistribution,
    build_scheme,
    collapse_to_sets,
    conditional_query_sampler,
)

MIN_BUCKET_SAMPLES = 1000


class InsufficientSamples(ValueError):
    """A gap bucket holds too few samples for a meaningful test."""


@dataclass(frozen=True)
class PrivacySchedule:
    """When the privacy flag is on. The flag at step 0 is always on.

    kinds:
        explicit: a caller-provided flag sequence.
        always-on: every step.
        off-after-0: only step 0.
        bernoulli: independently on with probability p each step.
        periodic: on at every multiple of `period`.
    """

    kind: str
    flags: tuple = ()
    p: float = 0.0
    period: int = 1

    @classmethod
    def explicit(cls, flags) -> "PrivacySchedule":
        flags = tuple(bool(f) for f in flags)
        if not flags or not flags[0]:
            raise ValueError("the flag at step 0 must be on")
        return cls(kind="explicit", flags=flags)

    @classmethod
    def always_on(cls) -> "PrivacySchedule":
        return cls(kind="always-on")

    @classmethod
    def off_after_0(cls) -> "PrivacySchedule":
        return cls(kind="off-after-0")

    @classmethod
    def bernoulli(cls, p: float) -> "PrivacySchedule":
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        return cls(kind="bernoulli", p=p)

    @classmethod
    def periodic(cls, period: int) -> "PrivacySchedule":
        if period < 1:
            raise ValueError("period must be at least 1")
        return cls(kind="periodic", period=period)

    @classmethod
    def parse(cls, text: str) -> "PrivacySchedule":
        """Parse a schedule spec such as 'periodic:2' or 'explicit:1,0,1'."""
        head, _, arg = text.partition(":")
        head = head.strip().lower()
        if head == "always-on":
            return cls.always_on()
        if head in ("off-after-0", "always-off-after-0"):
            return cls.off_after_0()
        if head == "bernoulli":
            return cls.bernoulli(float(arg))
        if head == "periodic":
            return cls.periodic(int(arg))
        if head == "explicit":
            return cls.explicit(int(tok) != 0 for tok in arg.split(","))
        raise ValueError(f"unknown schedule {text!r}")

    def spec_string(self) -> str:
        if self.kind == "explicit":
            return "explicit:" + ",".join("1" if f else "0" for f in self.flags)
        if self.kind == "bernoulli":
            return f"bernoulli:{self.p}"
        if self.kind == "periodic":
            return f"periodic:{self.period}"
        return self.kind

    def realize(self, horizon: int, rng) -> np.ndarray:
        """Flag vector for the whole run; forces the step-0 flag on."""
        if self.kind == "explicit":
            if len(self.flags) < horizon:
                raise ValueError(
                    f"explicit schedule covers {len(self.flags)} steps, "
                    f"horizon is {horizon}"
                )
            out = np.array(self.flags[:horizon], dtype=bool)
        elif self.kind == "always-on":
            out = np.ones(horizon, dtype=bool)
        elif self.kind == "off-after-0":
            out = np.zeros(horizon, dtype=bool)
        elif self.kind == "bernoulli":
            out = rng.random(horizon) < self.p
        else:
            out = np.arange(horizon) % self.period == 0
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
    initial: np.ndarray | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.msg_len < 1:
            raise ValueError("messages need at least 1 byte")
        if self.initial is not None:
            init = np.asarray(self.initial, dtype=float)
            if init.shape != (self.chain.n,):
                raise ValueError("initial distribution has wrong length")
            if (init < 0).any() or abs(init.sum() - 1.0) > 1e-9:
                raise ValueError("initial distribution must be a distribution")
            object.__setattr__(self, "initial", init)


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-step protocol record plus per-gap aggregates.

    Arrays are indexed by step. queries holds the sampled subset per step
    as a sorted member tuple. delta_buckets maps each observed gap to
    (sample count, mean query size).
    """

    n: int
    msg_len: int
    x: np.ndarray
    flag: np.ndarray
    tau: np.ndarray
    delta: np.ndarray
    u: np.ndarray
    q_size: np.ndarray
    bytes_down: np.ndarray
    decode_ok: np.ndarray
    queries: list
    delta_buckets: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.x.shape[0]

    def total_bytes(self) -> int:
        return int(self.bytes_down.sum())


def _sample_path(P: TransitionMatrix, length: int, initial, rng) -> np.ndarray:
    n = P.n
    if initial is None:
        initial = np.full(n, 1.0 / n)
    cum0 = np.cumsum(initial)
    cum = np.cumsum(P.entries, axis=1)
    draws = rng.random(length)
    path = np.empty(length, dtype=np.int64)
    path[0] = np.searchsorted(cum0, draws[0], side="right")
    for t in range(1, length):
        path[t] = np.searchsorted(cum[path[t - 1]], draws[t], side="right")
    np.clip(path, 0, n - 1, out=path)
    return path


def build_scheme_for_gap(P: TransitionMatrix, delta: int) -> SchemeDistribution:
    """Set-form query distribution for one gap, built from scratch."""
    cond = conditional_table(P, delta)
    profile = theta_profile(cond)
    return collapse_to_sets(build_scheme(profile, cond))


def run_simulation(cfg: SimConfig, scheme_overrides: dict | None = None) -> SimTrace:
    """Run the protocol for cfg.horizon steps.

    Args:
        cfg: run configuration.
        scheme_overrides: optional map gap -> set-form SchemeDistribution
            used instead of the honest construction for that gap; intended
            for fault-injection tests.

    The run is deterministic in (cfg.chain, cfg.schedule, cfg.horizon,
    cfg.msg_len, cfg.seed): three independent child generators drive the
    request path, the schedule and the query draws, so the request path
    depends on the chain and seed only.
    """
    P = cfg.chain
    if not P.is_strictly_positive():
        raise ValueError("simulation requires a strictly positive chain")
    n = P.n
    T = cfg.horizon
    path_ss, flag_ss, query_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    path_rng = np.random.default_rng(path_ss)
    flag_rng = np.random.default_rng(flag_ss)
    query_rng = np.random.default_rng(query_ss)

    # one extra state so the lookahead at the final step exists
    x = _sample_path(P, T + 1, cfg.initial, path_rng)
    flags = cfg.schedule.realize(T, flag_rng)

    schemes: dict[int, SchemeDistribution] = {}
    overrides = scheme_overrides or {}

    tau_arr = np.empty(T, dtype=np.int64)
    delta_arr = np.empty(T, dtype=np.int64)
    u_arr = np.empty(T, dtype=np.int64)
    q_size = np.empty(T, dtype=np.int64)
    decode_ok = np.empty(T, dtype=bool)
    queries: list = []
    buckets: dict[int, list] = {}

    tau = 0
    for t in range(T):
        if flags[t]:
            tau = t
        delta = t - tau
        u = int(x[tau]) * n + int(x[t + 1])
        sch = schemes.get(delta)
        if sch is None:
            sch = overrides.get(delta)
            if sch is None:
                sch = build_scheme_for_gap(P, delta)
            schemes[delta] = sch
        q = conditional_query_sampler(sch, int(x[t]), u, query_rng)
        # the server answers exactly the queried messages, so the client
        # decodes its wanted message iff the query names it
        ok = int(x[t]) in q

        tau_arr[t] = tau
        delta_arr[t] = delta
        u_arr[t] = u
        q_size[t] = len(q)
        decode_ok[t] = ok
        queries.append(q)
        agg = buckets.setdefault(delta, [0, 0])
        agg[0] += 1
        agg[1] += len(q)

    delta_buckets = {
        d: (count, size_sum / count) for d, (count, size_sum) in buckets.items()
    }
    return SimTrace(
        n=n,
        msg_len=cfg.msg_len,
        x=x[:T],
        flag=flags,
        tau=tau_arr,
        delta=delta_arr,
        u=u_arr,
        q_size=q_size,
        bytes_down=q_size * cfg.msg_len,
        decode_ok=decode_ok,
        queries=queries,
        delta_buckets=delta_buckets,
    )


@dataclass(frozen=True, eq=False)
class EmpiricalStats:
    """Independence diagnostics for one gap bucket.

    counts is a queries-by-contexts contingency table. max_tv_gap is the
    largest spread of the empirical conditional frequency of any query
    across the observed contexts. The chi-square fields test independence
    of query and context in the bucket.
    """

    delta: int
    n_samples: int
    query_keys: list
    context_ids: list
    counts: np.ndarray
    max_tv_gap: float
    chi2_stat: float
    chi2_dof: int
    chi2_pvalue: float

    def flags_dependence(
        self, gap_threshold: float = 0.05, p_threshold: float = 1e-6
    ) -> bool:
        """True when the bucket looks dependent on the context.

        Requires both statistical significance (the chi-square p-value,
        calibrated at any sample size) and a material effect (the gap).
        Either alone misfires: small buckets show large gaps from noise,
        and huge buckets reach tiny p-values on negligible effects.
        """
        return self.chi2_pvalue < p_threshold and self.max_tv_gap > gap_threshold

    def to_json_obj(self) -> dict:
        return {
            "delta": self.delta,
            "n_samples": self.n_samples,
            "max_tv_gap": self.max_tv_gap,
            "chi2_stat": self.chi2_stat,
            "chi2_dof": self.chi2_dof,
            "chi2_pvalue": self.chi2_pvalue,
            "query_keys": [list(q) for q in self.query_keys],
            "context_ids": self.context_ids,
            "counts": self.counts.tolist(),
        }


def empirical_privacy_test(trace: SimTrace, delta: int) -> EmpiricalStats:
    """Test query/context independence within one gap bucket.

    Raises:
        InsufficientSamples: fewer than 1000 steps have this gap.
    """
    mask = trace.delta == delta
    n_samples = int(mask.sum())
    if n_samples < MIN_BUCKET_SAMPLES:
        raise InsufficientSamples(
            f"gap {delta} has {n_samples} samples, need {MIN_BUCKET_SAMPLES}"
        )
    joint: dict = {}
    for idx in np.nonzero(mask)[0]:
        key = (trace.queries[idx], int(trace.u[idx]))
        joint[key] = joint.get(key, 0) + 1
    query_keys = sorted({qk for qk, _ in joint})
    context_ids = sorted({u for _, u in joint})
    counts = np.zeros((len(query_keys), len(context_ids)))
    qpos = {qk: r for r, qk in enumerate(query_keys)}
    upos = {u: cl for cl, u in enumerate(context_ids)}
    for (qk, u), c in joint.items():
        counts[qpos[qk], upos[u]] = c

    col_tot = counts.sum(axis=0)
    cond_freq = counts / col_tot[None, :]
    max_tv_gap = float((cond_freq.max(axis=1) - cond_freq.min(axis=1)).max())

    row_tot = counts.sum(axis=1)
    total = counts.sum()
    expected = np.outer(row_tot, col_tot) / total
    with np.errstate(invalid="ignore", divide="ignore"):
        cells = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
    chi2_stat = float(cells.sum())
    chi2_dof = (len(query_keys) - 1) * (len(context_ids) - 1)
    if chi2_dof > 0:
        chi2_pvalue = float(_scipy_stats.chi2.sf(chi2_stat, chi2_dof))
    else:
        chi2_pvalue = 1.0

    return EmpiricalStats(
        delta=delta,
        n_samples=n_samples,
        query_keys=query_keys,
        context_ids=context_ids,
        counts=counts,
        max_tv_gap=max_tv_gap,
        chi2_stat=chi2_stat,
        chi2_dof=chi2_dof,
        chi2_pvalue=chi2_pvalue,
    )


def empirical_composed_history(trace: SimTrace) -> dict:
    """Secondary diagnostic: whole off-run query tuples versus the request
    at the preceding on-step.

    Pools complete off-runs of equal length and reports, per run length,
    the largest conditional-frequency spread of the composed query tuple
    across the on-step request values. Informational only; callers do not
    gate on it.
    """
    runs: dict[int, list] = {}
    horizon = trace.horizon
    starts = np.nonzero(trace.flag)[0]
    for k, start in enumerate(starts):
        stop = starts[k + 1] if k + 1 < len(starts) else horizon
        if k + 1 == len(starts):
            continue  # the final run may be truncated by the horizon
        length = int(stop - start)
        composed = tuple(trace.queries[start:stop])
        runs.setdefault(length, []).append((int(trace.x[start]), composed))
    out = {}
    for length, samples in runs.items():
        if len(samples) < MIN_BUCKET_SAMPLES:
            continue
        joint: dict = {}
        for x0, composed in samples:
            joint[(composed, x0)] = joint.get((composed, x0), 0) + 1
        tuples = sorted({c for c, _ in joint})
        x_vals = sorted({x0 for _, x0 in joint})
        counts = np.zeros((len(tuples), len(x_vals)))
        tpos = {c: r for r, c in enumerate(tuples)}
        xpos = {x0: cl for cl, x0 in enumerate(x_vals)}
        for (c, x0), cnt in joint.items():
            counts[tpos[c], xpos[x0]] = cnt
        freq = counts / counts.sum(axis=0)[None, :]
        out[length] = {
            "n_runs": len(samples),
            "max_gap": float((freq.max(axis=1) - freq.min(axis=1)).max()),
        }
    return out


def average_download_rate(trace: SimTrace) -> dict:
    """Empirical download rate overall and per gap bucket.

    The rate is messages wanted per message downloaded, the inverse of the
    mean query size.
    """
    overall = 1.0 / float(trace.q_size.mean())
    per_delta = {
        d: 1.0 / mean_size for d, (_count, mean_size) in sorted(
            trace.delta_buckets.items()
        )
    }
    return {"overall": overall, "per_delta": per_delta}

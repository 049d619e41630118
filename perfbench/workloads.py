"""The benchmark's workloads: inputs made from a seed, the CLI commands that
consume them, and the checks every output must pass.

Each workload is a short sequence of `onoffpriv` CLI commands, run one at a
time in a fresh process (a closed loop with one client). The program sees
only the generated inputs: chain files and the `--seed` given to `simulate`.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from onoffpriv.bounds import theta_profile
from onoffpriv.markov import conditional_table, symmetric_chain
from onoffpriv.scheme import build_scheme, collapse_to_sets
from onoffpriv.verify import expected_cost

# output checks
MIN_BUCKET_SAMPLES = 1000  # gap buckets this large are held to MEAN_SIZE_TOL
MEAN_SIZE_TOL = 0.01  # simulated mean query size vs the scheme's expected cost
SCHEME_COST_TOL = 1e-9  # expected_size_multiset vs achievable_cost
VERIFY_TOL = "1e-9"  # --tol handed to verify, which must then exit 0
LP_BELOW_OUTER = 1e-7  # the LP value may sit this far under inv_r_outer
LP_ABOVE_INNER = 1e-8  # and this far over inv_r_inner

# symmetric chain of both simulate commands and of the fixed LP instance
SIM_N, SIM_ALPHA = 3, 0.6
LP_N, LP_ALPHA = 4, 0.1

SIZES = {
    "simulate": {"horizon": 200_000, "sparse_horizon": 10_000, "period": 500},
    "scheme-lp": {"n": 10, "sym_n": LP_N},
}
# small enough for the benchmark's own tests
TINY_SIZES = {
    "simulate": {"horizon": 1_500, "sparse_horizon": 600, "period": 60},
    "scheme-lp": {"n": 4, "sym_n": 3},
}


@dataclass
class Output:
    """What one command left behind."""

    exit_code: int
    stdout: bytes
    workdir: Path


@dataclass
class Command:
    """One CLI call and the check of its output.

    check returns the problems found (empty when the output is right) and
    the exact counts read off the output, which must repeat across runs.
    """

    label: str
    argv: list
    check: Callable[[Output], tuple[list, dict]]
    out_file: str | None = None


def build(name: str, seed: int, workdir: Path, sizes: dict) -> list[Command]:
    """Write the inputs of one workload into workdir and return its commands.

    The same (name, seed, sizes) always gives the same inputs.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return MAKERS[name](rng, Path(workdir), sizes)


def _dirichlet_chain(rng, n: int, path: Path) -> str:
    rows = rng.dirichlet(np.ones(n), size=n)
    path.write_text(json.dumps({"n": n, "rows": rows.tolist()}), encoding="utf-8")
    return path.name


def _load(output: Output, problems: list):
    if output.exit_code != 0:
        problems.append(f"exit code {output.exit_code}, expected 0")
    try:
        return json.loads(output.stdout)
    except ValueError:
        problems.append("stdout is not JSON")
        return None


@lru_cache(maxsize=None)
def expected_set_cost(n: int, alpha: float, delta: int) -> float:
    """Expected query size of the set-form scheme the simulator uses."""
    cond = conditional_table(symmetric_chain(n, alpha), delta)
    scheme = collapse_to_sets(build_scheme(theta_profile(cond), cond))
    return expected_cost(scheme, cond, np.full(cond.m, 1.0 / cond.m))


def check_simulate(output: Output, horizon: int, csv_name: str | None):
    problems: list = []
    stats = _load(output, problems)
    if stats is None:
        return problems, {}
    if stats["decode_failures"] != 0:
        problems.append(f"{stats['decode_failures']} decode failures")
    if stats["pass"] is not True:
        problems.append("simulate reports pass = false")
    for delta, bucket in stats["delta_buckets"].items():
        if bucket["count"] < MIN_BUCKET_SAMPLES:
            continue
        want = expected_set_cost(SIM_N, SIM_ALPHA, int(delta))
        if abs(bucket["mean_q_size"] - want) > MEAN_SIZE_TOL:
            problems.append(
                f"gap {delta}: mean query size {bucket['mean_q_size']:.6f}, "
                f"scheme expects {want:.6f}"
            )
    if csv_name is not None:
        with open(output.workdir / csv_name, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != horizon:
            problems.append(f"trace CSV has {rows} rows, horizon is {horizon}")
    return problems, {"distinct_gaps": len(stats["delta_buckets"])}


def _simulate_command(rng, label: str, schedule: str, horizon: int,
                      csv_name: str | None) -> Command:
    argv = [
        "simulate", "--n", str(SIM_N), "--alpha", str(SIM_ALPHA),
        "--schedule", schedule, "--horizon", str(horizon),
        "--seed", str(int(rng.integers(2**31))),
    ]
    if csv_name is not None:
        argv += ["--out", csv_name]
    return Command(
        label, argv, lambda out: check_simulate(out, horizon, csv_name),
        out_file=csv_name,
    )


def _simulate(rng, workdir: Path, sizes: dict) -> list[Command]:
    """Privacy every 2nd step, then so rarely that every gap gets its scheme."""
    sparse = f"periodic:{sizes['period']}"
    return [
        _simulate_command(rng, "simulate periodic:2", "periodic:2",
                          sizes["horizon"], "trace.csv"),
        _simulate_command(rng, f"simulate {sparse}", sparse,
                          sizes["sparse_horizon"], None),
    ]


def scheme_summary(path: Path) -> dict:
    """The summary block of a scheme JSON file, read from its tail.

    The CLI writes keys sorted, so "summary" comes after the large entry
    lists and only "theta" follows it.
    """
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 16384))
        tail = fh.read().decode("utf-8", errors="replace")
    key = '"summary": '
    obj, _ = json.JSONDecoder().raw_decode(tail, tail.rindex(key) + len(key))
    return obj


def check_scheme(output: Output, out_name: str):
    problems: list = []
    if output.exit_code != 0:
        return [f"exit code {output.exit_code}, expected 0"], {}
    summary = scheme_summary(output.workdir / out_name)
    gap = abs(summary["expected_size_multiset"] - summary["achievable_cost"])
    if gap > SCHEME_COST_TOL:
        problems.append(f"multiset expected size is {gap:g} off the achievable cost")
    return problems, {"entries": summary["multiset_entries"]}


def check_verify(output: Output):
    problems: list = []
    report = _load(output, problems)
    if report is None:
        return problems, {}
    return problems, {"entries": report["entry_count"]}


def _scheme_roundtrip(rng, workdir: Path, sizes: dict) -> list[Command]:
    chain = _dirichlet_chain(rng, sizes["n"], workdir / "chain.json")
    common = ["--chain", chain, "--delta", "1"]
    out = "scheme.json"
    return [
        Command(
            "scheme", ["scheme", *common, "--out", out],
            lambda o: check_scheme(o, out), out_file=out,
        ),
        Command(
            "verify", ["verify", *common, "--tol", VERIFY_TOL, "--scheme", out],
            check_verify,
        ),
    ]


def check_lp(output: Output):
    problems: list = []
    obj = _load(output, problems)
    if obj is None:
        return problems, {}
    lo = obj["inv_r_outer"] - LP_BELOW_OUTER
    hi = obj["inv_r_inner"] + LP_ABOVE_INNER
    if obj["status"] != "optimal" or not lo <= obj["value"] <= hi:
        problems.append(
            f"LP value {obj['value']!r} ({obj['status']}) outside [{lo!r}, {hi!r}]"
        )
    return problems, {"iterations": obj["iterations"]}


def _scheme_lp(rng, workdir: Path, sizes: dict) -> list[Command]:
    n = sizes["sym_n"]
    lp = Command(
        f"lp n={n}",
        ["lp", "--n", str(n), "--alpha", str(LP_ALPHA), "--delta", "1"],
        check_lp,
    )
    return _scheme_roundtrip(rng, workdir, sizes) + [lp]


MAKERS = {"simulate": _simulate, "scheme-lp": _scheme_lp}

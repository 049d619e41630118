"""Command-line surface for the package.

Commands:
    bounds      rate bounds per gap, CSV
    sweep-alpha rate bounds across symmetric-chain parameters, CSV
    scheme      construct a query distribution, JSON
    verify      check a query distribution, JSON report, exit 0/1
    lp          exact optimal rate by linear programming, JSON
    simulate    run the protocol and test empirical privacy, CSV/JSON

The chain comes either from --chain (inline JSON or a file path, schema
{"n": ..., "rows": [[...]]} or {"symmetric": {"n": ..., "alpha": ...}})
or from --n plus --alpha for a symmetric chain. Exit codes: 0 success,
1 verification or privacy-gate failure, 2 configuration error. Set
ONOFFPRIV_LOG=debug for progress logging. CSV numeric columns show six
significant digits next to full-precision raw_* twins.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii

import numpy as np

from onoffpriv.bounds import (
    closed_form_small_alpha,
    closed_form_symmetric,
    rate_inner,
    rate_outer,
    theta_profile,
)
from onoffpriv.markov import (
    TransitionMatrix,
    ZeroContextProbability,
    chain_from_dict,
    conditional_table,
    matrix_powers,
    symmetric_chain,
)

# scheme, verify, lp and sim are imported by the commands that use them, so
# that a command compiles only the modules it runs

SYMMETRY_DETECT_TOL = 1e-12
# the values of ONOFFPRIV_LOG, in any case; any other value means WARNING
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
# _write_json joins and writes this many of the encoder's chunks at a time
JSON_BATCH_CHUNKS = 4096


class ConfigError(Exception):
    """Bad flags or malformed input; maps to exit code 2."""


def _log(level: str, msg: str, *args) -> None:
    """Write the record "LEVEL message" to stderr when level, one of
    LOG_LEVELS, is at or above ONOFFPRIV_LOG's. A record that cannot be
    written is dropped, as logging's handlers drop it, so that no record
    ends a command."""
    shown = os.environ.get("ONOFFPRIV_LOG", "").upper()
    least = LOG_LEVELS.index(shown if shown in LOG_LEVELS else "WARNING")
    if LOG_LEVELS.index(level) >= least:
        record = f"{level} {msg % args}\n"
        # sys.stderr is None when the process started with fd 2 closed
        with contextlib.suppress(AttributeError, OSError, ValueError):
            sys.stderr.write(record)


def _load_chain(args) -> TransitionMatrix:
    by_json = args.chain is not None
    by_params = args.n is not None or args.alpha is not None
    if by_json == by_params:
        raise ConfigError(
            "provide exactly one chain source: --chain, or --n with --alpha"
        )
    if by_json:
        text = args.chain
        if os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nested deeper than the decoder's recursion limit
            raise ConfigError(f"--chain is not valid JSON: {exc}") from exc
        try:
            return chain_from_dict(obj)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad chain spec: {exc}") from exc
    if args.n is None or args.alpha is None:
        raise ConfigError("--n and --alpha must be given together")
    try:
        return symmetric_chain(args.n, args.alpha)
    except ValueError as exc:
        raise ConfigError(f"bad symmetric chain: {exc}") from exc


def _symmetric_alpha(P: TransitionMatrix) -> float | None:
    """P[0, 0] if P is symmetric_chain(n, P[0, 0]) within
    SYMMETRY_DETECT_TOL, else None. A P[0, 0] that rounding carries past 1
    is compared with alpha = 1."""
    alpha = float(P.entries[0, 0])
    reference = symmetric_chain(P.n, min(alpha, 1.0)).entries
    if np.allclose(P.entries, reference, rtol=0.0, atol=SYMMETRY_DETECT_TOL):
        return alpha
    return None


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _raw(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _output(out: str | None):
    """The text file a command writes to: the --out path, or stdout."""
    if not out:
        yield sys.stdout
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _write_csv(rows, out: str | None) -> None:
    """Write rows, an iterable whose first row is the header, to out, or
    stdout, as lines of cells joined with ",", each as it comes; no cell
    needs quoting, since each is a column name or a formatted number."""
    with _output(out) as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)


def _write_json(obj, out: str | None) -> None:
    """Write obj to out, or stdout, as json.dumps(obj, indent=2,
    sort_keys=True) and a newline, JSON_BATCH_CHUNKS chunks at a time, so
    that the whole text is never held."""
    chunks = _json_chunks(obj, "\n")
    with _output(out) as fh:
        while batch := list(itertools.islice(chunks, JSON_BATCH_CHUNKS)):
            fh.write("".join(batch))
        fh.write("\n")


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _json_chunks(obj, pad: str):
    """json.dumps(obj, indent=2, sort_keys=True) in chunks, with pad, a
    newline and an indent, starting each line after the first. The maps,
    whose keys must be str or int, are walked here: a plain dict in the
    sorted order of its keys, and any other Mapping (simulate's per-gap
    sections) in its own order, its items made as they are written. An item
    that is an int or a finite float is written as its repr; any other value
    goes to the encoder."""
    # dict first: the check that a plain dict passes fastest
    if not (isinstance(obj, (dict, Mapping)) and obj):
        for chunk in _ENCODER.iterencode(obj):
            yield chunk.replace("\n", pad)
        return
    items = sorted(obj.items()) if type(obj) is dict else obj.items()
    inner = pad + "  "
    sep = "{"
    for key, value in items:
        head = f"{sep}{inner}{encode_basestring_ascii(str(key))}: "
        if type(value) is int or type(value) is float and math.isfinite(value):
            yield head + repr(value)
        else:
            yield head
            yield from _json_chunks(value, inner)
        sep = ","
    yield pad + "}"


def _delta_range(args) -> range:
    """The gaps from --delta, or 0, through --delta-max, or --delta."""
    if args.delta is None and args.delta_max is None:
        raise ConfigError("provide --delta and/or --delta-max")
    first = 0 if args.delta is None else args.delta
    last = first if args.delta_max is None else args.delta_max
    if first > last:
        raise ConfigError(f"--delta-max {last} is below the first gap {first}")
    return range(first, last + 1)


def _gap_table(args):
    """The likelihood table of the chain at --delta, and its theta profile."""
    cond = conditional_table(_load_chain(args), args.delta)
    return cond, theta_profile(cond)


def cmd_bounds(args) -> int:
    P = _load_chain(args)
    alpha = _symmetric_alpha(P)
    header = ["delta", "inv_r_inner", "inv_r_outer", "r_inner", "r_outer"]
    if alpha is not None:
        header += ["cf_r_inner", "cf_r_outer"]
    header += ["raw_" + h for h in header[1:]]
    rows = _bounds_rows(P, alpha, _delta_range(args))
    # the first gap's row is made before --out is opened, so that a run that
    # fails at its first gap writes nothing; the rest are written as made
    first = next(rows)
    _write_csv(itertools.chain([header, first], rows), args.out)
    return 0


def _bounds_rows(P: TransitionMatrix, alpha: float | None, deltas: range):
    """The CSV row of every gap in deltas, made as it is read; alpha, when
    not None, adds the symmetric chain's closed forms."""
    n = P.n
    for delta, (_, power) in zip(deltas, matrix_powers(P, deltas.start, deltas.stop)):
        cond = conditional_table(P, delta, power=power)
        profile = theta_profile(cond)
        inv_i = rate_inner(profile)
        inv_o = rate_outer(profile)
        vals = [inv_i, inv_o, 1.0 / inv_i, 1.0 / inv_o]
        if alpha is not None:
            if alpha >= 1.0 / n:
                cf = closed_form_symmetric(n, alpha, delta)
                vals += [1.0 / cf, 1.0 / cf]
            else:
                cf_inv_o, cf_inv_i = closed_form_small_alpha(n, alpha, delta)
                vals += [1.0 / cf_inv_i, 1.0 / cf_inv_o]
        _log("INFO", "bounds delta=%d done", delta)
        yield [str(delta)] + [_fmt(v) for v in vals] + [_raw(v) for v in vals]


def default_alpha_grid() -> list:
    """The sweep grid: sixtieths of the unit interval, endpoint excluded."""
    return [k / 60.0 for k in range(60)]


def cmd_sweep_alpha(args) -> int:
    rows = [[
        "alpha", "r_inner", "r_outer",
        "raw_alpha", "raw_r_inner", "raw_r_outer",
    ]]
    for alpha in default_alpha_grid():
        P = symmetric_chain(args.n, alpha)
        try:
            profile = theta_profile(conditional_table(P, args.delta))
        except ZeroContextProbability:
            _log("WARNING", "alpha=%g skipped: context probability vanishes", alpha)
            continue
        r_i = 1.0 / rate_inner(profile)
        r_o = 1.0 / rate_outer(profile)
        rows.append(
            [_fmt(alpha), _fmt(r_i), _fmt(r_o), _raw(alpha), _raw(r_i), _raw(r_o)]
        )
    _write_csv(rows, args.out)
    return 0


def cmd_scheme(args) -> int:
    from onoffpriv.scheme import build_scheme, collapse_to_sets
    from onoffpriv.verify import expected_cost

    cond, profile = _gap_table(args)
    multiset = build_scheme(profile, cond)
    setform = collapse_to_sets(multiset)
    prior = np.full(cond.m, 1.0 / cond.m)
    summary = {
        "multiset_entries": multiset.entry_count,
        "set_entries": setform.entry_count,
        "expected_size_multiset": expected_cost(multiset, cond, prior),
        "expected_size_set": expected_cost(setform, cond, prior),
        "achievable_cost": rate_inner(profile),
    }
    # keys in sorted order, as _write_json writes them; the two forms write
    # their own text, a column at a time
    with _output(args.out) as fh:
        fh.write('{\n  "delta": %d,\n  "multiset": ' % cond.delta)
        multiset.write_json(fh)
        fh.write(',\n  "n": %d,\n  "set": ' % cond.n)
        setform.write_json(fh)
        fh.write(',\n  "summary": %s,\n  "theta": %s\n}\n' % (
            json.dumps(summary, sort_keys=True), json.dumps(profile.theta.tolist())
        ))
    return 0


def cmd_verify(args) -> int:
    from onoffpriv.scheme import SchemeDistribution, build_scheme
    from onoffpriv.verify import VERIFY_TOL, check_scheme

    tol = VERIFY_TOL if args.tol is None else args.tol
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {tol}")
    cond, profile = _gap_table(args)
    if args.scheme:
        try:
            with open(args.scheme, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            if isinstance(obj, dict):
                obj = obj.get("multiset", obj.get("set", obj))
            s = SchemeDistribution.from_json_obj(obj)
        except (ValueError, OSError, OverflowError, RecursionError) as exc:
            raise ConfigError(f"bad scheme file: {exc}") from exc
    else:
        s = build_scheme(profile, cond)
    report = check_scheme(s, cond, profile, tol=tol)
    _write_json(report.to_json_obj(), args.out)
    return 0 if report.passes() else 1


def cmd_lp(args) -> int:
    from onoffpriv.lp import formulate_lp, solve_simplex

    cond, profile = _gap_table(args)
    problem = formulate_lp(cond)
    _log(
        "INFO", "lp has %d variables, %d rows",
        len(problem.var_keys), len(problem.row_keys),
    )
    sol = solve_simplex(problem)
    obj = {
        "n": cond.n,
        "delta": cond.delta,
        "num_vars": len(problem.var_keys),
        "num_rows": len(problem.row_keys),
        "value": sol.value,
        "optimal_rate": 1.0 / sol.value,
        "status": sol.status,
        "iterations": sol.iterations,
        "inv_r_inner": rate_inner(profile),
        "inv_r_outer": rate_outer(profile),
        "solution": sol.to_json_obj(),
    }
    _write_json(obj, args.out)
    return 0


def cmd_simulate(args) -> int:
    from onoffpriv.sim import PrivacySchedule, SimConfig, simulate

    P = _load_chain(args)
    try:
        schedule = PrivacySchedule.parse(args.schedule)
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc
    cfg = SimConfig(
        P, schedule, horizon=args.horizon, msg_len=args.msg_len, seed=args.seed
    )
    # simulate opens the trace file only once the run has succeeded
    csv_out = args.out and args.out.endswith(".csv")
    stats = simulate(cfg, functools.partial(open, args.out, "wb") if csv_out else None)
    _write_json(stats, None if csv_out else args.out)
    return 0 if stats["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onoffpriv",
        description="rate bounds, query schemes, and simulation for "
        "on-off private retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, out_help):
        sp.add_argument("--chain", help="inline JSON or path to a chain file")
        sp.add_argument("--n", type=int, help="symmetric chain: number of states")
        sp.add_argument(
            "--alpha", type=float, help="symmetric chain: self-loop probability"
        )
        sp.add_argument("--out", help=out_help)

    csv_out = "output path, written as CSV; default stdout"
    json_out = "output path, written as JSON; default stdout"
    p = sub.add_parser("bounds", help="rate bounds per gap")
    add_common(p, csv_out)
    p.add_argument("--delta", type=int, help="first (or only) gap")
    p.add_argument("--delta-max", type=int, help="last gap of the range")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep-alpha", help="bounds across symmetric chains")
    p.add_argument("--n", type=int, required=True, help="number of states")
    p.add_argument(
        "--delta", type=int, default=1, help="gap since the flag was on (default 1)"
    )
    p.add_argument("--out", help=csv_out)
    p.set_defaults(func=cmd_sweep_alpha)

    def add_gap_command(name, func, help_text):
        """A command of one gap, the --delta it requires; it writes JSON."""
        sp = sub.add_parser(name, help=help_text)
        add_common(sp, json_out)
        sp.add_argument(
            "--delta", type=int, required=True, help="gap since the flag was on"
        )
        sp.set_defaults(func=func)
        return sp

    add_gap_command("scheme", cmd_scheme, "construct a query distribution")
    p = add_gap_command("verify", cmd_verify, "check a query distribution")
    # default None: cmd_verify applies verify.VERIFY_TOL
    p.add_argument("--tol", type=float, help="pass threshold")
    p.add_argument("--scheme", help="scheme JSON to check instead of a fresh build")
    add_gap_command("lp", cmd_lp, "exact optimal rate")

    p = sub.add_parser("simulate", help="run the retrieval protocol")
    add_common(
        p, "trace CSV path if it ends in .csv, the statistics JSON then going "
        "to stdout; else the statistics JSON path; default stdout",
    )
    p.add_argument("--horizon", type=int, required=True, help="number of steps")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument(
        "--schedule",
        default="always-on",
        help="always-on | off-after-0 | bernoulli:P | periodic:K | explicit:1,0,...",
    )
    p.add_argument("--msg-len", type=int, default=16, help="message length in bytes")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader stopped early; the run was fine
        # point stdout at devnull, so that the final flush writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

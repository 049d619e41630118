"""Benchmark of the onoffpriv command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The perfbench/ directory sits at the root of a source checkout, whose src/
tree it benchmarks. It repeats the workload's command
sequence (see workloads.py) for S seconds, each command in a fresh Python
process, and checks every output. The last line of stdout is one JSON
object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, taken with tracing off:
    wall_rel     each command's median over sequences of its wall time over
                 that of REFERENCE, run just before the sequence, summed
    setup_s      input generation plus the median time from starting a
                 command's process to `onoffpriv.cli` being imported, each
                 over REFERENCE's time in its sequence, times REFERENCE_S
    peak_rss_mb  median over sequences of the largest command's peak RSS
--trace 1 alternates untraced and traced sequences and reports the
per-layer metrics of spans.PER_LAYER, averaged over the traced sequences.

The line before the result holds the full record: seed, machine, commands,
per-sequence times and every problem found. Spans of traced runs and the
exact counts seen so far are kept under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # hard stop for one run; commands still going are killed
# one thread per command: extra BLAS threads only contend for the few cores
SINGLE_THREAD = {k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKLOADS = ("simulate", "scheme-lp")
# Timed with every sequence, as a yardstick for how fast the host runs: it
# loads what the CLI loads from outside onoffpriv, so no change to onoffpriv
# can change it.
REFERENCE = [sys.executable, "-c", "import numpy, scipy.stats"]
# setup_s is in seconds on a host that runs REFERENCE in this long
REFERENCE_S = 1.0


@dataclass
class Sequence:
    """One pass over a workload's commands."""

    traced: bool
    gen_s: float
    commands: list = field(default_factory=list)
    wall_s: float = 0.0
    walls: dict = field(default_factory=dict)  # command label -> wall seconds
    reference_s: float = 0.0  # wall time of REFERENCE
    peak_rss_mb: float = 0.0
    import_s: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # (command label, problem)
    failed_commands: int = 0
    layers: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)


def run_command(argv: list, workdir: Path, traced: bool, deadline: float):
    """Run one CLI command in a fresh process.

    Returns (exit code, wall seconds, peak RSS in MB, child record or None).
    """
    record = workdir / "record.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(record), "1" if traced else "0", *argv]
    env = {k: v for k, v in os.environ.items() if k != "ONOFFPRIV_LOG"}
    env.update(SINGLE_THREAD)
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = json.loads(record.read_text()) if record.exists() else None
    if rec is not None:
        rec["import_s"] = rec["imported"] - start
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, rec


def run_reference(workdir: Path, deadline: float) -> float:
    start = time.monotonic()
    subprocess.run(REFERENCE, cwd=workdir, env={**os.environ, **SINGLE_THREAD},
                   stdout=subprocess.DEVNULL, check=True,
                   timeout=max(deadline - start, 1.0))
    return time.monotonic() - start


def run_sequence(workload, seed, sizes, workdir, traced, deadline) -> Sequence:
    import workloads  # imports onoffpriv, so src/ must be on sys.path first

    t0 = time.perf_counter()
    commands = workloads.build(workload, seed, workdir, sizes)
    seq = Sequence(traced=traced, gen_s=time.perf_counter() - t0)
    seq.commands = [cmd.argv for cmd in commands]
    seq.reference_s = run_reference(workdir, deadline)
    layers: dict = {}
    for cmd in commands:
        out_path = workdir / cmd.out_file if cmd.out_file else None
        if out_path is not None:
            out_path.unlink(missing_ok=True)  # no stale output may pass a check
        code, wall, rss, rec = run_command(cmd.argv, workdir, traced, deadline)
        seq.wall_s += wall
        seq.walls[cmd.label] = wall
        seq.peak_rss_mb = max(seq.peak_rss_mb, rss)
        stdout = (workdir / "stdout").read_bytes()
        output = workloads.Output(exit_code=code, stdout=stdout, workdir=workdir)
        try:
            problems, counts = cmd.check(output)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems, counts = [f"malformed output: {type(exc).__name__}: {exc}"], {}
        if rec is None:
            problems.append("the command left no record (it crashed or was killed)")
        else:
            seq.import_s.append(rec["import_s"])
        seq.counts[cmd.label] = counts
        seq.problems += [(cmd.label, p) for p in problems]
        seq.failed_commands += bool(problems)
        if traced and rec is not None:
            per_cmd = spans.layer_metrics(rec["trace"], wall)
            per_cmd["cli.bytes_out"] = len(stdout) + (
                out_path.stat().st_size if out_path and out_path.exists() else 0
            )
            for k, v in per_cmd.items():
                layers[k] = layers.get(k, 0) + v
            seq.traces.append({"argv": cmd.argv, "wall_s": wall, **rec})
    seq.layers = layers
    return seq


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        sha = done.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": src_digest(),
    }


def guard_counts(key: str, kind: str, seen: list, store: Path) -> list:
    """Exact counts must repeat: across the sequences of this run, and across
    runs of the same source, workload, seed and sizes (kept in store).

    Returns one entry per comparison made: None, or the mismatch found.
    """
    checks = [
        None if c == seen[0] else f"{kind} counts {c} differ from {seen[0]}"
        for c in seen[1:]
    ]
    known = json.loads(store.read_text()) if store.exists() else {}
    before = known.get(key, {}).get(kind)
    if before is not None:
        checks.append(None if before == seen[0] else
                      f"{kind} counts {seen[0]} differ from an earlier run's {before}")
    elif not any(checks):
        known.setdefault(key, {})[kind] = seen[0]
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return checks


def end_to_end(plain: list) -> dict:
    """Times relative to the REFERENCE run just before each sequence, which
    takes out how fast the host ran at the time. wall_rel sums each
    command's median ratio: the median drops the repetitions that a short
    slow spell hit and the reference did not.
    """
    labels = {label for s in plain for label in s.walls}
    # a command that crashed left no import time; its wall bounds it
    imports = [t / s.reference_s for s in plain for t in s.import_s] or [
        s.wall_s / s.reference_s for s in plain
    ]
    return {
        "wall_rel": sum(
            statistics.median(
                s.walls[label] / s.reference_s for s in plain if label in s.walls
            )
            for label in labels
        ),
        "setup_s": REFERENCE_S * (
            statistics.median(s.gen_s / s.reference_s for s in plain)
            + statistics.median(imports)
        ),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
    }


def per_layer(plain: list, traced: list) -> tuple[dict, list]:
    """Means over the traced sequences, and any metric names not in PER_LAYER."""
    metrics = {name: 0.0 for name in spans.PER_LAYER}
    for s in traced:
        for k, v in s.layers.items():
            metrics[k] = metrics.get(k, 0.0) + v / len(traced)
    metrics["trace.wall_s"] = statistics.fmean(s.wall_s for s in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(
        s.wall_s for s in plain
    )
    unmapped = sorted(set(metrics) - set(spans.PER_LAYER))
    return {k: metrics[k] for k in spans.PER_LAYER}, unmapped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onoffpriv" / "cli.py").is_file():
        print(f"error: {SRC / 'onoffpriv' / 'cli.py'} not found; perfbench/ "
              "must sit at the root of an onoffpriv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    sizes = workloads.SIZES[args.workload]
    info = machine(args.seed)
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    runs: list[Sequence] = []
    try:
        while True:
            for traced in (False, True) if args.trace else (False,):
                runs.append(run_sequence(
                    args.workload, args.seed, sizes, workdir, traced, deadline
                ))
            if time.monotonic() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [s for s in runs if not s.traced]
    traced = [s for s in runs if s.traced]
    attempted = sum(len(s.counts) for s in runs)
    failed = sum(s.failed_commands for s in runs)
    problems = [f"{lbl}: {p}" for s in runs for lbl, p in s.problems]
    key = f"{args.workload}|seed={args.seed}|{sizes}|{info['src_sha256']}"
    count_sets = [("outputs", [s.counts for s in runs])]
    if traced:
        count_sets.append(("traced", [
            {k: int(s.layers.get(k, 0)) for k in spans.EXACT_COUNTS} for s in traced
        ]))
    if failed == 0:
        for kind, seen in count_sets:
            for problem in guard_counts(key, kind, seen, STATE / "counts.json"):
                attempted += 1
                if problem:
                    failed += 1
                    problems.append(problem)

    if args.trace:
        metrics, unmapped = per_layer(plain, traced)
        if unmapped:
            problems.append(f"spans with no per-layer metric: {unmapped}")
        accounting = {
            "self_seconds": spans.self_seconds(metrics),
            "trace.wall_s": metrics["trace.wall_s"],
            "untraced": sorted({
                u for s in traced for t in s.traces for u in t["trace"]["untraced"]
            }),
        }
        spans_path = STATE / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([t for s in traced for t in s.traces]))
        units = {k: spec[0] for k, spec in spans.PER_LAYER.items()}
    else:
        metrics = end_to_end(plain)
        units = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}
        accounting = None

    record = {
        "workload": args.workload,
        "sizes": sizes,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "commands": runs[0].commands,
        "sequences": [
            {"traced": s.traced, "wall_s": s.wall_s, "walls": s.walls,
             "reference_s": s.reference_s, "gen_s": s.gen_s,
             "import_s": s.import_s, "peak_rss_mb": s.peak_rss_mb,
             "counts": s.counts}
            for s in runs
        ],
        "error_rate": failed / attempted,
        "problems": problems,
        "accounting": accounting,
    }
    print(json.dumps(record))
    (STATE / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

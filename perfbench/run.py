#!/usr/bin/env python3
"""credalbudget benchmark: one workload per run, metrics as a JSON last line.

    python3 perfbench/run.py --workload negativity --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's own ``src/``; the run fails
(exit 2, no result) when that is missing. With ``--trace 0`` the run makes
whole passes over the ops, each after a fresh set-up, until ``--seconds``
have elapsed, checks every op's output, and reports the end-to-end metrics
from host-speed-rescaled times. With ``--trace 1`` it traces one set-up,
times one pass untraced and the same pass traced, and reports per-layer
counts and self times. Workloads, ops, metrics and predictions are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

SETUP_ROUNDS = 5  # at least; each pass starts with a set-up
THREADS_ENV_VAR = "CREDALBUDGET_THREADS"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

PER_LAYER = {
    "budget.reachability_check.calls": "count",
    "budget.reachability_check.self_ms": "ms",
    "budget.reachability_check.found_ratio": "ratio",
    "budget.cover_family.calls": "count",
    "budget.cover_family.self_ms": "ms",
    "budget.solve_maximin.calls": "count",
    "budget.solve_maximin.self_ms": "ms",
    "simplex.maximize.calls": "count",
    "simplex.maximize.self_ms": "ms",
    "simplex.maximize.us_per_call": "us",
    "credal.CredalSet.upper_expectation.calls": "count",
    "credal.CredalSet.upper_expectation.self_ms": "ms",
    "credal.CredalSet.extreme_points.calls": "count",
    "credal.CredalSet.extreme_points.self_ms": "ms",
    "regret.regret_matrix.constraint.self_ms": "ms",
    "regret.regret_matrix.vertex.self_ms": "ms",
    "regret.pairwise_regret_from_vertices.calls": "count",
    "regret.pairwise_regret_from_vertices.self_ms": "ms",
    "budget.solve_minimax.calls": "count",
    "budget.solve_minimax.self_ms": "ms",
    "budget.solve_greedy.calls": "count",
    "budget.solve_greedy.self_ms": "ms",
    "budget.budgeted_rule.calls": "count",
    "budget.budgeted_rule.self_ms": "ms",
    "regret.maximal_acts.calls": "count",
    "regret.maximal_acts.self_ms": "ms",
    "gen.generate_instance.calls": "count",
    "gen.generate_instance.self_ms": "ms",
    "gen.sample_simplex.calls": "count",
    "gen.accept_ratio": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "problemio.load_problem.calls": "count",
    "problemio.load_problem.self_ms": "ms",
    "budget.oracle_solve.calls": "count",
    "budget.oracle_solve.self_ms": "ms",
    "budget.maximin_regret.calls": "count",
    "budget.minimax_regret.calls": "count",
    "instances.verify_instance.calls": "count",
    "instances.verify_instance.self_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.ops": "count",
    "trace.op_ms": "ms",
}


class SetupError(RuntimeError):
    """The checkout does not hold a usable credalbudget source tree."""


def import_package():
    """Import credalbudget afresh from the checkout's src/, with the modules ops use."""
    if not (SRC / "credalbudget" / "__init__.py").is_file():
        raise SetupError(f"no credalbudget package under {SRC}")
    for name in [m for m in sys.modules if m == "credalbudget" or m.startswith("credalbudget.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cb = importlib.import_module("credalbudget")
    for sub in ("bench", "cli", "instances"):
        importlib.import_module(f"credalbudget.{sub}")
    if Path(cb.__file__).resolve().parent != (SRC / "credalbudget").resolve():
        raise SetupError(f"credalbudget was imported from {cb.__file__}, not from {SRC}")
    return cb


def load_expected(workload: str, seed: int) -> dict | None:
    """Stored op outputs for this workload, or None when none apply to the seed."""
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return data["ops"] if data["seed"] is None or data["seed"] == seed else None


class Checker:
    """Counts attempted and failed ops; an op fails if it raises or fails its check."""

    def __init__(self, stored: dict | None):
        self.stored = stored
        self.attempted = 0
        self.failed = 0
        self.issues: list[tuple[str, list[str]]] = []

    def __call__(self, op, out, error) -> None:
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        elif self.stored is not None and op.id not in self.stored:
            problems = ["no stored output for this op"]
        else:
            problems = op.check(out, None if self.stored is None else self.stored[op.id])
        if problems:
            self.failed += 1
            self.issues.append((op.id, problems))


def run_op(op, checker, tracer=None, speed=None) -> tuple[float, float, float]:
    """Run one op and check its output outside the timed region.

    Returns (start, end, busy): busy is end - start less the time the
    host-speed kernel ran inside the interval.
    """
    error = out = None
    paused = speed.paused if speed else 0.0
    if tracer is not None:
        tracer.op = op.id
        tracer.active = True
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # any raise is a failed op, reported with the others
        error = exc
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    busy = end - start - ((speed.paused - paused) if speed else 0.0)
    checker(op, out, error)
    return start, end, busy


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]


def end_to_end(workload, seed, seconds, max_ops, workdir):
    """Passes over the ops until `seconds` have elapsed, each after a fresh set-up.

    Every interval is rescaled to the calibration kernel's reference speed
    (see hostspeed.py). An op's time is then the median of its repeats in
    the run, and the latency and throughput metrics are taken over those.
    """
    build = workloads.WORKLOADS[workload]
    checker = Checker(load_expected(workload, seed))
    speed = hostspeed.HostSpeed()
    setups: list[tuple[float, float, float]] = []
    samples: dict[str, list[tuple[float, float, float]]] = {}
    timed = 0

    def set_up():
        paused = speed.paused
        start = time.perf_counter()
        ops = build(import_package(), seed, workdir)
        end = time.perf_counter()
        setups.append((start, end, end - start - (speed.paused - paused)))
        return ops

    speed.sample()
    with speed.sampling():
        start = time.perf_counter()
        while timed < max_ops and (not samples or time.perf_counter() - start < seconds):
            ops = set_up()
            if not samples:
                run_op(ops[0], checker)  # warm-up, checked but not timed
            for op in ops[: max_ops - timed]:
                samples.setdefault(op.id, []).append(run_op(op, checker, speed=speed))
                timed += 1
        while len(setups) < SETUP_ROUNDS:
            set_up()
    speed.sample()

    per_op = [
        statistics.median(speed.scaled(*span) for span in spans) for spans in samples.values()
    ]
    repeats = sorted(len(spans) for spans in samples.values())
    metrics = {
        "setup_s": statistics.median(speed.scaled(*span) for span in setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p90_ms": 1e3 * p90(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - checker.failed / checker.attempted,
    }
    notes = [
        f"{timed} timed ops in {len(setups)} set-ups and passes over {len(ops)} ops; "
        f"each op timed {repeats[0]}-{repeats[-1]} times, median kept; "
        f"op_p50_ms and op_p90_ms over {len(per_op)} ops; setup_s median of {len(setups)}",
        f"host speed: calibration kernel median {1e3 * statistics.median(speed.durations):.3f} ms "
        f"over {len(speed.durations)} samples; times scaled to {1e3 * hostspeed.REFERENCE_S} ms",
        f"failed_frac {checker.failed / checker.attempted} ({checker.failed}/{checker.attempted})",
    ]
    raw = {"ops": samples, "setups": setups, "kernel": [speed.times, speed.durations]}
    return metrics, END_TO_END, checker, notes, raw


def layer_metrics(tracer, summary, untraced, traced) -> dict[str, float]:
    """Per-layer counts and self times; `untraced`/`traced` are per-op seconds."""

    def stat(base: str, key: str) -> float:
        return summary.get(base, {}).get(key, 0)

    out = {}
    for metric in PER_LAYER:
        base, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = stat(base, "calls") or tracer.site_calls.get(base, 0)
        elif kind == "self_ms":
            out[metric] = stat(base, "self_ms")
        elif kind == "found_ratio":
            calls = stat(base, "calls")
            out[metric] = stat(base, "found") / calls if calls else 0.0
        elif kind == "us_per_call":
            calls = stat(base, "calls")
            out[metric] = 1e3 * stat(base, "total_ms") / calls if calls else 0.0
    draws = stat("gen.sample_simplex", "calls")
    out["gen.accept_ratio"] = stat("gen.generate_instance", "calls") / draws if draws else 0.0
    out["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    out["trace.ops"] = len(traced)
    out["trace.op_ms"] = 1e3 * sum(traced)
    return out


def absent_layers(tracer) -> list[str]:
    """Metric bases whose function no longer exists in the package."""
    known = tracer.wrapped | tracer.sites
    missing = set()
    for metric in PER_LAYER:
        base = metric.rsplit(".", 1)[0]
        if metric.startswith("trace.") or metric == "gen.accept_ratio":
            continue
        if base not in known and base.rsplit(".", 1)[0] not in known:
            missing.add(base)
    return sorted(missing)


def traced(workload, seed, seconds, max_ops, workdir):
    """One traced set-up, then one pass in which each op runs untraced and traced.

    Runs a fixed set of ops whatever `seconds` is, so counts repeat exactly.
    """
    cb = import_package()
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = "setup"
    tracer.active = True
    try:
        ops = workloads.WORKLOADS[workload](cb, seed, workdir)
    finally:
        tracer.active = False
        tracer.uninstall()
    ops = ops[:max_ops]
    checker = Checker(load_expected(workload, seed))
    run_op(ops[0], checker)  # warm-up
    # Each op runs untraced and traced back to back, in alternating order, so
    # both see the same host speed; untraced, the wrappers only pass through.
    untraced_times, traced_times = [], []
    tracer.install()
    try:
        for idx, op in enumerate(ops):
            for active in ((None, tracer) if idx % 2 == 0 else (tracer, None)):
                start, end, _ = run_op(op, checker, active)
                (untraced_times if active is None else traced_times).append(end - start)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    metrics = layer_metrics(tracer, summary, untraced_times, traced_times)
    absent = absent_layers(tracer)
    top = sorted(summary.items(), key=lambda item: -item[1]["self_ms"])[:5]
    notes = [
        f"traced one set-up and one pass of {len(ops)} ops; {len(tracer.names)} spans",
        "largest self times (share of traced op time, set-up included): "
        + ", ".join(
            f"{name} {row['self_ms'] / metrics['trace.op_ms']:.1%}" for name, row in top
        ),
        f"absent: {', '.join(absent) if absent else 'none'}",
        f"failed_frac {checker.failed / checker.attempted} ({checker.failed}/{checker.attempted})",
    ]
    return metrics, PER_LAYER, checker, notes, tracer


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-ops", type=int, default=sys.maxsize, help="cap on timed ops (for quick tests)"
    )
    args = parser.parse_args(argv)
    if args.max_ops < 1:
        parser.error("--max-ops must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop(THREADS_ENV_VAR, None)  # a stray pool size would change constraint-form timings
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    mode = traced if args.trace else end_to_end
    try:
        metrics, units, checker, notes, extra = mode(
            args.workload, args.seed, args.seconds, args.max_ops, workdir
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for note in notes:
        print(note)
    for op_id, problems in checker.issues[:20]:
        print(f"FAILED {op_id}: {'; '.join(problems)}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"environment": env, "notes": notes, "issues": checker.issues, **result}
    if args.trace:
        extra.write_jsonl(OUT / f"{tag}-spans.jsonl")
    else:
        record["raw"] = extra
    (OUT / f"{tag}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: how each builds its inputs and checks an op.

A workload's setup returns the ops of one pass, in an order drawn from the
seed. An op's `run` holds only the library calls that are timed; `record`
turns their result into JSON for the stored outputs; `check` returns the
list of problems with one result, against the stored record when there is
one for this seed and against seed-independent invariants always.

Inputs reach the library only through its public API, looked up at call
time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MATRIX_TOL = 1e-9  # constraint-form LP results may move by ~1e-14 between versions

# negativity: the negativity protocol at its default shape and master seed
NEG_MASTER_SEED = 0
NEG_TRIALS = 3
NEG_DM_SIZES = (2, 5, 10)
NEG_OFFSETS = (0, 1, 2, 3)

# constraint-lp: finance polytope with 12 acts, 14-state interval polytope with 6 acts.
# The counts differ so that the median op sits inside one kind's times.
LP_FINANCE_OPS = 64
LP_INTERVAL_OPS = 40
LP_FINANCE_ACTS = 12
LP_FINANCE_BUDGETS = (2, 4)
LP_INTERVAL_STATES = 14
LP_INTERVAL_ACTS = 6
LP_INTERVAL_BOUNDS = (0.02, 0.15)
LP_INTERVAL_BUDGETS = (2, 3)

# wide-vertex: 8 states, 50 vertices; 16 instances at 100 acts and 2 at 500 per pass,
# so the median op is a 100-act one and the p90 op a 500-act one
WIDE_SIZES = (100,) * 16 + (500,) * 2
WIDE_STATES = 8
WIDE_VERTICES = 50
WIDE_BUDGETS = (5, 20)
WIDE_GREEDY_K = 10

CLI_SEED = "7"
CLI_ALPHA = "1.0"


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    record: Callable[[object], object]
    check: Callable[[object, object], list[str]]


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    random.Random(seed).shuffle(ops)
    return ops


def _solution(sol) -> list:
    return [list(sol.subset), sol.value]


def _check_value(matrix, sol, k: int, evaluator, label: str) -> list[str]:
    """A returned value equals its evaluator on the returned subset, exactly."""
    issues = []
    if len(sol.subset) != k or len(set(sol.subset)) != k:
        issues.append(f"{label}: subset {sol.subset} is not {k} distinct acts")
    elif evaluator(matrix, sol.subset) != sol.value:
        issues.append(f"{label}: value {sol.value!r} != evaluator {evaluator(matrix, sol.subset)!r}")
    return issues


def _check_exact(got, stored, label: str) -> list[str]:
    return [] if got == stored else [f"{label}: {got!r} != stored {stored!r}"]


# -- negativity -------------------------------------------------------------


def negativity(cb, seed: int, workdir: Path) -> list[Op]:
    """(instance, k) records of the negativity protocol: minimax + maximin."""
    ops = []
    for dm in NEG_DM_SIZES:
        seeds = cb.bench.trial_seeds(NEG_MASTER_SEED + dm, NEG_TRIALS)
        for trial, trial_seed in enumerate(seeds):
            config = cb.GenConfig(
                n_acts=20, n_states=5, n_vertices=20, target_dm=dm, seed=trial_seed
            )
            acts, credal = cb.generate_instance(config)
            matrix = cb.regret_matrix(acts, credal)
            for offset in NEG_OFFSETS:
                ops.append(_negativity_op(cb, matrix, dm, trial, dm + offset))
    return _shuffled(ops, seed)


def _negativity_op(cb, matrix, dm: int, trial: int, k: int) -> Op:
    def run():
        return cb.solve_minimax(matrix, k), cb.solve_maximin(matrix, k)

    def record(out):
        return {"minimax": _solution(out[0]), "maximin": _solution(out[1])}

    def check(out, stored):
        mm, mx = out
        issues = _check_value(matrix, mm, k, cb.minimax_regret, "minimax")
        issues += _check_value(matrix, mx, k, cb.maximin_regret, "maximin")
        if not mx.value <= mm.value:
            issues.append(f"maximin {mx.value!r} exceeds minimax {mm.value!r}")
        if not mx.value < 0:  # k >= dm: the maximality set already answers every challenger
            issues.append(f"maximin {mx.value!r} is not negative at k={k} >= dm={dm}")
        if stored is not None:
            issues += _check_exact(record(out), stored, "outputs")
        return issues

    return Op(f"dm{dm}-t{trial}-k{k}", run, record, check)


# -- constraint-lp ----------------------------------------------------------


def constraint_lp(cb, seed: int, workdir: Path) -> list[Op]:
    """Constraint-form pipelines on both sides of the vertex-enumeration limit."""
    rng = np.random.Generator(np.random.PCG64(seed))
    finance = cb.instances.builtin_instances()["finance"].problem
    finance_rows = tuple(
        cb.LinearConstraint(tuple(c["coeffs"]), c["relation"], c["rhs"])
        for c in finance["credal"]["constraints"]
    )
    lo, hi = LP_INTERVAL_BOUNDS
    interval_rows = []
    for s in range(LP_INTERVAL_STATES):
        unit = tuple(1.0 if t == s else 0.0 for t in range(LP_INTERVAL_STATES))
        interval_rows += [cb.LinearConstraint(unit, ">=", lo), cb.LinearConstraint(unit, "<=", hi)]
    interval_rows = tuple(interval_rows)

    ops = []
    for kind, count, rows, dim, n_acts, budgets in (
        ("finance", LP_FINANCE_OPS, finance_rows, len(finance["states"]), LP_FINANCE_ACTS, LP_FINANCE_BUDGETS),
        ("interval", LP_INTERVAL_OPS, interval_rows, LP_INTERVAL_STATES, LP_INTERVAL_ACTS, LP_INTERVAL_BUDGETS),
    ):
        for idx in range(count):
            payoffs = rng.integers(0, 100, size=(n_acts, dim), endpoint=True)
            acts = [
                cb.Act(f"a{i + 1}", tuple(float(v) for v in payoffs[i])) for i in range(n_acts)
            ]
            ops.append(_constraint_op(cb, f"{kind}-{idx}", rows, dim, acts, budgets))
    return _shuffled(ops, seed)


def _constraint_op(cb, op_id: str, rows, dim: int, acts, budgets) -> Op:
    ka, kb = budgets

    def run():
        credal = cb.CredalSet.from_constraints(rows, dim)
        matrix = cb.regret_matrix(acts, credal)
        return (
            matrix,
            cb.solve_minimax(matrix, ka),
            cb.solve_minimax(matrix, kb),
            cb.budgeted_rule(matrix, kb, cb.Criterion.MINIMAX),
            cb.maximal_acts(matrix),
        )

    def record(out):
        matrix, sa, sb, rule, maximal = out
        return {
            "matrix": matrix.entries.tolist(),
            f"minimax_k{ka}": _solution(sa),
            f"minimax_k{kb}": _solution(sb),
            f"rule_k{kb}": list(rule),
            "maximal": list(maximal),
        }

    def check(out, stored):
        matrix, sa, sb, rule, maximal = out
        issues = _check_value(matrix, sa, ka, cb.minimax_regret, f"minimax k={ka}")
        issues += _check_value(matrix, sb, kb, cb.minimax_regret, f"minimax k={kb}")
        if not sb.value <= sa.value:
            issues.append(f"minimax value rose from k={ka} to k={kb}")
        want = maximal if sb.value < 0 else sb.subset
        issues += _check_exact(tuple(rule), tuple(want), f"rule k={kb}")
        if stored is None:
            return issues
        got = matrix.entries
        ref = np.asarray(stored["matrix"], dtype=float)
        if got.shape != ref.shape or np.max(np.abs(got - ref)) > MATRIX_TOL:
            issues.append("matrix: entries differ from the stored ones by more than 1e-9")
        for k, sol in ((ka, sa), (kb, sb)):
            ref_value = stored[f"minimax_k{k}"][1]
            if abs(sol.value - ref_value) > MATRIX_TOL:
                issues.append(f"minimax k={k}: value {sol.value!r} != stored {ref_value!r}")
        issues += _check_exact(list(maximal), stored["maximal"], "maximal")
        return issues

    return Op(op_id, run, record, check)


# -- golden-cli -------------------------------------------------------------


def golden_cli(cb, seed: int, workdir: Path) -> list[Op]:
    """In-process CLI commands on the four bundled instances, dumped here."""
    problems = workdir / "problems"
    problems.mkdir(parents=True, exist_ok=True)
    argvs: list[list[str]] = []
    for name, inst in cb.instances.builtin_instances().items():
        path = problems / f"{name}.json"
        path.write_text(json.dumps(inst.problem, indent=2) + "\n")
        p = ["--problem", str(path)]
        n = len(inst.problem["acts"])
        for fmt in ("table", "csv", "json"):
            argvs.append(["matrix", *p, "--format", fmt])
            argvs.append(["maximality", *p, "--format", fmt])
        for k in map(str, range(1, n)):
            for crit in ("minimax", "maximin", "greedy-minimax", "greedy-maximin"):
                argvs.append(["solve", *p, "--k", k, "--criterion", crit])
            for crit in ("minimax", "maximin"):
                argvs.append(["decide", *p, "--k", k, "--criterion", crit])
                argvs.append(["oracle", *p, "--k", k, "--criterion", crit])
            argvs.append(
                ["solve", *p, "--k", k, "--criterion", "maximin", "--tie-break", "seeded", "--seed", CLI_SEED]
            )
        for fmt in ("csv", "json"):
            argvs.append(["solve", *p, "--k", "2", "--criterion", "maximin", "--format", fmt])
        argvs.append(["graph", *p, "--alpha", CLI_ALPHA])
    argvs.append(["examples"])
    prefix = str(problems) + "/"
    return _shuffled([_cli_op(cb, argv, " ".join(argv).replace(prefix, "")) for argv in argvs], seed)


def _cli_op(cb, argv: list[str], op_id: str) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cb.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def record(out):
        return out[1]

    def check(out, stored):
        code, stdout, stderr = out
        if code != 0:
            return [f"exit {code}: {stderr.strip()}"]
        if stored is None:
            return ["no stored stdout for this command"]
        return [] if stdout == stored else ["stdout differs from the stored bytes"]

    return Op(op_id, run, record, check)


# -- wide-vertex ------------------------------------------------------------


def wide_vertex(cb, seed: int, workdir: Path) -> list[Op]:
    """Wide vertex-form instances: matrix build, minimax, greedy, rule, maximality."""
    ops = []
    for idx, (n_acts, inst_seed) in enumerate(
        zip(WIDE_SIZES, cb.bench.trial_seeds(seed, len(WIDE_SIZES)))
    ):
        config = cb.GenConfig(
            n_acts=n_acts, n_states=WIDE_STATES, n_vertices=WIDE_VERTICES, seed=inst_seed
        )
        acts, credal = cb.generate_instance(config)
        ops.append(_wide_op(cb, f"n{n_acts}-{idx}", acts, credal))
    return _shuffled(ops, seed)


def _wide_op(cb, op_id: str, acts, credal) -> Op:
    ka, kb = WIDE_BUDGETS
    kg = WIDE_GREEDY_K

    def run():
        matrix = cb.regret_matrix(acts, credal)
        return (
            matrix,
            cb.solve_minimax(matrix, ka),
            cb.solve_minimax(matrix, kb),
            cb.solve_greedy(matrix, kg, cb.Criterion.MINIMAX),
            cb.budgeted_rule(matrix, kg, cb.Criterion.MINIMAX),
            cb.maximal_acts(matrix),
        )

    def record(out):
        _, sa, sb, greedy, rule, maximal = out
        return {
            f"minimax_k{ka}": _solution(sa),
            f"minimax_k{kb}": _solution(sb),
            f"greedy_k{kg}": _solution(greedy),
            f"rule_k{kg}": list(rule),
            "maximal": list(maximal),
        }

    def check(out, stored):
        matrix, sa, sb, greedy, rule, maximal = out
        issues = _check_value(matrix, sa, ka, cb.minimax_regret, f"minimax k={ka}")
        issues += _check_value(matrix, sb, kb, cb.minimax_regret, f"minimax k={kb}")
        issues += _check_value(matrix, greedy, kg, cb.minimax_regret, f"greedy k={kg}")
        if not sb.value <= sa.value:
            issues.append(f"minimax value rose from k={ka} to k={kb}")
        exact = cb.solve_minimax(matrix, kg)
        if not exact.value <= greedy.value:
            issues.append(f"greedy {greedy.value!r} beats the exact optimum {exact.value!r}")
        want = maximal if exact.value < 0 else exact.subset
        issues += _check_exact(tuple(rule), tuple(want), f"rule k={kg}")
        if stored is not None:
            issues += _check_exact(record(out), stored, "outputs")
        return issues

    return Op(op_id, run, record, check)


WORKLOADS = {
    "negativity": negativity,
    "constraint-lp": constraint_lp,
    "golden-cli": golden_cli,
    "wide-vertex": wide_vertex,
}

# Workloads whose inputs do not depend on the seed (the seed only orders the
# ops), so their stored outputs apply at every seed.
SEED_FREE = {"negativity", "golden-cli"}

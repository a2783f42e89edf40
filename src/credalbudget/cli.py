"""Command-line front end.

Commands: matrix, maximality, solve, decide, oracle, graph, experiment,
examples. Problems come from JSON files (or matrix CSV re-ingested as a
precomputed problem). Exit codes: 0 success, 1 malformed input, 2 infeasible
credal set, 3 guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .bench import (
    consistency_aggregate,
    negativity_aggregate,
    run_consistency_trials,
    run_negativity_trials,
    write_csv,
)
from .budget import (
    Criterion,
    budgeted_rule,
    domination_graph_dot,
    oracle_solve,
    solve_greedy,
    solve_maximin,
    solve_minimax,
)
from .errors import GuardExceededError, InfeasibleCredalError, ProblemFormatError
from .gen import GenConfig
from .instances import builtin_instances, verify_instance
from .problemio import load_problem
from .regret import NEG_INFINITY, display_rows, maximal_acts, matrix_to_csv

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INFEASIBLE = 2
EXIT_GUARD = 3

# flags that only one experiment protocol reads: flag -> (protocol, default)
_PROTOCOL_FLAGS = {
    "--target-dm": ("consistency", 6),
    "--k-min": ("consistency", 2),
    "--k-max": ("consistency", 6),
    "--dm-sizes": ("negativity", "2,5,10"),
    "--offsets": ("negativity", "0,1,2,3"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are malformed input: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_MALFORMED)


def _table_value(value: float) -> str:
    if value == NEG_INFINITY:
        return "-inf"
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _cell_value(value: float) -> str:
    text = f"{value:.2f}"
    if text == "-0.00":
        text = "0.00"
    return text[:-1] if text.endswith("0") else text  # 1-2 decimals


def _data_value(value: float):
    return "-inf" if value == NEG_INFINITY else round(value, 6)


def _name_set(names) -> str:
    return "{" + ", ".join(names) + "}"


def _print_table(rows: list[list[str]]) -> None:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())


def _emit_matrix(matrix, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(matrix_to_csv(matrix))
    elif fmt == "json":
        print(
            json.dumps(
                {
                    "acts": list(matrix.names),
                    "matrix": [
                        [round(float(v), 6) for v in row] for row in matrix.entries
                    ],
                },
                indent=2,
            )
        )
    else:
        _print_table(list(display_rows(matrix, _cell_value, "-")))


def _print_csv(*rows) -> None:
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _emit_names(names, fmt: str, key: str) -> None:
    if fmt == "csv":
        _print_csv(names)
    elif fmt == "json":
        print(json.dumps({key: list(names)}, indent=2))
    else:
        print(_name_set(names))


def _emit_solution(solution, names, fmt: str) -> None:
    chosen = [names[i] for i in solution.subset]
    fields = {
        "subset": chosen,
        "value": _data_value(solution.value),
        "criterion": solution.criterion.value,
        "tie_count": solution.tie_count,
        "tie_break": solution.tie_break,
    }
    if fmt == "csv":
        row = dict(fields, subset=" ".join(chosen))
        _print_csv(row.keys(), row.values())
    elif fmt == "json":
        print(json.dumps(fields, indent=2))
    else:
        line = f"{_name_set(chosen)}  value {_table_value(solution.value)}"
        if solution.criterion in (Criterion.ORACLE_MINIMAX, Criterion.ORACLE_MAXIMIN):
            line += f"  ties {solution.tie_count}"
        print(line)


def _add_common(sub, *, with_k: bool, criteria=None) -> None:
    sub.add_argument("--problem", "-p", required=True, help="problem file (.json or matrix .csv)")
    sub.add_argument(
        "--format", "-f", choices=("table", "csv", "json"), default="table", dest="fmt"
    )
    if with_k:
        sub.add_argument("--k", type=int, required=True, help="budget (>= 1)")
    if criteria:
        sub.add_argument("--criterion", choices=criteria, default=criteria[0])
        sub.add_argument("--tie-break", choices=("lex", "seeded"), default="lex")
        sub.add_argument("--seed", type=int, default=None, help="seed for --tie-break seeded")


def build_parser() -> _Parser:
    parser = _Parser(prog="credalbudget", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> _Parser:
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(run=run)
        return sub

    _add_common(command("matrix", _cmd_matrix, "print the pairwise regret table"), with_k=False)
    _add_common(command("maximality", _cmd_maximality, "print the undominated acts"), with_k=False)
    _add_common(
        command("solve", _cmd_solve, "optimal size-k subset for a criterion"),
        with_k=True,
        criteria=("minimax", "maximin", "greedy-minimax", "greedy-maximin"),
    )
    _add_common(
        command("decide", _cmd_decide, "apply the k-budgeted decision rule"),
        with_k=True,
        criteria=("minimax", "maximin"),
    )
    oracle = command("oracle", _cmd_oracle, "brute-force optimum with tie count")
    _add_common(oracle, with_k=True)
    oracle.add_argument("--criterion", choices=("minimax", "maximin"), default="minimax")

    graph = command("graph", _cmd_graph, "export the domination graph as DOT")
    graph.add_argument("--problem", "-p", required=True)
    graph.add_argument("--alpha", type=float, required=True, help="cover level")
    graph.add_argument("--output", "-o", default=None, help="write DOT here instead of stdout")

    exp = command("experiment", _cmd_experiment, "run a randomized experiment protocol")
    exp.add_argument("--protocol", choices=("consistency", "negativity"), required=True)
    exp.add_argument("--trials", type=int, default=None, help="default: 100 consistency, 50 negativity")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out-dir", default="experiments")
    exp.add_argument("--acts", type=int, default=20)
    exp.add_argument("--states", type=int, default=5)
    exp.add_argument("--vertices", type=int, default=20)
    for flag, (protocol, default) in _PROTOCOL_FLAGS.items():
        exp.add_argument(
            flag, type=type(default), default=None,
            help=f"{protocol} protocol only (default {default})",
        )

    examples = command("examples", _cmd_examples, "verify bundled instances")
    examples.add_argument("--only", default=None, help="verify a single instance")
    examples.add_argument("--dump", default=None, help="write bundled problem files to a directory")

    return parser


def _cmd_matrix(args) -> int:
    _emit_matrix(load_problem(args.problem).regret_matrix(), args.fmt)
    return EXIT_OK


def _cmd_maximality(args) -> int:
    matrix = load_problem(args.problem).regret_matrix()
    names = [matrix.names[i] for i in maximal_acts(matrix)]
    _emit_names(names, args.fmt, "maximality")
    return EXIT_OK


def _cmd_solve(args) -> int:
    matrix = load_problem(args.problem).regret_matrix()
    crit = Criterion(args.criterion)
    if crit is Criterion.MINIMAX:
        solution = solve_minimax(matrix, args.k, tie_break=args.tie_break, seed=args.seed)
    elif crit is Criterion.MAXIMIN:
        solution = solve_maximin(matrix, args.k, tie_break=args.tie_break, seed=args.seed)
    else:
        solution = solve_greedy(matrix, args.k, crit, tie_break=args.tie_break, seed=args.seed)
    _emit_solution(solution, matrix.names, args.fmt)
    return EXIT_OK


def _cmd_decide(args) -> int:
    matrix = load_problem(args.problem).regret_matrix()
    chosen = budgeted_rule(
        matrix, args.k, Criterion(args.criterion),
        tie_break=args.tie_break, seed=args.seed,
    )
    _emit_names([matrix.names[i] for i in chosen], args.fmt, "decision")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    matrix = load_problem(args.problem).regret_matrix()
    solution = oracle_solve(matrix, args.k, Criterion(args.criterion))
    _emit_solution(solution, matrix.names, args.fmt)
    return EXIT_OK


def _cmd_graph(args) -> int:
    if not math.isfinite(args.alpha):
        raise ProblemFormatError(f"--alpha: must be finite, got {args.alpha}")
    matrix = load_problem(args.problem).regret_matrix()
    dot = domination_graph_dot(matrix, args.alpha)
    if args.output:
        Path(args.output).write_text(dot, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",")]  # an empty item fails here too
    except ValueError:
        raise ProblemFormatError(f"{flag}: expected comma-separated integers, got {text!r}") from None
    if len(set(values)) != len(values):
        raise ProblemFormatError(f"{flag}: each value may appear only once, got {text!r}")
    return values


def _cmd_experiment(args) -> int:
    out_dir = Path(args.out_dir)
    for flag, (protocol, default) in _PROTOCOL_FLAGS.items():
        name = flag[2:].replace("-", "_")
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif protocol != args.protocol:  # given, but the other protocol would ignore it
            raise ProblemFormatError(f"{flag}: {protocol} protocol only")
    for name in ("trials", "acts", "states", "vertices"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ProblemFormatError(f"--{name}: must be >= 1, got {value}")
    if args.seed < 0:
        raise ProblemFormatError(f"--seed: must be >= 0, got {args.seed}")
    config = GenConfig(n_acts=args.acts, n_states=args.states, n_vertices=args.vertices)
    # at k >= --acts every rule keeps the whole act set at value -inf
    if args.protocol == "consistency":
        if not 1 <= args.k_min <= args.k_max:
            raise ProblemFormatError(
                f"--k-min: need 1 <= --k-min <= --k-max, got {args.k_min} and {args.k_max}"
            )
        if not 1 <= args.target_dm <= args.acts:
            raise ProblemFormatError(
                f"--target-dm: must lie in [1, --acts {args.acts}], got {args.target_dm}"
            )
        if args.k_max >= args.acts:
            raise ProblemFormatError(
                f"--k-max: must be below --acts {args.acts}, got {args.k_max}"
            )
        trials = 100 if args.trials is None else args.trials
        run = partial(
            run_consistency_trials, trials, replace(config, target_dm=args.target_dm),
            range(args.k_min, args.k_max + 1), args.seed,
        )
        aggregate = consistency_aggregate
    else:
        trials = 50 if args.trials is None else args.trials
        dm_sizes = _int_list(args.dm_sizes, "--dm-sizes")
        offsets = _int_list(args.offsets, "--offsets")
        if not all(1 <= d <= args.acts for d in dm_sizes):
            raise ProblemFormatError(f"--dm-sizes: each must lie in [1, --acts {args.acts}]")
        if min(dm_sizes) + min(offsets) < 1:
            raise ProblemFormatError(
                f"--offsets: budget {min(dm_sizes)} + {min(offsets)} is below 1"
            )
        if max(dm_sizes) + max(offsets) >= args.acts:
            raise ProblemFormatError(
                f"--offsets: budget {max(dm_sizes)} + {max(offsets)} is not below --acts {args.acts}"
            )
        run = partial(run_negativity_trials, trials, config, dm_sizes, offsets, args.seed)
        aggregate = negativity_aggregate
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out-dir fails before any trial
    trial_rows = run()
    agg_rows = aggregate(trial_rows)
    trials_path = out_dir / f"{args.protocol}_trials.csv"
    agg_path = out_dir / f"{args.protocol}_aggregate.csv"
    write_csv(trials_path, trial_rows)
    write_csv(agg_path, agg_rows)
    header = list(agg_rows[0].keys())
    _print_table([header] + [[str(r[c]) for c in header] for r in agg_rows])
    print(f"wrote {trials_path} and {agg_path}")
    return EXIT_OK


def _cmd_examples(args) -> int:
    instances = builtin_instances()
    if args.only is not None:
        if args.only not in instances:
            raise ProblemFormatError(
                f"instance: unknown name {args.only!r}; choose from {sorted(instances)}"
            )
        instances = {args.only: instances[args.only]}
    if args.dump:
        dump_dir = Path(args.dump)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for name, inst in instances.items():
            path = dump_dir / f"{name}.json"
            path.write_text(json.dumps(inst.problem, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {path}")
    failed = False
    for name, inst in instances.items():
        issues = verify_instance(inst)
        if issues:
            failed = True
            print(f"{name}: MISMATCH")
            for issue in issues:
                print(f"  {issue}")
        else:
            print(f"{name}: ok")
    return EXIT_MALFORMED if failed else EXIT_OK


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except InfeasibleCredalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())

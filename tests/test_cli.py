import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import credalbudget
from credalbudget.bench import consistency_aggregate, negativity_aggregate, read_csv, write_csv
from credalbudget.cli import main
from credalbudget.instances import builtin_instances


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("problems")
    for name, inst in builtin_instances().items():
        (out / f"{name}.json").write_text(json.dumps(inst.problem))
    return out


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_examples_all_match(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    assert out.count(": ok") == 4


def test_examples_dump_and_only(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "examples", "--only", "sixacts", "--dump", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sixacts.json").exists()
    assert "sixacts: ok" in out


def test_examples_unknown_name(capsys):
    code, _, err = run_cli(capsys, "examples", "--only", "nope")
    assert code == 1
    assert "instance" in err


def test_examples_mismatch_fails(capsys, monkeypatch):
    import credalbudget.cli as cli_mod

    broken = builtin_instances()
    broken["intro"].expected["maximality"] = ["a1"]
    monkeypatch.setattr(cli_mod, "builtin_instances", lambda: broken)
    code, out, _ = run_cli(capsys, "examples", "--only", "intro")
    assert code == 1
    assert "MISMATCH" in out


def test_bad_experiment_flags_exit_one(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "experiment", "--protocol", "consistency", "--trials", "2",
        "--out-dir", str(tmp_path), "--acts", "4", "--target-dm", "9",
    )
    assert code == 1
    assert "--target-dm: " in err


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--protocol", "consistency", "--k-min", "5", "--k-max", "3"], "--k-min"),
        (["--protocol", "consistency", "--k-min", "0"], "--k-min"),
        (["--protocol", "negativity", "--dm-sizes", ","], "--dm-sizes"),
        (["--protocol", "negativity", "--dm-sizes", "2,x"], "--dm-sizes"),
        (["--protocol", "negativity", "--dm-sizes", "2,21"], "--dm-sizes"),
        (["--protocol", "negativity", "--offsets", ""], "--offsets"),
        (["--protocol", "negativity", "--offsets", "0,1.5"], "--offsets"),
        (["--protocol", "negativity", "--dm-sizes", "2", "--offsets=-2,0"], "--offsets"),
        (["--protocol", "consistency", "--trials", "0"], "--trials"),
        (["--protocol", "negativity", "--trials", "0"], "--trials"),
        (["--protocol", "negativity", "--acts", "0", "--dm-sizes", "1"], "--acts"),
        (["--protocol", "negativity", "--states", "0"], "--states"),
        (["--protocol", "consistency", "--vertices", "0"], "--vertices"),
        (["--protocol", "consistency", "--target-dm", "0"], "--target-dm"),
        (["--protocol", "consistency", "--acts", "4", "--target-dm", "5"], "--target-dm"),
        (["--protocol", "consistency", "--seed", "-1"], "--seed"),
        (["--protocol", "negativity", "--seed", "-3", "--dm-sizes", "5,2"], "--seed"),
        (["--protocol", "consistency", "--k-max", "9", "--acts", "3", "--target-dm", "2"],
         "--k-max"),
        (["--protocol", "consistency", "--k-max", "3", "--acts", "3", "--target-dm", "2"],
         "--k-max"),
        (["--protocol", "negativity", "--offsets", "5", "--dm-sizes", "2", "--acts", "3"],
         "--offsets"),
        (["--protocol", "negativity", "--dm-sizes", "20"], "--offsets"),
        (["--protocol", "negativity", "--dm-sizes", "2,2"], "--dm-sizes"),
        (["--protocol", "negativity", "--offsets", "0,0"], "--offsets"),
        (["--protocol", "negativity", "--dm-sizes", "2,,5"], "--dm-sizes"),
        (["--protocol", "negativity", "--dm-sizes", "2,"], "--dm-sizes"),
        (["--protocol", "negativity", "--dm-sizes", "2", "--offsets", ",2"], "--offsets"),
        # a flag that only the other protocol reads is refused, not ignored
        (["--protocol", "negativity", "--target-dm", "99"], "--target-dm"),
        (["--protocol", "negativity", "--k-min", "4"], "--k-min"),
        (["--protocol", "negativity", "--k-max", "2"], "--k-max"),
        (["--protocol", "consistency", "--dm-sizes", "3"], "--dm-sizes"),
        (["--protocol", "consistency", "--offsets", "9"], "--offsets"),
    ],
)
def test_experiment_flags_checked_before_trials(capsys, monkeypatch, tmp_path, flags, flag):
    import credalbudget.cli as cli_mod

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the flags were checked")

    monkeypatch.setattr(cli_mod, "run_consistency_trials", no_trials)
    monkeypatch.setattr(cli_mod, "run_negativity_trials", no_trials)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "experiment", *flags, "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("protocol", ["consistency", "negativity"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_experiment_unusable_out_dir_exits_one_before_trials(
    capsys, monkeypatch, tmp_path, protocol, below
):
    import credalbudget.cli as cli_mod

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before --out-dir was checked")

    monkeypatch.setattr(cli_mod, "run_consistency_trials", no_trials)
    monkeypatch.setattr(cli_mod, "run_negativity_trials", no_trials)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out_dir = blocker / below if below else blocker
    code, out, err = run_cli(
        capsys, "experiment", "--protocol", protocol, "--out-dir", str(out_dir)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "not a directory\n"


def test_solve_table_rendering(capsys, problem_dir):
    code, out, _ = run_cli(
        capsys, "solve", "--problem", str(problem_dir / "sixacts.json"),
        "--k", "2", "--criterion", "maximin",
    )
    assert code == 0
    assert out.strip() == "{a3, a6}  value -0.7"


def test_solve_full_budget_prints_inf(capsys, tmp_path):
    problem = {
        "states": ["w1", "w2"],
        "acts": [
            {"name": "x", "payoffs": [1, 0]},
            {"name": "y", "payoffs": [0, 1]},
            {"name": "z", "payoffs": [1, 1]},
        ],
        "credal": {"vertices": [[0.5, 0.5]]},
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "solve", "--problem", str(path), "--k", "5",
                           "--criterion", "minimax")
    assert code == 0
    assert out.strip() == "{x, y, z}  value -inf"


def test_decide_returns_maximality_when_negative(capsys, problem_dir):
    code, out, _ = run_cli(
        capsys, "decide", "--problem", str(problem_dir / "intro.json"),
        "--k", "4", "--criterion", "minimax",
    )
    assert code == 0
    assert out.strip() == "{a1, a2, a3, a4}"


def test_maximality_formats(capsys, problem_dir):
    code, out, _ = run_cli(capsys, "maximality", "--problem", str(problem_dir / "intro.json"))
    assert (code, out.strip()) == (0, "{a1, a2, a3, a4}")
    code, out, _ = run_cli(
        capsys, "maximality", "--problem", str(problem_dir / "intro.json"), "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"maximality": ["a1", "a2", "a3", "a4"]}


@pytest.mark.parametrize("argv", [["maximality"], ["decide", "--k", "2"]], ids=["maximality", "decide"])
def test_csv_names_read_back(capsys, tmp_path, argv):
    path = tmp_path / "names.json"
    path.write_text(json.dumps({
        "states": ["w1", "w2"],
        "acts": [{"name": "a,1", "payoffs": [1, 0]}, {"name": 'b"2', "payoffs": [0, 1]}],
        "credal": {"vertices": [[1, 0], [0, 1]]},
    }))
    code, out, _ = run_cli(capsys, *argv, "--problem", str(path), "--format", "csv")
    assert code == 0
    assert list(csv.reader(out.splitlines())) == [["a,1", 'b"2']]


def test_oracle_reports_ties(capsys, problem_dir):
    code, out, _ = run_cli(
        capsys, "oracle", "--problem", str(problem_dir / "intro.json"),
        "--k", "3", "--criterion", "minimax",
    )
    assert code == 0
    assert out.strip() == "{a1, a2, a3}  value 1  ties 2"


@pytest.mark.parametrize(
    "flags", [["--tie-break", "seeded"], ["--seed", "5"]], ids=["tie-break", "seed"]
)
def test_oracle_takes_no_tie_break_flags(capsys, problem_dir, flags):
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--problem", str(problem_dir / "intro.json"), "--k", "3", *flags])
    assert info.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_json_format(capsys, problem_dir):
    code, out, _ = run_cli(
        capsys, "solve", "--problem", str(problem_dir / "sixacts.json"),
        "--k", "3", "--criterion", "maximin", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["subset"] == ["a1", "a3", "a6"]
    assert data["value"] == -1.0
    assert data["tie_count"] == 1


def test_matrix_csv_round_trip(capsys, problem_dir, tmp_path):
    code, out, _ = run_cli(
        capsys, "matrix", "--problem", str(problem_dir / "sixacts.json"), "--format", "csv"
    )
    assert code == 0
    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text(out)
    for criterion in ("minimax", "maximin"):
        for k in (1, 2, 3):
            code, from_csv, _ = run_cli(
                capsys, "solve", "--problem", str(csv_path),
                "--k", str(k), "--criterion", criterion,
            )
            assert code == 0
            code, from_json, _ = run_cli(
                capsys, "solve", "--problem", str(problem_dir / "sixacts.json"),
                "--k", str(k), "--criterion", criterion,
            )
            assert from_csv == from_json


def test_matrix_json_matches_precomputed_input(capsys, problem_dir, tmp_path):
    code, out, _ = run_cli(
        capsys, "matrix", "--problem", str(problem_dir / "intro.json"), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    path = tmp_path / "pre.json"
    path.write_text(json.dumps({"acts": data["acts"], "matrix": data["matrix"]}))
    code, out, _ = run_cli(capsys, "solve", "--problem", str(path), "--k", "2",
                           "--criterion", "minimax")
    assert code == 0
    assert out.strip() == "{a1, a2}  value 1.4"


def test_graph_output(capsys, problem_dir, tmp_path):
    code, out, _ = run_cli(
        capsys, "graph", "--problem", str(problem_dir / "sixacts.json"), "--alpha", "-1.0"
    )
    assert code == 0
    assert '"a3" -> "a2";' in out
    target = tmp_path / "graph.dot"
    code, out, _ = run_cli(
        capsys, "graph", "--problem", str(problem_dir / "sixacts.json"),
        "--alpha", "-0.7", "--output", str(target),
    )
    assert code == 0
    assert '"a6" -> "a1";' in target.read_text()


def test_graph_unwritable_output_exits_one(capsys, problem_dir, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    target = blocker / "x.dot"
    code, out, err = run_cli(
        capsys, "graph", "--problem", str(problem_dir / "sixacts.json"),
        "--alpha", "0", "--output", str(target),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_graph_non_finite_alpha_exits_one(capsys, problem_dir, alpha):
    code, out, err = run_cli(
        capsys, "graph", "--problem", str(problem_dir / "sixacts.json"), f"--alpha={alpha}"
    )
    assert (code, out) == (1, "")
    assert "--alpha: must be finite" in err


DOT_ID = r'"(?:[^"\\]|\\.)*"'


def test_graph_escapes_act_names(capsys, tmp_path):
    path = tmp_path / "names.json"
    path.write_text(json.dumps({
        "states": ["w1", "w2"],
        "acts": [
            {"name": 'a"1', "payoffs": [1, 2]},
            {"name": "b\\2", "payoffs": [2, 1]},
            {"name": 'c\\"3\\', "payoffs": [0, 0]},
        ],
        "credal": {"vertices": [[0.5, 0.5]]},
    }))
    code, out, _ = run_cli(capsys, "graph", "--problem", str(path), "--alpha", "10")
    assert code == 0
    body = out.splitlines()[2:-1]
    assert body[:3] == ['  "a\\"1";', '  "b\\\\2";', '  "c\\\\\\"3\\\\";']
    assert len(body) == 3 + 6  # every act answers every challenger at alpha 10
    for line in body:
        assert re.fullmatch(rf"  {DOT_ID}( -> {DOT_ID})?;", line), line


def test_seeded_solve(capsys, problem_dir):
    code, out, _ = run_cli(
        capsys, "solve", "--problem", str(problem_dir / "intro.json"),
        "--k", "3", "--criterion", "minimax", "--tie-break", "seeded", "--seed", "1",
    )
    assert code == 0
    assert "value 1" in out


NEGATIVE_SEED_CASES = [
    pytest.param(command, "2", criterion, "seeded", id=f"{criterion}-{command}")
    for criterion in ("minimax", "maximin")
    for command in ("solve", "decide")
] + [
    # sixacts has 6 acts: the rule keeps the maximality set without a solver
    pytest.param("decide", "6", "maximin", "seeded", id="maximin-decide-k-at-n"),
    pytest.param("solve", "2", "minimax", "lex", id="minimax-solve-lex"),
]


@pytest.mark.parametrize(("command", "k", "criterion", "tie_break"), NEGATIVE_SEED_CASES)
def test_negative_seed_exits_one_naming_seed(capsys, problem_dir, command, k, criterion, tie_break):
    code, out, err = run_cli(
        capsys, command, "--problem", str(problem_dir / "sixacts.json"), "--k", k,
        "--criterion", criterion, "--tie-break", tie_break, "--seed", "-1",
    )
    assert (code, out) == (1, "")
    assert err == "error: seed: must be >= 0, got -1\n"


def test_exit_code_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["w1"], "acts": []}')
    code, _, err = run_cli(capsys, "maximality", "--problem", str(bad))
    assert code == 1
    assert "acts" in err

    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "maximality", "--problem", str(missing))
    assert code == 1

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{")
    code, _, err = run_cli(capsys, "maximality", "--problem", str(notjson))
    assert code == 1
    assert "JSON" in err


def overflowing_problem(n_states: int, credal: dict) -> dict:
    half = n_states // 2
    big = [1e308] * half + [-1e308] * (n_states - half)
    return {
        "states": [f"w{s}" for s in range(n_states)],
        "acts": [{"name": "a", "payoffs": big}, {"name": "b", "payoffs": big[::-1]}],
        "credal": credal,
    }


def interval_rows(n_states: int) -> list[dict]:
    rows = []
    for s in range(n_states):
        unit = [1.0 if t == s else 0.0 for t in range(n_states)]
        rows += [{"coeffs": unit, "relation": ">=", "rhs": 0.02},
                 {"coeffs": unit, "relation": "<=", "rhs": 0.2}]
    return rows


# The vertex route overflows in the vectorised build; 14 interval states are
# above the enumeration guard, so that route overflows inside the pairwise LPs.
@pytest.mark.parametrize(
    "problem",
    [
        overflowing_problem(2, {"vertices": [[0.5, 0.5], [1.0, 0.0]]}),
        overflowing_problem(14, {"constraints": interval_rows(14)}),
    ],
    ids=["vertex", "lp"],
)
def test_overflowing_payoffs_exit_one_without_warnings(capsys, tmp_path, problem):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(problem))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "matrix", "--problem", str(path))
    assert (code, out) == (1, "")
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1
    assert err.startswith("error: matrix[") and "entries must be finite" in err


def test_exit_code_infeasible(capsys, tmp_path):
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps({
        "states": ["w1", "w2"],
        "acts": [{"name": "a1", "payoffs": [1, 2]}],
        "credal": {"constraints": [{"coeffs": [1, 0], "relation": ">=", "rhs": 1.5}]},
    }))
    code, _, err = run_cli(capsys, "maximality", "--problem", str(infeasible))
    assert code == 2
    assert "credal" in err


def test_exit_code_guard(capsys, tmp_path):
    n = 40
    pre = tmp_path / "big.json"
    pre.write_text(json.dumps({"matrix": [[0.0] * n for _ in range(n)]}))
    code, _, err = run_cli(capsys, "oracle", "--problem", str(pre), "--k", "20",
                           "--criterion", "minimax")
    assert code == 3
    assert "guard" in err


def test_seeded_maximin_tie_guard_exits_three(capsys, monkeypatch, tmp_path):
    import credalbudget.budget as budget_mod

    monkeypatch.setattr(budget_mod, "ORACLE_MAX_SUBSETS", 50)
    pre = tmp_path / "tied.json"
    pre.write_text(json.dumps({"matrix": [[0.0] * 8 for _ in range(8)]}))
    code, out, err = run_cli(capsys, "solve", "--problem", str(pre), "--k", "4",
                             "--criterion", "maximin", "--tie-break", "seeded")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "guard" in err


def test_maximin_node_guard_exits_three(capsys, monkeypatch, tmp_path):
    import credalbudget.budget as budget_mod

    monkeypatch.setattr(budget_mod, "MAXIMIN_MAX_NODES", 20)
    # U(0, 1) entries: at k = 5 the greedy pass misses the floor, so the
    # bisection runs exact probes and spends the budget.
    entries = np.random.default_rng(1).uniform(0, 1, (20, 20))
    pre = tmp_path / "deep.json"
    pre.write_text(json.dumps({"matrix": entries.tolist()}))
    code, out, err = run_cli(capsys, "solve", "--problem", str(pre), "--k", "5",
                             "--criterion", "maximin")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "node guard" in err


def test_simplex_pivot_guard_exits_three(capsys, monkeypatch, problem_dir):
    from credalbudget import simplex

    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
    code, out, err = run_cli(capsys, "matrix", "--problem", str(problem_dir / "intro.json"))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "pivot guard" in err


def test_bad_k_rejected(capsys, problem_dir):
    # Every command that takes --k, under every criterion it offers.
    p = ["--problem", str(problem_dir / "intro.json")]
    commands = [("solve", c) for c in ("minimax", "maximin", "greedy-minimax", "greedy-maximin")]
    commands += [(command, c) for command in ("decide", "oracle") for c in ("minimax", "maximin")]
    for k in (0, -2):
        for command, criterion in commands:
            outcome = run_cli(capsys, command, *p, "--k", str(k), "--criterion", criterion)
            assert outcome == (1, "", f"error: k: must be >= 1, got {k}\n"), (command, criterion)


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--k", "2"])  # --problem missing
    assert info.value.code == 1


def test_shared_parser_keeps_no_state_between_calls(capsys, problem_dir):
    p = ["--problem", str(problem_dir / "sixacts.json")]
    argvs = [
        ["solve", *p, "--k", "2", "--tie-break", "seeded", "--seed", "7"],
        ["solve", *p, "--k", "2"],
        ["solve", *p, "--k", "3", "--format", "json"],
        ["solve", *p, "--k", "3"],
        ["solve", *p, "--k", "2", "--criterion", "maximin"],
        ["oracle", *p, "--k", "2"],
        ["solve", *p],  # --k missing: usage error
        ["matrix", *p, "--format", "json"],
        ["matrix", *p],
        ["decide", *p, "--k", "2", "--criterion", "maximin", "--tie-break", "seeded"],
        ["decide", *p, "--k", "2", "--criterion", "maximin"],
    ]

    def run_all(order):
        results = {}
        for argv in order:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results[tuple(argv)] = (code, capsys.readouterr().out)
        return results

    forward = run_all(argvs)
    assert forward == run_all(argvs[::-1])
    assert [code for code, _ in forward.values()] == [0] * 6 + [1] + [0] * 4


def test_experiment_smoke(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "experiment", "--protocol", "negativity", "--trials", "2",
        "--seed", "3", "--out-dir", str(tmp_path),
        "--acts", "8", "--states", "3", "--vertices", "4",
        "--dm-sizes", "2,3", "--offsets", "0,1",
    )
    assert code == 0
    assert (tmp_path / "negativity_trials.csv").exists()
    assert (tmp_path / "negativity_aggregate.csv").exists()
    assert "maximin_negative_pct" in out

    code, out, _ = run_cli(
        capsys, "experiment", "--protocol", "consistency", "--trials", "2",
        "--seed", "3", "--out-dir", str(tmp_path),
        "--acts", "8", "--states", "3", "--vertices", "4", "--target-dm", "3",
        "--k-min", "2", "--k-max", "3",
    )
    assert code == 0
    assert (tmp_path / "consistency_trials.csv").exists()
    assert "exact_minimax" in out

    for protocol, aggregate in (
        ("negativity", negativity_aggregate), ("consistency", consistency_aggregate)
    ):
        again = tmp_path / f"{protocol}_again.csv"
        write_csv(again, aggregate(read_csv(tmp_path / f"{protocol}_trials.csv")))
        assert again.read_bytes() == (tmp_path / f"{protocol}_aggregate.csv").read_bytes()


# sha256 of the experiment CSVs at one small shape per protocol; any change
# to a trial cell, a column or the aggregate shows up here.
EXPERIMENT_SHA256 = {
    "consistency_trials.csv": "3ad459d0dee00b2625c173a6f94731fb9f204d826e215f4f237bb2125ca6e9dd",
    "consistency_aggregate.csv": "88eee4edd04660802588ba244519f7351c479afb640f81a6605e7624d722faa7",
    "negativity_trials.csv": "414255946aaf3b594a143ecd7e9aac9834603bc4cc7df42acefa8b6f0f15c880",
    "negativity_aggregate.csv": "a0b102d61b3044fcc14b29f75fb826390acc84f9665cbcaa44186e7888bb11d9",
}


@pytest.mark.parametrize(
    ("protocol", "flags"),
    [
        ("consistency", ["--target-dm", "3", "--k-min", "2", "--k-max", "4"]),
        ("negativity", ["--dm-sizes", "2,3", "--offsets", "0,1"]),
    ],
)
def test_experiment_csv_bytes_pinned(capsys, tmp_path, protocol, flags):
    code, _, _ = run_cli(
        capsys, "experiment", "--protocol", protocol, "--trials", "3", "--seed", "5",
        "--acts", "8", "--states", "3", "--vertices", "4", *flags, "--out-dir", str(tmp_path),
    )
    assert code == 0
    for kind in ("trials", "aggregate"):
        name = f"{protocol}_{kind}.csv"
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == EXPERIMENT_SHA256[name]


NON_FINITE_MATRIX = '{"matrix": [[0, NaN, 1], [2, 0, 3], [1, Infinity, 0]]}'


@pytest.mark.parametrize("criterion", ["minimax", "maximin", "greedy-minimax"])
def test_non_finite_json_matrix_exits_one(capsys, tmp_path, criterion):
    path = tmp_path / "bad.json"
    path.write_text(NON_FINITE_MATRIX)
    code, out, err = run_cli(
        capsys, "solve", "--problem", str(path), "--k", "1", "--criterion", criterion
    )
    assert (code, out) == (1, "")
    assert "matrix[0][1]: entries must be finite, got nan" in err


def test_json_integer_beyond_float_range_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"matrix": [[0, 1%s], [2, 0]]}' % ("0" * 400))
    code, out, err = run_cli(capsys, "solve", "--problem", str(path), "--k", "1")
    assert (code, out) == (1, "")
    assert "matrix[0][1]: entries must be finite, got inf" in err


def test_non_finite_json_vertex_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"states": ["w1", "w2"], "acts": [{"name": "a", "payoffs": [1, 2]}],'
        ' "credal": {"vertices": [[0.5, 0.5], [NaN, 0.5]]}}'
    )
    code, out, err = run_cli(capsys, "matrix", "--problem", str(path))
    assert (code, out) == (1, "")
    assert "credal.vertices[1]: probability mass must be finite" in err


def test_non_finite_json_payoff_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"states": ["w1", "w2"], "acts": [{"name": "a", "payoffs": [1, -Infinity]}],'
        ' "credal": {"vertices": [[0.5, 0.5]]}}'
    )
    code, out, err = run_cli(capsys, "maximality", "--problem", str(path))
    assert (code, out) == (1, "")
    assert "acts[0]: act 'a': payoffs must all be finite" in err


@pytest.mark.parametrize(
    "cell, problem",
    [("nan", "finite"), ("inf", "finite"), ("-Infinity", "finite"), ("abc", "a number")],
    ids=["nan", "inf", "-Infinity", "abc"],
)
def test_non_finite_matrix_csv_exits_one(capsys, tmp_path, cell, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f",a1,a2,a3\na1,,2,1\na2,{cell},,1\na3,1,3,\n")
    code, out, err = run_cli(capsys, "solve", "--problem", str(path), "--k", "1")
    assert (code, out) == (1, "")
    assert f"matrix csv row 2, column 'a1': '{cell}' is not {problem}" in err


_STATES_ACTS = '"states": ["s", "t"], "acts": [{"name": "a", "payoffs": [1, 2]}]'


@pytest.mark.parametrize(
    "suffix, text, message",
    [
        (".csv", ",a,a\na,,1\na,1,\n", "matrix csv header: names must be unique"),
        (".csv", ",,b\n,,1\nb,1,\n", "matrix csv header: names must be nonempty"),
        (".json", '{"matrix": [[0, 1], [1, 0]], "acts": ["", "b"]}', "acts: names must be nonempty"),
        (".json", '{"matrix": [[0, 1], [1, 0]], "acts": ["a", "a"]}', "acts: names must be unique"),
        (
            ".json",
            '{"matrix": [[0, 1], [2, 0]], "states": ["s", "t"],'
            ' "credal": {"vertices": [[0.5, 0.5]]}}',
            "states: not allowed with a matrix",
        ),
        (".json", '{"matrix": [[0, 1], [2, 0]], "credal": {}}', "credal: not allowed with a matrix"),
        # a key the format does not define is refused, not dropped, at every level
        (".json", '{"matrix": [[0, 1], [2, 0]], "act": ["x", "y"]}', "act: unknown key"),
        (
            ".json",
            '{"states": ["s", "t"], "acts": [{"name": "a", "payoffs": [1, 2], "payof": [1, 2]}],'
            ' "credal": {"vertices": [[0.5, 0.5]]}}',
            "acts[0].payof: unknown key",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"vertices": [[0.5, 0.5]], "constraints_": []}}',
            "credal.constraints_: unknown key",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"constraints":'
            ' [{"coeffs": [1, 0], "relation": "<=", "rhs": 0.7, "rhs2": 1}]}}',
            "credal.constraints[0].rhs2: unknown key",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"vertices": [[0.5, 0.5]]}, "matrixx": []}',
            "matrixx: unknown key",
        ),
        # each remaining refusal of a malformed problem file, in the order they are checked
        (".json", "[1, 2]", "problem: top level must be an object"),
        (".json", '{"states": "s", "acts": [], "credal": {}}', "problem.states: wrong type str"),
        (".json", '{"matrix": []}', "matrix: expected a nonempty list of rows"),
        (".json", '{"matrix": [1, 2]}', "matrix[0]: expected a list of numbers"),
        (".json", '{"matrix": [[0, 1], [1]]}', "matrix[1]: expected 2 numbers, got 1"),
        (
            ".json",
            '{"matrix": [[0, 1], [1, 0]], "acts": "ab"}',
            "acts: with a matrix, acts must be a list of names",
        ),
        (".json", '{"matrix": [[0, 1], [1, 0]], "acts": ["a"]}', "acts: expected 2 names, got 1"),
        # the diagonal is never read, but a NaN there is refused, not zeroed
        (".json", '{"matrix": [[NaN, 1], [1, 0]]}', "matrix[0][0]: entries must be finite, got nan"),
        (
            ".json",
            '{"states": ["s", 1], "acts": [], "credal": {}}',
            "states: expected a list of strings",
        ),
        (
            ".json",
            '{"states": [], "acts": [], "credal": {}}',
            "states: at least one state label is required",
        ),
        (".json", '{"states": ["s", ""], "acts": [], "credal": {}}', "states: names must be nonempty"),
        (".json", '{"states": ["s", "s"], "acts": [], "credal": {}}', "states: names must be unique"),
        (
            ".json",
            '{"states": ["s", "t"], "acts": [1], "credal": {}}',
            "acts[0]: expected an object",
        ),
        (
            ".json",
            '{"states": ["s", "t"], "acts": [{"name": "", "payoffs": [1, 2]}], "credal": {}}',
            "acts[0]: act.name: must be a nonempty string",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {}}',
            "credal: give exactly one of 'vertices' or 'constraints'",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"vertices": []}}',
            "credal.vertices: expected a nonempty list",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"vertices": [[-0.5, 1.5]]}}',
            "credal.vertices[0]: negative probability mass",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"constraints": {}}}',
            "credal.constraints: expected a list",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"constraints": [1]}}',
            "credal.constraints[0]: expected an object",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"constraints":'
            ' [{"coeffs": [1, 0], "relation": "<=", "rhs": "x"}]}}',
            "credal.constraints[0].rhs: expected a number",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"constraints":'
            ' [{"coeffs": [1, 0], "relation": "<", "rhs": 0.5}]}}',
            "credal.constraints[0]: constraint.relation: expected one of ('<=', '>=', '=')",
        ),
        (
            ".json",
            "{" + _STATES_ACTS + ', "credal": {"constraints":'
            ' [{"coeffs": [1, 0], "relation": "<=", "rhs": 1' + "0" * 400 + "}]}}",
            "credal.constraints[0]: constraint: coefficients and rhs must be finite",
        ),
        (".csv", ",a\n", "matrix csv: expected a header row and one row per act"),
        (".csv", ",a,b\na,,1\nb,1\n", "matrix csv row 2: expected 3 cells"),
        (".csv", ",a,b\na,,\nb,1,\n", "matrix csv row 1: empty off-diagonal cell"),
    ],
    ids=[
        "csv-duplicate", "csv-empty", "json-empty", "json-duplicate", "json-states", "json-credal",
        "unknown-top-act", "unknown-act-payof", "unknown-credal-constraints_",
        "unknown-constraint-rhs2", "unknown-top-matrixx",
        "top-level-list", "states-not-list", "matrix-empty", "matrix-row-not-list",
        "matrix-row-short", "matrix-acts-not-list", "matrix-acts-short", "matrix-nan-diagonal",
        "states-not-strings", "states-empty-list", "states-empty-name", "states-duplicate",
        "act-not-object", "act-empty-name", "credal-neither", "vertices-empty",
        "vertex-negative", "constraints-not-list", "constraint-not-object",
        "constraint-rhs-not-number", "constraint-bad-relation", "constraint-rhs-beyond-float",
        "csv-header-only", "csv-short-row", "csv-empty-cell",
    ],
)
def test_bad_matrix_act_names_exit_one(capsys, tmp_path, suffix, text, message):
    path = tmp_path / f"names{suffix}"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "solve", "--problem", str(path), "--k", "1", "--criterion", "maximin"
    )
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("key", ["coeffs", "relation", "rhs"])
def test_constraint_without_a_key_exits_one(capsys, tmp_path, key):
    row = {"coeffs": [1, 0], "relation": "<=", "rhs": 0.7}
    del row[key]
    path = tmp_path / "rows.json"
    path.write_text(
        "{" + _STATES_ACTS + ', "credal": {"constraints": [' + json.dumps(row) + "]}}"
    )
    code, out, err = run_cli(capsys, "solve", "--problem", str(path), "--k", "1")
    assert (code, out) == (1, "")
    assert f"credal.constraints[0].{key}: missing" in err


def test_graph_output_is_utf8_under_an_ascii_locale(tmp_path):
    problem = tmp_path / "names.json"
    problem.write_text(json.dumps({
        "states": ["w1", "w2"],
        "acts": [{"name": "caf\u00e9", "payoffs": [1, 2]}, {"name": "b", "payoffs": [2, 1]}],
        "credal": {"vertices": [[0.5, 0.5]]},
    }), encoding="utf-8")
    target = tmp_path / "out.dot"
    src = str(Path(credalbudget.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "credalbudget.cli", "graph",
         "--problem", str(problem), "--alpha", "10", "--output", str(target)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert '"caf\u00e9"' in target.read_bytes().decode("utf-8")


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"matrix": [[0, ' + "1" * 5_001 + "], [1, 0]]}"],
    ids=["deep-nesting", "long-integer"],
)
def test_every_json_parse_failure_names_the_file(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "matrix", "--problem", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: problem file {path}: invalid JSON")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["intro.json", "intro.csv"])
def test_utf8_byte_order_mark_is_accepted(capsys, problem_dir, tmp_path, name):
    source = problem_dir / "intro.json"
    if name.endswith(".csv"):
        code, text, _ = run_cli(capsys, "matrix", "--problem", str(source), "--format", "csv")
        assert code == 0
    else:
        text = source.read_text()
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    argv = ["solve", "--k", "2", "--criterion", "maximin", "--problem"]
    want = run_cli(capsys, *argv, str(plain))
    assert want[0] == 0
    assert run_cli(capsys, *argv, str(marked)) == want


@pytest.mark.parametrize(
    "criterion, row",
    [("minimax", b"a1 a2,1.4,minimax,1,lex\n"), ("maximin", b"a1 a2,1.4,maximin,1,lex\n")],
)
def test_solve_csv_bytes(capsysbinary, problem_dir, criterion, row):
    code = main([
        "solve", "--problem", str(problem_dir / "intro.json"), "--k", "2",
        "--criterion", criterion, "--format", "csv",
    ])
    assert code == 0
    assert capsysbinary.readouterr().out == b"subset,value,criterion,tie_count,tie_break\n" + row


def test_matrix_table_prints_a_rounded_negative_zero_as_zero(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [[0, -0.004], [1, 0]]}')
    code, out, _ = run_cli(capsys, "matrix", "--problem", str(path))
    assert code == 0
    assert out.splitlines() == ["     a1   a2", "a1    -  1.0", "a2  0.0    -"]


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_non_utf8_problem_file_names_the_file(capsys, tmp_path, suffix):
    path = tmp_path / f"latin1{suffix}"
    path.write_bytes(b"\xff" + ",a1,a2\na1,,1\na2,1,\n".encode())
    code, out, err = run_cli(capsys, "solve", "--problem", str(path), "--k", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: problem file {path}: 'utf-8' codec can't decode byte 0xff")

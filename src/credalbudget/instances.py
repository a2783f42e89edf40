"""Bundled reference instances with stored expected outputs.

Each instance carries a problem dict (the same structure problem files use)
and the expected regret table, maximality set, and per-budget solutions.
`verify_instance` recomputes everything and reports mismatches; the CLI
`examples` command and the golden tests build on it.

Expected regret tables are stored in display orientation (rows indexed by
the challenger act), with None marking cells that are not compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .budget import Criterion, oracle_solve, solve_maximin, solve_minimax
from .problemio import problem_from_dict
from .regret import VALUE_TOL, maximal_acts


@dataclass(frozen=True)
class BuiltinInstance:
    name: str
    problem: dict
    expected: dict


_SIMPLE_CREDAL = {
    "constraints": [
        {"coeffs": [-1.0, 0.0, 1.0], "relation": "<=", "rhs": 0.0},
        {"coeffs": [0.0, 0.0, 1.0], "relation": "<=", "rhs": 0.3},
    ]
}


def _intro() -> BuiltinInstance:
    problem = {
        "states": ["w1", "w2", "w3"],
        "acts": [
            {"name": "a1", "payoffs": [6, 3, 1]},
            {"name": "a2", "payoffs": [2, 7, 4]},
            {"name": "a3", "payoffs": [5, 1, 8]},
            {"name": "a4", "payoffs": [5, 4, 3]},
            {"name": "a5", "payoffs": [1, 2, 6]},
        ],
        "credal": _SIMPLE_CREDAL,
    }
    expected = {
        "display_matrix": [
            [None, 4.0, 2.0, 1.0, 5.0],
            [4.0, None, 6.0, 3.0, 5.0],
            [1.4, 3.3, None, 1.5, 4.0],
            [1.0, 3.0, 3.0, None, 4.0],
            [-0.4, -0.1, 1.0, -1.1, None],
        ],
        "matrix_tol": 1e-6,
        "maximality": ["a1", "a2", "a3", "a4"],
        "minimax": {
            1: {"value": 3.0, "subset": ["a4"], "check": "if_unique"},
            2: {"value": 1.4, "subset": ["a1", "a2"], "check": "if_unique"},
            3: {"value": 1.0, "subset": ["a1", "a2", "a3"], "check": "always"},
            4: {"value": -1.1, "subset": ["a1", "a2", "a3", "a4"], "check": "if_unique"},
        },
        "maximin": {
            1: {"value": 3.0, "subset": ["a4"], "check": "if_unique"},
            2: {"value": 1.4, "subset": ["a1", "a2"], "check": "if_unique"},
            3: {"value": 1.0},
            4: {"value": -1.1, "subset": ["a1", "a2", "a3", "a4"], "check": "if_unique"},
        },
        "minimax_tie_counts": {3: 2},
    }
    return BuiltinInstance("intro", problem, expected)


def _sixacts() -> BuiltinInstance:
    problem = {
        "states": ["w1", "w2", "w3"],
        "acts": [
            {"name": "a1", "payoffs": [6, 4, 2]},
            {"name": "a2", "payoffs": [7, 1, 4]},
            {"name": "a3", "payoffs": [10, 4, 8]},
            {"name": "a4", "payoffs": [2, 7, 2]},
            {"name": "a5", "payoffs": [7, 1, 9]},
            {"name": "a6", "payoffs": [7, 8, 2]},
        ],
        "credal": _SIMPLE_CREDAL,
    }
    expected = {
        "display_matrix": [
            [None, 3.0, 0.0, 4.0, 3.0, -0.7],
            [1.3, None, -3.0, 5.0, 0.0, 0.6],
            [4.6, 3.3, None, 8.0, 3.0, 3.9],
            [3.0, 6.0, 3.0, None, 6.0, -1.0],
            [2.8, 1.5, -1.8, 5.6, None, 2.1],
            [4.0, 7.0, 4.0, 5.0, 7.0, None],
        ],
        "matrix_tol": 1e-6,
        "maximality": ["a3", "a6"],
        "minimax": {
            1: {"value": 3.9, "subset": ["a6"], "check": "if_unique"},
            2: {"value": 2.1, "subset": ["a3", "a6"], "check": "if_unique"},
            3: {"value": 0.0, "subset": ["a3", "a4", "a6"], "check": "always"},
            4: {"value": -1.8, "subset": ["a1", "a3", "a4", "a6"], "check": "if_unique"},
            5: {"value": -3.0, "subset": ["a1", "a3", "a4", "a5", "a6"], "check": "if_unique"},
        },
        "maximin": {
            1: {"value": 3.9, "subset": ["a6"], "check": "if_unique"},
            2: {"value": -0.7, "subset": ["a3", "a6"], "check": "always"},
            3: {"value": -1.0, "subset": ["a1", "a3", "a6"], "check": "always"},
            4: {"value": -1.8, "subset": ["a1", "a3", "a4", "a6"], "check": "if_unique"},
            5: {"value": -3.0, "subset": ["a1", "a3", "a4", "a5", "a6"], "check": "if_unique"},
        },
    }
    return BuiltinInstance("sixacts", problem, expected)


def _finance() -> BuiltinInstance:
    payoffs = [
        ("a1", [37, 25, 23, 73, 91]),
        ("a2", [50, 67, 2, 44, 94]),
        ("a3", [60, 4, 96, 1, 83]),
        ("a4", [16, 24, 31, 26, 100]),
        ("a5", [3, 86, 76, 85, 11]),
        ("a6", [12, 49, 66, 56, 14]),
        ("a7", [39, 10, 92, 88, 57]),
        ("a8", [62, 52, 80, 71, 42]),
        ("a9", [90, 8, 74, 70, 38]),
        ("a10", [63, 68, 36, 69, 9]),
    ]
    bounds = [(0.1, 0.3), (0.05, 0.2), (0.1, 0.2), (0.2, 0.4), (0.1, 0.3)]
    constraints = []
    for state, (lo, hi) in enumerate(bounds):
        coeffs = [1.0 if s == state else 0.0 for s in range(5)]
        constraints.append({"coeffs": coeffs, "relation": ">=", "rhs": lo})
        constraints.append({"coeffs": coeffs, "relation": "<=", "rhs": hi})
    problem = {
        "states": ["w1", "w2", "w3", "w4", "w5"],
        "acts": [{"name": n, "payoffs": p} for n, p in payoffs],
        "credal": {"constraints": constraints},
    }
    expected = {
        "display_matrix": [
            [None, 11.65, 25.0, 23.5, 22.85, 29.35, 2.9, 4.7, 9.8, 19.5],
            [5.0, None, 21.6, 20.7, 21.5, 28.4, 6.9, 3.0, 9.6, 14.3],
            [4.05, 7.3, None, 15.95, 20.8, 26.35, -3.0, -1.4, 0.3, 16.65],
            [-7.4, -4.25, 6.5, None, 8.95, 15.0, -7.4, -11.2, -3.0, 4.35],
            [16.2, 22.0, 33.1, 34.8, None, 19.8, 2.6, 2.6, 10.6, 12.2],
            [-3.6, 2.2, 13.3, 15.0, -5.55, None, -16.2, -17.2, -9.2, -3.1],
            [16.15, 26.3, 30.5, 37.75, 23.8, 30.4, None, 8.7, 10.6, 26.95],
            [19.0, 23.45, 32.3, 34.95, 23.1, 28.7, 8.0, None, 8.6, 18.5],
            [18.9, 26.95, 30.3, 39.25, 27.0, 32.85, 5.8, 4.6, None, 20.25],
            [10.0, 11.6, 27.2, 27.2, 8.5, 19.5, 2.7, -4.8, -0.5, None],
        ],
        "matrix_tol": 5e-3,
        "maximality": ["a1", "a2", "a5", "a7", "a8", "a9"],
        "minimax": {
            1: {"value": 8.0, "subset": ["a7"], "check": "if_unique"},
            2: {"value": 4.7, "subset": ["a7", "a8"], "check": "if_unique"},
            3: {"value": 4.6, "subset": ["a1", "a7", "a8"], "check": "if_unique"},
            4: {"value": 2.9, "subset": ["a2", "a7", "a8", "a9"], "check": "if_unique"},
            5: {"value": 2.6, "subset": ["a1", "a2", "a7", "a8", "a9"], "check": "if_unique"},
            6: {"value": -1.4, "subset": ["a1", "a2", "a5", "a7", "a8", "a9"], "check": "if_unique"},
        },
        "maximin": {
            1: {"value": 8.0, "subset": ["a7"], "check": "if_unique"},
            2: {"value": 4.6, "subset": ["a7", "a8"], "check": "if_unique"},
            3: {"value": 3.0, "subset": ["a7", "a8", "a9"], "check": "if_unique"},
            4: {"value": 2.9, "subset": ["a2", "a7", "a8", "a9"], "check": "if_unique"},
            5: {"value": 2.6, "subset": ["a1", "a2", "a7", "a8", "a9"], "check": "if_unique"},
            6: {"value": -3.0, "subset": ["a1", "a2", "a5", "a7", "a8", "a9"], "check": "if_unique"},
        },
    }
    return BuiltinInstance("finance", problem, expected)


def _multilabel() -> BuiltinInstance:
    vectors = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    names = [f"[{v}]" for v in vectors]

    def hamming(u: str, v: str) -> int:
        return sum(1 for a, b in zip(u, v) if a != b)

    acts = [
        {"name": names[i], "payoffs": [-hamming(vectors[i], vectors[s]) for s in range(8)]}
        for i in range(8)
    ]
    marginal_bounds = [(0.4, 0.8), (0.2, 0.6), (0.1, 0.7)]
    vertices = []
    for choice in itertools.product(*marginal_bounds):
        vertices.append(
            [
                float(np.prod([c if bit == "1" else 1.0 - c for c, bit in zip(choice, v)]))
                for v in vectors
            ]
        )
    problem = {
        "states": names,
        "acts": acts,
        "credal": {"vertices": vertices},
    }
    expected = {
        "extreme_points": [
            [0.432, 0.048, 0.108, 0.012, 0.288, 0.032, 0.072, 0.008],
            [0.144, 0.336, 0.036, 0.084, 0.096, 0.224, 0.024, 0.056],
            [0.216, 0.024, 0.324, 0.036, 0.144, 0.016, 0.216, 0.024],
            [0.072, 0.168, 0.108, 0.252, 0.048, 0.112, 0.072, 0.168],
            [0.144, 0.016, 0.036, 0.004, 0.576, 0.064, 0.144, 0.016],
            [0.048, 0.112, 0.012, 0.028, 0.192, 0.448, 0.048, 0.112],
            [0.072, 0.008, 0.108, 0.012, 0.288, 0.032, 0.432, 0.048],
            [0.024, 0.056, 0.036, 0.084, 0.096, 0.224, 0.144, 0.336],
        ],
        "extreme_tol": 1e-12,
        "display_matrix": [
            [0.0, 0.8, 0.6, 1.4, 0.2, 1.0, 0.8, 1.6],
            [0.4, 0.0, 1.0, 0.6, 0.6, 0.2, 1.2, 0.8],
            [0.2, 1.0, 0.0, 0.8, 0.4, 1.2, 0.2, 1.0],
            [0.6, 0.2, 0.4, 0.0, 0.8, 0.4, 0.6, 0.2],
            [0.6, 1.4, 1.2, 2.0, 0.0, 0.8, 0.6, 1.4],
            [1.0, 0.6, 1.6, 1.2, 0.4, 0.0, 1.0, 0.6],
            [0.8, 1.6, 0.6, 1.4, 0.2, 1.0, 0.0, 0.8],
            [1.2, 0.8, 1.0, 0.6, 0.6, 0.2, 0.4, 0.0],
        ],
        "matrix_tol": 1e-9,
        "maximality": names,
        "minimax": {
            2: {"value": 0.6, "subset": ["[011]", "[100]"], "check": "always"},
        },
        "maximin": {
            2: {"value": 0.4, "subset": ["[100]", "[101]"], "check": "always"},
        },
    }
    return BuiltinInstance("multilabel", problem, expected)


def builtin_instances() -> dict[str, BuiltinInstance]:
    out = {}
    for built in (_intro(), _sixacts(), _finance(), _multilabel()):
        out[built.name] = built
    return out


def _check_solutions(matrix, criterion, expectations, issues: list[str]) -> None:
    solver = solve_minimax if criterion is Criterion.MINIMAX else solve_maximin
    for k, want in sorted(expectations.items()):
        got = solver(matrix, k)
        if abs(got.value - want["value"]) > VALUE_TOL:
            issues.append(
                f"{criterion.value} k={k}: value {got.value!r}, expected {want['value']!r}"
            )
        check = want.get("check") if "subset" in want else None
        if check == "if_unique":
            if oracle_solve(matrix, k, criterion).tie_count != 1:
                check = None
        if check:
            got_names = {matrix.names[i] for i in got.subset}
            if got_names != set(want["subset"]):
                issues.append(
                    f"{criterion.value} k={k}: subset {sorted(got_names)}, "
                    f"expected {sorted(want['subset'])}"
                )


def verify_instance(instance: BuiltinInstance) -> list[str]:
    """Recompute everything for the instance; returns mismatch descriptions."""
    issues: list[str] = []
    problem = problem_from_dict(instance.problem)
    expected = instance.expected
    matrix = problem.regret_matrix()

    if "extreme_points" in expected:
        points = problem.credal.extreme_points()
        want = np.asarray(expected["extreme_points"], dtype=float)
        if points.shape != want.shape:
            issues.append(f"extreme points: found {points.shape[0]}, expected {want.shape[0]}")
        elif np.max(np.abs(points - want)) > expected["extreme_tol"]:
            issues.append(
                f"extreme points: max deviation {np.max(np.abs(points - want)):.3g} "
                f"exceeds {expected['extreme_tol']}"
            )

    display = expected["display_matrix"]
    tol = expected["matrix_tol"]
    for j, row in enumerate(display):
        for i, cell in enumerate(row):
            if cell is None:
                continue
            got = matrix.entries[i, j]
            if abs(got - cell) > tol:
                issues.append(
                    f"regret[{matrix.names[i]} vs {matrix.names[j]}]: {got!r}, expected {cell!r}"
                )

    dm_names = [matrix.names[i] for i in maximal_acts(matrix)]
    if dm_names != list(expected["maximality"]):
        issues.append(f"maximality: {dm_names}, expected {list(expected['maximality'])}")

    _check_solutions(matrix, Criterion.MINIMAX, expected["minimax"], issues)
    _check_solutions(matrix, Criterion.MAXIMIN, expected["maximin"], issues)

    for k, count in expected.get("minimax_tie_counts", {}).items():
        got = oracle_solve(matrix, k, Criterion.MINIMAX).tie_count
        if got != count:
            issues.append(f"minimax k={k}: tie count {got}, expected {count}")
    return issues

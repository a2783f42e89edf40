"""Maximin values against scipy's HiGHS MILP solver, at sizes past the oracle.

scipy is a test extra (`pip install -e .[test]`), not a runtime dependency;
the module is skipped where it is missing. At a level alpha, a k-subset
reaches every act when, for each act j, j is picked or some picked i
answers it with entries[i, j] <= alpha. The smallest off-diagonal value at
which that 0/1 program is feasible is the optimal maximin value, so the
solver must return it exactly.
"""

import numpy as np
import pytest

from credalbudget.budget import solve_maximin
from credalbudget.gen import GenConfig, generate_instance
from credalbudget.regret import RegretMatrix, maximin_regret, regret_matrix

optimize = pytest.importorskip("scipy.optimize")


def reachable(entries: np.ndarray, k: int, alpha: float) -> bool:
    n = len(entries)
    # row j: x_j + sum of x_i over the acts i that answer j at alpha >= 1
    answers = (entries <= alpha).T
    np.fill_diagonal(answers, True)
    res = optimize.milp(
        np.zeros(n),
        constraints=[
            optimize.LinearConstraint(answers.astype(float), lb=1.0, ub=np.inf),
            optimize.LinearConstraint(np.ones((1, n)), lb=k, ub=k),
        ],
        integrality=np.ones(n),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert res.status in (0, 2), res.message  # 0 feasible, 2 infeasible
    return res.status == 0


def milp_maximin(entries: np.ndarray, k: int) -> float:
    """Bisect the sorted off-diagonal values; the largest one always reaches every act."""
    levels = np.unique(entries[~np.eye(len(entries), dtype=bool)])
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if reachable(entries, k, levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in (20, 30, 40) for k in (5, 10)] + [(60, 6), (60, 12), (100, 10), (100, 20)],
)
def test_maximin_value_matches_milp(n, k):
    config = GenConfig(n_acts=n, n_states=5, n_vertices=20, seed=n * 100 + k)
    matrix = regret_matrix(*generate_instance(config))
    solution = solve_maximin(matrix, k)
    assert solution.value == milp_maximin(matrix.entries, k)
    assert maximin_regret(matrix, solution.subset) == solution.value


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tie_break", ["lex", "seeded"])
def test_uniform_maximin_value_matches_milp(seed, tie_break):
    # Unstructured U(0, 1) regrets: no dominance to lean on, so the answer
    # level's cover search has to do the work.
    rng = np.random.default_rng(seed)
    entries = rng.random((60, 60))
    np.fill_diagonal(entries, 0.0)
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(60)), entries)
    solution = solve_maximin(matrix, 10, tie_break=tie_break, seed=seed)
    assert len(solution.subset) == 10
    assert solution.value == milp_maximin(entries, 10)
    assert maximin_regret(matrix, solution.subset) == solution.value

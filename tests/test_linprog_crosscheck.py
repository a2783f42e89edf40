"""Constraint-form regret entries against scipy's HiGHS LP solver.

scipy is a test extra (`pip install -e .[test]`), not a runtime dependency;
the module is skipped where it is missing. The polytopes are well scaled
(coefficients of order 1); badly scaled ones are not covered here.
"""

import numpy as np
import pytest

from credalbudget.credal import Act, CredalSet, LinearConstraint
from credalbudget.regret import regret_matrix

optimize = pytest.importorskip("scipy.optimize")


def random_polytope(rng: np.random.Generator, d: int) -> tuple[CredalSet, np.ndarray, np.ndarray]:
    """Rows with normal coefficients, each satisfied with slack by one interior pmf."""
    center = rng.dirichlet(np.ones(d))
    coeffs = rng.normal(size=(int(rng.integers(1, 6)), d))
    rhs = coeffs @ center + rng.uniform(0.0, 0.5, size=len(coeffs))
    rows = [LinearConstraint(tuple(a), "<=", float(b)) for a, b in zip(coeffs, rhs)]
    return CredalSet.from_constraints(rows, d), coeffs, rhs


def highs_upper(gamble: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> float:
    d = len(gamble)
    res = optimize.linprog(
        -gamble, A_ub=a_ub, b_ub=b_ub, A_eq=np.ones((1, d)), b_eq=[1.0],
        bounds=[(0, None)] * d, method="highs",
    )
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
def test_entries_match_highs(d):
    # 13 states is over ENUM_MAX_DIM, so those entries come from the pairwise LPs
    rng = np.random.default_rng(d)
    for _ in range(10 if d < 13 else 3):
        credal, a_ub, b_ub = random_polytope(rng, d)
        payoffs = rng.normal(scale=10.0, size=(5, d))
        acts = [Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)]
        entries = regret_matrix(acts, credal).entries
        for i in range(5):
            for j in range(5):
                if i != j:
                    want = highs_upper(payoffs[j] - payoffs[i], a_ub, b_ub)
                    assert entries[i, j] == pytest.approx(want, abs=1e-7)

"""Property-based checks of the solver and expectation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_matrix
from credalbudget.budget import (
    Criterion,
    cover_family,
    oracle_optima,
    oracle_solve,
    reachability_check,
    solve_greedy,
    solve_maximin,
    solve_minimax,
)
from credalbudget.credal import CredalSet, LinearConstraint
from credalbudget.regret import (
    NEG_INFINITY,
    RegretMatrix,
    maximal_acts,
    maximin_regret,
    minimax_regret,
)

COMMON = dict(deadline=None, derandomize=True)
EVALUATORS = {Criterion.MINIMAX: minimax_regret, Criterion.MAXIMIN: maximin_regret}


@st.composite
def matrix_and_subset(draw, proper=False):
    matrix = random_matrix(draw(st.integers(0, 10_000)))
    n = matrix.n
    hi = n - 1 if proper else n
    size = draw(st.integers(1, max(hi, 1)))
    subset = draw(st.permutations(range(n)))[:size]
    return matrix, tuple(sorted(subset))


@st.composite
def box_credal(draw):
    """Constraint-form credal set from probability bounds around a center."""
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    center = rng.dirichlet(np.ones(n))
    width = rng.uniform(0.0, 0.4, size=n)
    rows = []
    for i in range(n):
        unit = tuple(1.0 if s == i else 0.0 for s in range(n))
        rows.append(LinearConstraint(unit, "<=", float(min(1.0, center[i] + width[i]))))
        rows.append(LinearConstraint(unit, ">=", float(max(0.0, center[i] - width[i]))))
    return CredalSet.from_constraints(rows, n), rng


@settings(max_examples=150, **COMMON)
@given(matrix_and_subset())
def test_maximin_at_most_minimax(case):
    matrix, subset = case
    assert maximin_regret(matrix, subset) <= minimax_regret(matrix, subset)


@settings(max_examples=150, **COMMON)
@given(matrix_and_subset(proper=True), st.integers(0, 10_000))
def test_value_monotone_under_inclusion(case, grow_seed):
    matrix, subset = case
    rng = np.random.default_rng(grow_seed)
    outside = [j for j in range(matrix.n) if j not in subset]
    extra = rng.choice(outside, size=int(rng.integers(1, len(outside) + 1)), replace=False)
    larger = tuple(sorted(set(subset) | set(int(e) for e in extra)))
    assert minimax_regret(matrix, subset) >= minimax_regret(matrix, larger)
    assert maximin_regret(matrix, subset) >= maximin_regret(matrix, larger)


@settings(max_examples=150, **COMMON)
@given(matrix_and_subset(proper=True))
def test_negative_minimax_means_one_act_beats_all_outsiders(case):
    matrix, subset = case
    outside = [j for j in range(matrix.n) if j not in subset]
    value = minimax_regret(matrix, subset)
    witness = any(
        all(matrix.entries[i, j] < 0 for j in outside) for i in subset
    )
    assert (value < 0) == witness


@settings(max_examples=150, **COMMON)
@given(matrix_and_subset(proper=True))
def test_negative_maximin_means_every_outsider_is_beaten(case):
    matrix, subset = case
    outside = [j for j in range(matrix.n) if j not in subset]
    value = maximin_regret(matrix, subset)
    witness = all(
        any(matrix.entries[i, j] < 0 for i in subset) for j in outside
    )
    assert (value < 0) == witness


@settings(max_examples=150, **COMMON)
@given(matrix_and_subset())
def test_negative_value_forces_maximality_superset(case):
    matrix, subset = case
    dm = set(maximal_acts(matrix))
    if minimax_regret(matrix, subset) < 0:
        assert dm <= set(subset)
    if maximin_regret(matrix, subset) < 0:
        assert dm <= set(subset)


@settings(max_examples=150, **COMMON)
@given(matrix_and_subset())
def test_values_come_from_the_matrix(case):
    matrix, subset = case
    pool = set(matrix.off_diagonal_values().tolist())
    for value in (minimax_regret(matrix, subset), maximin_regret(matrix, subset)):
        assert value == NEG_INFINITY or value in pool


@settings(max_examples=60, **COMMON)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_solver_outputs_meet_oracle_and_consistency(seed, k):
    matrix = random_matrix(seed)
    dm = set(maximal_acts(matrix))
    star = solve_minimax(matrix, k)
    plus = solve_maximin(matrix, k)
    assert star.value == oracle_solve(matrix, k, Criterion.MINIMAX).value
    assert plus.value == oracle_solve(matrix, k, Criterion.MAXIMIN).value
    assert set(star.subset) & dm
    assert set(plus.subset) & dm
    assert plus.value <= star.value
    if k == 1:
        assert set(star.subset) <= dm
        assert set(plus.subset) <= dm


@st.composite
def tied_matrix(draw):
    """Entries from -2..2 (+-0.0 both), so ties are everywhere; optionally
    2e-13 added to some off-diagonal entries, below the cover tolerance."""
    n = draw(st.integers(2, 8))
    cell = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    entries = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        bump = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        entries = entries + 2e-13 * (bump.reshape(n, n) & ~np.eye(n, dtype=bool))
    return RegretMatrix(tuple(f"a{i}" for i in range(n)), entries)


@settings(max_examples=400, **COMMON)
@given(tied_matrix(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_seeded_maximin_draws_from_oracle_optima(matrix, k, seed):
    k = min(k, matrix.n)
    optima = oracle_optima(matrix, k, Criterion.MAXIMIN)
    pick = np.random.default_rng(np.random.PCG64(seed)).integers(len(optima))
    solution = solve_maximin(matrix, k, tie_break="seeded", seed=seed)
    assert solution.subset == optima[pick]
    assert repr(solution.value) == repr(maximin_regret(matrix, solution.subset))
    assert repr(solution.value) == repr(oracle_solve(matrix, k, Criterion.MAXIMIN).value)


@settings(max_examples=300, **COMMON)
@given(tied_matrix(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_values_match_their_evaluators_and_the_oracle(matrix, k, seed):
    zeros = matrix.entries[matrix.entries == 0]
    assert not np.signbit(zeros).any()
    k = min(k, matrix.n)
    solutions = [
        (Criterion.MINIMAX, solve_minimax(matrix, k)),
        (Criterion.MINIMAX, solve_minimax(matrix, k, tie_break="seeded", seed=seed)),
        (Criterion.MAXIMIN, solve_maximin(matrix, k)),
    ]
    for criterion, solution in solutions:
        evaluator = EVALUATORS[criterion]
        assert repr(solution.value) == repr(evaluator(matrix, solution.subset))
        assert repr(solution.value) == repr(oracle_solve(matrix, k, criterion).value)
    for criterion, evaluator in EVALUATORS.items():
        greedy = solve_greedy(matrix, k, criterion)
        assert repr(greedy.value) == repr(evaluator(matrix, greedy.subset))


@settings(max_examples=60, **COMMON)
@given(st.integers(0, 10_000))
def test_maximality_nonempty_and_negative_maximin(seed):
    matrix = random_matrix(seed)
    dm = maximal_acts(matrix)
    assert dm
    if set(dm) != set(range(matrix.n)):
        assert maximin_regret(matrix, dm) < 0


@settings(max_examples=60, **COMMON)
@given(st.integers(0, 10_000), st.integers(0, 100))
def test_reachability_result_always_covers(seed, pick):
    matrix = random_matrix(seed)
    n = matrix.n
    values = matrix.off_diagonal_values()
    alpha = float(np.sort(values)[pick % values.size])
    covers = cover_family(matrix, alpha)
    for k in range(1, n + 1):
        found = reachability_check(covers, k, n)
        if found is not None:
            assert len(found) == k
            reached = 0
            for i in found:
                reached |= covers.masks[i]
            assert reached == (1 << n) - 1
            assert maximin_regret(matrix, found) <= alpha + 1e-12


@settings(max_examples=50, **COMMON)
@given(box_credal())
def test_lp_agrees_with_vertex_enumeration(case):
    credal, rng = case
    points = credal.extreme_points()
    for _ in range(5):
        gamble = rng.normal(size=credal.dimension) * 10
        lp = credal.upper_expectation(gamble)
        by_vertex = float(np.max(points @ gamble))
        assert lp == pytest.approx(by_vertex, abs=1e-9)
        assert credal.lower_expectation(gamble) == -credal.upper_expectation(-gamble)
        assert np.min(gamble) - 1e-9 <= credal.lower_expectation(gamble)
        assert credal.upper_expectation(gamble) <= np.max(gamble) + 1e-9

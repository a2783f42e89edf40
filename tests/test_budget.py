import functools
import gc
import itertools
import operator
import tracemalloc

import numpy as np
import pytest

from conftest import random_matrix
from credalbudget.budget import (
    MAXIMIN_MAX_NODES,
    CoverFamily,
    Criterion,
    _cover_count,
    _subset_at_rank,
    budgeted_rule,
    cover_family,
    domination_graph_dot,
    oracle_optima,
    oracle_solve,
    reachability_check,
    solve_greedy,
    solve_maximin,
    solve_minimax,
)
from credalbudget.errors import GuardExceededError
from credalbudget.gen import GenConfig, generate_instance
from credalbudget.regret import (
    NEG_INFINITY,
    RegretMatrix,
    maximal_acts,
    maximin_regret,
    minimax_regret,
    regret_matrix,
)


def names_of(matrix, subset):
    return {matrix.names[i] for i in subset}


def bits_of(mask, n):
    return {j for j in range(n) if mask >> j & 1}


def challengers(covers, i):
    """The acts other than i that act i answers."""
    return bits_of(covers.masks[i], len(covers.masks)) - {i}


def test_minimax_golden_intro(matrices):
    matrix = matrices["intro"]
    expected = {1: 3.0, 2: 1.4, 3: 1.0, 4: -1.1}
    for k, value in expected.items():
        assert solve_minimax(matrix, k).value == pytest.approx(value, abs=1e-9)
    assert names_of(matrix, solve_minimax(matrix, 1).subset) == {"a4"}
    assert names_of(matrix, solve_minimax(matrix, 2).subset) == {"a1", "a2"}
    # lex policy picks the first of the two optimal triples
    assert names_of(matrix, solve_minimax(matrix, 3).subset) == {"a1", "a2", "a3"}
    assert names_of(matrix, solve_minimax(matrix, 4).subset) == {"a1", "a2", "a3", "a4"}


def test_minimax_nonnesting_regression(matrices):
    matrix = matrices["intro"]
    one = set(solve_minimax(matrix, 1).subset)
    two = set(solve_minimax(matrix, 2).subset)
    assert not one <= two


def test_minimax_full_budget(matrices):
    matrix = matrices["intro"]
    for k in (5, 9):
        solution = solve_minimax(matrix, k)
        assert solution.subset == tuple(range(matrix.n))
        assert solution.value == NEG_INFINITY


def test_maximin_golden_sixacts(matrices):
    matrix = matrices["sixacts"]
    values = {1: 3.9, 2: -0.7, 3: -1.0, 4: -1.8, 5: -3.0}
    for k, value in values.items():
        got = solve_maximin(matrix, k)
        assert got.value == pytest.approx(value, abs=1e-9)
        assert maximin_regret(matrix, got.subset) == got.value
    assert names_of(matrix, solve_maximin(matrix, 2).subset) == {"a3", "a6"}
    assert names_of(matrix, solve_maximin(matrix, 3).subset) == {"a1", "a3", "a6"}


def test_minimax_golden_sixacts(matrices):
    matrix = matrices["sixacts"]
    values = {1: 3.9, 2: 2.1, 3: 0.0, 4: -1.8, 5: -3.0}
    for k, value in values.items():
        assert solve_minimax(matrix, k).value == pytest.approx(value, abs=1e-9)
    assert names_of(matrix, solve_minimax(matrix, 3).subset) == {"a3", "a4", "a6"}


def test_multilabel_budget_two(matrices):
    matrix = matrices["multilabel"]
    star = solve_minimax(matrix, 2)
    assert names_of(matrix, star.subset) == {"[100]", "[011]"}
    assert star.value == pytest.approx(0.6, abs=1e-9)
    plus = solve_maximin(matrix, 2)
    assert names_of(matrix, plus.subset) == {"[100]", "[101]"}
    assert plus.value == pytest.approx(0.4, abs=1e-9)


def test_cover_family_membership(matrices):
    matrix = matrices["sixacts"]
    covers = cover_family(matrix, -1.0)
    as_names = {
        matrix.names[i]: names_of(matrix, challengers(covers, i))
        for i in range(matrix.n)
        if challengers(covers, i)
    }
    assert as_names == {"a3": {"a2", "a5"}, "a6": {"a4"}}
    for i in range(matrix.n):
        assert covers.masks[i] >> i & 1  # an act always answers for itself
        assert covers.masks[i] >> matrix.n == 0
        for j in challengers(covers, i):
            assert matrix.entries[i, j] <= -1.0


def test_cover_tolerance_boundary():
    # Covers are exact; only the graph adds the 1e-12 slack above alpha.
    entries = np.array([[0.0, 0.5], [0.5 + 5e-13, 0.0]])
    matrix = RegretMatrix(("x", "y"), entries)
    assert challengers(cover_family(matrix, 0.5), 1) == set()
    assert '"y" -> "x";' in domination_graph_dot(matrix, 0.5)
    assert '"y" -> "x";' not in domination_graph_dot(matrix, 0.5 - 1e-12)


def test_maximin_keeps_levels_closer_than_the_cover_tolerance_apart():
    # Act 2 answers act 0 at regret -1 + 2e-13, so at level -1 it must not
    # cover act 0: the greedy pass then starts from act 1 and returns the
    # lex-first optimum (0, 1), not the tied (0, 2).
    entries = np.array([[0.0, 2.0, 2.0], [1.0, 0.0, -1.0], [-1.0 + 2e-13, -1.0, 0.0]])
    solution = solve_maximin(RegretMatrix(("a", "b", "c"), entries), 2)
    assert (solution.subset, solution.value) == ((0, 1), -1.0)


def test_reachability_examples(matrices):
    matrix = matrices["sixacts"]
    assert reachability_check(cover_family(matrix, -1.0), 2) is None
    found = reachability_check(cover_family(matrix, -0.7), 2)
    assert found is not None and names_of(matrix, found) == {"a3", "a6"}
    assert reachability_check(cover_family(matrix, -1.0), 6) == tuple(range(6))
    with pytest.raises(ValueError, match="exceeds the number of acts"):
        reachability_check(cover_family(matrix, -1.0), 7)


def test_reachability_against_exhaustive():
    rng = np.random.default_rng(99)
    for seed in range(60):
        matrix = random_matrix(seed, max_acts=7)
        n = matrix.n
        alpha = float(rng.choice(matrix.off_diagonal_values()))
        covers = cover_family(matrix, alpha)
        for k in range(1, n + 1):
            got = reachability_check(covers, k)
            masks = [bits_of(covers.masks[i], n) for i in range(n)]
            solutions = [
                combo
                for combo in itertools.combinations(range(n), k)
                if set().union(*(masks[i] for i in combo)) == set(range(n))
            ]
            if got is None:
                assert not solutions
            else:
                assert len(got) == k
                assert set().union(*(masks[i] for i in got)) == set(range(n))


def random_cover_families():
    """300 random 0/1 matrices, n in 1..10, with their exact covers at level 0.

    Density 0 gives covers that reach only their own act, density 1 covers
    that reach all.
    """
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(1, 11))
        density = (0.0, 0.15, 0.3, 0.6, 1.0)[trial % 5]
        bits = rng.random((n, n)) < density
        masks = [(1 << i) | sum(1 << j for j in range(n) if bits[i, j]) for i in range(n)]
        matrix = RegretMatrix(tuple(f"a{i}" for i in range(n)), np.where(bits, 0.0, 1.0))
        covers = cover_family(matrix, 0.0)
        assert list(covers.masks) == masks
        assert covers.coverers == tuple(
            sum(1 << i for i in range(n) if masks[i] >> j & 1) for j in range(n)
        )
        yield n, covers


def test_reachability_at_k_equal_n_takes_every_act():
    # Each act answers itself, so at k = n the greedy pass reaches every act.
    for n, covers in random_cover_families():
        assert reachability_check(covers, n) == tuple(range(n))


def satisfying_subsets(covers, k, n):
    full = (1 << n) - 1
    return [
        combo
        for combo in itertools.combinations(range(n), k)
        if functools.reduce(operator.or_, (covers.masks[i] for i in combo)) == full
    ]


def test_satisfying_subsets_match_brute_force():
    # The count's prunes only cut subtrees without a hit and its branches
    # partition the subsets, so it equals min(cap, count) at every cap (a
    # double count would show above the true count), and the subset built
    # at each rank is the brute-force list's entry at that rank.
    for n, covers in random_cover_families():
        for k in range(1, n + 1):
            expected = satisfying_subsets(covers, k, n)
            count = len(expected)
            for rank, combo in enumerate(expected):
                assert _subset_at_rank(covers, k, rank, [MAXIMIN_MAX_NODES]) == combo
            assert _subset_at_rank(covers, k, count, [MAXIMIN_MAX_NODES]) is None
            for cap in range(1, count + 2):
                assert _cover_count(covers, k, cap, [MAXIMIN_MAX_NODES]) == min(cap, count)


def test_level_probe_matches_brute_force():
    # The probe is a count capped at 1: it answers "feasible" exactly when
    # the brute-force list of satisfying k-subsets is non-empty.
    for n, covers in random_cover_families():
        for k in range(1, n + 1):
            expected = int(bool(satisfying_subsets(covers, k, n)))
            assert _cover_count(covers, k, 1, [MAXIMIN_MAX_NODES]) == expected


def test_bisected_level_is_the_first_reachable_level():
    # Integer entries in -2..2 and -50..50 tie often; 0/1 entries moved by
    # +-2e-13 put levels 2e-13 apart. The probe agrees with
    # reachability_check at every candidate level, and the solver returns the
    # lowest level at which reachability_check finds a subset.
    rng = np.random.default_rng(17)
    for trial in range(90):
        n = int(rng.integers(3, 16))
        if trial % 3 == 0:
            entries = rng.integers(-2, 3, (n, n)).astype(float)
        elif trial % 3 == 1:
            entries = rng.integers(-50, 51, (n, n)).astype(float)
        else:
            entries = rng.integers(0, 2, (n, n)) + rng.choice([-2e-13, 0.0, 2e-13], (n, n))
        matrix = RegretMatrix(tuple(f"a{i}" for i in range(n)), entries)
        values = np.sort(matrix.off_diagonal_values())
        for k in range(1, n):
            first = None
            for level in np.unique(values[n - k - 1:]).tolist():
                covers = cover_family(matrix, level)
                found = reachability_check(covers, k)
                assert _cover_count(covers, k, 1, [MAXIMIN_MAX_NODES]) == (found is not None)
                if found is not None and first is None:
                    first = level
            assert solve_maximin(matrix, k).value == first


def negativity_size_matrix():
    config = GenConfig(n_acts=20, n_states=5, n_vertices=20, seed=0)
    return regret_matrix(*generate_instance(config))


def test_reachability_spends_the_shared_node_budget():
    # At the lowest level nothing reaches every act, so greedy fails and the
    # cover search visits some nodes before it answers None.
    matrix = negativity_size_matrix()
    covers = cover_family(matrix, float(matrix.off_diagonal_values().min()))
    nodes_left = [1000]
    assert reachability_check(covers, 5, nodes_left=nodes_left) is None
    used = 1000 - nodes_left[0]
    assert used > 0
    assert reachability_check(covers, 5, nodes_left=[used]) is None
    with pytest.raises(GuardExceededError, match="node guard"):
        reachability_check(covers, 5, nodes_left=[used - 1])


def test_level_probe_spends_the_shared_node_budget():
    # Nothing reaches every act at the lowest level, so the probe visits
    # some nodes before it answers "infeasible", and one node less raises.
    matrix = negativity_size_matrix()
    covers = cover_family(matrix, float(matrix.off_diagonal_values().min()))
    nodes_left = [1000]
    assert _cover_count(covers, 5, 1, nodes_left) == 0
    used = 1000 - nodes_left[0]
    assert used > 0
    assert _cover_count(covers, 5, 1, [used]) == 0
    with pytest.raises(GuardExceededError, match="node guard"):
        _cover_count(covers, 5, 1, [used - 1])


def test_cover_search_leaves_no_garbage_cycles():
    # A recursion that refers to itself through a closure cell would leave
    # one reference cycle per call for the garbage collector to find.
    entries = np.random.default_rng(0).uniform(0, 1, (20, 20))
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(20)), entries)
    covers = cover_family(matrix, float(np.median(matrix.off_diagonal_values())))
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            _cover_count(covers, 5, 1, [MAXIMIN_MAX_NODES])
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_maximin_bisection_fits_a_small_node_budget(monkeypatch):
    # At 200 acts and k = 20 the greedy pass proves the floor, so no probe
    # runs, and the seeded count and draw visit a few hundred nodes; the
    # upward level scan with an index-order walker was past 2 million nodes
    # already at 60 acts and k = 12, and that walker's seeded count at 100
    # acts and k = 20 went past 10^7.
    import credalbudget.budget as budget_mod

    config = GenConfig(n_acts=200, n_states=5, n_vertices=20, seed=5)
    matrix = regret_matrix(*generate_instance(config))
    monkeypatch.setattr(budget_mod, "MAXIMIN_MAX_NODES", 10**4)
    solution = solve_maximin(matrix, 20)
    assert len(solution.subset) == 20
    assert maximin_regret(matrix, solution.subset) == solution.value
    seeded = solve_maximin(matrix, 20, tie_break="seeded", seed=5)
    assert len(seeded.subset) == 20
    assert seeded.value == solution.value
    assert maximin_regret(matrix, seeded.subset) == solution.value


def deep_search_matrix():
    """U(0, 1) entries, 20 acts: at k = 5 the greedy pass misses the floor,
    so the bisection runs exact probes (unlike negativity_size_matrix)."""
    entries = np.random.default_rng(1).uniform(0, 1, (20, 20))
    return RegretMatrix(tuple(f"a{i}" for i in range(20)), entries)


def test_maximin_node_guard(monkeypatch):
    import credalbudget.budget as budget_mod

    matrix = deep_search_matrix()
    solve_maximin(matrix, 5)  # well inside the default budget
    monkeypatch.setattr(budget_mod, "MAXIMIN_MAX_NODES", 20)
    with pytest.raises(GuardExceededError, match="node guard"):
        solve_maximin(matrix, 5)
    with pytest.raises(GuardExceededError, match="node guard"):
        solve_maximin(matrix, 5, tie_break="seeded", seed=1)


def test_maximin_greedy_floor_spends_no_node(monkeypatch):
    # The greedy pass reaches every act at the floor, so the floor is the
    # optimum: no ceiling, probe or search node is needed.
    import credalbudget.budget as budget_mod

    matrix = negativity_size_matrix()
    monkeypatch.setattr(budget_mod, "MAXIMIN_MAX_NODES", 0)
    solution = solve_maximin(matrix, 5)
    assert repr(solution.value) == repr(oracle_solve(matrix, 5, Criterion.MAXIMIN).value)
    assert maximin_regret(matrix, solution.subset) == solution.value


def test_greedy_base_case_matches_exact(matrices):
    for matrix in matrices.values():
        greedy = solve_greedy(matrix, 1, Criterion.MINIMAX)
        exact = solve_minimax(matrix, 1)
        assert greedy.subset == exact.subset
        assert greedy.value == exact.value


def brute_single_pick(matrix, pool):
    """Independent reference for the one-act pick restricted to `pool`."""
    best_i, best_val = None, None
    for i in pool:
        worst = max(matrix.entries[i, j] for j in pool if j != i)
        if best_val is None or worst < best_val:
            best_i, best_val = i, worst
    return best_i


def test_greedy_second_round_frozen(matrices):
    # round one picks a4; the reference pick over {a1,a2,a3,a5} is a1, and
    # the pair evaluates to 3.0 under the minimax criterion
    matrix = matrices["intro"]
    assert brute_single_pick(matrix, range(5)) == 3
    assert brute_single_pick(matrix, [0, 1, 2, 4]) == 0
    greedy = solve_greedy(matrix, 2, Criterion.MINIMAX)
    assert greedy.subset == (0, 3)
    assert greedy.value == pytest.approx(3.0, abs=1e-9)
    assert greedy.value == minimax_regret(matrix, greedy.subset)


def test_greedy_never_beats_exact():
    for seed in range(40):
        matrix = random_matrix(seed)
        for k in range(1, matrix.n + 1):
            assert solve_greedy(matrix, k, Criterion.MINIMAX).value >= solve_minimax(matrix, k).value
            assert solve_greedy(matrix, k, Criterion.MAXIMIN).value >= solve_maximin(matrix, k).value


def test_greedy_criteria_share_selection():
    for seed in range(20):
        matrix = random_matrix(seed + 500)
        for k in range(1, matrix.n + 1):
            a = solve_greedy(matrix, k, Criterion.MINIMAX)
            b = solve_greedy(matrix, k, Criterion.MAXIMIN)
            assert a.subset == b.subset
            assert a.criterion is Criterion.GREEDY_MINIMAX
            assert b.criterion is Criterion.GREEDY_MAXIMIN


def test_budgeted_rule_branches(matrices):
    intro = matrices["intro"]
    assert names_of(intro, budgeted_rule(intro, 4, Criterion.MINIMAX)) == {"a1", "a2", "a3", "a4"}
    assert names_of(intro, budgeted_rule(intro, 9, Criterion.MINIMAX)) == {"a1", "a2", "a3", "a4"}
    assert names_of(intro, budgeted_rule(intro, 2, Criterion.MINIMAX)) == {"a1", "a2"}
    six = matrices["sixacts"]
    assert names_of(six, budgeted_rule(six, 2, Criterion.MAXIMIN)) == {"a3", "a6"}
    assert names_of(six, budgeted_rule(six, 3, Criterion.MINIMAX)) == {"a3", "a4", "a6"}
    # At k >= n the solvers return every act at -inf, which the rule maps to
    # the maximality set; a negative seed is still refused there.
    for matrix, k in ((intro, 5), (intro, 9), (six, 6)):
        for crit in (Criterion.MINIMAX, Criterion.MAXIMIN):
            assert budgeted_rule(matrix, k, crit) == maximal_acts(matrix)
            seeded = budgeted_rule(matrix, k, crit, tie_break="seeded", seed=3)
            assert seeded == maximal_acts(matrix)
            for tie_break in ("lex", "seeded"):
                with pytest.raises(ValueError, match="seed: must be >= 0, got -1"):
                    budgeted_rule(matrix, k, crit, tie_break=tie_break, seed=-1)


@pytest.mark.parametrize(
    "criterion",
    [c for c in Criterion if c not in (Criterion.MINIMAX, Criterion.MAXIMIN)],
    ids=lambda c: c.value,
)
def test_budgeted_rule_refuses_inexact_criteria(matrices, criterion):
    intro = matrices["intro"]
    for k in (2, 9):  # also when the budget fits every act
        with pytest.raises(ValueError, match=f"criterion.*{criterion.value}"):
            budgeted_rule(intro, k, criterion)


OTHER_FAMILY = [
    (solver, criterion)
    for solver in (oracle_solve, oracle_optima)
    for criterion in (Criterion.GREEDY_MINIMAX, Criterion.GREEDY_MAXIMIN)
] + [(solve_greedy, c) for c in (Criterion.ORACLE_MINIMAX, Criterion.ORACLE_MAXIMIN)]


@pytest.mark.parametrize(
    "solver, criterion", OTHER_FAMILY, ids=[f"{s.__name__}-{c.value}" for s, c in OTHER_FAMILY]
)
def test_oracle_and_greedy_refuse_each_others_labels(matrices, solver, criterion):
    with pytest.raises(ValueError, match=f"criterion.*got '{criterion.value}'"):
        solver(matrices["intro"], 2, criterion)


def test_oracle_tie_count(matrices):
    matrix = matrices["intro"]
    solution = oracle_solve(matrix, 3, Criterion.MINIMAX)
    assert solution.value == pytest.approx(1.0, abs=1e-9)
    assert solution.tie_count == 2
    assert solution.subset == (0, 1, 2)  # lex-first optimum
    assert {tuple(sorted(s)) for s in oracle_optima(matrix, 3, Criterion.MINIMAX)} == {
        (0, 1, 2),
        (1, 2, 3),
    }


SOLVERS = ((Criterion.MINIMAX, solve_minimax), (Criterion.MAXIMIN, solve_maximin))

# (solver subset, oracle lex-first subset, oracle tie count) where they differ
MULTILABEL_MINIMAX_TIES = {
    6: ((1, 2, 3, 4, 5, 7), (0, 2, 3, 4, 5, 6), 2),
    7: ((1, 2, 3, 4, 5, 6, 7), (0, 1, 3, 4, 5, 6, 7), 3),
}


@pytest.mark.parametrize("name", ["intro", "sixacts", "finance", "multilabel"])
def test_solver_ties_against_oracle(matrices, name):
    # The solvers' values equal the oracle's bit for bit; their subsets are
    # the oracle's lex-first optimum except for two multilabel minimax budgets.
    matrix = matrices[name]
    for k in range(1, matrix.n):
        for criterion, solver in SOLVERS:
            got, want = solver(matrix, k), oracle_solve(matrix, k, criterion)
            assert repr(got.value) == repr(want.value)
            if name == "multilabel" and criterion is Criterion.MINIMAX and k in (6, 7):
                assert (got.subset, want.subset, want.tie_count) == MULTILABEL_MINIMAX_TIES[k]
            else:
                assert got.subset == want.subset


def test_oracle_full_budget(matrices):
    matrix = matrices["intro"]
    solution = oracle_solve(matrix, matrix.n, Criterion.MAXIMIN)
    assert solution.subset == tuple(range(matrix.n))
    assert solution.value == NEG_INFINITY
    assert solution.tie_count == 1


def test_oracle_guard():
    n = 40
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(n)), np.zeros((n, n)))
    with pytest.raises(GuardExceededError):
        oracle_solve(matrix, 20, Criterion.MINIMAX)


def test_oracle_matches_solvers_small():
    for seed in range(30):
        matrix = random_matrix(seed + 1000)
        for k in range(1, matrix.n + 1):
            assert solve_minimax(matrix, k).value == oracle_solve(matrix, k, Criterion.MINIMAX).value
            assert solve_maximin(matrix, k).value == oracle_solve(matrix, k, Criterion.MAXIMIN).value


def test_seeded_tie_break_covers_all_optima(matrices):
    matrix = matrices["intro"]
    seen = set()
    for seed in range(40):
        solution = solve_minimax(matrix, 3, tie_break="seeded", seed=seed)
        assert solution.value == pytest.approx(1.0, abs=1e-9)
        assert solution.tie_break == f"seeded:{seed}"
        seen.add(solution.subset)
    assert seen == {(0, 1, 2), (1, 2, 3)}


def test_seeded_greedy_covers_every_tied_first_pick():
    # Worst regrets 1, 1, 2, 1 against the other acts: 0, 1 and 3 tie.
    entries = np.array([[0, 1, 0, 0], [1, 0, 0, 1], [2, 0, 0, 0], [0, 1, 1, 0]], dtype=float)
    matrix = RegretMatrix(("a", "b", "c", "d"), entries)
    assert solve_greedy(matrix, 1).subset == (0,)
    seen = {solve_greedy(matrix, 1, tie_break="seeded", seed=seed).subset for seed in range(40)}
    assert seen == {(0,), (1,), (3,)}


def test_seeded_minimax_and_greedy_keep_no_per_row_copies():
    # A 500-act half-integer grid ties row maxima and k-th largest regrets
    # across many acts. The working copy is 500 * 500 floats, about 1.9 MiB.
    rng = np.random.default_rng(11)
    entries = np.round(rng.uniform(-10.0, 10.0, size=(500, 500)) * 2.0) / 2.0
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(500)), entries)
    solve_minimax(matrix, 20, tie_break="seeded", seed=0)  # let numpy finish its lazy set-up
    for solve, k in ((solve_minimax, 20), (solve_greedy, 10)):
        tracemalloc.start()
        try:
            solution = solve(matrix, k, tie_break="seeded", seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(solution.subset) == k
        assert peak < 4 * 2**20


def test_seeded_maximin_stays_optimal(matrices):
    matrix = matrices["sixacts"]
    for seed in range(10):
        solution = solve_maximin(matrix, 2, tie_break="seeded", seed=seed)
        assert solution.value == pytest.approx(-0.7, abs=1e-9)
        assert maximin_regret(matrix, solution.subset) == solution.value


@pytest.mark.parametrize("limit, raises", [(50, True), (69, True), (70, False)])
def test_seeded_maximin_tie_list_guard(monkeypatch, limit, raises):
    # all-zero 8 acts at k=4: every one of the C(8, 4) = 70 subsets is optimal
    import credalbudget.budget as budget_mod

    monkeypatch.setattr(budget_mod, "ORACLE_MAX_SUBSETS", limit)
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(8)), np.zeros((8, 8)))
    if raises:
        with pytest.raises(GuardExceededError, match="tie list"):
            solve_maximin(matrix, 4, tie_break="seeded", seed=3)
    else:
        solution = solve_maximin(matrix, 4, tie_break="seeded", seed=3)
        assert solution.value == 0.0 and len(solution.subset) == 4
    assert solve_maximin(matrix, 4).subset == (0, 1, 2, 3)  # lex stops at its first hit


def test_seeded_maximin_draw_keeps_no_tie_list():
    # An all-zero matrix ties every one of C(22, 11) = 705,432 subsets; as a
    # list of tuples they would take about 90 MiB.
    tiny = RegretMatrix(("a", "b", "c"), np.zeros((3, 3)))
    solve_maximin(tiny, 1, tie_break="seeded", seed=1)  # let numpy finish its lazy set-up
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(22)), np.zeros((22, 22)))
    tracemalloc.start()
    try:
        solution = solve_maximin(matrix, 11, tie_break="seeded", seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.subset == (3, 6, 7, 8, 10, 11, 12, 13, 16, 18, 21)
    assert solution.value == 0.0
    assert peak < 4 * 2**20


def test_seeded_is_deterministic_per_seed(matrices):
    matrix = matrices["intro"]
    a = solve_minimax(matrix, 3, tie_break="seeded", seed=7)
    b = solve_minimax(matrix, 3, tie_break="seeded", seed=7)
    assert a == b


def test_solution_invariants(matrices):
    for matrix in matrices.values():
        for k in range(1, matrix.n + 2):
            for solution, evaluator in (
                (solve_minimax(matrix, k), minimax_regret),
                (solve_maximin(matrix, k), maximin_regret),
            ):
                assert len(solution.subset) == min(k, matrix.n)
                assert evaluator(matrix, solution.subset) == solution.value


def test_value_monotone_in_k():
    for seed in range(25):
        matrix = random_matrix(seed + 2000)
        star = [solve_minimax(matrix, k).value for k in range(1, matrix.n + 1)]
        plus = [solve_maximin(matrix, k).value for k in range(1, matrix.n + 1)]
        assert star == sorted(star, reverse=True)
        assert plus == sorted(plus, reverse=True)


def test_maximin_alpha_bounds():
    # The optimum lies in the bisection's bracket: at or above the (n-k)-th
    # smallest off-diagonal column minimum (each act left out is answered at
    # no less than its column minimum) and at most the maximin regret of the
    # lex minimax subset, itself at most the minimax optimum. Integer
    # matrices put many entries, column minima and levels on one value.
    rng = np.random.default_rng(3000)
    matrices = [random_matrix(seed + 3000) for seed in range(25)]
    for span in (1, 2, 5) * 5:
        n = int(rng.integers(2, 10))
        entries = rng.integers(-span, span + 1, (n, n)).astype(float)
        np.fill_diagonal(entries, 0.0)
        matrices.append(RegretMatrix(tuple(f"a{i}" for i in range(n)), entries))
    for matrix in matrices:
        n = matrix.n
        shielded = matrix.entries.copy()
        np.fill_diagonal(shielded, np.inf)
        column_mins = np.sort(shielded.min(axis=0))
        for k in range(1, n):
            plus = solve_maximin(matrix, k)
            minimax = solve_minimax(matrix, k)
            ceiling = maximin_regret(matrix, minimax.subset)
            assert column_mins[n - k - 1] <= plus.value <= ceiling <= minimax.value


def test_packing_bound_cuts_at_the_root():
    # Acts 0-2 each answer three of acts 0-5 and 3-5 answer only
    # themselves, so two picks have gains 4 + 4 >= 6 and the gain bound
    # passes. But acts 3, 4 and 5 have the disjoint coverers {0, 3}, {1, 4}
    # and {2, 5}: three picks are needed, and the root counts 0 at once.
    n = 6
    masks = (0b001111, 0b010111, 0b100111, 0b001000, 0b010000, 0b100000)
    coverers = tuple(sum(1 << i for i in range(n) if masks[i] >> j & 1) for j in range(n))
    assert coverers[3:] == (0b001001, 0b010010, 0b100100)
    covers = CoverFamily(masks, coverers)
    assert sum(sorted((m.bit_count() for m in masks), reverse=True)[:2]) >= n
    nodes_left = [1000]
    assert _cover_count(covers, 2, 1, nodes_left) == 0
    assert nodes_left == [999]
    assert satisfying_subsets(covers, 2, n) == []
    assert _cover_count(covers, 3, 10, [1000]) == len(satisfying_subsets(covers, 3, n)) > 0


def test_invalid_k_and_tie_break(matrices):
    matrix = matrices["intro"]
    for bad in (0, -3):
        with pytest.raises(ValueError):
            solve_minimax(matrix, bad)
        with pytest.raises(ValueError):
            solve_maximin(matrix, bad)
        with pytest.raises(ValueError):
            solve_greedy(matrix, bad)
        with pytest.raises(ValueError):
            oracle_solve(matrix, bad)
    with pytest.raises(ValueError):
        solve_minimax(matrix, 2, tie_break="coin-flip")


@pytest.mark.parametrize("bad", [0, -1, -3])
def test_reachability_rejects_k_below_one(matrices, bad):
    matrix = matrices["intro"]
    covers = cover_family(matrix, 0.0)
    with pytest.raises(ValueError, match="k: must be >= 1"):
        reachability_check(covers, bad)


def test_domination_graph_dot(matrices):
    matrix = matrices["sixacts"]
    dot = domination_graph_dot(matrix, -1.0)
    assert dot.startswith("digraph domination {")
    assert '"a3" -> "a2";' in dot
    assert '"a3" -> "a5";' in dot
    assert '"a6" -> "a4";' in dot
    assert dot.count("->") == 3
    richer = domination_graph_dot(matrix, -0.7)
    assert '"a6" -> "a1";' in richer
    assert richer.count("->") == 4

"""The subset solvers and regret builds against their frozen reference versions.

Subsets, values (by repr, so a signed zero counts), the vertex-form matrix
bytes and the enumerated vertex bytes must match exactly, ties included.
Constraint-form matrices, which now come from the enumerated vertices rather
than from one LP per pair, must match the LP loop within 1e-9; guarded boxes,
which take the interval closed form, must also match an exact `Fraction` pour. The simplex
must match its row-by-row kernel bit for bit on the credal LP: value,
pivot sequence and exception type.
"""

import collections
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import reference_solvers
from conftest import coupled_interval_rows, interval_rows
from reference_solvers import (
    basic_feasible_points,
    box_regret_reference,
    extreme_points_reference,
    greedy_cover_reference,
    greedy_reference,
    maximin_reference,
    minimax_reference,
    oracle_reference,
    pairwise_regret_reference,
    regret_matrix_lp_reference,
    simplex_maximize_reference,
)

from credalbudget import simplex
from credalbudget.bench import trial_seeds
from credalbudget.budget import (
    Criterion,
    _greedy_cover,
    cover_family,
    oracle_optima,
    oracle_solve,
    solve_greedy,
    solve_maximin,
    solve_minimax,
)
from credalbudget.credal import (
    ENUM_MAX_BASES,
    ENUM_MAX_DIM,
    Act,
    CredalSet,
    LinearConstraint,
    _Box,
    _repeated_states,
)
from credalbudget.errors import GuardExceededError, InfeasibleCredalError
from credalbudget.gen import GenConfig, generate_instance, sample_simplex
from credalbudget.regret import (
    RegretMatrix,
    maximal_acts,
    maximin_regret,
    minimax_regret,
    pairwise_regret_from_vertices,
    pairwise_regret_on_box,
    regret_matrix,
)


EVALUATORS = (("minimax", minimax_regret), ("maximin", maximin_regret))


def tied_matrix(rng: np.random.Generator) -> RegretMatrix:
    """Small-integer entries, so ties are everywhere; about half the zeros are -0.0."""
    n = int(rng.integers(2, 9))
    entries = rng.integers(-2, 3, size=(n, n)).astype(float)
    entries[(entries == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    return RegretMatrix(tuple(f"a{i}" for i in range(n)), entries)


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(seed))


@pytest.mark.parametrize("block", range(4))
def test_minimax_and_greedy_match_reference(block):
    rng = np.random.default_rng(1000 + block)
    cases = 0
    for _ in range(500):
        matrix = tied_matrix(rng)
        for k in range(1, matrix.n + 1):
            seed = int(rng.integers(2**32))
            sol = solve_minimax(matrix, k)
            ref = minimax_reference(matrix.entries, k, None)
            assert (sol.subset, repr(sol.value)) == _repr(ref)
            sol = solve_minimax(matrix, k, tie_break="seeded", seed=seed)
            ref = minimax_reference(matrix.entries, k, seeded_rng(seed))
            assert (sol.subset, repr(sol.value)) == _repr(ref)
            for tie_break, ref_rng in (("lex", None), ("seeded", seeded_rng(seed))):
                subset = greedy_reference(matrix.entries, k, ref_rng)
                for criterion, evaluator in EVALUATORS:
                    sol = solve_greedy(matrix, k, criterion, tie_break=tie_break, seed=seed)
                    assert sol.subset == subset
                    assert repr(sol.value) == repr(evaluator(matrix, subset))
            cases += 1
    assert cases > 2000


def _repr(solution):
    subset, value = solution
    return subset, repr(value)


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("n", [100, 500])
def test_minimax_and_greedy_match_reference_at_width(n, grid):
    # Wide matrices take the greedy rounds through rows whose maximum sat in
    # the winner's column. On the coarse grid, row maxima tie across columns
    # and about half the zeros are -0.0.
    rng = np.random.default_rng(3000 + n + grid)
    entries = rng.uniform(-10.0, 10.0, size=(n, n))
    if grid:
        entries = np.round(entries * 2.0) / 2.0
        entries[(entries == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(n)), entries)
    seed = int(rng.integers(2**32))
    for k in (5, 20):
        sol = solve_minimax(matrix, k)
        assert (sol.subset, repr(sol.value)) == _repr(minimax_reference(matrix.entries, k, None))
        sol = solve_minimax(matrix, k, tie_break="seeded", seed=seed)
        ref = minimax_reference(matrix.entries, k, seeded_rng(seed))
        assert (sol.subset, repr(sol.value)) == _repr(ref)
    for tie_break, ref_rng in (("lex", None), ("seeded", seeded_rng(seed))):
        subset = greedy_reference(matrix.entries, 10, ref_rng)
        for criterion, evaluator in EVALUATORS:
            sol = solve_greedy(matrix, 10, criterion, tie_break=tie_break, seed=seed)
            assert sol.subset == subset
            assert repr(sol.value) == repr(evaluator(matrix, subset))


@pytest.mark.parametrize("block", range(4))
def test_maximin_matches_reference(block):
    # Every other matrix gets 2e-13 added to about 30% of its off-diagonal
    # entries, so some levels lie 2e-13 apart: the scan must keep them apart
    # and not merge them into one, in the subset as well as in the value.
    rng = np.random.default_rng(2000 + block)
    for m in range(500):
        matrix = tied_matrix(rng)
        if m % 2:
            bump = (rng.random((matrix.n, matrix.n)) < 0.3) & ~np.eye(matrix.n, dtype=bool)
            matrix = RegretMatrix(matrix.names, matrix.entries + 2e-13 * bump)
        for k in range(1, matrix.n + 1):
            seed = int(rng.integers(2**32))
            sol = solve_maximin(matrix, k)
            ref = maximin_reference(matrix.entries, k, None)
            assert (sol.subset, repr(sol.value)) == _repr(ref)
            sol = solve_maximin(matrix, k, tie_break="seeded", seed=seed)
            ref = maximin_reference(matrix.entries, k, seeded_rng(seed))
            assert (sol.subset, repr(sol.value)) == _repr(ref)


@pytest.mark.parametrize("dm", [2, 5, 10])
def test_maximin_matches_reference_at_negativity_size(dm):
    # The first negativity-protocol instance at each maximality count (20
    # acts, 5 states, 20 vertices): deep enough that the walker's gain bound
    # prunes inside the tree, not only at its root.
    config = GenConfig(
        n_acts=20, n_states=5, n_vertices=20, target_dm=dm, seed=trial_seeds(dm, 1)[0]
    )
    matrix = regret_matrix(*generate_instance(config))
    for k in range(dm, dm + 4):
        sol = solve_maximin(matrix, k)
        assert (sol.subset, repr(sol.value)) == _repr(maximin_reference(matrix.entries, k, None))
        sol = solve_maximin(matrix, k, tie_break="seeded", seed=k)
        ref = maximin_reference(matrix.entries, k, seeded_rng(k))
        assert (sol.subset, repr(sol.value)) == _repr(ref)


def test_greedy_cover_matches_reference():
    # Small-integer entries tie gains often, so the pick must be the lowest
    # act among equal gains in every round, as in the frozen tuple max.
    rng = np.random.default_rng(2400)
    cases = found = 0
    for n in range(2, 31):
        for _ in range(2):
            matrix = RegretMatrix(
                tuple(f"a{i}" for i in range(n)), rng.integers(-1, 5, size=(n, n)).astype(float)
            )
            for level in (0.0, 1.0, 2.0):
                covers = cover_family(matrix, level)
                for k in range(1, n + 1):
                    expected = greedy_cover_reference(covers.masks, k)
                    assert _greedy_cover(covers, k) == expected
                    cases += 1
                    found += expected is not None
    assert 0 < found < cases


@pytest.mark.parametrize("dm", [2, 5, 10])
def test_maximin_greedy_floor_needs_no_level_list(monkeypatch, dm):
    # The floor is the (n - k)-th smallest column minimum itself, so a floor
    # that greedy proves needs no sorted list of the distinct levels.
    config = GenConfig(
        n_acts=20, n_states=5, n_vertices=20, target_dm=dm, seed=trial_seeds(dm, 1)[0]
    )
    matrix = regret_matrix(*generate_instance(config))

    def no_levels(self):
        raise AssertionError("the level list was built")

    monkeypatch.setattr(RegretMatrix, "off_diagonal_values", no_levels)
    for k in range(dm, dm + 4):
        sol = solve_maximin(matrix, k)
        assert (sol.subset, repr(sol.value)) == _repr(maximin_reference(matrix.entries, k, None))
        sol = solve_maximin(matrix, k, tie_break="seeded", seed=k)
        ref = maximin_reference(matrix.entries, k, seeded_rng(k))
        assert (sol.subset, repr(sol.value)) == _repr(ref)


def test_maximin_matches_reference_on_uniform(monkeypatch):
    # U(0, 1) entries at 10-16 acts, every k. With no ties the greedy pass
    # often misses the floor, so the bisection runs; the cases must include
    # floors that greedy misses and probes that greedy alone proves feasible.
    # A probe at the floor reuses the floor's covers, so no level's covers
    # are built twice in one solve.
    import credalbudget.budget as budget_mod

    greedy, build, count = budget_mod._greedy_cover, budget_mod.cover_family, budget_mod._cover_count
    passes, probed, built, spent = [], [], [], []

    def recorded(covers, k):
        probed.append(covers)
        passes.append(greedy(covers, k))
        return passes[-1]

    def building(matrix, alpha):
        built.append(alpha)
        return build(matrix, alpha)

    def counting(covers, picks, cap, nodes_left, *rest):
        before = nodes_left[0]
        try:
            return count(covers, picks, cap, nodes_left, *rest)
        finally:
            spent.append(before - nodes_left[0])

    monkeypatch.setattr(budget_mod, "_greedy_cover", recorded)
    monkeypatch.setattr(budget_mod, "cover_family", building)
    monkeypatch.setattr(budget_mod, "_cover_count", counting)
    floor_misses = probe_hits = floor_reuses = 0
    lex_nodes = seeded_nodes = 0
    for n in range(10, 17):
        for m in range(4):
            entries = np.random.default_rng(5000 + 10 * n + m).uniform(0, 1, (n, n))
            matrix = RegretMatrix(tuple(f"a{i}" for i in range(n)), entries)
            for k in range(1, n + 1):
                spent.clear()
                sol = solve_maximin(matrix, k)
                assert (sol.subset, repr(sol.value)) == _repr(maximin_reference(entries, k, None))
                lex_nodes += sum(spent)
                # The seeded path calls the greedy pass only at the floor and
                # at the probes, in that order.
                passes.clear(), probed.clear(), built.clear(), spent.clear()
                sol = solve_maximin(matrix, k, tie_break="seeded", seed=k)
                ref = maximin_reference(entries, k, seeded_rng(k))
                assert (sol.subset, repr(sol.value)) == _repr(ref)
                seeded_nodes += sum(spent)
                assert len(set(built)) == len(built)
                if passes and passes[0] is None:
                    floor_misses += 1
                    probe_hits += any(found is not None for found in passes[1:])
                    floor_reuses += any(covers is probed[0] for covers in probed[1:])
    assert floor_misses > 50
    assert probe_hits > 50
    assert floor_reuses > 5
    # The search work of the whole sweep, in counting cover search nodes. A
    # change that means to alter the search updates these totals and says so
    # in CHANGES.md.
    assert (lex_nodes, seeded_nodes) == (3681, 15632)


@pytest.mark.parametrize("criterion", ["minimax", "maximin"])
def test_oracle_matches_reference(criterion):
    # Per size: integer entries in -2..2 (ties everywhere, about half the
    # zeros -0.0), real entries, and one integer matrix multiplied by -0.0,
    # so every entry is a signed zero. k runs past n to the whole act set.
    rng = np.random.default_rng(4000 + (criterion == "maximin"))
    zero_values = 0
    for n in range(1, 13):
        for m in range(6):
            if m % 2:
                entries = rng.uniform(-5.0, 5.0, size=(n, n))
            else:
                entries = rng.integers(-2, 3, size=(n, n)).astype(float)
                entries[(entries == 0) & (rng.random((n, n)) < 0.5)] = -0.0
                if m == 4:
                    entries *= -0.0
            matrix = RegretMatrix(tuple(f"a{i}" for i in range(n)), entries)
            for k in range(1, n + 2):
                value, optima = oracle_reference(matrix.entries, k, criterion)
                sol = oracle_solve(matrix, k, criterion)
                assert (sol.subset, sol.tie_count, repr(sol.value)) == (
                    optima[0], len(optima), repr(value)
                )
                assert oracle_optima(matrix, k, criterion) == optima
                if value == 0:
                    assert np.signbit(sol.value) == np.signbit(value)
                    zero_values += 1
    assert zero_values > 50


def test_oracle_memory_is_chunked():
    # C(20, 10) = 184,756 subsets; distinct entries keep the tie list short,
    # so the peak is the chunk temporaries. Every subset's indices at once
    # would take about 16 MB.
    rng = np.random.default_rng(20)
    entries = rng.permutation(400).reshape(20, 20).astype(float)
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(20)), entries)
    for criterion in (Criterion.MINIMAX, Criterion.MAXIMIN):
        oracle_solve(matrix, 2, criterion)  # let numpy finish its lazy set-up
        tracemalloc.start()
        try:
            oracle_solve(matrix, 10, criterion)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_oracle_counts_ties_without_listing_them():
    # An all-zero matrix ties every one of C(22, 11) = 705,432 subsets; as a
    # list of tuples they would take about 100 MB.
    matrix = RegretMatrix(tuple(f"a{i}" for i in range(22)), np.zeros((22, 22)))
    oracle_solve(matrix, 2, Criterion.MAXIMIN)  # let numpy finish its lazy set-up
    tracemalloc.start()
    try:
        sol = oracle_solve(matrix, 11, Criterion.MAXIMIN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (sol.subset, sol.tie_count) == (tuple(range(11)), math.comb(22, 11))
    assert peak < 4 * 2**20


def random_payoffs(rng: np.random.Generator, kind: str, n_acts: int, n_states: int) -> np.ndarray:
    """Integer payoffs, real payoffs, or small integers with about half the zeros -0.0."""
    if kind == "integer":
        return rng.integers(0, 101, size=(n_acts, n_states)).astype(float)
    if kind == "real":
        return rng.uniform(-50.0, 50.0, size=(n_acts, n_states))
    payoffs = rng.integers(-1, 2, size=(n_acts, n_states)).astype(float)
    payoffs[(payoffs == 0) & (rng.random((n_acts, n_states)) < 0.5)] = -0.0
    return payoffs


# Rows are built in blocks of max(1, REGRET_BLOCK_FLOATS // (n_vertices * n_acts)):
# one block (2, 7, 20 and 1 acts), uneven splits (100 and 333 acts at 50
# vertices, 500 acts at 1 vertex), even splits (500 and 1000 acts at 50
# vertices), one row per block (500 acts at 200 vertices) and a last block
# of one row (101 acts at 50 vertices, blocks of 25).
@pytest.mark.parametrize(
    "n_acts, n_states, n_vertices",
    [
        (2, 2, 1), (7, 3, 4), (20, 5, 20), (100, 8, 50), (500, 8, 50),
        (1, 8, 50), (333, 8, 50), (1000, 8, 50), (500, 8, 1), (500, 8, 200),
        (101, 8, 50),
    ],
)
def test_vertex_build_is_bitwise_equal(n_acts, n_states, n_vertices):
    for kind in ("integer", "real", "signed-zero"):
        rng = np.random.default_rng(n_acts)
        for _ in range(3):
            vertices = sample_simplex(n_states, n_vertices, rng)
            payoffs = random_payoffs(rng, kind, n_acts, n_states)
            got = pairwise_regret_from_vertices(vertices, payoffs)
            want = pairwise_regret_reference(vertices, payoffs)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n_acts, n_states, n_vertices",
    [(100, 8, 50), (101, 8, 50), (500, 8, 200), (500, 4, 1)],
)
def test_vertex_build_mirrors_exact_zeros(n_acts, n_states, n_vertices):
    # Each block of rows fills the rows below it from the min of its own
    # differences. Repeated and negated act rows, spread over the blocks,
    # put exact zero differences (of +0.0 and -0.0 payoffs) into that
    # mirrored half; at one vertex, identical acts make every entry zero.
    rng = np.random.default_rng(n_acts + n_vertices)
    for _ in range(3):
        vertices = sample_simplex(n_states, n_vertices, rng)
        base = random_payoffs(rng, "signed-zero", (n_acts + 2) // 3, n_states)
        payoffs = np.concatenate([base, base, -base])[rng.permutation(n_acts)]
        if n_vertices == 1:
            payoffs = np.concatenate([payoffs[:1]] * n_acts)
        got = pairwise_regret_from_vertices(vertices, payoffs)
        want = pairwise_regret_reference(vertices, payoffs)
        assert got.tobytes() == want.tobytes()


def test_vertex_build_memory_is_quadratic_in_acts():
    rng = np.random.default_rng(0)
    vertices = sample_simplex(8, 50, rng)
    payoffs = rng.integers(0, 101, size=(500, 8)).astype(float)
    tracemalloc.start()
    try:
        pairwise_regret_from_vertices(vertices, payoffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a (vertices, acts, acts) temporary would be ~100 MiB


@pytest.mark.parametrize("n_acts", [500, 1000])
def test_vertex_build_memory_is_output_plus_one_block(n_acts):
    rng = np.random.default_rng(n_acts)
    vertices = sample_simplex(8, 50, rng)
    payoffs = rng.integers(0, 101, size=(n_acts, 8)).astype(float)
    tracemalloc.start()
    try:
        pairwise_regret_from_vertices(vertices, payoffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n**2 float64 output plus one block temporary of about 1 MiB
    assert peak < n_acts * n_acts * 8 + 4 * 2**20


POLYTOPE_KINDS = ("interval", "general", "redundant", "single")


def random_rows(rng: np.random.Generator, kind: str, d: int) -> list[LinearConstraint]:
    """Constraint rows of one kind, all satisfied by a pmf on a 0.1 grid.

    The grid point and small-integer coefficients put several rows through
    the same points, so degenerate vertices are common.
    """
    center = rng.multinomial(10, np.ones(d) / d) / 10.0
    units = [tuple(1.0 if t == s else 0.0 for t in range(d)) for s in range(d)]
    if kind == "interval":
        rows = []
        for s in rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False):
            lo = max(0.0, center[s] - 0.1 * int(rng.integers(0, 3)))
            hi = center[s] + 0.1 * int(rng.integers(0, 3))
            rows += [LinearConstraint(units[s], ">=", lo), LinearConstraint(units[s], "<=", hi)]
        return rows
    if kind == "single":  # p >= center everywhere leaves center alone
        return [LinearConstraint(units[s], ">=", float(center[s])) for s in range(d)]
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        coeffs = rng.integers(-3, 4, size=d).astype(float)
        level = float(coeffs @ center)
        relation = str(rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1]))
        slack = 0.1 * int(rng.integers(0, 3))
        rhs = level + slack if relation == "<=" else level - slack if relation == ">=" else level
        rows.append(LinearConstraint(tuple(coeffs), relation, rhs))
    if kind == "redundant":
        first = rows[0]
        doubled = tuple(2.0 * np.array(first.coeffs))
        rows += [first, LinearConstraint(doubled, first.relation, 2.0 * first.rhs)]
        # rows that every pmf meets, touching the simplex at a corner only
        coeffs = rng.integers(-3, 4, size=d).astype(float)
        rows.append(LinearConstraint(tuple(coeffs), "<=", float(coeffs.max())))
        rows.append(LinearConstraint(tuple(coeffs), ">=", float(coeffs.min())))
    return rows


def random_polytope(rng: np.random.Generator, kind: str, max_bases: int = 4000) -> CredalSet:
    """A constraint-form set of dimension 2-8 with at most max_bases row choices."""
    while True:
        d = int(rng.integers(2, 9))
        credal = CredalSet.from_constraints(random_rows(rng, kind, d), d)
        if math.comb(len(credal._a_ub) + d, d - 1) <= max_bases:
            return credal


def reference_vertices(credal: CredalSet) -> np.ndarray:
    return extreme_points_reference(credal._a_ub, credal._b_ub, credal.dimension)


@pytest.mark.parametrize("kind", POLYTOPE_KINDS)
def test_batched_enumeration_matches_loop(kind):
    rng = np.random.default_rng(POLYTOPE_KINDS.index(kind))
    vertex_counts = set()
    for _ in range(60):
        credal = random_polytope(rng, kind)
        want = reference_vertices(credal)
        if len(want) == 0:
            with pytest.raises(InfeasibleCredalError):
                credal.extreme_points()
            continue
        got = credal.extreme_points()
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        vertex_counts.add(len(got))

        n_acts = int(rng.integers(2, 8))
        payoffs = rng.integers(0, 101, size=(n_acts, credal.dimension)).astype(float)
        acts = [Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)]
        matrix = regret_matrix(acts, credal)
        lp = RegretMatrix(matrix.names, regret_matrix_lp_reference(payoffs, credal))
        assert np.max(np.abs(matrix.entries - lp.entries)) <= 1e-9
        assert maximal_acts(matrix) == maximal_acts(lp)
    if kind == "single":
        assert vertex_counts == {1}
    else:
        assert len(vertex_counts) > 3


def test_enumeration_spans_many_chunks():
    # 8 states, each p_s <= 0.3: C(16, 7) = 11440 bases in 45 chunks, under the guard
    units = [tuple(1.0 if t == s else 0.0 for t in range(8)) for s in range(8)]
    credal = CredalSet.from_constraints([LinearConstraint(u, "<=", 0.3) for u in units], 8)
    assert math.comb(16, 7) <= ENUM_MAX_BASES
    assert credal.extreme_points().tobytes() == reference_vertices(credal).tobytes()


def unit(d: int, s: int, scale: float = 1.0) -> tuple[float, ...]:
    return tuple(scale if t == s else 0.0 for t in range(d))


def random_box_rows(rng: np.random.Generator, d: int) -> list[LinearConstraint]:
    """Bound rows on some states, all met by a pmf on a 0.1 grid, in shuffled order.

    A state gets no bound, a lower and an upper bound, an `=` row, l_s = 0
    (the same bound as p_s >= 0), a lower bound given twice (once as
    3 p_s >= 3 l_s, whose scaled rhs rounds differently), or an upper bound
    of 1 or more.
    """
    center = rng.multinomial(10, np.ones(d) / d) / 10.0
    rows = []
    for s in rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False):
        lo = max(0.0, center[s] - 0.1 * int(rng.integers(0, 3)))
        hi = center[s] + 0.1 * int(rng.integers(0, 3))
        form, u = int(rng.integers(0, 5)), unit(d, s)
        if form == 0:
            rows += [LinearConstraint(u, ">=", lo), LinearConstraint(u, "<=", hi)]
        elif form == 1:
            rows.append(LinearConstraint(u, "=", float(center[s])))
        elif form == 2:
            rows += [LinearConstraint(u, ">=", 0.0), LinearConstraint(u, "<=", hi)]
        elif form == 3:
            rows += [LinearConstraint(unit(d, s, 3.0), ">=", 3.0 * lo), LinearConstraint(u, ">=", lo)]
        else:
            rows.append(LinearConstraint(u, "<=", 1.0 + 0.5 * int(rng.integers(0, 2))))
    return [rows[i] for i in rng.permutation(len(rows))]


def random_box(rng: np.random.Generator, d: int, max_bases: int = 2000) -> CredalSet:
    while True:
        credal = CredalSet.from_constraints(random_box_rows(rng, d), d)
        if math.comb(len(credal._a_ub) + d, d - 1) <= max_bases:
            return credal


def enumeration_rows(credal: CredalSet) -> tuple[np.ndarray, np.ndarray]:
    """The rows extreme_points chooses from: the a_ub rows, then -p_s <= 0."""
    d = credal.dimension
    return np.vstack([credal._a_ub, -np.eye(d) + 0.0]), np.concatenate([credal._b_ub, np.zeros(d)])


def assert_enumeration_matches_loop(credal: CredalSet) -> None:
    want = reference_vertices(credal)
    if len(want) == 0:
        with pytest.raises(InfeasibleCredalError):
            credal.extreme_points()
        return
    got = credal.extreme_points()
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(1, ENUM_MAX_DIM + 1))
def test_box_enumeration_matches_loop(d):
    rng = np.random.default_rng(500 + d)
    for _ in range(12):
        credal = random_box(rng, d)
        assert _Box.of(*enumeration_rows(credal)) is not None
        assert_enumeration_matches_loop(credal)


def box_cases() -> dict[str, tuple[list[LinearConstraint], int]]:
    def bound(d, s, relation, rhs, scale=1.0):
        return LinearConstraint(unit(d, s, scale), relation, rhs)

    def each(d, relation, values):
        return [bound(d, s, relation, float(v)) for s, v in enumerate(values)]

    return {
        "one-state": ([bound(1, 0, "<=", 1.0)], 1),
        "zero-lower": (each(4, ">=", [0.0] * 4) + each(4, "<=", [0.5, 0.4, 0.3, 0.3]), 4),
        "equalities": (
            [bound(4, 0, "=", 0.2), bound(4, 1, "=", 0.3), bound(4, 2, "<=", 0.4)], 4
        ),
        "lower-sum-one": (each(5, ">=", [0.1, 0.2, 0.3, 0.25, 0.15]), 5),
        "upper-sum-one": (each(5, "<=", [0.1, 0.2, 0.3, 0.25, 0.15]), 5),
        "rescaled-duplicates": (
            [bound(3, 0, ">=", 0.3, 3.0), bound(3, 0, ">=", 0.1), bound(3, 0, ">=", 0.1)]
            + [bound(3, 1, "<=", 2.5, 5.0), bound(3, 2, "<=", 0.6)],
            3,
        ),
        "bounds-of-one-or-more": (
            [bound(4, 0, ">=", 1.0), bound(4, 1, "<=", 1.0), bound(4, 2, "<=", 2.0)], 4
        ),
        "rhs-overflows": ([bound(3, 0, "<=", 0.3, 1e-310), bound(3, 1, ">=", 0.2)], 3),
        "at-the-guard": (each(12, "<=", [0.1, 0.15, 0.2, 0.1, 0.05]), 12),
    }


@pytest.mark.parametrize("name", box_cases())
def test_box_edge_cases_match_loop(name):
    rows, d = box_cases()[name]
    credal = CredalSet.from_constraints(rows, d)
    assert _Box.of(*enumeration_rows(credal)) is not None
    if name == "rhs-overflows":
        assert np.isinf(credal._b_ub).any()
    if name == "at-the-guard":
        assert math.comb(len(credal._a_ub) + d, d - 1) > ENUM_MAX_BASES // 2
    assert_enumeration_matches_loop(credal)


def test_infeasible_box_has_no_vertices():
    # from_constraints refuses an empty set, so build the rows directly:
    # p_0 >= 0.6 and p_1 >= 0.6
    a_ub = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    credal = CredalSet(3, a_ub=a_ub, b_ub=np.array([-0.6, -0.6]))
    assert _Box.of(*enumeration_rows(credal)) is not None
    assert len(reference_vertices(credal)) == 0
    with pytest.raises(InfeasibleCredalError):
        credal.extreme_points()


@pytest.mark.parametrize("near", ["two-nonzeros", "zero-row"])
def test_near_boxes_take_the_general_path(near):
    rng = np.random.default_rng(7 if near == "zero-row" else 8)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        rows = random_box_rows(rng, d)
        if near == "two-nonzeros":
            rows.append(LinearConstraint(tuple([1.0, 1.0] + [0.0] * (d - 2)), "<=", 1.0))
        else:
            rows.append(LinearConstraint((0.0,) * d, "<=", 1.0))
        credal = CredalSet.from_constraints(rows, d)
        if math.comb(len(credal._a_ub) + d, d - 1) > 2000:
            continue
        assert _Box.of(*enumeration_rows(credal)) is None
        assert_enumeration_matches_loop(credal)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_box_pruning_premise(d):
    # The box path replaces slogdet by the repeated-state mask, and solves
    # no row choice outside the usable rows or `can_give_vertex`; both rest
    # on LU being exact on these systems and on BOX_MARGIN.
    rng = np.random.default_rng(900 + d)
    for _ in range(8):
        credal = random_box(rng, d, max_bases=4000)
        rows, rhs = enumeration_rows(credal)
        box = _Box.of(rows, rhs)
        active = np.array(list(itertools.combinations(range(len(rows)), d - 1)), dtype=np.intp)
        active = active.reshape(-1, d - 1)
        systems = np.ones((len(active), d, d))
        systems[:, 1:] = rows[active]
        singular = np.linalg.slogdet(systems)[0] == 0.0
        assert np.array_equal(_repeated_states(box.state[active]), singular)

        usable = np.isin(active, box.usable_rows()).all(axis=1)
        solved = usable & box.can_give_vertex(active)
        kept = [tuple(chosen) for chosen, _ in basic_feasible_points(credal._a_ub, credal._b_ub, d)]
        assert kept
        by_choice = dict(zip(map(tuple, active.tolist()), solved))
        assert all(by_choice[chosen] for chosen in kept)


def continuous_box_rows(rng: np.random.Generator, d: int) -> list[LinearConstraint]:
    """Bounds l_s <= p_s <= u_s around one interior pmf, on half the states or more."""
    center = rng.dirichlet(np.ones(d))
    rows = []
    for s in rng.choice(d, size=int(rng.integers(d // 2, d + 1)), replace=False):
        lo = max(0.0, center[s] - rng.uniform(0.0, 0.1))
        hi = center[s] + rng.uniform(0.0, 0.1)
        rows += [LinearConstraint(unit(d, s), ">=", lo), LinearConstraint(unit(d, s), "<=", hi)]
    return rows


@pytest.mark.parametrize("kind", ["integer", "real", "signed-zero"])
def test_box_closed_form_matches_exact_pour(kind):
    rng = np.random.default_rng(40 + ["integer", "real", "signed-zero"].index(kind))
    for trial in range(16):
        d = int(rng.integers(12, 17))
        rows = random_box_rows(rng, d) if trial % 2 else continuous_box_rows(rng, d)
        credal = CredalSet.from_constraints(rows, d)
        low, high = credal.box_bounds()
        payoffs = random_payoffs(rng, kind, int(rng.integers(2, 10)), d)
        got = pairwise_regret_on_box(low, high, payoffs)
        want = box_regret_reference(low, high, payoffs)
        for i, j in itertools.permutations(range(len(payoffs)), 2):
            scale = max(1.0, float(np.abs(payoffs[j] - payoffs[i]).max()))
            assert abs(got[i, j] - float(want[i][j])) <= 1e-13 * scale
        if d > ENUM_MAX_DIM:  # regret_matrix takes this route, not the LP
            acts = [Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)]
            assert regret_matrix(acts, credal).entries.tobytes() == (got + 0.0).tobytes()


@pytest.mark.parametrize("name", box_cases())
def test_box_closed_form_matches_enumeration(name):
    rows, d = box_cases()[name]
    credal = CredalSet.from_constraints(rows, d)
    payoffs = random_payoffs(np.random.default_rng(d), "real", 6, d)
    want = pairwise_regret_from_vertices(credal.extreme_points(), payoffs)
    got = pairwise_regret_on_box(*credal.box_bounds(), payoffs)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("side", ["lower-sum-past-one", "upper-sum-short-of-one"])
def test_box_closed_form_matches_lp_at_the_feasibility_tolerance(side):
    # Phase 1 accepts bounds that miss sum p = 1 by 5e-10. The closed form
    # then keeps p at low (the poured mass is clipped at 0) or fills every
    # state to high, while the LP's p breaks a bound by up to 5e-10 instead;
    # the two differ by up to |g| * 5e-10, so payoffs in [0, 1] keep it under 1e-9.
    d = 14
    if side == "lower-sum-past-one":
        low = np.full(d, (1.0 + 5e-10) / d)
        high = low + 0.1
    else:
        high = np.full(d, (1.0 - 5e-10) / d)
        low = high - 0.05
    rows = []
    for s in range(d):
        rows.append(LinearConstraint(unit(d, s), ">=", float(low[s])))
        rows.append(LinearConstraint(unit(d, s), "<=", float(high[s])))
    credal = CredalSet.from_constraints(rows, d)
    low, high = credal.box_bounds()
    missed = low.sum() - 1.0 if side == "lower-sum-past-one" else 1.0 - high.sum()
    assert missed > 4e-10
    payoffs = np.random.default_rng(d).uniform(0.0, 1.0, size=(8, d))
    acts = [Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)]
    got = regret_matrix(acts, credal).entries
    want = regret_matrix_lp_reference(payoffs, credal)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def test_box_closed_form_memory_is_blocked():
    # 300 acts over 14 states: each (300, 300, 14) temporary of an unblocked
    # pour would take 9.6 MiB, and it holds several at once.
    credal = CredalSet.from_constraints(interval_rows(14, 0.02, 0.15), 14)
    payoffs = np.random.default_rng(300).integers(0, 101, size=(300, 14)).astype(float)
    acts = [Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)]
    regret_matrix(acts[:2], credal)  # let numpy finish its lazy set-up
    tracemalloc.start()
    try:
        regret_matrix(acts, credal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_finance_oracle_unchanged(problems, matrices):
    finance, problem = matrices["finance"], problems["finance"]
    payoffs = np.array([a.payoffs for a in problem.acts], dtype=float)
    lp = RegretMatrix(finance.names, regret_matrix_lp_reference(payoffs, problem.credal))
    assert np.max(np.abs(finance.entries - lp.entries)) <= 1e-9
    for k in range(1, finance.n + 1):
        for criterion in (Criterion.MINIMAX, Criterion.MAXIMIN):
            got, want = oracle_solve(finance, k, criterion), oracle_solve(lp, k, criterion)
            assert (got.subset, got.tie_count) == (want.subset, want.tie_count)
            assert got.value == pytest.approx(want.value, abs=1e-9)


def test_constraint_build_memory_is_chunked(problems):
    credal = problems["finance"].credal
    rng = np.random.default_rng(0)
    acts = [Act(f"a{i}", tuple(map(float, rng.integers(0, 101, size=5)))) for i in range(12)]
    regret_matrix(acts, credal)  # let numpy finish its lazy set-up
    tracemalloc.start()
    try:
        regret_matrix(acts, credal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10  # all 1365 bases in one batch would peak near 530 KiB


def solve_recorded(monkeypatch, owner, names: tuple[str, str], solve, lp: tuple):
    """(outcome, steps) of one LP: every (row, col) pivot in order, with "("
    and ")" around each run of the pivot loop, so the pivots outside them
    are the drive-out's.

    The outcome is the value's repr, or the type of the exception the solve
    raised.
    """
    steps: list = []
    pivot_name, iterate_name = names
    pivot, iterate = getattr(owner, pivot_name), getattr(owner, iterate_name)

    def recording(tableau, row, col):
        steps.append((row, col))
        pivot(tableau, row, col)

    def phase(*args):
        steps.append("(")
        iterate(*args)
        steps.append(")")

    with monkeypatch.context() as patch:
        patch.setattr(owner, pivot_name, recording)
        patch.setattr(owner, iterate_name, phase)
        try:
            value = solve(*lp)
        except (simplex.Infeasible, GuardExceededError) as exc:
            return type(exc), steps
    return repr(value), steps


def drive_out_pivots(steps: list) -> list[tuple[int, int]]:
    """The pivots that `solve_recorded` saw outside the pivot loop."""
    inside, found = False, []
    for step in steps:
        if step in ("(", ")"):
            inside = step == "("
        elif not inside:
            found.append(step)
    return found


def credal_lp(gamble, a_ub, b_ub) -> tuple:
    """The general LP of one upper expectation: rows a_ub p <= b_ub, then sum p = 1."""
    d = len(gamble)
    return (np.asarray(gamble, float), a_ub, b_ub, np.ones((1, d)), np.array([1.0]))


def reference_maximize(gamble, a_ub, b_ub) -> float:
    """The frozen row-loop kernel's value for the credal LP."""
    return simplex_maximize_reference(*credal_lp(gamble, a_ub, b_ub))[0]


def split_maximize(gamble, a_ub, b_ub) -> float:
    """Both phases of the credal LP: a fresh start, then phase 2 from it."""
    return simplex.maximize(gamble, simplex.feasible_start(a_ub, b_ub))


def interval_lp(rng: np.random.Generator, d: int) -> tuple:
    """An interval box l <= p <= u on d states; sum l > 1 or sum u < 1 now and then."""
    lows = rng.uniform(0.0, 1.2 / d, size=d)
    highs = lows + rng.uniform(0.0, 1.5 / d, size=d)
    a_ub = np.vstack([np.eye(d), -np.eye(d) + 0.0])
    b_ub = np.concatenate([highs, -lows])
    payoffs = rng.integers(0, 101, size=(2, d)).astype(float)
    return (payoffs[1] - payoffs[0], a_ub, b_ub)


def benchmark_interval_lp(rng: np.random.Generator) -> tuple:
    """One pair of the 14-state interval polytope p_s in [0.02, 0.15]."""
    a_ub = np.vstack([np.eye(14), -np.eye(14) + 0.0])
    b_ub = np.concatenate([np.full(14, 0.15), np.full(14, -0.02)])
    payoffs = rng.integers(0, 101, size=(2, 14)).astype(float)
    return (payoffs[1] - payoffs[0], a_ub, b_ub)


def unit_rows_lp(rng: np.random.Generator) -> tuple:
    """Random unit-scaled rows whose rhs takes either sign."""
    d = int(rng.integers(2, 11))
    a_ub = rng.normal(size=(int(rng.integers(1, 9)), d))
    a_ub /= np.abs(a_ub).max(axis=1, keepdims=True)
    b_ub = rng.normal(0.2, 0.5, size=len(a_ub))
    return (rng.normal(size=d), a_ub, b_ub)


def integer_lp(rng: np.random.Generator) -> tuple:
    """Small-integer data, where ratio-test ties and degenerate pivots are common."""
    d = int(rng.integers(2, 8))
    a_ub = rng.integers(-3, 4, size=(int(rng.integers(1, 8)), d)).astype(float)
    b_ub = rng.integers(-2, 6, size=len(a_ub)).astype(float)
    return (rng.integers(-4, 5, size=d).astype(float), a_ub, b_ub)


def infeasible_lp(rng: np.random.Generator) -> tuple:
    """A box whose lower bounds sum past 1, or two rows that contradict."""
    d = int(rng.integers(2, 15))
    if rng.random() < 0.5:
        lows = rng.uniform(1.0 / d, 2.0 / d, size=d) + 0.01 / d
        return (rng.normal(size=d), -np.eye(d) + 0.0, -lows)
    row = rng.normal(size=d)
    row /= np.abs(row).max()
    a_ub = np.vstack([row, -row])
    return (rng.normal(size=d), a_ub, np.array([-0.5, 0.25]))


def edge_rows_lp(rng: np.random.Generator) -> tuple:
    """Rows at the edges of the tableau layout, where rows are negated whole.

    `<=` rows with rhs +0.0, -0.0, ±inf and NaN, plus an explicit p_s >= 0,
    which arrives as -p_s <= -0.0; then p_s >= 1/2, p_t >= 1/2 and their
    redundant sum p_s + p_t >= 1, which can leave an artificial basic after
    phase 1 and so take the drive-out path.
    """
    d = int(rng.integers(2, 7))
    a_ub = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), d)).astype(float)
    b_ub = rng.choice(
        [0.0, -0.0, 1.0, 2.0, -1.0, np.inf, -np.inf, np.nan], size=len(a_ub),
        p=[0.2, 0.2, 0.2, 0.15, 0.1, 0.05, 0.05, 0.05],
    )
    a_ub = np.vstack([a_ub, -np.eye(d)[int(rng.integers(d))]])
    b_ub = np.append(b_ub, -0.0)
    s, t = rng.choice(d, size=2, replace=False)
    halves = -np.eye(d)[[s, t]] + 0.0
    a_ub = np.vstack([a_ub, halves, halves.sum(axis=0)])
    b_ub = np.append(b_ub, [-0.5, -0.5, -1.0])
    return (rng.integers(-3, 4, size=d).astype(float), a_ub, b_ub)


LP_KINDS = {
    "interval": lambda rng: interval_lp(rng, int(rng.integers(3, 21))),
    "benchmark-interval": benchmark_interval_lp,
    "unit-rows": unit_rows_lp,
    "integer": integer_lp,
    "infeasible": infeasible_lp,
    "edge-rows": edge_rows_lp,
}


def assert_kernels_agree(monkeypatch, lps) -> collections.Counter:
    """Each LP solved by both kernels gives identical outcomes; returns outcome
    kinds, and under "drive-out" the number of LPs whose drive-out pivoted."""
    kinds: collections.Counter = collections.Counter()
    for lp in lps:
        got = solve_recorded(monkeypatch, simplex, ("_pivot", "_iterate"), split_maximize, lp)
        want = solve_recorded(
            monkeypatch, reference_solvers,
            ("simplex_pivot_reference", "simplex_iterate_reference"), reference_maximize, lp,
        )
        assert got == want
        kinds[want[0].__name__ if isinstance(want[0], type) else "optimal"] += 1
        kinds["drive-out"] += bool(drive_out_pivots(want[1]))
    return kinds


@pytest.mark.parametrize("kind", LP_KINDS)
def test_simplex_matches_row_loop_kernel(monkeypatch, kind):
    rng = np.random.default_rng(list(LP_KINDS).index(kind))
    lps = [LP_KINDS[kind](rng) for _ in range(80)]
    # the edge rows' ±inf and NaN rhs, under the errstate of the infinite-gamble test
    quiet = {"over": "ignore", "invalid": "ignore"} if kind == "edge-rows" else {}
    with np.errstate(**quiet):
        kinds = assert_kernels_agree(monkeypatch, lps)
    expected = {
        "interval": {"optimal", "Infeasible"},
        "benchmark-interval": {"optimal"},
        "unit-rows": {"optimal", "Infeasible"},
        "integer": {"optimal", "Infeasible"},
        "infeasible": {"Infeasible"},
        "edge-rows": {"optimal", "Infeasible"},
    }[kind]
    assert set(kinds) - {"drive-out"} == expected
    if kind == "edge-rows":
        assert kinds["drive-out"] > 0


def test_simplex_matches_row_loop_kernel_on_infinite_gambles(monkeypatch):
    # regret_matrix solves these under the same errstate when payoffs overflow
    rng = np.random.default_rng(11)
    lps = []
    for _ in range(40):
        gamble, *rows = interval_lp(rng, int(rng.integers(3, 15)))
        spots = rng.choice(len(gamble), size=int(rng.integers(1, 3)), replace=False)
        gamble[spots] = rng.choice([np.inf, -np.inf], size=len(spots))
        lps.append((gamble, *rows))
    with np.errstate(over="ignore", invalid="ignore"):
        kinds = assert_kernels_agree(monkeypatch, lps)
    assert kinds["optimal"] > 0


@pytest.mark.parametrize("kind", [kind for kind in LP_KINDS if kind != "infeasible"])
def test_one_start_serves_many_objectives(monkeypatch, kind):
    # Each phase 2 from a shared start equals a fresh solve of its own LP:
    # value repr and phase-2 pivots. The start is read-only and keeps its
    # bytes, so a phase 2 that pivots in place fails here.
    rng = np.random.default_rng(100 + list(LP_KINDS).index(kind))
    quiet = {"over": "ignore", "invalid": "ignore"} if kind == "edge-rows" else {}
    starts = 0
    with np.errstate(**quiet):
        for _ in range(12):
            _, a_ub, b_ub = LP_KINDS[kind](rng)
            try:
                start = simplex.feasible_start(a_ub, b_ub)
            except simplex.Infeasible:
                continue
            starts += 1
            before = start[0].tobytes()
            n_ub, d = a_ub.shape
            assert start[0].shape == (n_ub + 2, d + n_ub + 1)  # no artificial column
            for k in range(10):
                gamble = rng.normal(size=d) if k % 2 else rng.integers(-4, 5, d).astype(float)
                got = solve_recorded(
                    monkeypatch, simplex, ("_pivot", "_iterate"),
                    lambda g: simplex.maximize(g, start), (gamble,),
                )
                value, steps = solve_recorded(
                    monkeypatch, reference_solvers,
                    ("simplex_pivot_reference", "simplex_iterate_reference"), reference_maximize,
                    (gamble, a_ub, b_ub),
                )
                phase_two = len(steps) - 1 - steps[::-1].index("(")
                assert got == (value, steps[phase_two:])
            assert start[0].tobytes() == before
            assert not start[0].flags.writeable
    assert starts > 0


@pytest.mark.parametrize("n_states", [13, 14])
def test_guarded_matrix_matches_a_fresh_lp_per_pair(n_states):
    # Each pair of the LP route runs phase 2 from the set's cached start; the
    # row-loop kernel solves both phases afresh for every pair. The set is no
    # box, so it takes the LP route.
    credal = CredalSet.from_constraints(coupled_interval_rows(n_states), n_states)
    rng = np.random.default_rng(n_states)
    payoffs = rng.integers(0, 101, size=(6, n_states)).astype(float)
    acts = [Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)]
    want = np.zeros((6, 6))
    for i, j in itertools.permutations(range(6), 2):
        want[i, j] = reference_maximize(payoffs[j] - payoffs[i], credal._a_ub, credal._b_ub)
    assert regret_matrix(acts, credal).entries.tobytes() == want.tobytes()


def test_simplex_pivot_warns_no_more_than_the_row_loop():
    # The masked pivot never multiplies a row whose factor is zero, so an
    # infinite pivot row gives no 0 * inf there. Over sum p = 1 no pivot row
    # is infinite, so the pivot is checked on its own: x_0 <= inf is the
    # pivot row of max x_0 subject to it and x_1 <= 1.
    rows, d = box_cases()["rhs-overflows"]
    tableau = np.array(
        [[1.0, 0.0, 1.0, 0.0, np.inf], [0.0, 1.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0, 0.0]]
    )
    want = tableau.copy()
    gamble = np.array([1.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        credal = CredalSet.from_constraints(rows, d)
        value = credal.upper_expectation(gamble)
        simplex._pivot(tableau, 0, 0)
        reference_solvers.simplex_pivot_reference(want, 0, 0)
    assert np.isinf(credal._b_ub).any()
    assert value == pytest.approx(0.8)
    assert repr(value) == repr(reference_maximize(gamble, credal._a_ub, credal._b_ub))
    assert tableau.tobytes() == want.tobytes()
    assert tableau[-1].tolist() == [0.0, 0.0, 1.0, 0.0, np.inf]

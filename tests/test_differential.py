"""The subset solvers and regret builds against their frozen reference versions.

Subsets, values (by repr, so a signed zero counts), the vertex-form matrix
bytes and the enumerated vertex bytes must match exactly, ties included.
Constraint-form matrices, which now come from the enumerated vertices rather
than from one LP per pair, must match the LP loop within 1e-9.
"""

import math
import tracemalloc

import numpy as np
import pytest
from reference_solvers import (
    extreme_points_reference,
    greedy_reference,
    maximin_reference,
    minimax_reference,
    oracle_reference,
    pairwise_regret_reference,
    regret_matrix_lp_reference,
)

from credalbudget.bench import trial_seeds
from credalbudget.budget import (
    Criterion,
    oracle_optima,
    oracle_solve,
    solve_greedy,
    solve_maximin,
    solve_minimax,
)
from credalbudget.credal import ENUM_MAX_BASES, Act, CredalSet, LinearConstraint
from credalbudget.errors import InfeasibleCredalError
from credalbudget.gen import GenConfig, generate_instance, sample_simplex
from credalbudget.regret import (
    RegretMatrix,
    maximal_acts,
    maximin_regret,
    minimax_regret,
    pairwise_regret_from_vertices,
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

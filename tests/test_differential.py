"""The vectorised minimax core and regret build against their frozen loop versions.

Subsets, values (by repr, so a signed zero counts) and the vertex-form
matrix bytes must match exactly, ties included.
"""

import tracemalloc

import numpy as np
import pytest
from reference_solvers import greedy_reference, minimax_reference, pairwise_regret_reference

from credalbudget.budget import solve_greedy, solve_minimax
from credalbudget.gen import sample_simplex
from credalbudget.regret import (
    RegretMatrix,
    maximin_regret,
    minimax_regret,
    pairwise_regret_from_vertices,
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


@pytest.mark.parametrize(
    "n_acts, n_states, n_vertices",
    [(2, 2, 1), (7, 3, 4), (20, 5, 20), (100, 8, 50), (500, 8, 50)],
)
def test_vertex_build_is_bitwise_equal(n_acts, n_states, n_vertices):
    rng = np.random.default_rng(n_acts)
    for _ in range(3):
        vertices = sample_simplex(n_states, n_vertices, rng)
        payoffs = rng.integers(0, 101, size=(n_acts, n_states)).astype(float)
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

import numpy as np
import pytest
from conftest import coupled_interval_rows, interval_rows
from reference_solvers import regret_matrix_lp_reference

from credalbudget.credal import Act, CredalSet, LinearConstraint
from credalbudget.errors import GuardExceededError
from credalbudget.regret import (
    NEG_INFINITY,
    RegretMatrix,
    matrix_from_csv,
    matrix_to_csv,
    maximal_acts,
    maximin_regret,
    minimax_regret,
    regret_matrix,
)


def display_rows(matrix):
    """Challenger-major view, as tables print it."""
    return matrix.entries.T


def test_intro_matrix_matches_table(matrices, instances):
    matrix = matrices["intro"]
    for j, row in enumerate(instances["intro"].expected["display_matrix"]):
        for i, cell in enumerate(row):
            if cell is not None:
                assert display_rows(matrix)[j, i] == pytest.approx(cell, abs=1e-6)


def test_finance_spot_entries(matrices):
    matrix = matrices["finance"]
    # display row 1 col 2 and row 4 col 8 of the printed table
    assert display_rows(matrix)[0, 1] == pytest.approx(11.65, abs=5e-3)
    assert display_rows(matrix)[3, 7] == pytest.approx(-11.2, abs=5e-3)


@pytest.mark.parametrize("n_states", [12, 14])
def test_guarded_polytopes_take_the_lp_path(n_states):
    # over ENUM_MAX_BASES (12 states) or ENUM_MAX_DIM (14 states), and no box
    credal = CredalSet.from_constraints(coupled_interval_rows(n_states), n_states)
    with pytest.raises(GuardExceededError):
        credal.extreme_points()
    assert credal.box_bounds() is None
    rng = np.random.default_rng(n_states)
    payoffs = rng.integers(0, 101, size=(6, n_states)).astype(float)
    acts = [Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)]
    got = regret_matrix(acts, credal).entries
    assert got.tobytes() == regret_matrix_lp_reference(payoffs, credal).tobytes()


@pytest.mark.parametrize("scale", [1e-10, 1e10], ids=["tiny", "huge"])
def test_constraint_rows_are_scale_invariant(scale):
    # p1 >= 0.6 and p2 - p3 <= 0.1, each row and its rhs multiplied by scale:
    # the tiny rows used to fall under the absolute tolerances and give
    # {a1} value 2 at k = 1 instead of {a2} value -0.4; the huge ones were
    # refused at load as infeasible.
    acts = [Act("a1", (0.0, 3.0, 1.0)), Act("a2", (2.0, 0.0, 1.0)), Act("a3", (0.0, 1.0, 3.0))]

    def rows(f):
        return [
            LinearConstraint((f, 0.0, 0.0), ">=", 0.6 * f),
            LinearConstraint((0.0, f, -f), "<=", 0.1 * f),
        ]

    want = regret_matrix(acts, CredalSet.from_constraints(rows(1.0), 3)).entries
    got = regret_matrix(acts, CredalSet.from_constraints(rows(scale), 3)).entries
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def test_payoff_length_must_match_credal_dimension():
    acts = [Act("a1", (1.0, 2.0)), Act("a2", (2.0, 1.0))]
    box = CredalSet.from_constraints(interval_rows(3, 0.1, 0.5), 3)
    for credal in (box, CredalSet.from_vertices([[0.2, 0.3, 0.5]])):
        with pytest.raises(ValueError, match="credal set has 3 states"):
            regret_matrix(acts, credal)


def test_duplicate_acts_have_zero_regret():
    acts = [Act("a1", (1.0, 2.0)), Act("a2", (1.0, 2.0)), Act("a3", (0.0, 5.0))]
    matrix = regret_matrix(acts, CredalSet.from_vertices([[0.5, 0.5], [0.9, 0.1]]))
    assert matrix.entries[0, 1] == 0.0
    assert matrix.entries[1, 0] == 0.0
    # both duplicates are maximal if either is
    dm = set(maximal_acts(matrix))
    assert (0 in dm) == (1 in dm)


def test_pairwise_antisymmetry_bound(matrices):
    for matrix in matrices.values():
        n = matrix.n
        for i in range(n):
            for j in range(i + 1, n):
                assert matrix.entries[i, j] + matrix.entries[j, i] >= -1e-9


def test_minimax_regret_values(matrices):
    intro = matrices["intro"]
    assert minimax_regret(intro, (0, 1)) == pytest.approx(1.4, abs=1e-9)
    assert minimax_regret(intro, range(5)) == NEG_INFINITY
    six = matrices["sixacts"]
    assert minimax_regret(six, (2, 5)) == pytest.approx(2.1, abs=1e-9)
    with pytest.raises(ValueError):
        minimax_regret(intro, ())


def test_maximin_regret_values(matrices):
    six = matrices["sixacts"]
    assert maximin_regret(six, (2, 5)) == pytest.approx(-0.7, abs=1e-9)
    assert maximin_regret(six, range(6)) == NEG_INFINITY
    intro = matrices["intro"]
    assert maximin_regret(intro, (0, 1)) == pytest.approx(1.4, abs=1e-9)


def test_maximin_never_exceeds_minimax(matrices):
    rng = np.random.default_rng(3)
    for matrix in matrices.values():
        for _ in range(50):
            size = int(rng.integers(1, matrix.n))
            subset = tuple(sorted(rng.choice(matrix.n, size=size, replace=False)))
            assert maximin_regret(matrix, subset) <= minimax_regret(matrix, subset)


def test_maximality(matrices):
    assert maximal_acts(matrices["intro"]) == (0, 1, 2, 3)
    assert maximal_acts(matrices["sixacts"]) == (2, 5)
    assert maximal_acts(matrices["finance"]) == (0, 1, 4, 6, 7, 8)
    assert maximal_acts(matrices["multilabel"]) == tuple(range(8))


def test_maximality_reads_the_zero_diagonal():
    # Column i holds act i's regrets against each challenger, and its stored
    # diagonal is 0.0 whatever the input held there. Columns 0 and 1 have
    # their smallest entry on the diagonal; column 2's is -0.5e-9, inside the
    # slack; column 3's is -2e-9, outside it.
    entries = np.array(
        [
            [-7.0, 1.0, 2.0, 3.0],
            [4.0, -7.0, -0.5e-9, -2e-9],
            [5.0, 6.0, -7.0, 1.0],
            [7.0, 8.0, 9.0, -7.0],
        ]
    )
    matrix = RegretMatrix(("a", "b", "c", "d"), entries)
    assert np.diag(matrix.entries).tolist() == [0.0] * 4
    assert maximal_acts(matrix) == (0, 1, 2)
    assert maximal_acts(RegretMatrix(("only",), np.array([[-1.0]]))) == (0,)


def test_neg_infinity_sentinel_orders_below_everything():
    assert NEG_INFINITY < -1e308
    assert NEG_INFINITY == float("-inf")
    assert min(NEG_INFINITY, -1e300) == NEG_INFINITY


def test_shared_credal_set_is_thread_safe(problems):
    from concurrent.futures import ThreadPoolExecutor

    credal = problems["finance"].credal
    acts = problems["finance"].acts
    gambles = [np.subtract(acts[j].payoffs, acts[i].payoffs)
               for i in range(4) for j in range(4) if i != j]
    sequential = [credal.upper_expectation(g) for g in gambles]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(credal.upper_expectation, gambles))
    assert parallel == sequential


def test_regret_matrix_needs_an_act():
    with pytest.raises(ValueError, match="matrix: at least one act is required"):
        RegretMatrix((), np.zeros((0, 0)))


def test_regret_matrix_zeroes_its_own_diagonal():
    given = np.array([[5.0, 1.0], [2.0, -0.0]])
    matrix = RegretMatrix(("a", "b"), given)
    assert matrix.entries.tolist() == [[0.0, 1.0], [2.0, 0.0]]
    assert not np.signbit(matrix.entries).any()
    assert given[0, 0] == 5.0  # the caller's array is left as it was
    with pytest.raises(ValueError, match=r"matrix\[0\]\[0\]: entries must be finite"):
        RegretMatrix(("a", "b"), [[np.nan, 1.0], [1.0, 0.0]])


def test_single_act_is_maximal():
    matrix = RegretMatrix(("only",), np.zeros((1, 1)))
    assert maximal_acts(matrix) == (0,)
    assert minimax_regret(matrix, (0,)) == NEG_INFINITY


def test_csv_round_trip(matrices):
    for matrix in matrices.values():
        text = matrix_to_csv(matrix)
        lines = text.strip().split("\n")
        assert len(lines) == matrix.n + 1
        back = matrix_from_csv(text)
        assert back.names == matrix.names
        assert np.max(np.abs(back.entries - matrix.entries)) <= 1e-6
    # a negative zero cell loads as +0.0 and is written back without its sign
    back = matrix_from_csv(",a1,a2\na1,,-0.000000\na2,1.500000,\n")
    assert back.entries[1, 0] == 0.0 and not np.signbit(back.entries[1, 0])
    assert matrix_to_csv(back) == ",a1,a2\na1,,0.000000\na2,1.500000,\n"


def test_csv_diagonal_empty(matrices):
    import csv as csvmod
    import io

    rows = list(csvmod.reader(io.StringIO(matrix_to_csv(matrices["intro"]))))
    for j in range(1, len(rows)):
        assert rows[j][j] == ""


def test_csv_rejects_bad_shapes():
    with pytest.raises(ValueError):
        matrix_from_csv(",a1,a2\na1,,1.0\n")
    with pytest.raises(ValueError):
        matrix_from_csv(",a1,a2\na1,,1.0\nzz,2.0,\n")


def test_regret_matrix_rejects_mixed_dimensions():
    acts = [Act("a1", (1.0, 2.0)), Act("a2", (1.0, 2.0, 3.0))]
    with pytest.raises(ValueError, match="dimension"):
        regret_matrix(acts, CredalSet.from_vertices([[0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_regret_matrix_rejects_non_finite_entries(bad):
    entries = np.zeros((3, 3))
    entries[1, 2] = bad
    with pytest.raises(ValueError, match=r"matrix\[1\]\[2\]: entries must be finite"):
        RegretMatrix(("a1", "a2", "a3"), entries)

import time

import numpy as np
import pytest
from conftest import coupled_interval_rows, interval_rows

from credalbudget import simplex
from credalbudget.credal import Act, CredalSet, LinearConstraint
from credalbudget.errors import GuardExceededError, InfeasibleCredalError
from credalbudget.regret import regret_matrix


@pytest.fixture(scope="module")
def interval_credal():
    # p3 <= p1 and p3 <= 0.3 on three states
    return CredalSet.from_constraints(
        [
            LinearConstraint((-1.0, 0.0, 1.0), "<=", 0.0),
            LinearConstraint((0.0, 0.0, 1.0), "<=", 0.3),
        ],
        3,
    )


def test_upper_expectation_attained_at_corner(interval_credal):
    # gamble a5 - a1 = (-5, -1, 5); optimum sits at p = (0.3, 0.4, 0.3)
    assert interval_credal.upper_expectation([-5.0, -1.0, 5.0]) == pytest.approx(-0.4, abs=1e-9)
    expected = np.dot([0.3, 0.4, 0.3], [-5.0, -1.0, 5.0])
    assert interval_credal.upper_expectation([-5.0, -1.0, 5.0]) == pytest.approx(expected, abs=1e-9)


def test_zero_gamble_is_zero(interval_credal):
    assert interval_credal.upper_expectation(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)


def test_dominated_gamble(interval_credal):
    # payoff difference (7,1,4) - (10,4,8) = (-3, -3, -4)
    assert interval_credal.upper_expectation([-3.0, -3.0, -4.0]) == pytest.approx(-3.0, abs=1e-9)


def test_lower_upper_duality(interval_credal):
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rng.normal(size=3) * 10
        assert interval_credal.lower_expectation(g) == -interval_credal.upper_expectation(-g)
    assert interval_credal.lower_expectation([5.0, 1.0, -5.0]) == pytest.approx(0.4, abs=1e-9)


def test_single_vertex_is_precise_expectation():
    credal = CredalSet.from_vertices([[0.2, 0.5, 0.3]])
    assert credal.upper_expectation([1.0, 2.0, 3.0]) == pytest.approx(2.1, abs=1e-12)
    assert credal.lower_expectation([1.0, 2.0, 3.0]) == pytest.approx(2.1, abs=1e-12)


def test_extreme_points_of_interval_credal(interval_credal):
    points = interval_credal.extreme_points()
    expected = {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, 0.4, 0.3), (0.7, 0.0, 0.3)}
    got = {tuple(np.round(p, 9)) for p in points}
    assert got == expected


def test_extreme_points_match_lp_optimum(interval_credal):
    points = interval_credal.extreme_points()
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rng.normal(size=3) * 5
        assert interval_credal.upper_expectation(g) == pytest.approx(
            float(np.max(points @ g)), abs=1e-9
        )


def test_degenerate_polytope_single_vertex():
    credal = CredalSet.from_constraints([LinearConstraint((1.0, 0.0, 0.0), "=", 1.0)], 3)
    points = credal.extreme_points()
    assert points.shape == (1, 3)
    assert points[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)


def test_vertex_form_extreme_points_returns_stored():
    vertices = [[0.5, 0.5], [1.0, 0.0]]
    credal = CredalSet.from_vertices(vertices)
    assert np.allclose(credal.extreme_points(), vertices)


def test_enumeration_guard():
    n = 13
    row = LinearConstraint(tuple([1.0] + [0.0] * (n - 1)), "<=", 0.5)
    credal = CredalSet.from_constraints([row], n)
    with pytest.raises(GuardExceededError):
        credal.extreme_points()


def test_enumeration_basis_guard_is_immediate():
    # 12 states, 24 bound rows: C(36, 11), about 6e8 bases, under the dimension limit
    credal = CredalSet.from_constraints(interval_rows(12, 0.02, 0.15), 12)
    start = time.perf_counter()
    with pytest.raises(GuardExceededError, match="bases"):
        credal.extreme_points()
    assert time.perf_counter() - start < 0.1


def test_infeasible_constraints_rejected_at_load():
    with pytest.raises(InfeasibleCredalError):
        CredalSet.from_constraints([LinearConstraint((1.0, 0.0), "<=", -0.5)], 2)


def _count_lp_phases(monkeypatch):
    """Count the calls of phase 1 (feasible_start) and of phase 2 (maximize)."""
    calls = {"feasible_start": 0, "maximize": 0}
    for name in calls:
        real = getattr(simplex, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(simplex, name, counted)
    return calls


def test_phase_one_runs_once_per_credal_set(monkeypatch):
    calls = _count_lp_phases(monkeypatch)
    credal = CredalSet.from_constraints(coupled_interval_rows(14), 14)  # no box: the LP route
    payoffs = np.random.default_rng(14).integers(0, 101, size=(6, 14)).astype(float)
    regret_matrix([Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)], credal)
    assert calls == {"feasible_start": 1, "maximize": 31}  # 30 pairs and the feasibility LP


def test_box_above_the_guard_solves_no_pair_lp(monkeypatch):
    calls = _count_lp_phases(monkeypatch)
    credal = CredalSet.from_constraints(interval_rows(14, 0.02, 0.15), 14)
    payoffs = np.random.default_rng(14).integers(0, 101, size=(6, 14)).astype(float)
    regret_matrix([Act(f"a{i}", tuple(row)) for i, row in enumerate(payoffs)], credal)
    assert calls == {"feasible_start": 1, "maximize": 1}  # the feasibility LP alone


def test_infeasible_rows_cache_no_start(monkeypatch):
    calls = _count_lp_phases(monkeypatch)
    # p_0 >= 0.6 and p_1 >= 0.6, built directly since from_constraints refuses them
    credal = CredalSet(3, a_ub=-np.eye(3)[:2], b_ub=np.array([-0.6, -0.6]))
    for _ in range(2):
        with pytest.raises(simplex.Infeasible):
            credal.upper_expectation(np.ones(3))
    assert calls == {"feasible_start": 2, "maximize": 0}
    assert credal._start is None


def test_gamble_dimension_mismatch(interval_credal):
    with pytest.raises(ValueError, match="gamble"):
        interval_credal.upper_expectation([1.0, 2.0])


def test_constraint_dimension_mismatch():
    with pytest.raises(ValueError, match="coeffs"):
        CredalSet.from_constraints([LinearConstraint((1.0, 0.0), "<=", 0.5)], 3)


def test_vertices_validation_and_renormalization():
    with pytest.raises(ValueError, match="sums"):
        CredalSet.from_vertices([[0.5, 0.4]])
    with pytest.raises(ValueError, match="negative"):
        CredalSet.from_vertices([[1.1, -0.1]])
    credal = CredalSet.from_vertices([[0.5 + 4e-10, 0.5 + 4e-10]])
    assert credal.extreme_points().sum() == pytest.approx(1.0, abs=1e-15)
    nudged = CredalSet.from_vertices([[1.0 + 5e-10, -5e-10]])
    assert nudged.extreme_points().min() >= 0.0


def test_monotonicity_and_shift(interval_credal):
    rng = np.random.default_rng(42)
    for _ in range(100):
        f = rng.normal(size=3) * 4
        g = f + rng.uniform(0.0, 2.0, size=3)
        assert interval_credal.upper_expectation(f) <= interval_credal.upper_expectation(g) + 1e-9
        c = float(rng.normal() * 7)
        assert interval_credal.upper_expectation(f + c) == pytest.approx(
            interval_credal.upper_expectation(f) + c, abs=1e-9
        )
        assert np.min(f) - 1e-9 <= interval_credal.lower_expectation(f)
        assert interval_credal.lower_expectation(f) <= interval_credal.upper_expectation(f)
        assert interval_credal.upper_expectation(f) <= np.max(f) + 1e-9


def test_state_space_and_act_validation():
    with pytest.raises(ValueError, match="finite"):
        Act("a1", (1.0, float("nan")))
    with pytest.raises(ValueError, match=r"credal.vertices\[1\]: probability mass must be finite"):
        CredalSet.from_vertices([[0.5, 0.5, 0.0], [float("nan"), 0.5, 0.5]])
    with pytest.raises(ValueError, match="relation"):
        LinearConstraint((1.0,), "<", 0.5)
    # an integer beyond int64 is a finite float; one beyond the float range overflows
    assert Act("a", (2**64, 1.0)).payoffs == (2**64, 1.0)
    assert LinearConstraint((1.0, 0.0), "<=", 2**64).rhs == 2**64
    with pytest.raises(OverflowError):
        Act("a", (10**400, 1.0))
    with pytest.raises(OverflowError):
        LinearConstraint((1.0, 0.0), "<=", 10**400)


def _count_linalg(monkeypatch):
    """Record the batch size of every np.linalg.solve and slogdet call."""
    calls = {"solve": [], "slogdet": []}
    for name, batches in calls.items():
        real = getattr(np.linalg, name)

        def counted(systems, *args, _real=real, _batches=batches):
            _batches.append(len(systems))
            return _real(systems, *args)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_box_enumeration_solves_only_the_vertex_choices(problems, monkeypatch):
    # finance is a box: only row choices that can give a vertex are solved,
    # in one batch, and no slogdet screens them.
    calls = _count_linalg(monkeypatch)
    points = problems["finance"].credal.extreme_points()
    assert calls == {"solve": [36], "slogdet": []}
    assert points.shape[0] == 24


def test_general_enumeration_screens_every_row_choice(problems, monkeypatch):
    # intro's rows are not a box: slogdet screens all C(5, 2) = 10 row choices.
    calls = _count_linalg(monkeypatch)
    problems["intro"].credal.extreme_points()
    assert calls["slogdet"] == [10]

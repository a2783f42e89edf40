import numpy as np
import pytest

from credalbudget import simplex


def box_simplex_max(costs, lows, highs):
    """Independent oracle: maximize costs . p over {lo <= p <= hi, sum p = 1}.

    Start from the lower bounds and pour the remaining mass into coordinates
    by decreasing cost (the fractional-knapsack argument).
    """
    costs = np.asarray(costs, float)
    p = np.asarray(lows, float).copy()
    room = 1.0 - p.sum()
    for i in np.argsort(-costs):
        take = min(room, highs[i] - p[i])
        p[i] += take
        room -= take
    assert abs(room) < 1e-12
    return float(costs @ p), p


def test_two_inequalities():
    # max p_0 + 2 p_1 st p_1 <= 0.3, p_0 + p_1 <= 0.8: optimum 1.1 at (0.5, 0.3, 0.2)
    value = simplex.maximize(
        np.array([1.0, 2.0, 0.0]),
        np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
        np.array([0.3, 0.8]),
    )
    assert value == pytest.approx(1.1, abs=1e-9)


def test_equality_row():
    # with no `<=` rows the sum row alone bounds p: the best state takes all the mass
    value = simplex.maximize(np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_negative_rhs_flips_to_surplus_row():
    # p_0 >= 0.25 written as -p_0 <= -0.25, maximize -p_0: optimum at the bound
    value = simplex.maximize(np.array([-1.0, 0.0]), np.array([[-1.0, 0.0]]), np.array([-0.25]))
    assert value == pytest.approx(-0.25, abs=1e-9)


def test_infeasible_raises():
    with pytest.raises(simplex.Infeasible):
        simplex.maximize(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


def test_contradictory_equalities_raise():
    # p_0 + p_1 = 2 as the two `<=` rows a credal set builds, against sum p = 1
    with pytest.raises(simplex.Infeasible):
        simplex.maximize(
            np.array([1.0, 1.0]), np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([2.0, -2.0])
        )


def test_rhs_length_must_match_the_rows():
    # a single rhs is neither broadcast over two rows nor cut down to one row
    with pytest.raises(ValueError):
        simplex.maximize(np.ones(2), np.eye(2), np.array([1.0]))


def test_redundant_equality_rows():
    # p_0 + p_1 = 1 as two `<=` rows repeats sum p = 1: the artificials of
    # the negated row and of the sum row stay basic after phase 1 and are
    # driven out
    value = simplex.maximize(
        np.array([2.0, 1.0]), np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -1.0])
    )
    assert value == pytest.approx(2.0, abs=1e-9)


def test_random_box_simplex_against_greedy_fill():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        center = rng.dirichlet(np.ones(n))
        lows = np.clip(center - rng.uniform(0.0, 0.3, n), 0.0, 1.0)
        highs = np.clip(center + rng.uniform(0.0, 0.3, n), 0.0, 1.0)
        costs = rng.normal(size=n) * 10
        a_ub = np.vstack([np.eye(n), -np.eye(n)])
        b_ub = np.concatenate([highs, -lows])
        value = simplex.maximize(costs, a_ub, b_ub)
        expected, _ = box_simplex_max(costs, lows, highs)
        assert value == pytest.approx(expected, abs=1e-9)

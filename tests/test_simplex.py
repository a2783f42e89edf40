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
    # max x + y st x + 2y <= 4, 3x + y <= 6: optimum 2.8 at (8/5, 6/5)
    value, x = simplex.maximize(
        np.array([1.0, 1.0]),
        np.array([[1.0, 2.0], [3.0, 1.0]]),
        np.array([4.0, 6.0]),
        np.zeros((0, 2)),
        np.zeros(0),
    )
    assert value == pytest.approx(2.8, abs=1e-9)
    assert x == pytest.approx([1.6, 1.2], abs=1e-9)


def test_equality_row():
    value, x = simplex.maximize(
        np.array([1.0, 0.0]),
        np.zeros((0, 2)),
        np.zeros(0),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    assert value == pytest.approx(1.0, abs=1e-9)
    assert x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_negative_rhs_flips_to_surplus_row():
    # x >= 0.25 written as -x <= -0.25, maximize -x: optimum at the bound
    value, x = simplex.maximize(
        np.array([-1.0, 0.0]),
        np.array([[-1.0, 0.0]]),
        np.array([-0.25]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    assert value == pytest.approx(-0.25, abs=1e-9)
    assert x[0] == pytest.approx(0.25, abs=1e-9)


def test_infeasible_raises():
    with pytest.raises(simplex.Infeasible):
        simplex.maximize(
            np.array([1.0]),
            np.array([[1.0]]),
            np.array([-1.0]),
            np.zeros((0, 1)),
            np.zeros(0),
        )


def test_contradictory_equalities_raise():
    with pytest.raises(simplex.Infeasible):
        simplex.maximize(
            np.array([1.0, 1.0]),
            np.zeros((0, 2)),
            np.zeros(0),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([1.0, 2.0]),
        )


def test_unbounded_raises():
    with pytest.raises(simplex.Unbounded):
        simplex.maximize(
            np.array([1.0, 0.0]),
            np.array([[0.0, 1.0]]),
            np.array([1.0]),
            np.zeros((0, 2)),
            np.zeros(0),
        )


@pytest.mark.parametrize("rows", ["ub", "eq"])
def test_rhs_length_must_match_the_rows(rows):
    # a single rhs is neither broadcast over two rows nor cut down to one row
    a, b = np.eye(2), np.array([1.0])
    empty = (np.zeros((0, 2)), np.zeros(0))
    lp = (a, b, *empty) if rows == "ub" else (*empty, a, b)
    with pytest.raises(ValueError):
        simplex.maximize(np.ones(2), *lp)


def test_redundant_equality_rows():
    value, _ = simplex.maximize(
        np.array([2.0, 1.0]),
        np.zeros((0, 2)),
        np.zeros(0),
        np.array([[1.0, 1.0], [2.0, 2.0]]),
        np.array([1.0, 2.0]),
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
        value, _ = simplex.maximize(
            costs, a_ub, b_ub, np.ones((1, n)), np.array([1.0])
        )
        expected, _ = box_simplex_max(costs, lows, highs)
        assert value == pytest.approx(expected, abs=1e-9)

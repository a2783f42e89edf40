import pytest

from credalbudget.bench import (
    RULES,
    consistency_aggregate,
    negativity_aggregate,
    read_csv,
    run_consistency_trials,
    run_negativity_trials,
    trial_seeds,
    write_csv,
)
from credalbudget.gen import GenConfig

SMALL = GenConfig(n_acts=8, n_states=3, n_vertices=4, target_dm=3, seed=0)


@pytest.fixture(scope="module")
def small_run():
    return run_consistency_trials(6, SMALL, range(2, 5), master_seed=17)


def test_trial_seeds_deterministic():
    assert trial_seeds(5, 4) == trial_seeds(5, 4)
    assert trial_seeds(5, 4) != trial_seeds(6, 4)


def test_records_shape(small_run):
    assert len(small_run) == 6 * 3
    ks = {r["k"] for r in small_run}
    assert ks == {2, 3, 4}
    for row in small_run:
        assert row["dm_size"] == 3
        for rule in RULES:
            assert len(row[f"{rule}_subset"].split()) == row["k"]
            assert row[f"{rule}_value"] == pytest.approx(row[f"{rule}_value"])
        assert row["exact_minimax_value"] >= row["exact_maximin_value"]


def test_structural_invariants(small_run):
    for row in small_run:
        # weak consistency holds for every rule on every instance
        assert all(row[f"{rule}_weak"] for rule in RULES)
        for rule in RULES:
            assert not row[f"{rule}_strong"] or row[f"{rule}_weak"]
            assert 0.0 <= row[f"{rule}_dm_overlap"] <= 1.0
        # both greedy selections coincide
        assert row["greedy_minimax_subset"] == row["greedy_maximin_subset"]
        # at budgets >= the maximality count the maximin optimum is negative
        if row["k"] >= row["dm_size"]:
            assert row["exact_maximin_value"] < 0.0


def test_single_trial_percentages_are_zero_or_hundred():
    rows = run_consistency_trials(1, SMALL, range(2, 4), master_seed=3)
    for row in consistency_aggregate(rows):
        for key in ("weak_pct", "strong_pct"):
            assert row[key] in (0.0, 100.0)


def test_aggregate_matches_recomputation_from_csv(tmp_path, small_run):
    path = tmp_path / "trials.csv"
    write_csv(path, small_run)
    again = consistency_aggregate(read_csv(path))
    assert again == consistency_aggregate(small_run)


def test_negativity_protocol(tmp_path):
    rows = run_negativity_trials(
        4, (2, 3), (0, 1), master_seed=23, n_acts=8, n_states=3, n_vertices=4
    )
    assert len(rows) == 4 * 2 * 2
    for row in rows:
        assert row["k"] >= row["dm_size"]
        assert row["maximin_negative"]  # structural at k >= |D_M|
        assert row["maximin_value"] <= row["minimax_value"]
        if row["values_equal"]:
            assert abs(row["minimax_value"] - row["maximin_value"]) <= 1e-9

    path = tmp_path / "neg.csv"
    write_csv(path, rows)
    assert negativity_aggregate(read_csv(path)) == negativity_aggregate(rows)
    for row in negativity_aggregate(rows):
        assert row["maximin_negative_pct"] == 100.0


def test_runs_are_deterministic_per_seed():
    a = run_consistency_trials(3, SMALL, range(2, 4), master_seed=11)
    b = run_consistency_trials(3, SMALL, range(2, 4), master_seed=11)
    assert a == b
    c = run_negativity_trials(2, (2,), (0, 1), master_seed=5, n_acts=8, n_states=3, n_vertices=4)
    d = run_negativity_trials(2, (2,), (0, 1), master_seed=5, n_acts=8, n_states=3, n_vertices=4)
    assert c == d


def test_trials_validation():
    with pytest.raises(ValueError):
        run_consistency_trials(0, SMALL, range(2, 3), master_seed=1)
    with pytest.raises(ValueError):
        run_negativity_trials(0, (2,), (0,), master_seed=1)

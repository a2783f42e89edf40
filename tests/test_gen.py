import numpy as np
import pytest

import credalbudget.gen as gen
from credalbudget.errors import GuardExceededError
from credalbudget.gen import GenConfig, generate_instance, sample_simplex
from credalbudget.regret import maximal_acts, regret_matrix


def test_sample_simplex_shape_and_validity():
    samples = sample_simplex(4, 1000, seed=1)
    assert samples.shape == (1000, 4)
    assert samples.min() >= 0.0
    assert np.max(np.abs(samples.sum(axis=1) - 1.0)) <= 1e-12


def test_sample_simplex_one_state():
    assert np.array_equal(sample_simplex(1, 50, seed=2), np.ones((50, 1)))


def test_sample_simplex_flat_dirichlet_mean():
    # direct simulation: the flat Dirichlet marginal mean is 1/n
    samples = sample_simplex(5, 100_000, seed=3)
    assert np.max(np.abs(samples.mean(axis=0) - 0.2)) < 0.01


def test_sample_simplex_deterministic():
    # an int, a numpy int and a PCG64 Generator keyed alike give one stream
    want = sample_simplex(3, 10, seed=9)
    for seed in (9, np.int64(9), np.random.Generator(np.random.PCG64(9))):
        assert np.array_equal(sample_simplex(3, 10, seed=seed), want)


@pytest.mark.parametrize("seed", [2.5, "5"])
def test_non_integer_seed_raises_type_error(seed):
    with pytest.raises(TypeError):
        sample_simplex(3, 2, seed=seed)
    with pytest.raises(TypeError):
        generate_instance(GenConfig(n_acts=3, n_states=2, n_vertices=2, seed=seed))


def test_generate_instance_deterministic():
    config = GenConfig(n_acts=6, n_states=3, n_vertices=4, target_dm=3, seed=77)
    acts_a, credal_a = generate_instance(config)
    acts_b, credal_b = generate_instance(config)
    assert [a.payoffs for a in acts_a] == [a.payoffs for a in acts_b]
    assert np.array_equal(credal_a.extreme_points(), credal_b.extreme_points())


def test_generate_instance_hits_target():
    for target in (2, 5, 6):
        config = GenConfig(n_acts=12, n_states=4, n_vertices=6, target_dm=target, seed=target)
        acts, credal = generate_instance(config)
        matrix = regret_matrix(acts, credal)
        assert len(maximal_acts(matrix)) == target


def test_generate_instance_loose_target_first_try():
    config = GenConfig(n_acts=1, n_states=2, n_vertices=2, target_dm=1, seed=5)
    acts, credal = generate_instance(config)
    assert len(acts) == 1
    assert credal.extreme_points().shape == (2, 2)


def test_generate_instance_payoff_range():
    config = GenConfig(n_acts=10, n_states=4, n_vertices=3, seed=8)
    acts, _ = generate_instance(config)
    values = np.array([a.payoffs for a in acts])
    assert values.min() >= 0 and values.max() <= 100
    assert np.array_equal(values, np.round(values))


def test_retry_guard_exhausts(monkeypatch):
    # one state: all four acts are maximal only when their payoffs tie, a
    # chance of 101**-3 per attempt, so the retry budget runs out
    monkeypatch.setattr(gen, "RETRY_GUARD", 50)
    config = GenConfig(n_acts=4, n_states=1, n_vertices=1, target_dm=4, seed=11)
    with pytest.raises(GuardExceededError):
        generate_instance(config)


def test_generated_instance_serializes_to_problem_file():
    from credalbudget.problemio import problem_from_dict

    config = GenConfig(n_acts=5, n_states=3, n_vertices=4, seed=21)
    acts, credal = generate_instance(config)
    data = {
        "states": [f"w{i + 1}" for i in range(config.n_states)],
        "acts": [{"name": a.name, "payoffs": list(a.payoffs)} for a in acts],
        "credal": {"vertices": credal.extreme_points().tolist()},
    }
    loaded = problem_from_dict(data)
    assert tuple(a.name for a in loaded.acts) == tuple(a.name for a in acts)
    direct = regret_matrix(acts, credal)
    again = loaded.regret_matrix()
    # loading renormalizes the vertices, so agreement is ulp-level, not bitwise
    assert np.allclose(direct.entries, again.entries, atol=1e-12, rtol=0)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n_acts=0, n_states=2, n_vertices=2)
    with pytest.raises(ValueError):
        GenConfig(n_acts=3, n_states=2, n_vertices=2, target_dm=4)
    with pytest.raises(ValueError):
        sample_simplex(0, 5, seed=1)

import numpy as np
import pytest

from credalbudget.credal import LinearConstraint
from credalbudget.gen import GenConfig, generate_instance
from credalbudget.instances import builtin_instances
from credalbudget.problemio import problem_from_dict
from credalbudget.regret import regret_matrix


@pytest.fixture(scope="session")
def instances():
    return builtin_instances()


@pytest.fixture(scope="session")
def problems(instances):
    return {name: problem_from_dict(inst.problem) for name, inst in instances.items()}


@pytest.fixture(scope="session")
def matrices(problems):
    return {name: problem.regret_matrix() for name, problem in problems.items()}


def random_matrix(seed: int, *, max_acts: int = 8, max_states: int = 4, max_vertices: int = 5):
    """Small random vertex-form instance, deterministic per seed."""
    rng = np.random.default_rng(seed)
    config = GenConfig(
        n_acts=int(rng.integers(2, max_acts + 1)),
        n_states=int(rng.integers(2, max_states + 1)),
        n_vertices=int(rng.integers(1, max_vertices + 1)),
        seed=int(rng.integers(2**63)),
    )
    acts, credal = generate_instance(config)
    return regret_matrix(acts, credal)


def random_subset(rng: np.random.Generator, n: int, *, proper: bool = False) -> tuple[int, ...]:
    """Nonempty subset of range(n); proper=True keeps at least one act out."""
    hi = n - 1 if proper else n
    size = int(rng.integers(1, max(hi, 1) + 1))
    return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))


def interval_rows(n: int, lo: float, hi: float) -> list[LinearConstraint]:
    """Bounds lo <= p_s <= hi on each of n states."""
    rows = []
    for s in range(n):
        unit = tuple(1.0 if t == s else 0.0 for t in range(n))
        rows += [LinearConstraint(unit, ">=", lo), LinearConstraint(unit, "<=", hi)]
    return rows


def coupled_interval_rows(n: int) -> list[LinearConstraint]:
    """interval_rows(n, 0.02, 0.15) plus p_0 + p_1 <= 0.25.

    The two-state row makes the set no box, so above the enumeration guard
    its regret matrix takes one LP per pair rather than the box closed form.
    """
    pair = tuple(1.0 if t < 2 else 0.0 for t in range(n))
    return interval_rows(n, 0.02, 0.15) + [LinearConstraint(pair, "<=", 0.25)]

"""Random experiment instances: simplex-uniform credal vertices, random acts.

Determinism contract: every draw goes through numpy's PCG64 generator keyed
by the config seed, so a config reproduces its instance bit-for-bit across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .credal import Act, CredalSet
from .errors import GuardExceededError
from .regret import RegretMatrix, maximal_acts, pairwise_regret_from_vertices

RETRY_GUARD = 10_000


@dataclass(frozen=True)
class GenConfig:
    """Shape of a random instance, whose payoffs are integers drawn uniformly
    from 0..100; target_dm rejects until the maximality set has exactly that
    many acts."""

    n_acts: int
    n_states: int
    n_vertices: int
    target_dm: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_acts < 1 or self.n_states < 1 or self.n_vertices < 1:
            raise ValueError("gen config: counts must all be >= 1")
        if self.target_dm is not None and not 1 <= self.target_dm <= self.n_acts:
            raise ValueError(
                f"gen config: target_dm must lie in [1, {self.n_acts}], got {self.target_dm}"
            )


def sample_simplex(n_states: int, count: int, seed) -> np.ndarray:
    """Uniform pmfs on the unit simplex, one per row.

    Draws q uniformly on (0, 1) per state and normalizes the logs:
    p = ln q / sum(ln q), i.e. normalized unit-rate exponentials, which is
    the flat Dirichlet. `seed` goes to np.random.default_rng: an integer
    seeds a fresh PCG64 generator and an existing Generator is used as is;
    a non-integer seed such as 2.5 or "5" raises TypeError, and None draws
    fresh entropy from the operating system, so it does not reproduce.
    """
    if n_states < 1 or count < 1:
        raise ValueError("sample_simplex: n_states and count must be >= 1")
    rng = np.random.default_rng(seed)
    q = rng.random((count, n_states))
    while True:  # random() is [0, 1); ln 0 would poison the normalization
        zero = q == 0.0
        if not zero.any():
            break
        q[zero] = rng.random(int(zero.sum()))
    logs = np.log(q)
    return logs / logs.sum(axis=1, keepdims=True)


def generate_instance(config: GenConfig) -> tuple[list[Act], CredalSet]:
    """Sample a vertex-form credal set and an act set per the config.

    With target_dm set, whole instances are rejection-sampled until the
    maximality count matches, up to RETRY_GUARD attempts. Sampled vertices
    that happen to be convex combinations of the others are kept.
    """
    rng = np.random.default_rng(config.seed)
    names = tuple(f"a{i + 1}" for i in range(config.n_acts))
    shape = (config.n_acts, config.n_states)
    for _ in range(RETRY_GUARD):
        credal = CredalSet.from_vertices(sample_simplex(config.n_states, config.n_vertices, rng))
        payoffs = rng.integers(0, 100, size=shape, endpoint=True).astype(float)  # 0..100 inclusive
        if config.target_dm is not None:
            entries = pairwise_regret_from_vertices(credal.extreme_points(), payoffs)
            dm = maximal_acts(RegretMatrix(names, entries))
            if len(dm) != config.target_dm:
                continue
        acts = [Act(names[i], tuple(payoffs[i])) for i in range(config.n_acts)]
        return acts, credal
    raise GuardExceededError(
        f"no instance with exactly {config.target_dm} maximal acts in "
        f"{RETRY_GUARD} attempts; the target is improbable for this configuration"
    )

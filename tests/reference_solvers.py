"""Frozen loop versions of the minimax core and of both regret builds.

These are the per-row sorting minimax, the (V, n, n) broadcast regret
build, the per-basis vertex enumeration and the one-LP-per-pair
constraint-form build as they stood before each was vectorised. The
differential tests compare the library against them; do not change them to
match the library.
"""

from __future__ import annotations

import itertools

import numpy as np

PMF_TOL = 1e-9
VERTEX_DEDUP_TOL = 1e-9


def _pick(candidates, rng):
    if rng is None or len(candidates) == 1:
        return min(candidates)
    return candidates[int(rng.integers(len(candidates)))]


def minimax_reference(entries: np.ndarray, k: int, rng) -> tuple[tuple[int, ...], float]:
    """(subset, value) of the minimax solver, lex (rng None) or seeded."""
    n = entries.shape[0]
    if k >= n:
        return tuple(range(n)), float("-inf")
    tops, mins, drop = [], [], []
    for i in range(n):
        vals = entries[i]
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-vals[j], j))
        threshold = float(vals[order[k - 1]])
        if rng is None:
            top = order[:k]
        else:
            definite = [j for j in order[:k] if vals[j] > threshold]
            border = [j for j in order if vals[j] == threshold]
            extra = rng.choice(len(border), size=k - len(definite), replace=False)
            top = definite + [border[t] for t in sorted(int(t) for t in extra)]
        at_min = [j for j in top if vals[j] == threshold]
        tops.append(top)
        mins.append(threshold)
        drop.append(_pick(at_min, rng))
    best = min(mins)
    i_star = _pick([i for i in range(n) if mins[i] == best], rng)
    subset = sorted(({i_star} | set(tops[i_star])) - {drop[i_star]})
    return tuple(subset), best


def greedy_reference(entries: np.ndarray, k: int, rng) -> tuple[int, ...]:
    """Subset of the greedy solver: k rounds of the single-pick minimax."""
    remaining = list(range(entries.shape[0]))
    chosen = []
    for _ in range(min(k, len(remaining))):
        sub = entries[np.ix_(remaining, remaining)]
        winner = minimax_reference(sub, 1, rng)[0][0]
        chosen.append(remaining.pop(winner))
    return tuple(sorted(chosen))


def pairwise_regret_reference(vertices: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """entries[i, j] = max over vertices of E_v(a_j) - E_v(a_i), one broadcast."""
    ev = vertices @ payoffs.T
    diff = ev[:, None, :] - ev[:, :, None]
    entries = diff.max(axis=0)
    np.fill_diagonal(entries, 0.0)
    return entries


def extreme_points_reference(a_ub: np.ndarray, b_ub: np.ndarray, n: int) -> np.ndarray:
    """Vertices of {a_ub p <= b_ub, sum p = 1, p >= 0}, one basis at a time.

    Returns an empty (0, n) array where the enumeration finds no vertex.
    """
    rows = [np.asarray(r, dtype=float) for r in a_ub]
    rhs = list(b_ub)
    for i in range(n):  # p_i >= 0 as -p_i <= 0
        unit = np.zeros(n)
        unit[i] = -1.0
        rows.append(unit)
        rhs.append(0.0)

    found: list[np.ndarray] = []
    ones = np.ones(n)
    for active in itertools.combinations(range(len(rows)), n - 1):
        system = np.vstack([ones] + [rows[r] for r in active])
        target = np.array([1.0] + [rhs[r] for r in active])
        try:
            point = np.linalg.solve(system, target)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(point)):
            continue
        if np.max(np.abs(system @ point - target)) > 1e-7:  # ill-conditioned basis
            continue
        if np.min(point) < -PMF_TOL:
            continue
        residual = a_ub @ point - b_ub if len(b_ub) else np.zeros(0)
        if residual.size and np.max(residual) > PMF_TOL:
            continue
        if any(np.max(np.abs(point - seen)) <= VERTEX_DEDUP_TOL for seen in found):
            continue
        found.append(point)
    return np.array(found).reshape(-1, n)


def regret_matrix_lp_reference(payoffs: np.ndarray, credal) -> np.ndarray:
    """entries[i, j] = upper expectation of payoff_j - payoff_i, one LP per pair."""
    n = payoffs.shape[0]
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                entries[i, j] = credal.upper_expectation(payoffs[j] - payoffs[i])
    return entries

"""Frozen loop versions of the minimax core and the vertex-form regret build.

These are the per-row sorting minimax and the (V, n, n) broadcast regret
build as they stood before both were vectorised. The differential tests
compare the library against them; do not change them to match the library.
"""

from __future__ import annotations

import numpy as np


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

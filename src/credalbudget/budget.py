"""Optimal budgeted subsets of acts under the two regret criteria.

The minimax solver is the direct polynomial selection over per-act top-k
regret columns. The maximin solver scans candidate levels alpha upward and
asks, per level, whether k acts can answer every outside challenger at
regret <= alpha; that check is a dominating-set search over cover sets,
done by a greedy pass and then a lexicographic DFS whose one pruning bound
is the sum of the largest gains the acts still to pick can add. The same
level scan, with exact covers, re-checks the window that the cover
tolerance may have merged. A brute-force oracle evaluates every subset for
cross-checking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GuardExceededError
from .regret import (
    NEG_INFINITY,
    RegretMatrix,
    maximal_acts,
    maximin_regret,
    minimax_regret,
)

COVER_TOL = 1e-12
ORACLE_MAX_SUBSETS = 10**6

LEX = "lex"
SEEDED = "seeded"


class Criterion(str, Enum):
    MINIMAX = "minimax"
    MAXIMIN = "maximin"
    GREEDY_MINIMAX = "greedy-minimax"
    GREEDY_MAXIMIN = "greedy-maximin"
    ORACLE_MINIMAX = "oracle-minimax"
    ORACLE_MAXIMIN = "oracle-maximin"


@dataclass(frozen=True)
class BudgetSolution:
    """A chosen subset of act indices plus the criterion value it achieves.

    `value` is recomputable: applying the criterion's evaluator to `subset`
    returns it exactly. `tie_count` is the exact number of optimal subsets
    for the oracle criteria and the lower-bound flag 1 otherwise.
    """

    subset: tuple[int, ...]
    value: float
    criterion: Criterion
    tie_count: int
    tie_break: str


@dataclass(frozen=True)
class CoverFamily:
    """Per-act sets of challengers answered at regret <= alpha.

    sets[i] contains j exactly when entries[i, j] <= alpha + COVER_TOL;
    an act never covers itself.
    """

    alpha: float
    sets: tuple[frozenset[int], ...]


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _policy(tie_break: str, seed: int | None) -> tuple[str, np.random.Generator | None]:
    if tie_break == LEX:
        return LEX, None
    if tie_break == SEEDED:
        actual = 0 if seed is None else int(seed)
        if actual < 0:
            raise ValueError(f"seed: must be >= 0, got {actual}")
        return f"seeded:{actual}", np.random.default_rng(np.random.PCG64(actual))
    raise ValueError(f"tie_break: expected '{LEX}' or '{SEEDED}', got {tie_break!r}")


def _pick(candidates: list[int], rng: np.random.Generator | None) -> int:
    if rng is None or len(candidates) == 1:
        return min(candidates)
    return candidates[int(rng.integers(len(candidates)))]


def solve_minimax(
    matrix: RegretMatrix, k: int, *, tie_break: str = LEX, seed: int | None = None
) -> BudgetSolution:
    """Optimal size-min(k, n) subset under the minimax regret criterion.

    For each act i take its k largest regrets, note their minimum (the k-th
    largest regret of row i) and where it sits; the act with the smallest
    such minimum anchors the answer: keep it together with its top
    challengers except the one attaining the minimum.

    Ties under the lex policy: the anchor i_star is the lowest index whose
    k-th largest regret is smallest; its top challengers are taken in order
    of decreasing regret, lower index first among equal regrets; and the
    dropped challenger is the lowest-index one among those top challengers
    whose regret equals the k-th largest. The returned value is row
    i_star's k-th largest regret itself, so a signed zero keeps that row's
    sign. The seeded policy instead draws the border challengers and both
    picks with one generator, row by row.
    """
    _validate_k(k)
    label, rng = _policy(tie_break, seed)
    return _minimax_impl(matrix.entries, k, rng, label)


def _row_top(vals: list[float], i: int, k: int, rng: np.random.Generator | None):
    """Act i's k top challengers, their smallest regret, and the one to drop."""
    order = sorted((j for j in range(len(vals)) if j != i), key=lambda j: (-vals[j], j))
    threshold = vals[order[k - 1]]
    if rng is None:
        top = order[:k]
    else:
        definite = [j for j in order[:k] if vals[j] > threshold]
        border = [j for j in order if vals[j] == threshold]
        extra = rng.choice(len(border), size=k - len(definite), replace=False)
        top = definite + [border[t] for t in sorted(int(t) for t in extra)]
    at_min = [j for j in top if vals[j] == threshold]
    return top, threshold, _pick(at_min, rng)


def _minimax_impl(
    entries: np.ndarray, k: int, rng: np.random.Generator | None, label: str
) -> BudgetSolution:
    n = entries.shape[0]
    if k >= n:
        return BudgetSolution(tuple(range(n)), NEG_INFINITY, Criterion.MINIMAX, 1, label)
    if rng is None:
        # Entries are finite, so the -inf diagonal sorts first in each row and
        # ascending place n - k holds the k-th largest regret against the others.
        regrets = entries.copy()
        np.fill_diagonal(regrets, NEG_INFINITY)
        regrets.partition(n - k, axis=1)
        i_star = int(np.argmin(regrets[:, n - k]))
        top, best, drop = _row_top(entries[i_star].tolist(), i_star, k, None)
    else:
        rows = entries.tolist()
        picks = [_row_top(rows[i], i, k, rng) for i in range(n)]
        best = min(threshold for _, threshold, _ in picks)
        i_star = _pick([i for i in range(n) if picks[i][1] == best], rng)
        top, _, drop = picks[i_star]
    subset = sorted(({i_star} | set(top)) - {drop})
    return BudgetSolution(tuple(subset), best, Criterion.MINIMAX, 1, label)


def cover_family(matrix: RegretMatrix, alpha: float, *, tol: float = COVER_TOL) -> CoverFamily:
    """Challengers each act answers at level alpha."""
    within = matrix.entries <= alpha + tol
    np.fill_diagonal(within, False)
    acts = range(matrix.n)
    sets = tuple(frozenset(itertools.compress(acts, row)) for row in within.tolist())
    return CoverFamily(float(alpha), sets)


def _cover_masks(covers: CoverFamily, n: int) -> list[int]:
    masks = []
    for i in range(n):
        mask = 1 << i
        for j in covers.sets[i]:
            mask |= 1 << j
        masks.append(mask)
    return masks


def reachability_check(covers: CoverFamily, k: int, n: int) -> tuple[int, ...] | None:
    """Find T with |T| = k whose members plus their covers reach all n acts.

    Returns None when no such T exists. A greedy pass first picks, k times,
    the act covering the most still-uncovered acts and returns at once if
    that reaches everything; otherwise the lexicographic walker decides.
    The greedy pass does not affect completeness.
    """
    if k > n:
        raise ValueError(f"k = {k} exceeds the number of acts {n}")
    if len(covers.sets) != n:
        raise ValueError("cover family size does not match n")
    if k == n:
        return tuple(range(n))

    masks = _cover_masks(covers, n)
    full = (1 << n) - 1

    covered = 0
    chosen: list[int] = []
    for _ in range(k):
        gains = [
            ((masks[i] & ~covered & full).bit_count(), -i)
            for i in range(n)
            if i not in chosen
        ]
        best_gain, neg_i = max(gains)
        if best_gain == 0:
            break
        chosen.append(-neg_i)
        covered |= masks[-neg_i]
        if covered == full:
            spare = (i for i in range(n) if i not in chosen)
            while len(chosen) < k:
                chosen.append(next(spare))
            return tuple(sorted(chosen))

    hits = _satisfying_subsets(masks, k, n, 1)
    return hits[0] if hits else None


def _satisfying_subsets(masks: list[int], k: int, n: int, limit: int) -> list[tuple[int, ...]]:
    """The first `limit` satisfying k-subsets in lexicographic order (fewer if none are left)."""
    full = (1 << n) - 1
    hits: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk(start: int, remaining: int, covered: int) -> bool:
        """Collect the hits that extend prefix; True once `limit` are in."""
        if covered == full:
            for rest in itertools.combinations(range(start, n), remaining):
                hits.append(tuple(prefix) + rest)
                if len(hits) == limit:
                    return True
            return False
        if remaining == 0:
            return False
        # The acts still to pick cover at most their `remaining` largest
        # gains, so a prefix whose top gains fall short holds no hit.
        missing = (~covered) & full
        gains = sorted(((masks[i] & missing).bit_count() for i in range(start, n)), reverse=True)
        if sum(gains[:remaining]) < missing.bit_count():
            return False
        for i in range(start, n - remaining + 1):
            prefix.append(i)
            if walk(i + 1, remaining - 1, covered | masks[i]):
                return True
            prefix.pop()
        return False

    walk(0, k, 0)
    return hits


def _first_reachable(matrix: RegretMatrix, levels, k: int, tol: float):
    """(level, covers, subset) at the first of the ascending levels that reaches every act."""
    for level in levels:
        covers = cover_family(matrix, float(level), tol=tol)
        found = reachability_check(covers, k, matrix.n)
        if found is not None:
            return float(level), covers, found
    raise RuntimeError("internal error: no maximin level reaches every act")


def solve_maximin(
    matrix: RegretMatrix, k: int, *, tie_break: str = LEX, seed: int | None = None
) -> BudgetSolution:
    """Optimal size-min(k, n) subset under the maximin regret criterion.

    Scans the distinct off-diagonal regrets upward, starting at the
    (n - k)-th lowest; the first level whose cover family admits a size-k
    reachability subset is the optimum. The scan always ends: at the largest
    regret every cover is complete.

    The seeded policy draws uniformly among the satisfying subsets at that
    level which attain the optimum; when more than ORACLE_MAX_SUBSETS
    subsets satisfy, it raises GuardExceededError instead of listing them.
    """
    _validate_k(k)
    label, rng = _policy(tie_break, seed)
    n = matrix.n
    if k >= n:
        return BudgetSolution(tuple(range(n)), NEG_INFINITY, Criterion.MAXIMIN, 1, label)

    values = np.sort(matrix.off_diagonal_values())
    alpha, covers, found = _first_reachable(matrix, np.unique(values[n - k - 1:]), k, COVER_TOL)
    value = maximin_regret(matrix, found)
    if value != alpha:
        # The cover tolerance merged levels closer than COVER_TOL, so a
        # strictly better subset may hide between alpha and this value. The
        # first level in that window with exact covers is the true optimum.
        window = np.unique(values[(values >= alpha) & (values <= value)])
        _, covers, found = _first_reachable(matrix, window, k, 0.0)
        value = maximin_regret(matrix, found)
    if rng is not None:
        options = _satisfying_subsets(_cover_masks(covers, n), k, n, ORACLE_MAX_SUBSETS + 1)
        if len(options) > ORACLE_MAX_SUBSETS:
            raise GuardExceededError(
                f"seeded maximin tie list exceeds the {ORACLE_MAX_SUBSETS} subset guard"
            )
        best = [T for T in options if maximin_regret(matrix, T) == value]
        found = best[int(rng.integers(len(best)))]
    return BudgetSolution(tuple(found), value, Criterion.MAXIMIN, 1, label)


def _base_criterion(criterion) -> Criterion:
    crit = Criterion(criterion)
    if crit in (Criterion.MINIMAX, Criterion.GREEDY_MINIMAX, Criterion.ORACLE_MINIMAX):
        return Criterion.MINIMAX
    return Criterion.MAXIMIN


def solve_greedy(
    matrix: RegretMatrix,
    k: int,
    criterion=Criterion.MINIMAX,
    *,
    tie_break: str = LEX,
    seed: int | None = None,
) -> BudgetSolution:
    """Greedy approximation: k rounds of the exact single-pick solver.

    Each round solves for the single best act among the acts not yet taken
    (challengers restricted to those same acts) and keeps the winner. The
    reported value applies the requested evaluator to the accumulated set
    against the full act set. Because the single-pick solvers of the two
    criteria coincide, the selected subset is criterion-independent.
    """
    _validate_k(k)
    label, rng = _policy(tie_break, seed)
    base = _base_criterion(criterion)
    n = matrix.n
    chosen: list[int] = []
    if rng is None:
        # One working copy for every round: a taken act is a -inf column, so
        # it never challenges again, and gets a +inf worst regret, so it is
        # never picked again. argmin takes the lowest index among equal
        # worst regrets, as the single-pick solver does. Removing a column
        # can lower a row's maximum only where that column attains it, so
        # only those rows are recomputed; == also matches a +-0 tie, and the
        # sign of a zero maximum never changes which act argmin picks.
        regrets = matrix.entries.copy()
        np.fill_diagonal(regrets, NEG_INFINITY)
        worst = regrets.max(axis=1)
        for _ in range(min(k, n)):
            winner = int(worst.argmin())
            chosen.append(winner)
            column = regrets[:, winner]  # a view: fill writes the working copy
            stale = (column == worst).nonzero()[0]
            column.fill(NEG_INFINITY)
            worst[stale] = regrets.take(stale, axis=0).max(axis=1)
            worst[winner] = np.inf
    else:
        remaining = list(range(n))
        for _ in range(min(k, n)):
            sub = matrix.entries[np.ix_(remaining, remaining)]
            chosen.append(remaining.pop(_minimax_impl(sub, 1, rng, label).subset[0]))
    evaluator = minimax_regret if base is Criterion.MINIMAX else maximin_regret
    out_crit = (
        Criterion.GREEDY_MINIMAX if base is Criterion.MINIMAX else Criterion.GREEDY_MAXIMIN
    )
    return BudgetSolution(
        tuple(sorted(chosen)), evaluator(matrix, chosen), out_crit, 1, label
    )


def budgeted_rule(
    matrix: RegretMatrix,
    k: int,
    criterion=Criterion.MINIMAX,
    *,
    tie_break: str = LEX,
    seed: int | None = None,
) -> tuple[int, ...]:
    """The k-budgeted decision rule for one of the exact criteria.

    Returns the maximality set outright when the whole act set fits the
    budget or when the optimal value is negative (the optimal subset then
    already contains every maximal act); otherwise the optimal subset.
    """
    _validate_k(k)
    base = _base_criterion(criterion)
    if matrix.n <= k:
        return maximal_acts(matrix)
    solver = solve_minimax if base is Criterion.MINIMAX else solve_maximin
    solution = solver(matrix, k, tie_break=tie_break, seed=seed)
    if solution.value < 0:
        return maximal_acts(matrix)
    return solution.subset


def _oracle_scan(matrix: RegretMatrix, k: int, criterion):
    base = _base_criterion(criterion)
    n = matrix.n
    size = min(k, n)
    total = math.comb(n, size)
    if total > ORACLE_MAX_SUBSETS:
        raise GuardExceededError(
            f"oracle enumeration of {total} subsets exceeds the {ORACLE_MAX_SUBSETS} guard"
        )
    evaluator = minimax_regret if base is Criterion.MINIMAX else maximin_regret
    best: float | None = None
    optima: list[tuple[int, ...]] = []
    for combo in itertools.combinations(range(n), size):
        value = evaluator(matrix, combo)
        if best is None or value < best:
            best = value
            optima = [combo]
        elif value == best:
            optima.append(combo)
    return best, optima


def oracle_solve(matrix: RegretMatrix, k: int, criterion=Criterion.MINIMAX) -> BudgetSolution:
    """Exhaustive reference solver: exact optimum, lex-first subset, tie count."""
    _validate_k(k)
    base = _base_criterion(criterion)
    value, optima = _oracle_scan(matrix, k, base)
    out_crit = (
        Criterion.ORACLE_MINIMAX if base is Criterion.MINIMAX else Criterion.ORACLE_MAXIMIN
    )
    return BudgetSolution(optima[0], value, out_crit, len(optima), LEX)


def oracle_optima(matrix: RegretMatrix, k: int, criterion=Criterion.MINIMAX) -> list[tuple[int, ...]]:
    """All optimal subsets of size min(k, n) for the criterion."""
    _validate_k(k)
    _, optima = _oracle_scan(matrix, k, criterion)
    return optima


def domination_graph_dot(matrix: RegretMatrix, alpha: float) -> str:
    """DOT digraph with an edge i -> j when act i answers challenger j at alpha."""
    covers = cover_family(matrix, alpha)
    # quoted DOT IDs; escaping \ and " keeps a name from ending its string early
    ids = ['"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"' for name in matrix.names]
    lines = ["digraph domination {", f'  label="alpha = {alpha:g}";']
    for node in ids:
        lines.append(f"  {node};")
    for i in range(matrix.n):
        for j in sorted(covers.sets[i]):
            lines.append(f"  {ids[i]} -> {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"

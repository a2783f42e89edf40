"""Optimal budgeted subsets of acts under the two regret criteria.

The minimax solver is the direct polynomial selection over per-act top-k
regret columns. The maximin solver scans candidate levels alpha upward and
asks, per level, whether k acts can answer every outside challenger at
regret <= alpha; that check is a dominating-set search over cover sets,
done by a greedy pass and then a lexicographic DFS with two pruning bounds:
the acts still to pick must be able to reach every act not yet covered,
and the sum of their largest gains must reach the number of such acts.
Covers are int bitmasks, one per act. The DFS returns the satisfying
subset at a given lexicographic rank: rank 0 for the lex policy, and for
the seeded policy first a count of the optima, then the drawn one. It
counts its nodes and raises GuardExceededError past MAXIMIN_MAX_NODES.
The scan builds exact covers (entry <= level), so the first feasible level
is the optimum itself. A brute-force oracle evaluates every subset for
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
    REGRET_BLOCK_FLOATS,
    RegretMatrix,
    maximal_acts,
    maximin_regret,
    minimax_regret,
)

COVER_TOL = 1e-12
ORACLE_MAX_SUBSETS = 10**6
MAXIMIN_MAX_NODES = 10**7

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
    """Per-act bitmasks of the acts answered at regret <= alpha.

    Bit j of masks[i] is set exactly when entries[i, j] <= alpha + tol, for
    the `tol` given to cover_family (COVER_TOL by default), or when j == i:
    an act always answers for itself. solve_maximin passes tol=0.0, so its
    covers are exact.
    """

    alpha: float
    masks: tuple[int, ...]


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _policy(tie_break: str, seed: int | None) -> tuple[str, np.random.Generator | None]:
    actual = 0 if seed is None else int(seed)
    if actual < 0:
        raise ValueError(f"seed: must be >= 0, got {actual}")
    if tie_break == LEX:
        return LEX, None
    if tie_break == SEEDED:
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
    whose regret equals the k-th largest. The seeded policy draws these
    three choices uniformly, in that order, and only where there is more
    than one candidate (see _row_top for the top challengers). The returned
    value is row i_star's k-th largest regret itself, so a signed zero keeps
    that row's sign.
    """
    _validate_k(k)
    label, rng = _policy(tie_break, seed)
    entries = matrix.entries
    n = matrix.n
    if k >= n:
        return BudgetSolution(tuple(range(n)), NEG_INFINITY, Criterion.MINIMAX, 1, label)
    # Entries are finite, so the -inf diagonal sorts first in each row and
    # ascending place n - k holds the k-th largest regret against the others.
    regrets = entries.copy()
    np.fill_diagonal(regrets, NEG_INFINITY)
    regrets.partition(n - k, axis=1)
    kth = regrets[:, n - k]
    if rng is None:
        i_star = int(np.argmin(kth))
    else:
        i_star = _pick((kth == kth.min()).nonzero()[0].tolist(), rng)
    top, best, drop = _row_top(entries[i_star].tolist(), i_star, k, rng)
    subset = sorted(({i_star} | set(top)) - {drop})
    return BudgetSolution(tuple(subset), best, Criterion.MINIMAX, 1, label)


def _row_top(vals: list[float], i: int, k: int, rng: np.random.Generator | None):
    """Act i's k top challengers, their smallest regret, and the one to drop.

    The border is every challenger whose regret equals that smallest one.
    Seeded draws the border's places in the top k only when the border
    holds more acts than places; otherwise both policies take order[:k].
    """
    order = sorted((j for j in range(len(vals)) if j != i), key=lambda j: (-vals[j], j))
    threshold = vals[order[k - 1]]
    top = order[:k]
    at_min = [j for j in top if vals[j] == threshold]
    if rng is not None:
        border = [j for j in order if vals[j] == threshold]
        if len(border) > len(at_min):
            drawn = rng.choice(len(border), size=len(at_min), replace=False)
            at_min = [border[t] for t in sorted(int(t) for t in drawn)]
            top = top[: k - len(at_min)] + at_min
    return top, threshold, _pick(at_min, rng)


def cover_family(matrix: RegretMatrix, alpha: float, *, tol: float = COVER_TOL) -> CoverFamily:
    """Acts each act answers at level alpha, itself included."""
    within = matrix.entries <= alpha + tol
    np.fill_diagonal(within, True)
    rows = np.packbits(within, axis=1, bitorder="little")
    masks = tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
    return CoverFamily(float(alpha), masks)


def reachability_check(
    covers: CoverFamily, k: int, n: int, *, nodes_left: list[int] | None = None
) -> tuple[int, ...] | None:
    """Find T with |T| = k whose members plus their covers reach all n acts.

    Returns None when no such T exists. A greedy pass first picks, k times,
    the act covering the most still-uncovered acts and returns at once if
    that reaches everything; otherwise the lexicographic walker decides.
    The greedy pass does not affect completeness. `nodes_left` is a
    one-element node budget shared across calls (a fresh budget of
    MAXIMIN_MAX_NODES when omitted); the walker raises GuardExceededError
    once it is spent.
    """
    if k > n:
        raise ValueError(f"k = {k} exceeds the number of acts {n}")
    masks = covers.masks
    if len(masks) != n:
        raise ValueError("cover family size does not match n")
    if k == n:
        return tuple(range(n))

    full = (1 << n) - 1
    covered = 0
    chosen: list[int] = []
    for _ in range(k):
        # A chosen act gains nothing more, and a zero best gain ends the pass,
        # so no act is chosen twice.
        best_gain, neg_i = max(((m & ~covered).bit_count(), -i) for i, m in enumerate(masks))
        if best_gain == 0:
            break
        chosen.append(-neg_i)
        covered |= masks[-neg_i]
        if covered == full:
            spare = (i for i in range(n) if i not in chosen)
            while len(chosen) < k:
                chosen.append(next(spare))
            return tuple(sorted(chosen))

    if nodes_left is None:
        nodes_left = [MAXIMIN_MAX_NODES]
    return _satisfying_subsets(masks, k, n, 0, nodes_left)[0]


def _satisfying_subsets(
    masks: tuple[int, ...], k: int, n: int, rank: int, nodes_left: list[int]
) -> tuple[tuple[int, ...] | None, int]:
    """(hit, passed): the satisfying k-subset at 0-based lex position `rank`
    and the hits before it, or (None, count) when there are only count hits.

    Each visited node spends one unit of nodes_left[0]; the walk raises
    GuardExceededError when the budget is spent.
    """
    full = (1 << n) - 1
    # reach[i] is every act that masks[i:] can cover; it only shrinks as i grows.
    reach = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] | masks[i]
    prefix: list[int] = []
    left = nodes_left[0]
    passed = 0

    def walk(start: int, remaining: int, covered: int) -> tuple[int, ...] | None:
        """The hit at `rank` if it extends prefix; else count this prefix's hits."""
        nonlocal left, passed
        left -= 1
        if left < 0:
            raise GuardExceededError(
                f"maximin cover search exceeds the {MAXIMIN_MAX_NODES} node guard"
            )
        if covered == full:
            # Every way to fill the remaining picks is a hit.
            tail = math.comb(n - start, remaining)
            if rank - passed >= tail:
                passed += tail
                return None
            combos = itertools.combinations(range(start, n), remaining)
            rest = next(itertools.islice(combos, rank - passed, None))
            passed = rank
            return (*prefix, *rest)
        missing = (~covered) & full
        # Acts that no act still to pick covers leave this prefix without a hit.
        if remaining == 0 or missing & ~reach[start]:
            return None
        if remaining == 1:
            for i in range(start, n):
                if not missing & ~masks[i]:
                    if passed == rank:
                        return (*prefix, i)
                    passed += 1
            return None
        # The acts still to pick cover at most their `remaining` largest
        # gains, so a prefix whose top gains fall short holds no hit.
        gains = [(m & missing).bit_count() for m in masks[start:]]
        gains.sort(reverse=True)
        if sum(gains[:remaining]) < missing.bit_count():
            return None
        for i in range(start, n - remaining + 1):
            if missing & ~reach[i]:
                break
            prefix.append(i)
            hit = walk(i + 1, remaining - 1, covered | masks[i])
            if hit is not None:
                return hit
            prefix.pop()
        return None

    hit = walk(0, k, 0)
    nodes_left[0] = left
    return hit, passed


def solve_maximin(
    matrix: RegretMatrix, k: int, *, tie_break: str = LEX, seed: int | None = None
) -> BudgetSolution:
    """Optimal size-min(k, n) subset under the maximin regret criterion.

    Scans the distinct off-diagonal regrets upward, starting at the
    (n - k)-th lowest; the first level whose cover family admits a size-k
    reachability subset is the optimum. The scan always ends: at the largest
    regret every cover is complete.

    The seeded policy draws uniformly among the optimal subsets: those that
    satisfy the exact covers at the optimal value, in lexicographic order.
    One walk counts them, keeping O(n) extra memory, and a second walks to
    the drawn rank. When there are more than ORACLE_MAX_SUBSETS of them, it
    raises GuardExceededError instead of drawing.

    Every cover search of one call, both seeded walks included, shares one
    budget of MAXIMIN_MAX_NODES walker nodes; past it GuardExceededError is
    raised instead of searching on.
    """
    _validate_k(k)
    label, rng = _policy(tie_break, seed)
    n = matrix.n
    if k >= n:
        return BudgetSolution(tuple(range(n)), NEG_INFINITY, Criterion.MAXIMIN, 1, label)

    nodes_left = [MAXIMIN_MAX_NODES]
    values = np.sort(matrix.off_diagonal_values())
    for level in np.unique(values[n - k - 1:]):
        covers = cover_family(matrix, float(level), tol=0.0)
        found = reachability_check(covers, k, n, nodes_left=nodes_left)
        if found is not None:
            break
    else:
        raise RuntimeError("internal error: no maximin level reaches every act")
    # Every lower level failed and maximin_regret(found) is itself a level no
    # higher than this one, so the two are equal; the evaluator keeps the
    # sign of a zero.
    value = maximin_regret(matrix, found)
    if rng is not None:
        # T satisfies the exact covers at the optimum exactly when
        # maximin_regret(T) <= value, that is, when T is optimal.
        masks = covers.masks  # built at a level equal to value: its exact covers
        over, count = _satisfying_subsets(masks, k, n, ORACLE_MAX_SUBSETS, nodes_left)
        if over is not None:
            raise GuardExceededError(
                f"seeded maximin tie list exceeds the {ORACLE_MAX_SUBSETS} subset guard"
            )
        found, _ = _satisfying_subsets(masks, k, n, int(rng.integers(count)), nodes_left)
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

    Each round takes the act not yet taken whose worst regret against the
    other acts not yet taken is smallest: lex takes the lowest index among
    ties, seeded draws one uniformly when several tie. The reported value
    applies the requested evaluator to the accumulated set against the full
    act set. Because the single-pick solvers of the two criteria coincide,
    the selected subset is criterion-independent.
    """
    _validate_k(k)
    label, rng = _policy(tie_break, seed)
    base = _base_criterion(criterion)
    n = matrix.n
    chosen: list[int] = []
    # One working copy for every round: a taken act is a -inf column, so it
    # never challenges again, and gets a +inf worst regret, so it is never
    # picked again. Removing a column can lower a row's maximum only where
    # that column attains it, so only those rows are recomputed; == also
    # matches a +-0 tie, and the sign of a zero maximum never changes which
    # acts tie at the smallest worst regret.
    regrets = matrix.entries.copy()
    np.fill_diagonal(regrets, NEG_INFINITY)
    worst = regrets.max(axis=1)
    for _ in range(min(k, n)):
        if rng is None:
            winner = int(worst.argmin())
        else:
            winner = _pick((worst == worst.min()).nonzero()[0].tolist(), rng)
        chosen.append(winner)
        column = regrets[:, winner]  # a view: fill writes the working copy
        stale = (column == worst).nonzero()[0]
        column.fill(NEG_INFINITY)
        worst[stale] = regrets.take(stale, axis=0).max(axis=1)
        worst[winner] = np.inf
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
    Any criterion other than minimax or maximin raises ValueError.
    """
    _validate_k(k)
    _policy(tie_break, seed)  # reject a bad policy even when the budget fits every act
    crit = Criterion(criterion)
    if crit not in (Criterion.MINIMAX, Criterion.MAXIMIN):
        raise ValueError(f"criterion: expected 'minimax' or 'maximin', got {crit.value!r}")
    if matrix.n <= k:
        return maximal_acts(matrix)
    solver = solve_minimax if crit is Criterion.MINIMAX else solve_maximin
    solution = solver(matrix, k, tie_break=tie_break, seed=seed)
    if solution.value < 0:
        return maximal_acts(matrix)
    return solution.subset


def _oracle_scan(matrix: RegretMatrix, k: int, criterion, collect: bool):
    """(value, first, count, optima): the optimal value, the lex-first optimal
    subset, the number of optimal subsets, and, only when `collect` is set,
    every optimal subset in lex order (else an empty list).

    Walks itertools.combinations in chunks of c subsets, with c * size * n
    at most REGRET_BLOCK_FLOATS floats, and scores a chunk in one pass:
    block[j, m, t] holds entries[i, j] for the m-th member i of subset t,
    and a -inf penalty hides the columns of members. Minimax is then a max
    over the outsiders j and a min over the members; maximin a min over the
    members and a max over the outsiders. Each chunk adds its ties at the
    running minimum to a count, so memory stays one chunk unless the optima
    are collected. The value is the evaluator applied to the lex-first
    optimum, so a signed zero keeps that subset's sign.
    """
    base = _base_criterion(criterion)
    n = matrix.n
    size = min(k, n)
    total = math.comb(n, size)
    if total > ORACLE_MAX_SUBSETS:
        raise GuardExceededError(
            f"oracle enumeration of {total} subsets exceeds the {ORACLE_MAX_SUBSETS} guard"
        )
    evaluator = minimax_regret if base is Criterion.MINIMAX else maximin_regret
    by_column = np.ascontiguousarray(matrix.entries.T)
    chunk = max(1, REGRET_BLOCK_FLOATS // (size * n))
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), size))
    best, first, count = np.inf, (), 0
    optima: list[tuple[int, ...]] = []
    for start in range(0, total, chunk):
        c = min(chunk, total - start)
        members = np.fromiter(combos, np.intp, count=c * size).reshape(c, size)
        penalty = np.zeros((n, c))
        np.put_along_axis(penalty, members.T, NEG_INFINITY, axis=0)
        block = by_column.take(members.T, axis=1)
        if base is Criterion.MINIMAX:
            block += penalty[:, None, :]
            scores = block.max(axis=0).min(axis=0)
        else:
            answers = block.min(axis=1)
            answers += penalty
            scores = answers.max(axis=0)
        low = scores.min()
        tied = scores == low
        if low < best:
            best, first, count, optima = low, tuple(members[tied.argmax()].tolist()), 0, []
        if low == best:
            count += int(np.count_nonzero(tied))
            if collect:
                optima += map(tuple, members[tied].tolist())
    return evaluator(matrix, first), first, count, optima


def oracle_solve(matrix: RegretMatrix, k: int, criterion=Criterion.MINIMAX) -> BudgetSolution:
    """Exhaustive reference solver: exact optimum, lex-first subset, tie count."""
    _validate_k(k)
    base = _base_criterion(criterion)
    value, first, count, _ = _oracle_scan(matrix, k, base, collect=False)
    out_crit = (
        Criterion.ORACLE_MINIMAX if base is Criterion.MINIMAX else Criterion.ORACLE_MAXIMIN
    )
    return BudgetSolution(first, value, out_crit, count, LEX)


def oracle_optima(matrix: RegretMatrix, k: int, criterion=Criterion.MINIMAX) -> list[tuple[int, ...]]:
    """All optimal subsets of size min(k, n) for the criterion."""
    _validate_k(k)
    return _oracle_scan(matrix, k, criterion, collect=True)[3]


def domination_graph_dot(matrix: RegretMatrix, alpha: float) -> str:
    """DOT digraph with an edge i -> j when act i answers challenger j at alpha."""
    covers = cover_family(matrix, alpha)
    # quoted DOT IDs; escaping \ and " keeps a name from ending its string early
    ids = ['"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"' for name in matrix.names]
    lines = ["digraph domination {", f'  label="alpha = {alpha:g}";']
    for node in ids:
        lines.append(f"  {node};")
    for i, mask in enumerate(covers.masks):
        for j in range(matrix.n):
            if j != i and mask >> j & 1:
                lines.append(f"  {ids[i]} -> {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"

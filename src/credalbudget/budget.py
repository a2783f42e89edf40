"""Optimal budgeted subsets of acts under the two regret criteria.

solve_minimax is the direct polynomial selection over per-act top-k regret
columns. solve_maximin bisects the candidate regret levels, proving each
probe feasible with the greedy pass (_greedy_cover) or the counting cover
search (_cover_count) over int-bitmask covers (cover_family); its docstring
gives the algorithm. solve_greedy takes k rounds of the single-pick solver,
budgeted_rule turns an exact optimum into the decision rule, and the
brute-force oracle (oracle_solve, oracle_optima) evaluates every subset for
cross-checking. Every maximin search counts its nodes against one budget and
raises GuardExceededError past MAXIMIN_MAX_NODES.
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

COVER_TOL = 1e-12  # domination_graph_dot's slack above alpha
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

    `value` is the optimum an exact solver proved, or the evaluator's value
    for greedy; either way applying the criterion's evaluator to `subset`
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
    """Per-act bitmasks of the acts answered at regret <= alpha, and of the
    acts that answer them, for the level alpha given to cover_family.

    Bit j of masks[i] is set exactly when entries[i, j] <= alpha, or when
    j == i: an act always answers for itself. coverers is the transpose:
    bit i of coverers[j] is set exactly when bit j of masks[i] is.
    """

    masks: tuple[int, ...]
    coverers: tuple[int, ...]


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k: must be >= 1, got {k}")


def _policy(tie_break: str, seed: int | None) -> tuple[str, np.random.Generator | None]:
    actual = 0 if seed is None else int(seed)
    if actual < 0:
        raise ValueError(f"seed: must be >= 0, got {actual}")
    if tie_break == LEX:
        return LEX, None
    if tie_break == SEEDED:
        return f"seeded:{actual}", np.random.default_rng(actual)
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
    value is row i_star's k-th largest regret.
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


def cover_family(matrix: RegretMatrix, alpha: float) -> CoverFamily:
    """Acts each act answers at regret <= alpha, itself included, and their coverers."""
    n = matrix.n
    within = matrix.entries <= alpha
    np.fill_diagonal(within, True)
    packed = np.packbits(np.concatenate((within, within.T)), axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    both = [int.from_bytes(data[r:r + width], "little") for r in range(0, len(data), width)]
    return CoverFamily(tuple(both[:n]), tuple(both[n:]))


def reachability_check(
    covers: CoverFamily, k: int, *, nodes_left: list[int] | None = None
) -> tuple[int, ...] | None:
    """Find T with |T| = k whose members plus their covers reach all n = len(covers.masks) acts.

    Returns None when no such T exists. The subset of the greedy pass
    (_greedy_cover) is returned when that pass reaches every act; otherwise
    the lexicographically first such T is built pick by pick with the
    counting cover search. The greedy pass only ever proves a level feasible,
    so it does not affect completeness. `nodes_left` is a one-element node
    budget shared across calls (a fresh budget of MAXIMIN_MAX_NODES when
    omitted); the search raises GuardExceededError once it is spent.
    """
    _validate_k(k)
    n = len(covers.masks)
    if k > n:
        raise ValueError(f"k = {k} exceeds the number of acts {n}")
    found = _greedy_cover(covers, k)
    if found is not None:
        return found
    if nodes_left is None:
        nodes_left = [MAXIMIN_MAX_NODES]
    return _subset_at_rank(covers, k, 0, nodes_left)


def _greedy_cover(covers: CoverFamily, k: int) -> tuple[int, ...] | None:
    """The greedy pass: k times, the act covering the most still-uncovered
    acts, lower index first. Returns the chosen acts, padded with the lowest
    unchosen ones up to k, when they reach every act, and None otherwise.
    A returned subset is itself a satisfying one, so it proves the level of
    `covers` feasible (the greedy set cover of Chvatal, Math. Oper. Res.
    4(3), 1979); None proves nothing. No search node is spent.
    """
    masks = covers.masks
    n = len(masks)
    full = (1 << n) - 1
    covered = 0
    chosen: list[int] = []
    for _ in range(k):
        # A chosen act gains nothing more, and a zero best gain ends the pass,
        # so no act is chosen twice. index() finds the lowest act at the best gain.
        missing = full & ~covered
        gains = [(m & missing).bit_count() for m in masks]
        best = max(gains)
        if best == 0:
            break
        i = gains.index(best)
        chosen.append(i)
        covered |= masks[i]
        if covered == full:
            spare = (i for i in range(n) if i not in chosen)
            while len(chosen) < k:
                chosen.append(next(spare))
            return tuple(sorted(chosen))
    return None


def _cover_count(
    covers: CoverFamily,
    picks: int,
    cap: int,
    nodes_left: list[int],
    covered: int = 0,
    start: int = 0,
) -> int:
    """min(cap, the number of `picks`-subsets of the acts from index `start`
    up whose covers reach every act not in `covered`).

    Branches on the uncovered act with the fewest coverers still allowed
    (the most-constrained-first rule of Knuth's Dancing Links), trying them
    by decreasing gain, lower index first. Each coverer tried is barred from
    the rest of its node, so the branches partition the subsets and count
    each one once. A node whose acts are all covered counts every way to
    fill its picks, and one with a single pick left counts the acts that
    cover all that is missing. A node counts none when it finds more than
    `picks` uncovered acts with pairwise disjoint allowed coverers, keeping
    them greedily by fewest coverers, or when its largest `picks` gains
    cannot cover all that is missing. Each node spends one unit of
    nodes_left[0]; the search raises GuardExceededError once the budget is
    spent.
    """
    n = len(covers.masks)
    allowed = ((1 << n) - 1) >> start << start
    return _count_node(covers, nodes_left, covered, picks, cap, allowed, list(range(start, n)))


def _count_node(
    covers: CoverFamily,
    nodes_left: list[int],
    covered: int,
    picks: int,
    cap: int,
    allowed: int,
    pool: list[int],
) -> int:
    """One node of _cover_count; pool lists the allowed acts plus picked
    ones, which gain nothing."""
    nodes_left[0] -= 1
    if nodes_left[0] < 0:
        raise GuardExceededError(
            f"maximin cover search exceeds the {MAXIMIN_MAX_NODES} node guard"
        )
    masks, coverers = covers.masks, covers.coverers
    n = len(masks)
    missing = ((1 << n) - 1) & ~covered
    if not missing:
        return min(cap, math.comb(allowed.bit_count(), picks))
    if picks == 1:
        return min(cap, _completers(coverers, missing, allowed).bit_count())
    needs = sorted(
        [coverers[j] & allowed for j in range(n) if missing >> j & 1], key=int.bit_count
    )
    # Acts whose allowed coverers are pairwise disjoint need a pick each.
    packed, apart = 0, 0
    for need in needs:
        if not need & packed:
            packed |= need
            apart += 1
            if apart > picks:
                return 0
    gains = [(masks[i] & missing).bit_count() for i in pool]
    if sum(sorted(gains, reverse=True)[:picks]) < missing.bit_count():
        return 0
    options = needs[0]
    total = 0
    for _, i in sorted([(-g, i) for g, i in zip(gains, pool) if options >> i & 1]):
        allowed &= ~(1 << i)
        total += _count_node(
            covers, nodes_left, covered | masks[i], picks - 1, cap - total, allowed, pool
        )
        if total >= cap:
            return cap
        pool = [p for p in pool if p != i]
    return total


def _completers(coverers: tuple[int, ...], missing: int, allowed: int) -> int:
    """The acts in `allowed` that each cover every act in `missing`."""
    for j in range(len(coverers)):
        if missing >> j & 1:
            allowed &= coverers[j]
    return allowed


def _subset_at_rank(
    covers: CoverFamily, k: int, rank: int, nodes_left: list[int]
) -> tuple[int, ...] | None:
    """The satisfying k-subset at 0-based lexicographic position `rank`, or
    None when fewer than rank + 1 subsets satisfy.

    Each pick takes the lowest act i above the last pick whose completions
    by acts above i, counted up to rank + 1, exceed `rank`; the counts of
    the acts passed over are subtracted from `rank` on the way. The last
    pick needs no count: it is the act at position `rank` among the acts
    above the previous pick that cover everything still missing.
    """
    n = len(covers.masks)
    chosen: list[int] = []
    covered = 0
    start = 0
    for picks in range(k, 1, -1):
        for i in range(start, n - picks + 1):
            reached = covered | covers.masks[i]
            tail = _cover_count(covers, picks - 1, rank + 1, nodes_left, reached, i + 1)
            if tail > rank:
                break
            rank -= tail
        else:
            return None
        chosen.append(i)
        covered = reached
        start = i + 1
    full = (1 << n) - 1
    last = _completers(covers.coverers, full & ~covered, full >> start << start)
    if last.bit_count() <= rank:
        return None
    for _ in range(rank):
        last &= last - 1
    return (*chosen, (last & -last).bit_length() - 1)


def solve_maximin(
    matrix: RegretMatrix, k: int, *, tie_break: str = LEX, seed: int | None = None
) -> BudgetSolution:
    """Optimal size-min(k, n) subset under the maximin regret criterion.

    Bisects the distinct off-diagonal regrets between two bounds: the lowest
    level whose exact cover family admits a size-k reachability subset is
    the optimum, and feasibility only grows with the level. The floor is the
    (n - k)-th smallest off-diagonal column minimum, since each act outside
    a subset is answered at no less than its column minimum; being an entry,
    it is itself a level. When the greedy pass (_greedy_cover) reaches every
    act at the floor, the floor is the optimum and nothing else is searched
    or sorted. Otherwise the distinct levels are sorted and the ceiling is
    computed: the maximin regret of the lex minimax subset, which reaches
    every act at that level, so the ceiling needs no probe; it is at most
    the minimax optimum. Each probed level is feasible when the greedy pass
    reaches every act there, and otherwise asks the counting cover search
    for one subset; a probe at the floor reuses the floor's covers. A greedy
    success is itself a satisfying subset, so it changes which work is done,
    never the answer. The value is that lowest feasible level. Under the lex
    policy, reachability_check finds the subset there: the one its greedy
    pass returns, or else the lexicographically first satisfying subset.

    The seeded policy draws uniformly among the optimal subsets: those that
    satisfy the exact covers at the optimal value, in lexicographic order.
    The counting search counts them, keeping O(n) extra memory, and the
    drawn rank is then built pick by pick. When there are more than
    ORACLE_MAX_SUBSETS of them, it raises GuardExceededError instead of
    drawing.

    Every cover search of one call, the probes, the lex search or the
    seeded count and draw included, shares one budget of MAXIMIN_MAX_NODES
    nodes; past it GuardExceededError is raised instead of searching on.
    """
    _validate_k(k)
    label, rng = _policy(tie_break, seed)
    n = matrix.n
    if k >= n:
        return BudgetSolution(tuple(range(n)), NEG_INFINITY, Criterion.MAXIMIN, 1, label)

    nodes_left = [MAXIMIN_MAX_NODES]
    # Each of the n - k acts outside T is answered at no less than its column
    # minimum. That minimum is itself an off-diagonal entry, so it is a level.
    answers = matrix.entries.copy()
    np.fill_diagonal(answers, np.inf)
    column_mins = answers.min(axis=0)
    value = float(np.partition(column_mins, n - k - 1)[n - k - 1])
    covers = cover_family(matrix, value)
    if _greedy_cover(covers, k) is None:
        levels = np.unique(matrix.off_diagonal_values())
        # The minimax subset reaches every act at its own maximin regret.
        witness = maximin_regret(matrix, solve_minimax(matrix, k).subset)
        lo, hi = np.searchsorted(levels, [value, witness]).tolist()
        families = {lo: covers}  # covers by level index, the floor's first
        while lo < hi:
            mid = (lo + hi) // 2
            if mid not in families:
                families[mid] = cover_family(matrix, float(levels[mid]))
            probe = families[mid]
            if _greedy_cover(probe, k) or _cover_count(probe, k, 1, nodes_left):
                hi = mid
            else:
                lo = mid + 1
        value = float(levels[lo])
        # lo == hi: a level a probe found feasible, the floor, or the unprobed ceiling
        covers = families[lo] if lo in families else cover_family(matrix, value)
    if rng is None:
        found = reachability_check(covers, k, nodes_left=nodes_left)
    else:
        # T satisfies the exact covers at the optimum exactly when
        # maximin_regret(T) <= value, that is, when T is optimal.
        count = _cover_count(covers, k, ORACLE_MAX_SUBSETS + 1, nodes_left)
        if count > ORACLE_MAX_SUBSETS:
            raise GuardExceededError(
                f"seeded maximin tie list exceeds the {ORACLE_MAX_SUBSETS} subset guard"
            )
        found = _subset_at_rank(covers, k, int(rng.integers(count)), nodes_left)
    return BudgetSolution(tuple(found), value, Criterion.MAXIMIN, 1, label)


def _family(criterion, family: str) -> tuple[Criterion, Criterion]:
    """(base, label) for minimax, maximin or one of the family's own two
    labels; any other criterion raises ValueError."""
    crit = Criterion(criterion)
    for base in (Criterion.MINIMAX, Criterion.MAXIMIN):
        label = Criterion(f"{family}-{base.value}")
        if crit in (base, label):
            return base, label
    raise ValueError(
        f"criterion: expected 'minimax', 'maximin', '{family}-minimax' or "
        f"'{family}-maximin', got {crit.value!r}"
    )


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
    base, out_crit = _family(criterion, "greedy")
    n = matrix.n
    chosen: list[int] = []
    # One working copy for every round: a taken act is a -inf column, so it
    # never challenges again, and gets a +inf worst regret, so it is never
    # picked again. Removing a column can lower a row's maximum only where
    # that column attains it, so only those rows are recomputed.
    regrets = matrix.entries.copy()
    np.fill_diagonal(regrets, NEG_INFINITY)
    worst = regrets.max(axis=1)
    for _ in range(min(k, n)):
        winner = _pick((worst == worst.min()).nonzero()[0].tolist(), rng)
        chosen.append(winner)
        column = regrets[:, winner]  # a view: fill writes the working copy
        stale = (column == worst).nonzero()[0]
        column.fill(NEG_INFINITY)
        worst[stale] = regrets.take(stale, axis=0).max(axis=1)
        worst[winner] = np.inf
    evaluator = minimax_regret if base is Criterion.MINIMAX else maximin_regret
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

    Returns the maximality set outright when the optimal value is negative
    (the optimal subset then already contains every maximal act), which
    includes k >= n, where the solvers return every act at value -inf;
    otherwise the optimal subset. Any criterion other than minimax or
    maximin raises ValueError.
    """
    _validate_k(k)
    _policy(tie_break, seed)  # a bad policy is refused before a bad criterion
    crit = Criterion(criterion)
    if crit not in (Criterion.MINIMAX, Criterion.MAXIMIN):
        raise ValueError(f"criterion: expected 'minimax' or 'maximin', got {crit.value!r}")
    solver = solve_minimax if crit is Criterion.MINIMAX else solve_maximin
    solution = solver(matrix, k, tie_break=tie_break, seed=seed)
    if solution.value < 0:
        return maximal_acts(matrix)
    return solution.subset


def _oracle_scan(matrix: RegretMatrix, k: int, base: Criterion, collect: bool):
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
    are collected.
    """
    n = matrix.n
    size = min(k, n)
    total = math.comb(n, size)
    if total > ORACLE_MAX_SUBSETS:
        raise GuardExceededError(
            f"oracle enumeration of {total} subsets exceeds the {ORACLE_MAX_SUBSETS} guard"
        )
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
    return float(best), first, count, optima


def oracle_solve(matrix: RegretMatrix, k: int, criterion=Criterion.MINIMAX) -> BudgetSolution:
    """Exhaustive reference solver: exact optimum, lex-first subset, tie count."""
    _validate_k(k)
    base, out_crit = _family(criterion, "oracle")
    value, first, count, _ = _oracle_scan(matrix, k, base, collect=False)
    return BudgetSolution(first, value, out_crit, count, LEX)


def oracle_optima(matrix: RegretMatrix, k: int, criterion=Criterion.MINIMAX) -> list[tuple[int, ...]]:
    """All optimal subsets of size min(k, n) for the criterion."""
    _validate_k(k)
    base, _ = _family(criterion, "oracle")
    return _oracle_scan(matrix, k, base, collect=True)[3]


def domination_graph_dot(matrix: RegretMatrix, alpha: float) -> str:
    """DOT digraph with an edge i -> j when act i answers challenger j at
    regret <= alpha + COVER_TOL, so an entry equal to alpha up to rounding keeps its edge."""
    covers = cover_family(matrix, alpha + COVER_TOL)
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

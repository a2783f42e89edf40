"""Frozen versions of the subset solvers and of both regret builds.

These are the per-row sorting minimax, the (V, n, n) broadcast regret
build, the per-basis vertex enumeration and the one-LP-per-pair
constraint-form build as they stood before each was vectorised, and the
maximin level scan (exact covers, the repair window that exact covers
leave unreachable, and both DFS walkers) as it stood before its rewrite.
The brute-force oracle is its one-evaluation-per-subset loop, as it stood
before subsets were scored in chunks. The maximin greedy cover pass is its
per-act (gain, -index) tuple max, as it stood before gains became one list
per round. The dense simplex is its row-by-row pivot loop and ratio test
over numpy scalars, as they stood before each pivot became one masked
tableau update, and its standard form built from per-row lists of rows,
rhs values and row kinds, as it stood before the tableau was written
directly. It still solves the general LP, with any `=` rows, that the
library's kernel took before it was fixed to the credal form; the tests
give it sum p = 1 as its one `=` row. The box regret reference is the
interval closed form poured one state at a time in exact `Fraction`
arithmetic. The differential tests compare the library against them; do
not change them to match the library.

The seeded branches of the minimax and greedy references state the seeded
tie contract in plain per-row Python, and change only when that contract
does. Minimax draws the anchor among the rows tied at the smallest k-th
largest regret, then the anchor's border (the challengers at that regret)
only when it holds more acts than places left in the top k, then the
dropped challenger. Greedy draws, in each round, among the acts whose worst
regret against the other remaining acts is smallest. Each draw happens only
where there is more than one candidate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from credalbudget.errors import GuardExceededError
from credalbudget.simplex import Infeasible

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
    orders, tops, mins, drop = [], [], [], []
    for i in range(n):
        vals = entries[i]
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-vals[j], j))
        threshold = float(vals[order[k - 1]])
        top = order[:k]
        at_min = [j for j in top if vals[j] == threshold]
        orders.append(order)
        tops.append(top)
        mins.append(threshold)
        drop.append(_pick(at_min, None))
    best = min(mins)
    i_star = _pick([i for i in range(n) if mins[i] == best], rng)
    if rng is not None:
        # Seeded: the anchor above, then the anchor's border only when it
        # holds more acts than places left in the top k, then the drop.
        vals, order, best = entries[i_star], orders[i_star], mins[i_star]
        definite = [j for j in order[:k] if vals[j] > best]
        border = [j for j in order if vals[j] == best]
        if len(border) > k - len(definite):
            extra = rng.choice(len(border), size=k - len(definite), replace=False)
            tops[i_star] = definite + [border[t] for t in sorted(int(t) for t in extra)]
        drop[i_star] = _pick([j for j in tops[i_star] if vals[j] == best], rng)
    subset = sorted(({i_star} | set(tops[i_star])) - {drop[i_star]})
    return tuple(subset), best


def greedy_reference(entries: np.ndarray, k: int, rng) -> tuple[int, ...]:
    """Subset of the greedy solver: k rounds of the single-pick minimax."""
    remaining = list(range(entries.shape[0]))
    chosen = []
    for _ in range(min(k, len(remaining))):
        if rng is None:
            sub = entries[np.ix_(remaining, remaining)]
            winner = minimax_reference(sub, 1, rng)[0][0]
        else:
            worst = [
                max((entries[i, j] for j in remaining if j != i), default=float("-inf"))
                for i in remaining
            ]
            least = min(worst)
            winner = _pick([t for t in range(len(remaining)) if worst[t] == least], rng)
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
    found: list[np.ndarray] = []
    for _, point in basic_feasible_points(a_ub, b_ub, n):
        if any(np.max(np.abs(point - seen)) <= VERTEX_DEDUP_TOL for seen in found):
            continue
        found.append(point)
    return np.array(found).reshape(-1, n)


def basic_feasible_points(a_ub: np.ndarray, b_ub: np.ndarray, n: int):
    """Yield (row choice, point) for each basis whose point passes every check.

    Rows are numbered as the enumeration numbers them: the a_ub rows, then
    p_i >= 0 as -p_i <= 0. Near-duplicate points are all yielded.
    """
    rows = [np.asarray(r, dtype=float) for r in a_ub]
    rhs = list(b_ub)
    for i in range(n):  # p_i >= 0 as -p_i <= 0
        unit = np.zeros(n)
        unit[i] = -1.0
        rows.append(unit)
        rhs.append(0.0)

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
        yield active, point


def regret_matrix_lp_reference(payoffs: np.ndarray, credal) -> np.ndarray:
    """entries[i, j] = upper expectation of payoff_j - payoff_i, one LP per pair."""
    n = payoffs.shape[0]
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                entries[i, j] = credal.upper_expectation(payoffs[j] - payoffs[i])
    return entries


def box_regret_reference(low, high, payoffs) -> list[list[Fraction]]:
    """entries[i][j] = max of (a_j - a_i) . p over low <= p <= high, sum p = 1, exactly.

    Every float is read as the exact binary rational it holds. For each
    pair, p starts at low, and the free mass 1 - sum(low) is poured into
    the states in decreasing order of a_j - a_i, each taking the smaller of
    what is left and its room high - low, until none is left.
    """
    low = [Fraction(float(v)) for v in low]
    high = [Fraction(float(v)) for v in high]
    acts = [[Fraction(float(v)) for v in row] for row in payoffs]
    entries = []
    for a_i in acts:
        row = []
        for a_j in acts:
            gamble = [x - y for x, y in zip(a_j, a_i)]
            p = list(low)
            left = 1 - sum(low)
            for s in sorted(range(len(p)), key=lambda t: -gamble[t]):
                if left <= 0:
                    break
                add = min(left, high[s] - low[s])
                p[s] += add
                left -= add
            row.append(sum(g * q for g, q in zip(gamble, p)))
        entries.append(row)
    return entries


LP_FEAS_TOL = 1e-9
LP_OPT_TOL = 1e-9
LP_MAX_PIVOTS = 10_000


class Unbounded(Exception):
    """The objective is unbounded above on the feasible region."""


def simplex_pivot_reference(tableau: np.ndarray, row: int, col: int) -> None:
    """Divide the pivot row, then clear `col` from the other rows one at a time."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def simplex_iterate_reference(tableau: np.ndarray, basis: list[int], ncols: int) -> None:
    """Bland's-rule pivots until the reduced costs (last row) are optimal."""
    for _ in range(LP_MAX_PIVOTS):
        obj = tableau[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if obj[j] < -LP_OPT_TOL:
                entering = j
                break
        if entering < 0:
            return
        best_ratio = None
        leaving = -1
        for r in range(tableau.shape[0] - 1):
            coef = tableau[r, entering]
            if coef > LP_FEAS_TOL:
                ratio = tableau[r, -1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio - LP_FEAS_TOL
                    or (abs(ratio - best_ratio) <= LP_FEAS_TOL and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise Unbounded("no leaving row for entering column %d" % entering)
        simplex_pivot_reference(tableau, leaving, entering)
        basis[leaving] = entering
    raise GuardExceededError("simplex exceeds the %d LP pivot guard" % LP_MAX_PIVOTS)


def simplex_maximize_reference(
    objective: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
) -> tuple[float, np.ndarray]:
    """(value, x) of max objective @ x st a_ub @ x <= b_ub, a_eq @ x = b_eq, x >= 0."""
    objective = np.asarray(objective, dtype=float)
    nvars = objective.size
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, nvars)
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, nvars)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    b_eq = np.asarray(b_eq, dtype=float).ravel()

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    kinds: list[str] = []  # 'le' (slack) or 'ge' (surplus+artificial) or 'eq'
    for coefs, b in zip(a_ub, b_ub):
        if b >= 0:
            rows.append(coefs.copy())
            rhs.append(float(b))
            kinds.append("le")
        else:
            rows.append(-coefs)
            rhs.append(float(-b))
            kinds.append("ge")
    for coefs, b in zip(a_eq, b_eq):
        rows.append(coefs.copy() if b >= 0 else -coefs)
        rhs.append(float(abs(b)))
        kinds.append("eq")

    m = len(rows)
    n_slack = sum(1 for k in kinds if k in ("le", "ge"))
    n_art = sum(1 for k in kinds if k in ("ge", "eq"))
    ncols = nvars + n_slack + n_art

    tableau = np.zeros((m + 1, ncols + 1))
    basis: list[int] = []
    slack_at = nvars
    art_at = nvars + n_slack
    art_cols: list[int] = []
    for r in range(m):
        tableau[r, :nvars] = rows[r]
        tableau[r, -1] = rhs[r]
        if kinds[r] == "le":
            tableau[r, slack_at] = 1.0
            basis.append(slack_at)
            slack_at += 1
        elif kinds[r] == "ge":
            tableau[r, slack_at] = -1.0
            slack_at += 1
            tableau[r, art_at] = 1.0
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            tableau[r, art_at] = 1.0
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1

    # Phase 1: maximize -(sum of artificials); reduced-cost row starts as
    # -(sum of rows with an artificial basic) so basic columns read zero.
    if art_cols:
        for r in range(m):
            if basis[r] in art_cols:
                tableau[-1] -= tableau[r]
        for c in art_cols:
            tableau[-1, c] = 0.0
        simplex_iterate_reference(tableau, basis, ncols)
        if tableau[-1, -1] < -LP_FEAS_TOL:
            raise Infeasible("phase-1 optimum leaves infeasibility %g" % -tableau[-1, -1])
        # Drive leftover artificials out of the basis; all-zero rows are
        # redundant constraints and can be neutralized in place.
        art_set = set(art_cols)
        for r in range(m):
            if basis[r] in art_set:
                for j in range(ncols):
                    if j not in art_set and abs(tableau[r, j]) > LP_FEAS_TOL:
                        simplex_pivot_reference(tableau, r, j)
                        basis[r] = j
                        break
        for c in art_cols:
            tableau[:, c] = 0.0

    # Phase 2: rebuild the reduced-cost row for the real objective.
    cost = np.zeros(ncols)
    cost[:nvars] = objective
    tableau[-1, :] = 0.0
    tableau[-1, :ncols] = -cost
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0.0:
            tableau[-1] += cb * tableau[r]
    simplex_iterate_reference(tableau, basis, ncols)

    x = np.zeros(nvars)
    for r in range(m):
        if basis[r] < nvars:
            x[basis[r]] = tableau[r, -1]
    return float(tableau[-1, -1]), x


def _minimax_value(entries: np.ndarray, subset) -> float:
    """min over i in subset of max over j outside of entries[i, j]."""
    chosen = sorted(set(subset))
    complement = [j for j in range(entries.shape[0]) if j not in set(chosen)]
    if not complement:
        return float("-inf")
    return float(entries[np.ix_(chosen, complement)].max(axis=1).min())


def _maximin_value(entries: np.ndarray, subset) -> float:
    """max over j outside of min over i in subset of entries[i, j]."""
    chosen = sorted(set(subset))
    complement = [j for j in range(entries.shape[0]) if j not in set(chosen)]
    if not complement:
        return float("-inf")
    return float(entries[np.ix_(chosen, complement)].min(axis=0).max())


def _cover_sets(entries: np.ndarray, alpha: float, tol: float) -> tuple[frozenset, ...]:
    n = entries.shape[0]
    return tuple(
        frozenset(j for j in range(n) if j != i and entries[i, j] <= alpha + tol)
        for i in range(n)
    )


def _cover_masks(sets, n: int) -> list[int]:
    masks = []
    for i in range(n):
        mask = 1 << i
        for j in sets[i]:
            mask |= 1 << j
        masks.append(mask)
    return masks


def _reachability(sets, k: int, n: int):
    """Size bound, then a greedy pass, then the lexicographic DFS."""
    if k == n:
        return tuple(range(n))
    sizes = sorted((len(s) for s in sets), reverse=True)
    if k + sum(sizes[:k]) < n:
        return None
    masks = _cover_masks(sets, n)
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
    return _dfs_first(masks, k, n, full)


def _dfs_first(masks: list[int], k: int, n: int, full: int):
    """Lexicographically first satisfying k-subset, or None."""

    def walk(start: int, depth: int, covered: int, prefix: list[int]):
        remaining = k - depth
        if covered == full:
            return tuple(prefix + list(range(start, start + remaining)))
        if remaining == 0:
            return None
        missing = (~covered) & full
        best_gain = 0
        for i in range(start, n):
            gain = (masks[i] & missing).bit_count()
            if gain > best_gain:
                best_gain = gain
        if best_gain * remaining < missing.bit_count():
            return None
        for i in range(start, n - remaining + 1):
            prefix.append(i)
            hit = walk(i + 1, depth + 1, covered | masks[i], prefix)
            if hit is not None:
                return hit
            prefix.pop()
        return None

    return walk(0, 0, 0, [])


def _collect_satisfying(masks: list[int], k: int, n: int, full: int) -> list[tuple[int, ...]]:
    """Every satisfying k-subset."""
    hits: list[tuple[int, ...]] = []

    def walk(start: int, depth: int, covered: int, prefix: list[int]) -> None:
        remaining = k - depth
        if remaining == 0:
            if covered == full:
                hits.append(tuple(prefix))
            return
        missing = (~covered) & full
        if missing:
            best_gain = max(
                ((masks[i] & missing).bit_count() for i in range(start, n)), default=0
            )
            if best_gain * remaining < missing.bit_count():
                return
        for i in range(start, n - remaining + 1):
            prefix.append(i)
            walk(i + 1, depth + 1, covered | masks[i], prefix)
            prefix.pop()

    walk(0, 0, 0, [])
    return hits


def greedy_cover_reference(masks, k: int):
    """The maximin greedy cover pass on per-act cover masks: k times, the act
    covering the most still-uncovered acts, lower index first; the chosen
    acts padded with the lowest unchosen ones, sorted, or None when they do
    not reach every act."""
    n = len(masks)
    full = (1 << n) - 1
    covered = 0
    chosen = []
    for _ in range(k):
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
    return None


def maximin_reference(entries: np.ndarray, k: int, rng) -> tuple[tuple[int, ...], float]:
    """(subset, value) of the maximin level scan, lex (rng None) or seeded."""
    n = entries.shape[0]
    if k >= n:
        return tuple(range(n)), float("-inf")
    values = np.sort(entries[~np.eye(n, dtype=bool)])
    idx = n - k - 1
    previous = None
    while idx < values.size:
        alpha = float(values[idx])
        idx += 1
        if previous is not None and alpha == previous:
            continue
        previous = alpha
        sets = _cover_sets(entries, alpha, 0.0)
        found = _reachability(sets, k, n)
        if found is None:
            continue
        value = _maximin_value(entries, found)
        if value != alpha:
            for mid in np.unique(values[(values >= alpha) & (values <= value)]):
                exact = _reachability(_cover_sets(entries, float(mid), 0.0), k, n)
                if exact is not None:
                    found = exact
                    value = _maximin_value(entries, found)
                    sets = _cover_sets(entries, float(mid), 0.0)
                    break
        if rng is not None:
            masks = _cover_masks(sets, n)
            options = _collect_satisfying(masks, k, n, (1 << n) - 1)
            best = [T for T in options if _maximin_value(entries, T) == value]
            found = best[int(rng.integers(len(best)))]
        return tuple(found), value
    raise RuntimeError("maximin level scan found no reachable value")


def oracle_reference(entries: np.ndarray, k: int, criterion: str):
    """(value, optima) of the oracle: every size-min(k, n) subset, lex order."""
    n = entries.shape[0]
    size = min(k, n)
    evaluator = _minimax_value if criterion == "minimax" else _maximin_value
    best: float | None = None
    optima: list[tuple[int, ...]] = []
    for combo in itertools.combinations(range(n), size):
        value = evaluator(entries, combo)
        if best is None or value < best:
            best = value
            optima = [combo]
        elif value == best:
            optima.append(combo)
    return best, optima

"""Dense two-phase simplex for the tiny LPs that arise from credal sets.

Problems here have a handful of variables (one per state) and a handful of
rows, so a plain dense tableau with Bland's anti-cycling rule is both simple
and robust. Variables are implicitly nonnegative. Each pivot is one masked
numpy update of the whole tableau plus a ratio test over Python floats; it
does the same element operations in the same order as a row-by-row loop, so
values, points and pivot sequences are the loop's bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceededError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9

_MAX_PIVOTS = 10_000


class Infeasible(Exception):
    """The constraint system admits no nonnegative solution."""


class Unbounded(Exception):
    """The objective is unbounded above on the feasible region."""


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Divide the pivot row by its pivot, then clear `col` from every other row.

    The clearing is one masked whole-tableau step: each row whose factor in
    `col` is nonzero gets `row - factor * pivot_row`, the same element
    operations as a row-by-row loop, and rows whose factor is zero or NaN
    are neither multiplied nor written, so they keep their bits and raise
    no floating-point warning.
    """
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col, None].copy()
    factors[row] = 0.0
    live = np.abs(factors) > 0.0
    products = np.multiply(factors, tableau[row], out=None, where=live)
    np.subtract(tableau, products, out=tableau, where=live)


def _iterate(tableau: np.ndarray, basis: list[int], ncols: int) -> None:
    """Run simplex pivots until the maximization tableau is optimal.

    Objective row is the last row and holds reduced costs z_j - c_j; a column
    improves while its entry is below -OPT_TOL. Bland's rule: entering column
    is the smallest improving index, leaving row is the one whose basic
    variable index is smallest among the ratio-test ties. Each pivot finds
    the entering column with one vector compare and runs the ratio test over
    the entering and rhs columns as Python floats, in row order.
    """
    for _ in range(_MAX_PIVOTS):
        improving = tableau[-1, :ncols] < -OPT_TOL
        entering = int(improving.argmax())
        if not improving[entering]:
            return
        coefs = tableau[:-1, entering].tolist()
        rhs = tableau[:-1, -1].tolist()
        best_ratio = None
        leaving = -1
        for r, coef in enumerate(coefs):
            if coef > FEAS_TOL:
                ratio = rhs[r] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio - FEAS_TOL
                    or (abs(ratio - best_ratio) <= FEAS_TOL and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise Unbounded("no leaving row for entering column %d" % entering)
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise GuardExceededError("simplex exceeds the %d LP pivot guard" % _MAX_PIVOTS)


def maximize(
    objective: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Maximize objective @ x subject to a_ub @ x <= b_ub, a_eq @ x = b_eq, x >= 0.

    Returns (optimal value, an optimal x). Raises Infeasible when the rows
    admit no nonnegative solution and Unbounded when the maximum does not
    exist; the credal-set polytopes this package builds are compact, so
    Unbounded escaping this module signals a malformed caller.
    """
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
        _iterate(tableau, basis, ncols)
        if tableau[-1, -1] < -FEAS_TOL:
            raise Infeasible("phase-1 optimum leaves infeasibility %g" % -tableau[-1, -1])
        # Drive leftover artificials out of the basis; all-zero rows are
        # redundant constraints and can be neutralized in place.
        art_set = set(art_cols)
        for r in range(m):
            if basis[r] in art_set:
                for j, coef in enumerate(tableau[r, :ncols].tolist()):
                    if j not in art_set and abs(coef) > FEAS_TOL:
                        _pivot(tableau, r, j)
                        basis[r] = j
                        break
        for c in art_cols:
            tableau[:, c] = 0.0

    # Phase 2: rebuild the reduced-cost row for the real objective.
    cost = np.zeros(ncols)
    cost[:nvars] = objective
    tableau[-1, :] = 0.0
    tableau[-1, :ncols] = -cost
    costs = cost.tolist()
    for r in range(m):
        cb = costs[basis[r]]
        if cb != 0.0:
            tableau[-1] += cb * tableau[r]
    _iterate(tableau, basis, ncols)

    x = np.zeros(nvars)
    for r in range(m):
        if basis[r] < nvars:
            x[basis[r]] = tableau[r, -1]
    return float(tableau[-1, -1]), x

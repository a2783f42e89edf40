"""Dense two-phase simplex for the one LP form that credal sets need.

Each LP is an upper expectation: max g @ p over {A p <= b, sum p = 1,
p >= 0}, with a handful of variables (one per state) and a handful of rows,
so a plain dense tableau with Bland's anti-cycling rule is both simple and
robust. The tableau holds the `<=` rows, each negated whole where its rhs
is negative, then the row sum p = 1, over the variables, a slack per `<=`
row, one block of artificials and the rhs. Each pivot is one masked numpy
update of the whole tableau plus a ratio test over Python floats; it does
the same element operations in the same order as a row-by-row loop, so
values and pivot sequences are the loop's bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceededError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9

_MAX_PIVOTS = 10_000


class Infeasible(Exception):
    """The constraint system admits no nonnegative solution."""


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


def _iterate(tableau: np.ndarray, basis: list[int]) -> None:
    """Run simplex pivots until the maximization tableau is optimal.

    Objective row is the last row and holds reduced costs z_j - c_j; a column
    improves while its entry is below -OPT_TOL. Bland's rule: entering column
    is the smallest improving index, leaving row is the one whose basic
    variable index is smallest among the ratio-test ties. Each pivot finds
    the entering column with one vector compare and runs the ratio test over
    the entering and rhs columns as Python floats, in row order.
    """
    for _ in range(_MAX_PIVOTS):
        improving = tableau[-1, :-1] < -OPT_TOL
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
            # Over sum p = 1 every entering column meets a row in exact arithmetic.
            raise RuntimeError("internal error: no leaving row for column %d" % entering)
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise GuardExceededError("simplex exceeds the %d LP pivot guard" % _MAX_PIVOTS)


def maximize(objective: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> float:
    """Maximize objective @ p subject to a_ub @ p <= b_ub, sum p = 1, p >= 0.

    Returns the optimal value. Raises Infeasible when no p meets the rows,
    and GuardExceededError when a phase takes more than _MAX_PIVOTS pivots.
    """
    objective = np.asarray(objective, dtype=float).ravel()
    nvars = objective.size
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, nvars)
    n_ub = len(a_ub)
    m = n_ub + 1
    b_ub = np.asarray(b_ub, dtype=float).reshape(n_ub)  # a length mismatch raises

    # A `<=` row whose rhs is not >= 0 (NaN included) is negated whole, so
    # its slack becomes its surplus; its zeros turn -0.0, and a zero's sign
    # never reaches a value or a pivot choice. Those rows, then the sum row,
    # get an artificial each.
    flipped = [r for r, b in enumerate(b_ub.tolist()) if not b >= 0]
    art_rows = flipped + [n_ub]
    art_start = nvars + n_ub
    ncols = art_start + len(art_rows)

    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:n_ub, :nvars] = a_ub
    tableau[:n_ub, -1] = b_ub
    tableau[n_ub, :nvars] = 1.0
    tableau[n_ub, -1] = 1.0
    np.fill_diagonal(tableau[:n_ub, nvars:], 1.0)
    for r in flipped:
        np.negative(tableau[r], out=tableau[r])
    basis = list(range(nvars, nvars + m))  # slacks; artificial rows are reset below
    for col, r in enumerate(art_rows, art_start):
        tableau[r, col] = 1.0
        basis[r] = col

    # Phase 1: maximize -(sum of artificials); reduced-cost row starts as
    # -(sum of the artificial rows) so basic columns read zero.
    for r in art_rows:
        tableau[-1] -= tableau[r]
    tableau[-1, art_start:-1] = 0.0
    _iterate(tableau, basis)
    if tableau[-1, -1] < -FEAS_TOL:
        raise Infeasible("phase-1 optimum leaves infeasibility %g" % -tableau[-1, -1])
    # Drive leftover artificials out of the basis; all-zero rows are
    # redundant constraints and can be neutralized in place.
    for r in range(m):
        if basis[r] >= art_start:
            for j, coef in enumerate(tableau[r, :art_start].tolist()):
                if abs(coef) > FEAS_TOL:
                    _pivot(tableau, r, j)
                    basis[r] = j
                    break
    tableau[:, art_start:-1] = 0.0

    # Phase 2: rebuild the reduced-cost row for the real objective.
    tableau[-1] = 0.0
    tableau[-1, :nvars] = -objective
    costs = objective.tolist()
    for r in range(m):
        if basis[r] < nvars and costs[basis[r]] != 0.0:
            tableau[-1] += costs[basis[r]] * tableau[r]
    _iterate(tableau, basis)
    return float(tableau[-1, -1])

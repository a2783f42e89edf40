"""Pairwise regret matrix and the subset evaluators built on it.

The matrix stores entries[i, j] = upper expectation of (payoff_j - payoff_i):
the worst expected loss of keeping act i when act j was available. Printed
tables follow the opposite orientation (rows indexed by the challenger j):
display_rows, which both the CSV emitter and the CLI's table printer use,
is the one place that transposes (matrix_from_csv reads its CSV back);
everything else reads entries[i, j].

`regret_matrix` takes one of four routes: a max over the stored or
enumerated vertices, the interval closed form for a box too large to
enumerate, or one LP per ordered pair for any other polytope too large to
enumerate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .credal import Act, CredalSet
from .errors import GuardExceededError

NEG_INFINITY = float("-inf")

VALUE_TOL = 1e-9  # two regret values closer than this agree up to LP rounding

REGRET_BLOCK_FLOATS = 2**17  # one float64 temporary of 1 MiB per block of output rows


@dataclass(frozen=True, eq=False)
class RegretMatrix:
    """Dense pairwise regret table; the diagonal is stored as 0 but never read.

    Holds at least one act. No entry is -0.0: the entries are stored as a
    read-only copy in which a negative zero reads +0.0.
    """

    names: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        n = len(self.names)
        if n == 0:
            raise ValueError("matrix: at least one act is required")
        if entries.shape != (n, n):
            raise ValueError(f"matrix: expected shape {(n, n)}, got {entries.shape}")
        if not np.isfinite(entries).all():
            i, j = np.argwhere(~np.isfinite(entries))[0]
            raise ValueError(f"matrix[{i}][{j}]: entries must be finite, got {entries[i, j]}")
        entries = entries + 0.0  # -0.0 + 0.0 is +0.0; every other value keeps its bits
        np.fill_diagonal(entries, 0.0)  # after the check, so a non-finite diagonal is refused
        object.__setattr__(self, "entries", entries)
        entries.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def off_diagonal_values(self) -> np.ndarray:
        mask = ~np.eye(self.n, dtype=bool)
        return self.entries[mask]


def pairwise_regret_from_vertices(vertices: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """Vectorized entries[i, j] = max over vertices of E_v(a_j) - E_v(a_i).

    Rows go through in blocks of at most
    REGRET_BLOCK_FLOATS / (n_vertices * n_acts) rows (at least one). A
    block of rows i in [r0, r1) forms the differences E_v(a_j) - E_v(a_i)
    once, only for j >= r0: their max over the vertices fills
    entries[r0:r1, r0:], and their min fills the mirrored part below the
    block, entries[j, i] = 0.0 - min for j >= r1, since a difference and
    its reverse differ only in sign and 0.0 - x gives +0.0 for a zero
    difference, as the reverse subtraction does. So each unordered pair is
    subtracted once and the bytes are those of the full max. The difference
    block and the min block are allocated once per call and reused, so
    memory is the n_acts**2 output plus about 1 MiB of temporaries (one
    row's n_vertices * n_acts floats when that is more); small problems
    take a single block and no min.
    """
    ev = vertices @ payoffs.T  # (n_vertices, n_acts)
    n_vertices, n = ev.shape
    rows = min(n, max(1, REGRET_BLOCK_FLOATS // (n_vertices * n)))
    diff_buf = np.empty(n_vertices * rows * n)
    low_buf = np.empty(rows * n if rows < n else 0)
    entries = np.empty((n, n))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        h = r1 - r0
        # diff[v, i - r0, j - r0] = E_v(a_j) - E_v(a_i), for i in r0:r1 and j >= r0
        diff = diff_buf[:n_vertices * h * (n - r0)].reshape(n_vertices, h, n - r0)
        np.subtract(ev[:, None, r0:], ev[:, r0:r1, None], out=diff)
        diff.max(axis=0, out=entries[r0:r1, r0:])
        if r1 < n:
            # a min over the whole contiguous block beats one over its strided part
            low = low_buf[:h * (n - r0)].reshape(h, n - r0)
            diff.min(axis=0, out=low)
            np.subtract(0.0, low[:, h:].T, out=entries[r1:, r0:r1])
    np.fill_diagonal(entries, 0.0)
    return entries


def pairwise_regret_on_box(low: np.ndarray, high: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """Vectorized entries[i, j] = max of (a_j - a_i) . p over low <= p <= high, sum p = 1.

    The interval closed form (de Campos, Huete & Moral, IJUFKS 2(2), 1994):
    for each pair, with g = a_j - a_i, p starts at low and the free mass
    1 - sum(low) is poured into the states in decreasing order of g, each
    up to high - low; the entry is g . p. The poured mass is clipped at 0,
    so once the free mass runs out the remaining states stay at their
    lower bounds, and where the lower bounds sum past 1 within the
    feasibility tolerance p stays at low. Rows go through in blocks of at
    most REGRET_BLOCK_FLOATS / (n_acts * n_states) rows (at least one), so
    each temporary is about 1 MiB (one row's n_acts * n_states values when
    that is more).
    """
    n, d = payoffs.shape
    room = high - low
    free = 1.0 - low.sum()
    rows = min(n, max(1, REGRET_BLOCK_FLOATS // (n * d)))
    entries = np.empty((n, n))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        gain = payoffs[None, :, :] - payoffs[r0:r1, None, :]  # gain[i - r0, j] = a_j - a_i
        order = np.argsort(-gain, axis=-1, kind="stable")  # states by decreasing gain
        gain = np.take_along_axis(gain, order, axis=-1)
        cap = room[order]
        poured = np.zeros_like(cap)
        np.cumsum(cap[..., :-1], axis=-1, out=poured[..., 1:])  # room of the states before
        np.subtract(free, poured, out=poured)  # free mass left on reaching each state
        np.minimum(poured, cap, out=poured)
        np.maximum(poured, 0.0, out=poured)  # none once the free mass has run out
        p = np.add(poured, low[order], out=poured)
        np.multiply(gain, p, out=p).sum(axis=-1, out=entries[r0:r1])
    return entries


def regret_matrix(acts: list[Act], credal: CredalSet) -> RegretMatrix:
    """Compute all pairwise regrets for the acts under the credal set.

    Four routes, tried in this order:
    - vertex form: one vectorized pass over the stored vertices;
    - constraint form: the set is enumerated once
      (`CredalSet.extreme_points`) and then takes the same pass;
    - when the enumeration guard refuses the polytope (dimension over
      ENUM_MAX_DIM or more than ENUM_MAX_BASES bases) and it is a box
      (`CredalSet.box_bounds`): the interval closed form,
      `pairwise_regret_on_box`, with no LP;
    - any other guarded polytope: one LP per ordered pair, where the set
      runs phase 1 once and each pair only phase 2 from it.
    The routes agree to rounding (about 1e-14), not bit for bit.
    """
    if len(acts) == 0:
        raise ValueError("acts: at least one act is required")
    dims = {len(a.payoffs) for a in acts}
    if len(dims) != 1:
        raise ValueError("acts: payoff vectors must share one dimension")
    if dims != {credal.dimension}:
        raise ValueError(
            f"acts: {dims.pop()} payoffs per act, but the credal set has {credal.dimension} states"
        )
    names = tuple(a.name for a in acts)
    payoffs = np.array([a.payoffs for a in acts], dtype=float)

    vertices = box = None
    try:
        vertices = credal.extreme_points()
    except GuardExceededError:
        box = credal.box_bounds()
    # Payoffs near the float limits overflow to inf or nan here; RegretMatrix
    # then rejects the non-finite entry, so numpy's warnings would only repeat
    # it. The enumeration above stays outside: it never sees the payoffs, and
    # every numpy call pays a little more under a non-default errstate.
    with np.errstate(over="ignore", invalid="ignore"):
        if vertices is not None:
            entries = pairwise_regret_from_vertices(vertices, payoffs)
        elif box is not None:
            entries = pairwise_regret_on_box(*box, payoffs)
        else:
            n = len(acts)
            entries = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        entries[i, j] = credal.upper_expectation(payoffs[j] - payoffs[i])
    return RegretMatrix(names, entries)


def _check_subset(matrix: RegretMatrix, subset) -> tuple[list[int], list[int]]:
    members = set(subset)
    chosen = sorted(members)
    if not chosen:
        raise ValueError("subset must be nonempty")
    if chosen[0] < 0 or chosen[-1] >= matrix.n:
        raise IndexError("subset index out of range")
    complement = [j for j in range(matrix.n) if j not in members]
    return chosen, complement


def minimax_regret(matrix: RegretMatrix, subset) -> float:
    """Keep the best act of the subset against the worst outside challenger.

    min over i in subset of max over j outside of entries[i, j];
    NEG_INFINITY exactly when the subset is all acts.
    """
    chosen, complement = _check_subset(matrix, subset)
    if not complement:
        return NEG_INFINITY
    block = matrix.entries[np.ix_(chosen, complement)]
    return float(block.max(axis=1).min())


def maximin_regret(matrix: RegretMatrix, subset) -> float:
    """Let the challenger commit first, then answer from the subset.

    max over j outside of min over i in subset of entries[i, j];
    NEG_INFINITY exactly when the subset is all acts. Never exceeds
    minimax_regret of the same subset.
    """
    chosen, complement = _check_subset(matrix, subset)
    if not complement:
        return NEG_INFINITY
    block = matrix.entries[np.ix_(chosen, complement)]
    return float(block.min(axis=0).max())


def maximal_acts(matrix: RegretMatrix) -> tuple[int, ...]:
    """Acts not strictly dominated by any other act.

    Act i stays when every challenger j satisfies upper expectation of
    (payoff_i - payoff_j) >= -VALUE_TOL, i.e. no j makes the lower
    expectation of (payoff_j - payoff_i) positive. The slack absorbs
    LP rounding so a genuinely maximal act is never dropped. Never empty.
    """
    shielded = matrix.entries.copy()
    np.fill_diagonal(shielded, np.inf)
    # column i of entries collects the upper expectations of (payoff_i - payoff_j)
    keep = shielded.min(axis=0) >= -VALUE_TOL
    return tuple(int(i) for i in np.flatnonzero(keep))


def display_rows(matrix: RegretMatrix, cell, diagonal: str):
    """The printed orientation: a header row of the kept acts, then one row
    per challenger j holding cell(entries[i, j]) for each kept act i and
    `diagonal` where i == j."""
    yield ["", *matrix.names]
    for j, column in enumerate(matrix.entries.T.tolist()):
        yield [matrix.names[j]] + [diagonal if i == j else cell(v) for i, v in enumerate(column)]


def matrix_to_csv(matrix: RegretMatrix) -> str:
    """Render with challenger acts as rows and kept acts as columns, six
    decimals per entry; the diagonal is left empty."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(display_rows(matrix, "{:.6f}".format, ""))
    return buf.getvalue()


def matrix_from_csv(text: str) -> RegretMatrix:
    """Parse the emitter's format back into a matrix (inverse of matrix_to_csv)."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if len(rows) < 2:
        raise ValueError("matrix csv: expected a header row and one row per act")
    names = tuple(rows[0][1:])
    n = len(names)
    if len(rows) - 1 != n:
        raise ValueError(f"matrix csv: expected {n} data rows, got {len(rows) - 1}")
    entries = np.zeros((n, n))
    for j, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise ValueError(f"matrix csv row {j + 1}: expected {n + 1} cells")
        if row[0] != names[j]:
            raise ValueError(f"matrix csv row {j + 1}: name {row[0]!r} does not match header")
        for i, cell in enumerate(row[1:]):
            if i == j:
                continue
            if cell.strip() in ("", "-"):
                raise ValueError(f"matrix csv row {j + 1}: empty off-diagonal cell")
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"matrix csv row {j + 1}, column {names[i]!r}: {cell!r} is not a number"
                ) from None
            if not np.isfinite(value):
                raise ValueError(
                    f"matrix csv row {j + 1}, column {names[i]!r}: {cell!r} is not finite"
                )
            entries[i, j] = value
    return RegretMatrix(names, entries)

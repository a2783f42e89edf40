"""Acts, credal sets, and exact lower/upper expectations.

A credal set is a closed convex set of probability mass functions over a
finite state space, given either as an explicit list of vertices or as linear
constraints on the mass function (the simplex conditions are always implied).
Upper expectations maximize a gamble's expectation over the set: a dot-product
maximum in vertex form, and in constraint form one small dense LP over the
`<=` rows, then sum p = 1, with p >= 0. Phase 1 of that LP reads only the
rows, so it runs once per set (`simplex.feasible_start`), and each
expectation runs only phase 2 from the cached start (`simplex.maximize`).
A box, where every row bounds one state (`l_s <= p_s <= u_s`), reports its
bounds (`CredalSet.box_bounds`), so a regret matrix too large to enumerate
can use the interval closed form instead of the LP.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import GuardExceededError, InfeasibleCredalError

PMF_TOL = 1e-9
ENUM_MAX_DIM = 12
ENUM_MAX_BASES = 20_000  # C(rows + dimension, dimension - 1) row choices to solve
ENUM_CHUNK = 256  # row choices per batch: temporaries near 100 KiB at dimension 5
# A box's row choice is solved only if its point, estimated from its bounds,
# breaks no bound by more than this. A point the checks keep comes closer:
# within about PMF_TOL + (dimension + 1) * 1e-7 (see `_Box`), 1.3e-6 at
# ENUM_MAX_DIM, while the estimate's own rounding is near 1e-14.
BOX_MARGIN = 1e-5

RELATIONS = ("<=", ">=", "=")


@dataclass(frozen=True)
class Act:
    """A named uncertain reward: one utility payoff per state."""

    name: str
    payoffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("act.name: must be a nonempty string")
        if len(self.payoffs) == 0:
            raise ValueError(f"act {self.name!r}: payoffs must be nonempty")
        if not np.isfinite(np.asarray(self.payoffs, dtype=float)).all():
            raise ValueError(f"act {self.name!r}: payoffs must all be finite")


@dataclass(frozen=True)
class LinearConstraint:
    """One row `coeffs . p <relation> rhs` restricting the mass function p."""

    coeffs: tuple[float, ...]
    relation: str
    rhs: float

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(
                f"constraint.relation: expected one of {RELATIONS}, got {self.relation!r}"
            )
        if not np.isfinite(np.asarray((*self.coeffs, self.rhs), dtype=float)).all():
            raise ValueError("constraint: coefficients and rhs must be finite")


class CredalSet:
    """Convex set of pmfs in vertex or constraint form.

    Instances are immutable and safe to share across threads; every query is
    a pure function of the stored representation. A constraint-form set
    caches one read-only start, phase 1 of its LP, on its first upper
    expectation; two threads may both compute it, and they compute
    identical bytes. Rows that no pmf meets cache nothing, so each upper
    expectation raises simplex.Infeasible again.
    """

    def __init__(
        self,
        dimension: int,
        *,
        vertices: np.ndarray | None = None,
        a_ub: np.ndarray | None = None,
        b_ub: np.ndarray | None = None,
    ):
        self.dimension = dimension
        self._vertices = vertices
        self._a_ub = a_ub
        self._b_ub = b_ub
        self._start = None
        if vertices is not None:
            vertices.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vertices(cls, vectors) -> "CredalSet":
        """Build from explicit pmf vertices, renormalizing within PMF_TOL."""
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("credal.vertices: expected a nonempty list of pmf vectors")
        if not np.isfinite(arr).all():
            bad = int(np.argmin(np.isfinite(arr).all(axis=1)))
            raise ValueError(f"credal.vertices[{bad}]: probability mass must be finite")
        if np.min(arr) < -PMF_TOL:
            bad = int(np.argmin(np.min(arr, axis=1)))
            raise ValueError(f"credal.vertices[{bad}]: negative probability mass")
        sums = arr.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > PMF_TOL:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"credal.vertices[{bad}]: mass sums to {sums[bad]}, not 1")
        arr = np.clip(arr, 0.0, None)
        arr = arr / arr.sum(axis=1, keepdims=True)
        return cls(arr.shape[1], vertices=arr)

    @classmethod
    def from_constraints(cls, constraints, dimension: int) -> "CredalSet":
        """Build from linear constraint rows; checks feasibility with an LP.

        The set keeps that LP's phase 1 for its later upper expectations.
        """
        rows = tuple(constraints)
        for idx, c in enumerate(rows):
            if len(c.coeffs) != dimension:
                raise ValueError(
                    f"credal.constraints[{idx}].coeffs: expected {dimension} entries, "
                    f"got {len(c.coeffs)}"
                )
        a_list: list[np.ndarray] = []
        b_list: list[float] = []
        for c in rows:
            # Unit rows (largest |coefficient| 1) make the simplex's absolute
            # tolerances mean the same for every row; all-zero rows stay.
            coefs = np.asarray(c.coeffs, dtype=float)
            scale = float(np.abs(coefs).max(initial=0.0)) or 1.0
            coefs = coefs / scale
            rhs = float(c.rhs) / scale
            if c.relation in ("<=", "="):
                a_list.append(coefs)
                b_list.append(rhs)
            if c.relation in (">=", "="):
                a_list.append(-coefs)
                b_list.append(-rhs)
        a_ub = np.array(a_list) if a_list else np.zeros((0, dimension))
        b_ub = np.array(b_list)
        a_ub.setflags(write=False)
        b_ub.setflags(write=False)
        made = cls(dimension, a_ub=a_ub, b_ub=b_ub)
        try:
            made.upper_expectation(np.zeros(dimension))
        except simplex.Infeasible as exc:
            raise InfeasibleCredalError(
                "credal.constraints: no probability mass function satisfies them"
            ) from exc
        return made

    # -- queries -----------------------------------------------------------

    @property
    def is_vertex_form(self) -> bool:
        return self._vertices is not None

    def upper_expectation(self, gamble) -> float:
        """Maximum expectation of the gamble over the set."""
        g = np.asarray(gamble, dtype=float)
        if g.shape != (self.dimension,):
            raise ValueError(
                f"gamble: expected length {self.dimension}, got shape {g.shape}"
            )
        if self._vertices is not None:
            return float(np.max(self._vertices @ g))
        if self._start is None:
            self._start = simplex.feasible_start(self._a_ub, self._b_ub)
        return simplex.maximize(g, self._start)

    def lower_expectation(self, gamble) -> float:
        """Minimum expectation, by duality the negated upper of the negation."""
        g = np.asarray(gamble, dtype=float)
        return -self.upper_expectation(-g)

    def extreme_points(self) -> np.ndarray:
        """Vertices of the set.

        Vertex form returns the stored list. Constraint form enumerates basic
        feasible points of {A p <= b, sum p = 1, p >= 0}: every choice of
        dimension - 1 rows, taken ENUM_CHUNK at a time, is solved as one
        batch together with sum p = 1; singular, non-finite, ill-conditioned
        and infeasible points are dropped, and near-duplicates are dropped
        in basis order. A box, whose rows (p >= 0 among them) are each +-e_s,
        solves only the row choices that can give a vertex (see `_Box`), so
        it returns the same bytes from fewer solves and no slogdet. Raises
        GuardExceededError before enumerating when the dimension exceeds
        ENUM_MAX_DIM or the number of row choices exceeds ENUM_MAX_BASES.
        """
        if self._vertices is not None:
            return self._vertices
        n = self.dimension
        if n > ENUM_MAX_DIM:
            raise GuardExceededError(
                f"vertex enumeration limited to dimension {ENUM_MAX_DIM}, got {n}"
            )
        rows, rhs = self._rows()
        bases = math.comb(len(rows), n - 1)
        if bases > ENUM_MAX_BASES:
            raise GuardExceededError(
                f"vertex enumeration limited to {ENUM_MAX_BASES} bases, got {bases}"
            )

        box = _Box.of(rows, rhs)
        choices = range(len(rows)) if box is None else box.usable_rows()
        n_choices = math.comb(len(choices), n - 1)
        found = np.empty((0, n))
        combos = itertools.chain.from_iterable(itertools.combinations(choices, n - 1))
        for start in range(0, n_choices, ENUM_CHUNK):
            c = min(ENUM_CHUNK, n_choices - start)
            active = np.fromiter(combos, np.intp, count=c * (n - 1)).reshape(c, n - 1)
            if box is not None:
                active = active[box.can_give_vertex(active)]
                c = len(active)
            systems = np.ones((c, n, n))
            systems[:, 1:] = rows[active]
            targets = np.ones((c, n))
            targets[:, 1:] = rhs[active]
            if box is None:
                # slogdet's sign is 0 exactly when LU finds a zero pivot,
                # which is when solve would raise LinAlgError for that basis
                regular = np.linalg.slogdet(systems)[0] != 0.0
                systems, targets = systems[regular], targets[regular]
            points = np.linalg.solve(systems, targets[..., None])[..., 0]
            finite = np.isfinite(points).all(axis=1)
            systems, targets, points = systems[finite], targets[finite], points[finite]
            solved = np.abs((systems @ points[..., None])[..., 0] - targets).max(axis=1)
            keep = solved <= 1e-7  # a larger residual means an ill-conditioned basis
            keep &= (points @ rows.T - rhs).max(axis=1) <= PMF_TOL
            points = points[keep]
            # State axis outermost: each max reduces whole (points, ...) planes
            # rather than a short inner axis of a few states; same bytes. The
            # copies are C-ordered, which by_state[:, mask] would not be.
            by_state = points.T.copy()
            gaps = np.abs(by_state[:, :, None] - found.T[:, None, :]).max(axis=0)
            points = points[(gaps > PMF_TOL).all(axis=1)]  # gaps: (points, found)
            by_state = points.T.copy()
            near = np.abs(by_state[:, :, None] - by_state[:, None, :]).max(axis=0)
            near = (near <= PMF_TOL).tolist()
            fresh: list[int] = []
            for i in range(len(points)):  # in basis order, so the first of near-duplicates stays
                if not any(near[i][j] for j in fresh):
                    fresh.append(i)
            found = np.concatenate([found, points[fresh]])
        if not len(found):
            raise InfeasibleCredalError("credal.constraints: polytope has no vertices")
        found.setflags(write=False)
        return found

    def box_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-state (low, high) when the set is a box, else None.

        A constraint-form set is a box when every row, p >= 0 included, is
        +-e_s (see `_Box`); low then holds each state's largest lower bound
        (at least 0) and high its smallest upper bound (at most 1). Vertex
        form gives None.
        """
        if self._vertices is not None:
            return None
        box = _Box.of(*self._rows())
        return None if box is None else (box.low, box.high)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The a_ub rows, then p_s >= 0 as -p_s <= 0, and their rhs."""
        n = self.dimension
        nonneg = np.zeros((n, n))  # built so zeros stay +0.0
        np.fill_diagonal(nonneg, -1.0)
        return np.vstack([self._a_ub, nonneg]), np.concatenate([self._b_ub, np.zeros(n)])


@dataclass(frozen=True)
class _Box:
    """The enumeration rows of a box: each row is +e_s or -e_s for one state s.

    Row r, chosen into a basis, fixes p[state[r]] = value[r]. With the row of
    ones, any choice of such rows gives a totally unimodular system (every
    square minor is 0 or +-1), so LU runs in exact small integers and finds
    a zero pivot, where solve would fail, exactly when two chosen rows bound
    one state; those choices are dropped unsolved. Every other choice fixes
    dimension - 1 states and leaves the free one at 1 - sum of the fixed
    values. A point that passes the residual check lies within 1e-7 of this
    estimate on each fixed state and within dimension * 1e-7 on the free
    one; a point that also passes the feasibility checks has no coordinate
    above 1 + 1.1e-7 and breaks no row by more than PMF_TOL. So an estimate
    that breaks a row, or p_s <= 1, by more than BOX_MARGIN gives no kept
    point, and its choice is dropped; a row whose own value does so is left
    out of every choice.
    """

    state: np.ndarray  # per row
    value: np.ndarray  # per row
    low: np.ndarray  # per state: the largest lower bound, p >= 0 included
    high: np.ndarray  # per state: the smallest upper bound, p <= 1 included

    @classmethod
    def of(cls, rows: np.ndarray, rhs: np.ndarray) -> "_Box | None":
        """The box that rows p <= rhs form, or None when some row is not +-e_s."""
        nonzero = rows != 0.0
        if not (nonzero.sum(axis=1) == 1).all():
            return None
        state = nonzero.argmax(axis=1)
        sign = rows[np.arange(len(rows)), state]
        if not (np.abs(sign) == 1.0).all():
            return None
        low = np.full(rows.shape[1], -np.inf)
        high = np.ones(rows.shape[1])
        np.maximum.at(low, state[sign < 0], -rhs[sign < 0])
        np.minimum.at(high, state[sign > 0], rhs[sign > 0])
        return cls(state, sign * rhs, low, high)

    def within(self, states: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Mask of the values that break no row of their state by more than BOX_MARGIN.

        A rhs that overflowed when its row was scaled gives inf - inf = nan
        here, which is dropped: no point that passes the checks uses its row.
        """
        with np.errstate(invalid="ignore"):
            high_ok = values - self.high[states] <= BOX_MARGIN
            return high_ok & (self.low[states] - values <= BOX_MARGIN)

    def usable_rows(self) -> list[int]:
        """The rows, in order, whose own bound breaks no other row of their state."""
        return np.flatnonzero(self.within(self.state, self.value)).tolist()

    def can_give_vertex(self, active: np.ndarray) -> np.ndarray:
        """Mask of the (bases, dimension - 1) row choices of usable rows worth solving."""
        n = len(self.low)
        keep = ~_repeated_states(self.state[active])
        active = active[keep]
        free = n * (n - 1) // 2 - self.state[active].sum(axis=1)  # the state no row fixes
        keep[keep] = self.within(free, 1.0 - self.value[active].sum(axis=1))
        return keep


def _repeated_states(states: np.ndarray) -> np.ndarray:
    """Mask of the rows of a (bases, k) array of state indices that hold one state twice."""
    ordered = np.sort(states, axis=1)
    return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)

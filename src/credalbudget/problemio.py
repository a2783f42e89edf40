"""Problem-file loading: types, lengths, keys and names are checked here.

The numbers are checked by their classes (`Act`, `LinearConstraint`,
`CredalSet.from_vertices`, `RegretMatrix`), which refuse non-finite ones;
an integer beyond the float range reads as +-inf, as json reads 1e400. A
problem is JSON with states, named acts, and a credal set in vertex or
constraint form (the simplex conditions are implied, not restated), or the
precomputed regret matrix ("matrix" key, entries[i][j] = regret of keeping
act i against challenger j) whose rows "acts" may name, with no "states" or
"credal". A key the format does not define is refused at every level.
Matrix CSV files from the matrix command load as precomputed problems too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .credal import Act, CredalSet, LinearConstraint
from .errors import ProblemFormatError
from .regret import RegretMatrix, matrix_from_csv, regret_matrix


@dataclass(frozen=True)
class Problem:
    """A loaded decision problem; exactly one of (acts+credal) or matrix."""

    acts: tuple[Act, ...] | None
    credal: CredalSet | None
    matrix: RegretMatrix | None

    def regret_matrix(self) -> RegretMatrix:
        if self.matrix is not None:
            return self.matrix
        return regret_matrix(list(self.acts), self.credal)


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ProblemFormatError(f"{where}.{key}: missing")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ProblemFormatError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def _reject_unknown(data: dict, known: tuple[str, ...], prefix: str) -> None:
    for key in data:
        if key not in known:
            raise ProblemFormatError(f"{prefix}{key}: unknown key")


def _number(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _numeric_vector(values, length: int, where: str) -> tuple[float, ...]:
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ProblemFormatError(f"{where}: expected a list of numbers")
    if len(values) != length:
        raise ProblemFormatError(f"{where}: expected {length} numbers, got {len(values)}")
    return tuple(_number(v) for v in values)


def _check_names(names, where: str) -> None:
    """Names must be nonempty (an empty act name prints like an empty subset) and unique."""
    if not all(names):
        raise ProblemFormatError(f"{where}: names must be nonempty")
    if len(set(names)) != len(names):
        raise ProblemFormatError(f"{where}: names must be unique")


def problem_from_dict(data: dict) -> Problem:
    """Validate and build a Problem; error messages name the offending field."""
    if not isinstance(data, dict):
        raise ProblemFormatError("problem: top level must be an object")

    if "matrix" in data:
        for key in ("states", "credal"):
            if key in data:
                raise ProblemFormatError(f"{key}: not allowed with a matrix, which is precomputed")
        _reject_unknown(data, ("matrix", "acts"), "")
        rows = data["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ProblemFormatError("matrix: expected a nonempty list of rows")
        n = len(rows)
        entries = [_numeric_vector(row, n, f"matrix[{i}]") for i, row in enumerate(rows)]
        names = data.get("acts", [f"a{i + 1}" for i in range(n)])
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise ProblemFormatError("acts: with a matrix, acts must be a list of names")
        if len(names) != n:
            raise ProblemFormatError(f"acts: expected {n} names, got {len(names)}")
        _check_names(names, "acts")
        try:
            return Problem(None, None, RegretMatrix(tuple(names), entries))
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc

    _reject_unknown(data, ("states", "acts", "credal"), "")
    labels = _require(data, "states", list, "problem")
    if not labels:
        raise ProblemFormatError("states: at least one state label is required")
    if not all(isinstance(s, str) for s in labels):
        raise ProblemFormatError("states: expected a list of strings")
    _check_names(labels, "states")

    raw_acts = _require(data, "acts", list, "problem")
    if not raw_acts:
        raise ProblemFormatError("acts: at least one act is required")
    acts: list[Act] = []
    for idx, entry in enumerate(raw_acts):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"acts[{idx}]: expected an object")
        _reject_unknown(entry, ("name", "payoffs"), f"acts[{idx}].")
        name = _require(entry, "name", str, f"acts[{idx}]")
        payoffs = _numeric_vector(
            _require(entry, "payoffs", list, f"acts[{idx}]"), len(labels), f"acts[{idx}].payoffs"
        )
        try:
            acts.append(Act(name, payoffs))
        except ValueError as exc:
            raise ProblemFormatError(f"acts[{idx}]: {exc}") from exc
    _check_names([a.name for a in acts], "acts")

    raw_credal = _require(data, "credal", dict, "problem")
    _reject_unknown(raw_credal, ("vertices", "constraints"), "credal.")
    has_vertices = "vertices" in raw_credal
    has_constraints = "constraints" in raw_credal
    if has_vertices == has_constraints:
        raise ProblemFormatError("credal: give exactly one of 'vertices' or 'constraints'")
    if has_vertices:
        raw_vertices = raw_credal["vertices"]
        if not isinstance(raw_vertices, list) or not raw_vertices:
            raise ProblemFormatError("credal.vertices: expected a nonempty list")
        vertices = [
            _numeric_vector(v, len(labels), f"credal.vertices[{i}]")
            for i, v in enumerate(raw_vertices)
        ]
        try:
            credal = CredalSet.from_vertices(vertices)
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc
    else:
        raw_rows = raw_credal["constraints"]
        if not isinstance(raw_rows, list):
            raise ProblemFormatError("credal.constraints: expected a list")
        rows: list[LinearConstraint] = []
        for i, entry in enumerate(raw_rows):
            if not isinstance(entry, dict):
                raise ProblemFormatError(f"credal.constraints[{i}]: expected an object")
            _reject_unknown(entry, ("coeffs", "relation", "rhs"), f"credal.constraints[{i}].")
            coeffs = _numeric_vector(
                _require(entry, "coeffs", list, f"credal.constraints[{i}]"),
                len(labels),
                f"credal.constraints[{i}].coeffs",
            )
            relation = _require(entry, "relation", str, f"credal.constraints[{i}]")
            rhs = _require(entry, "rhs", None, f"credal.constraints[{i}]")
            if not isinstance(rhs, (int, float)) or isinstance(rhs, bool):
                raise ProblemFormatError(f"credal.constraints[{i}].rhs: expected a number")
            try:
                rows.append(LinearConstraint(coeffs, relation, _number(rhs)))
            except ValueError as exc:
                raise ProblemFormatError(f"credal.constraints[{i}]: {exc}") from exc
        credal = CredalSet.from_constraints(rows, len(labels))  # raises InfeasibleCredalError

    return Problem(tuple(acts), credal, None)


def load_problem(path) -> Problem:
    """Load a problem from a JSON file or a matrix-CSV file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"problem file {p}: {exc}") from exc
    if p.suffix.lower() == ".csv":
        try:
            matrix = matrix_from_csv(text)
        except ValueError as exc:
            raise ProblemFormatError(f"problem file {p}: {exc}") from exc
        _check_names(matrix.names, f"problem file {p}: matrix csv header")
        return Problem(None, None, matrix)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ProblemFormatError(f"problem file {p}: invalid JSON ({exc})") from exc
    return problem_from_dict(data)


"""Randomized experiment protocols and their CSV outputs.

Two protocols over generated instances:

* consistency: compare the exact solvers with their greedy approximations
  against the maximality set: weak/strong consistency rates, overlap
  fractions, and how often greedy recovers the exact subset.
* negativity: track how fast the optimal values turn negative as the budget
  passes the maximality count, and how often the two criteria agree.

Per-trial seeds derive from the master seed up front, so results do not
depend on evaluation order. Each aggregate takes the per-trial rows as its
only input, either as built by `*_record_rows` or as read back from the
per-trial CSV by `read_csv`, and gives the same table from both.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .budget import Criterion, solve_greedy, solve_maximin, solve_minimax
from .gen import GenConfig, generate_instance
from .regret import maximal_acts, regret_matrix

RULES = ("exact_minimax", "greedy_minimax", "exact_maximin", "greedy_maximin")
PAIRS = ("minimax", "maximin")

VALUE_EQ_TOL = 1e-9


@dataclass(frozen=True)
class TrialRecord:
    """One (instance, budget) evaluation of all four rules."""

    trial: int
    seed: int
    k: int
    dm_size: int
    subsets: dict[str, tuple[int, ...]]
    values: dict[str, float]
    weak: dict[str, bool]
    strong: dict[str, bool]
    overlap_dm: dict[str, float]
    exact_equals_greedy: dict[str, bool]
    greedy_overlap: dict[str, float]


@dataclass(frozen=True)
class NegativityRecord:
    """One (instance, budget) comparison of the two optimal values."""

    dm_size: int
    trial: int
    seed: int
    k: int
    minimax_value: float
    maximin_value: float
    minimax_negative: bool
    maximin_negative: bool
    values_equal: bool


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """Deterministic per-trial seeds, independent of evaluation order."""
    state = np.random.SeedSequence(master_seed).generate_state(trials, dtype=np.uint64)
    return [int(s) for s in state]


def _values_equal(a: float, b: float) -> bool:
    if a == b:  # covers the two -inf sentinels
        return True
    return abs(a - b) <= VALUE_EQ_TOL


def _frac(part: int, whole: int) -> float:
    return round(part / whole, 6)


def run_consistency_trials(
    trials: int,
    config: GenConfig,
    k_range,
    master_seed: int,
) -> list[TrialRecord]:
    """Evaluate the four rules on `trials` generated instances per budget k."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    records: list[TrialRecord] = []
    for trial, seed in enumerate(trial_seeds(master_seed, trials)):
        acts, credal = generate_instance(replace(config, seed=seed))
        matrix = regret_matrix(acts, credal)
        dm = set(maximal_acts(matrix))
        for k in k_range:
            solutions = {
                "exact_minimax": solve_minimax(matrix, k),
                "exact_maximin": solve_maximin(matrix, k),
                "greedy_minimax": solve_greedy(matrix, k, Criterion.MINIMAX),
                "greedy_maximin": solve_greedy(matrix, k, Criterion.MAXIMIN),
            }
            subsets = {rule: sol.subset for rule, sol in solutions.items()}
            chosen = {rule: set(sub) for rule, sub in subsets.items()}
            records.append(
                TrialRecord(
                    trial=trial,
                    seed=seed,
                    k=k,
                    dm_size=len(dm),
                    subsets=subsets,
                    values={rule: sol.value for rule, sol in solutions.items()},
                    weak={rule: bool(s & dm) for rule, s in chosen.items()},
                    strong={rule: s <= dm for rule, s in chosen.items()},
                    overlap_dm={
                        rule: _frac(len(s & dm), len(s)) for rule, s in chosen.items()
                    },
                    exact_equals_greedy={
                        pair: chosen[f"exact_{pair}"] == chosen[f"greedy_{pair}"]
                        for pair in PAIRS
                    },
                    greedy_overlap={
                        pair: _frac(
                            len(chosen[f"greedy_{pair}"] & chosen[f"exact_{pair}"]),
                            len(chosen[f"greedy_{pair}"]),
                        )
                        for pair in PAIRS
                    },
                )
            )
    return records


def run_negativity_trials(
    trials: int,
    dm_sizes,
    offsets,
    master_seed: int,
    *,
    n_acts: int = 20,
    n_states: int = 5,
    n_vertices: int = 20,
) -> list[NegativityRecord]:
    """Optimal values at budgets just past each targeted maximality count."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    records: list[NegativityRecord] = []
    for dm_size in dm_sizes:
        seeds = trial_seeds(master_seed + dm_size, trials)
        for trial, seed in enumerate(seeds):
            config = GenConfig(
                n_acts=n_acts,
                n_states=n_states,
                n_vertices=n_vertices,
                target_dm=dm_size,
                seed=seed,
            )
            acts, credal = generate_instance(config)
            matrix = regret_matrix(acts, credal)
            for offset in offsets:
                k = dm_size + offset
                mml = solve_minimax(matrix, k).value
                mmaxl = solve_maximin(matrix, k).value
                records.append(
                    NegativityRecord(
                        dm_size=dm_size,
                        trial=trial,
                        seed=seed,
                        k=k,
                        minimax_value=mml,
                        maximin_value=mmaxl,
                        minimax_negative=mml < 0,
                        maximin_negative=mmaxl < 0,
                        values_equal=_values_equal(mml, mmaxl),
                    )
                )
    return records


def _subset_cell(subset: tuple[int, ...]) -> str:
    return " ".join(str(i) for i in subset)


def consistency_record_rows(records: list[TrialRecord]) -> list[dict]:
    rows = []
    for r in records:
        row: dict = {
            "trial": r.trial,
            "seed": r.seed,
            "k": r.k,
            "dm_size": r.dm_size,
            "minimax_value": repr(r.values["exact_minimax"]),
            "maximin_value": repr(r.values["exact_maximin"]),
        }
        for rule in RULES:
            row[f"{rule}_subset"] = _subset_cell(r.subsets[rule])
            row[f"{rule}_value"] = repr(r.values[rule])
            row[f"{rule}_weak"] = int(r.weak[rule])
            row[f"{rule}_strong"] = int(r.strong[rule])
            row[f"{rule}_dm_overlap"] = r.overlap_dm[rule]
        for pair in PAIRS:
            row[f"{pair}_exact_equals_greedy"] = int(r.exact_equals_greedy[pair])
            row[f"{pair}_greedy_overlap"] = r.greedy_overlap[pair]
        rows.append(row)
    return rows


def negativity_record_rows(records: list[NegativityRecord]) -> list[dict]:
    return [
        {
            "dm_size": r.dm_size,
            "trial": r.trial,
            "seed": r.seed,
            "k": r.k,
            "minimax_value": repr(r.minimax_value),
            "maximin_value": repr(r.maximin_value),
            "minimax_negative": int(r.minimax_negative),
            "maximin_negative": int(r.maximin_negative),
            "values_equal": int(r.values_equal),
        }
        for r in records
    ]


def write_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path) -> list[dict]:
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))


def _pct(bucket: list[dict], column: str) -> float:
    """Percentage mean of a 0/1 or fraction column over the bucket's rows.

    Typed rows and rows read back from CSV give the same result: 0/1 cells
    sum exactly as floats, and `csv` writes floats with repr.
    """
    return round(100.0 * sum(float(r[column]) for r in bucket) / len(bucket), 3)


def consistency_aggregate(rows: list[dict]) -> list[dict]:
    """Per (rule, k) percentage summary of the consistency trial rows."""
    out: list[dict] = []
    for rule in RULES:
        kind, pair = rule.split("_", 1)
        for k in sorted({int(r["k"]) for r in rows}):
            bucket = [r for r in rows if int(r["k"]) == k]
            row: dict = {"rule": rule, "k": k, "trials": len(bucket)}
            for name in ("weak", "strong", "dm_overlap"):
                row[f"{name}_pct"] = _pct(bucket, f"{rule}_{name}")
            for name in ("exact_equals_greedy", "greedy_overlap"):
                row[f"{name}_pct"] = _pct(bucket, f"{pair}_{name}") if kind == "greedy" else ""
            out.append(row)
    return out


def negativity_aggregate(rows: list[dict]) -> list[dict]:
    """Per (dm_size, k) percentage summary of the negativity trial rows."""
    out: list[dict] = []
    for dm_size, k in sorted({(int(r["dm_size"]), int(r["k"])) for r in rows}):
        bucket = [r for r in rows if (int(r["dm_size"]), int(r["k"])) == (dm_size, k)]
        row: dict = {"dm_size": dm_size, "k": k, "trials": len(bucket)}
        for name in ("minimax_negative", "maximin_negative", "values_equal"):
            row[f"{name}_pct"] = _pct(bucket, name)
        out.append(row)
    return out

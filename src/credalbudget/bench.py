"""Randomized experiment protocols and their CSV outputs.

Two protocols over generated instances:

* consistency: compare the exact solvers with their greedy approximations
  against the maximality set: weak/strong consistency rates, overlap
  fractions, and how often greedy recovers the exact subset.
* negativity: track how fast the optimal values turn negative as the budget
  passes the maximality count, and how often the two criteria agree.

Per-trial seeds derive from the master seed up front, so results do not
depend on evaluation order. Each aggregate takes the per-trial rows as its
only input, either as returned by `run_*_trials` or as read back from the
per-trial CSV by `read_csv`, and gives the same table from both.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from .budget import Criterion, solve_greedy, solve_maximin, solve_minimax
from .gen import GenConfig, generate_instance
from .regret import maximal_acts, regret_matrix

RULES = ("exact_minimax", "greedy_minimax", "exact_maximin", "greedy_maximin")
PAIRS = ("minimax", "maximin")

VALUE_EQ_TOL = 1e-9


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
) -> list[dict]:
    """Per-trial rows: the four rules on `trials` generated instances per budget k."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[dict] = []
    for trial, seed in enumerate(trial_seeds(master_seed, trials)):
        acts, credal = generate_instance(replace(config, seed=seed))
        matrix = regret_matrix(acts, credal)
        dm = set(maximal_acts(matrix))
        for k in k_range:
            solutions = {  # in RULES order, which is the CSV column order
                "exact_minimax": solve_minimax(matrix, k),
                "greedy_minimax": solve_greedy(matrix, k, Criterion.MINIMAX),
                "exact_maximin": solve_maximin(matrix, k),
                "greedy_maximin": solve_greedy(matrix, k, Criterion.MAXIMIN),
            }
            row: dict = {
                "trial": trial,
                "seed": seed,
                "k": k,
                "dm_size": len(dm),
                "minimax_value": solutions["exact_minimax"].value,
                "maximin_value": solutions["exact_maximin"].value,
            }
            for rule, sol in solutions.items():
                chosen = set(sol.subset)
                row[f"{rule}_subset"] = " ".join(str(i) for i in sol.subset)
                row[f"{rule}_value"] = sol.value
                row[f"{rule}_weak"] = int(bool(chosen & dm))
                row[f"{rule}_strong"] = int(chosen <= dm)
                row[f"{rule}_dm_overlap"] = _frac(len(chosen & dm), len(chosen))
            for pair in PAIRS:
                exact = set(solutions[f"exact_{pair}"].subset)
                greedy = set(solutions[f"greedy_{pair}"].subset)
                row[f"{pair}_exact_equals_greedy"] = int(exact == greedy)
                row[f"{pair}_greedy_overlap"] = _frac(len(greedy & exact), len(greedy))
            rows.append(row)
    return rows


def run_negativity_trials(
    trials: int,
    config: GenConfig,
    dm_sizes,
    offsets,
    master_seed: int,
) -> list[dict]:
    """Per-trial rows: optimal values at budgets just past each targeted maximality count.

    Instances have the shape of `config`, with target_dm and seed set per instance."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[dict] = []
    for dm_size in dm_sizes:
        seeds = trial_seeds(master_seed + dm_size, trials)
        for trial, seed in enumerate(seeds):
            acts, credal = generate_instance(replace(config, target_dm=dm_size, seed=seed))
            matrix = regret_matrix(acts, credal)
            for offset in offsets:
                k = dm_size + offset
                mml = solve_minimax(matrix, k).value
                mmaxl = solve_maximin(matrix, k).value
                rows.append(
                    {
                        "dm_size": dm_size,
                        "trial": trial,
                        "seed": seed,
                        "k": k,
                        "minimax_value": mml,
                        "maximin_value": mmaxl,
                        "minimax_negative": int(mml < 0),
                        "maximin_negative": int(mmaxl < 0),
                        "values_equal": int(_values_equal(mml, mmaxl)),
                    }
                )
    return rows


def write_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as handle:
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

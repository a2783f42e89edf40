"""Tests of the benchmark itself: metric names, the output checker, the layer split.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, max_ops: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--max-ops", str(max_ops)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _corrupt_negativity(stored):
    for record in stored.values():
        record["maximin"][1] += 1e-12  # vertex-form values must match exactly


def _corrupt_constraint(stored):
    for record in stored.values():
        record["matrix"][0][1] += 1e-6  # beyond the 1e-9 tolerance


def _corrupt_cli(stored):
    for key in stored:
        stored[key] += " "


def _corrupt_wide(stored):
    for record in stored.values():
        record["maximal"] = record["maximal"][1:]


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("negativity", _corrupt_negativity),
        ("constraint-lp", _corrupt_constraint),
        ("golden-cli", _corrupt_cli),
        ("wide-vertex", _corrupt_wide),
    ],
)
def test_corrupted_stored_output_counts_as_failed(workload, corrupt, monkeypatch, tmp_path):
    stored = run.load_expected(workload, 0)
    metrics, _, checker, _, _ = run.end_to_end(workload, 0, 0.0, 2, tmp_path)
    assert checker.failed == 0 and metrics["ok_frac"] == 1.0

    corrupt(stored)
    monkeypatch.setattr(run, "load_expected", lambda *_: stored)
    metrics, _, checker, _, _ = run.end_to_end(workload, 0, 0.0, 2, tmp_path)
    assert checker.failed == checker.attempted
    assert 1.0 - metrics["ok_frac"] > 0


def test_constraint_tolerance_admits_last_bit_changes(monkeypatch, tmp_path):
    stored = run.load_expected("constraint-lp", 0)
    for record in stored.values():
        record["matrix"][0][1] += 1e-12
    monkeypatch.setattr(run, "load_expected", lambda *_: stored)
    _, _, checker, _, _ = run.end_to_end("constraint-lp", 0, 0.0, 2, tmp_path)
    assert checker.failed == 0


def test_traced_layer_split_matches_the_predictions():
    calls = {w: bench(w, 1, max_ops=4)["metrics"] for w in WORKLOADS}

    def value(workload, name):
        return calls[workload][name]["value"]

    for workload in ("negativity", "wide-vertex"):
        assert value(workload, "simplex.maximize.calls") == 0
    for workload in ("constraint-lp", "wide-vertex"):
        assert value(workload, "budget.reachability_check.calls") == 0
    assert value("negativity", "budget.reachability_check.calls") > 0
    assert value("constraint-lp", "simplex.maximize.calls") > 0
    assert value("wide-vertex", "regret.pairwise_regret_from_vertices.calls") > 0
    assert value("golden-cli", "cli.main.calls") == 4
    instances = len(workloads.NEG_DM_SIZES) * workloads.NEG_TRIALS
    assert value("negativity", "gen.generate_instance.calls") == instances


def test_missing_source_tree_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "negativity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

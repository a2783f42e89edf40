"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from conftest import random_matrix
from credalbudget.bench import RULES, run_consistency_trials, run_negativity_trials
from credalbudget.budget import (
    Criterion,
    oracle_optima,
    oracle_solve,
    solve_maximin,
    solve_minimax,
)
from credalbudget.credal import CredalSet, LinearConstraint
from credalbudget.gen import GenConfig
from credalbudget.instances import builtin_instances
from credalbudget.problemio import problem_from_dict
from credalbudget.regret import maximal_acts, maximin_regret, minimax_regret

VALUE_TOL = 1e-9


def _finish(num: int, label: str, failures: list[str], elapsed: float, limit: float) -> None:
    ok = not failures and elapsed <= limit
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed <= limit, f"runtime {elapsed:.2f}s exceeds the {limit:.0f}s limit"
    assert not failures, "\n".join(failures[:12])


def _load(name):
    instance = builtin_instances()[name]
    problem = problem_from_dict(instance.problem)
    return instance, problem


def _check_display_matrix(matrix, expected_rows, tol, failures):
    for j, row in enumerate(expected_rows):
        for i, cell in enumerate(row):
            if cell is None:
                continue
            got = matrix.entries[i, j]
            if abs(got - cell) > tol:
                failures.append(f"entry[{i},{j}] = {got!r}, expected {cell!r} (tol {tol})")


def _check_values(matrix, solver, expected_by_k, failures, label):
    for k, want in expected_by_k.items():
        got = solver(matrix, k).value
        if abs(got - want) > VALUE_TOL:
            failures.append(f"{label} k={k}: value {got!r}, expected {want!r}")


def test_criterion_1_intro_golden():
    start = time.monotonic()
    failures: list[str] = []
    instance, problem = _load("intro")
    matrix = problem.regret_matrix()

    _check_display_matrix(matrix, instance.expected["display_matrix"], 1e-6, failures)
    dm = [matrix.names[i] for i in maximal_acts(matrix)]
    if dm != ["a1", "a2", "a3", "a4"]:
        failures.append(f"maximality = {dm}")
    _check_values(matrix, solve_minimax, {1: 3.0, 2: 1.4, 3: 1.0, 4: -1.1}, failures, "minimax")
    _check_values(matrix, solve_maximin, {1: 3.0, 2: 1.4, 3: 1.0, 4: -1.1}, failures, "maximin")
    ties = oracle_solve(matrix, 3, Criterion.MINIMAX).tie_count
    if ties != 2:
        failures.append(f"k=3 oracle tie count = {ties}, expected 2")

    _finish(1, "intro golden", failures, time.monotonic() - start, 1.0)


def test_criterion_2_sixacts_golden():
    start = time.monotonic()
    failures: list[str] = []
    instance, problem = _load("sixacts")
    matrix = problem.regret_matrix()

    _check_display_matrix(matrix, instance.expected["display_matrix"], 1e-6, failures)
    _check_values(
        matrix, solve_minimax,
        {1: 3.9, 2: 2.1, 3: 0.0, 4: -1.8, 5: -3.0}, failures, "minimax",
    )
    _check_values(
        matrix, solve_maximin,
        {1: 3.9, 2: -0.7, 3: -1.0, 4: -1.8, 5: -3.0}, failures, "maximin",
    )
    wanted = {
        ("maximin", 2): {"a3", "a6"},
        ("maximin", 3): {"a1", "a3", "a6"},
        ("minimax", 3): {"a3", "a4", "a6"},
    }
    for (which, k), names in wanted.items():
        solver = solve_minimax if which == "minimax" else solve_maximin
        got = {matrix.names[i] for i in solver(matrix, k).subset}
        if got != names:
            failures.append(f"{which} k={k}: subset {sorted(got)}, expected {sorted(names)}")

    _finish(2, "sixacts golden", failures, time.monotonic() - start, 1.0)


def test_criterion_3_finance_golden():
    start = time.monotonic()
    failures: list[str] = []
    instance, problem = _load("finance")
    matrix = problem.regret_matrix()

    _check_display_matrix(matrix, instance.expected["display_matrix"], 5e-3, failures)
    dm = [matrix.names[i] for i in maximal_acts(matrix)]
    if dm != ["a1", "a2", "a5", "a7", "a8", "a9"]:
        failures.append(f"maximality = {dm}")
    _check_values(
        matrix, solve_minimax,
        {1: 8.0, 2: 4.7, 3: 4.6, 4: 2.9, 5: 2.6, 6: -1.4}, failures, "minimax",
    )
    _check_values(
        matrix, solve_maximin,
        {1: 8.0, 2: 4.6, 3: 3.0, 4: 2.9, 5: 2.6, 6: -3.0}, failures, "maximin",
    )
    for which, expectations in (
        ("minimax", instance.expected["minimax"]),
        ("maximin", instance.expected["maximin"]),
    ):
        crit = Criterion.MINIMAX if which == "minimax" else Criterion.MAXIMIN
        solver = solve_minimax if which == "minimax" else solve_maximin
        for k, want in expectations.items():
            if oracle_solve(matrix, k, crit).tie_count != 1:
                continue  # subsets are asserted only where the optimum is unique
            got = {matrix.names[i] for i in solver(matrix, k).subset}
            if got != set(want["subset"]):
                failures.append(f"{which} k={k}: subset {sorted(got)}")

    _finish(3, "finance golden", failures, time.monotonic() - start, 5.0)


def test_criterion_4_multilabel_golden():
    start = time.monotonic()
    failures: list[str] = []
    instance, problem = _load("multilabel")
    matrix = problem.regret_matrix()

    points = problem.credal.extreme_points()
    want_points = np.asarray(instance.expected["extreme_points"])
    if points.shape != want_points.shape:
        failures.append(f"extreme point count {points.shape}")
    elif np.max(np.abs(points - want_points)) > 1e-12:
        failures.append(
            f"extreme points deviate by {np.max(np.abs(points - want_points)):.3g}"
        )
    _check_display_matrix(matrix, instance.expected["display_matrix"], 1e-9, failures)

    star = solve_minimax(matrix, 2)
    if {matrix.names[i] for i in star.subset} != {"[100]", "[011]"}:
        failures.append(f"minimax k=2 subset {star.subset}")
    if abs(star.value - 0.6) > VALUE_TOL:
        failures.append(f"minimax k=2 value {star.value!r}")
    plus = solve_maximin(matrix, 2)
    if {matrix.names[i] for i in plus.subset} != {"[100]", "[101]"}:
        failures.append(f"maximin k=2 subset {plus.subset}")
    if abs(plus.value - 0.4) > VALUE_TOL:
        failures.append(f"maximin k=2 value {plus.value!r}")

    _finish(4, "multilabel golden", failures, time.monotonic() - start, 5.0)


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    failures: list[str] = []
    for seed in range(200):
        matrix = random_matrix(seed, max_acts=8, max_states=4, max_vertices=5)
        n = matrix.n
        for k in range(1, n + 1):
            star = solve_minimax(matrix, k).value
            plus = solve_maximin(matrix, k).value
            want_star = oracle_solve(matrix, k, Criterion.MINIMAX).value
            want_plus = oracle_solve(matrix, k, Criterion.MAXIMIN).value
            if star != want_star:
                failures.append(f"seed {seed} k={k}: minimax {star!r} != {want_star!r}")
            if plus != want_plus:
                failures.append(f"seed {seed} k={k}: maximin {plus!r} != {want_plus!r}")
        for k in {1, n - 1}:
            if k < 1:
                continue
            a = oracle_optima(matrix, k, Criterion.MINIMAX)
            b = oracle_optima(matrix, k, Criterion.MAXIMIN)
            if a != b:
                failures.append(f"seed {seed} k={k}: optimal collections differ")

    _finish(5, "oracle equivalence, 200 instances", failures, time.monotonic() - start, 120.0)


def _pool(count, offset=0):
    return [random_matrix(seed + offset) for seed in range(count)]


def test_criterion_6_property_suite():
    start = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(2024)
    matrices = _pool(500)

    def random_subset(n, proper=False):
        hi = n - 1 if proper else n
        size = int(rng.integers(1, max(hi, 1) + 1))
        return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))

    # ordering, monotonicity, negativity in both directions, corollaries
    negative_seen = 0
    for matrix in matrices:
        n = matrix.n
        subset = random_subset(n)
        small = random_subset(n, proper=True)
        outside = [j for j in range(n) if j not in small]
        extra = rng.choice(outside, size=int(rng.integers(1, len(outside) + 1)), replace=False)
        grown = tuple(sorted(set(small) | {int(e) for e in extra}))

        if maximin_regret(matrix, subset) > minimax_regret(matrix, subset):
            failures.append("ordering violated")
        if minimax_regret(matrix, small) < minimax_regret(matrix, grown):
            failures.append("minimax monotonicity violated")
        if maximin_regret(matrix, small) < maximin_regret(matrix, grown):
            failures.append("maximin monotonicity violated")

        dominates_all = any(
            all(matrix.entries[i, j] < 0 for j in outside) for i in small
        )
        if (minimax_regret(matrix, small) < 0) != dominates_all:
            failures.append("minimax negativity mismatch")
        each_beaten = all(
            any(matrix.entries[i, j] < 0 for i in small) for j in outside
        )
        if (maximin_regret(matrix, small) < 0) != each_beaten:
            failures.append("maximin negativity mismatch")

        dm = set(maximal_acts(matrix))
        padded = tuple(sorted(dm | set(random_subset(n))))
        for probe in (small, padded):
            if minimax_regret(matrix, probe) < 0 and not dm <= set(probe):
                failures.append("minimax negative without containing maximality")
            if maximin_regret(matrix, probe) < 0:
                negative_seen += 1
                if not dm <= set(probe):
                    failures.append("maximin negative without containing maximality")
        if dm != set(range(n)) and maximin_regret(matrix, tuple(sorted(dm))) >= 0:
            failures.append("maximality set not negative under maximin")
    if negative_seen < 500:
        failures.append(f"only {negative_seen} negative-value cases exercised")

    # solver consistency and value monotonicity in k
    for matrix in matrices:
        n = matrix.n
        dm = set(maximal_acts(matrix))
        k = int(rng.integers(1, n + 1))
        star = solve_minimax(matrix, k)
        plus = solve_maximin(matrix, k)
        if not set(star.subset) & dm or not set(plus.subset) & dm:
            failures.append("weak consistency violated")
        if plus.value > star.value:
            failures.append("criterion ordering violated at the optimum")
        one_star = solve_minimax(matrix, 1)
        one_plus = solve_maximin(matrix, 1)
        if not set(one_star.subset) <= dm or not set(one_plus.subset) <= dm:
            failures.append("strong consistency at k=1 violated")
        values_star = [solve_minimax(matrix, kk).value for kk in range(1, n + 1)]
        values_plus = [solve_maximin(matrix, kk).value for kk in range(1, n + 1)]
        if values_star != sorted(values_star, reverse=True):
            failures.append("minimax value not monotone in k")
        if values_plus != sorted(values_plus, reverse=True):
            failures.append("maximin value not monotone in k")

    # duality and LP-versus-enumeration agreement on constraint-form sets
    for case in range(500):
        n = int(rng.integers(2, 5))
        center = rng.dirichlet(np.ones(n))
        width = rng.uniform(0.0, 0.4, size=n)
        rows = []
        for i in range(n):
            unit = tuple(1.0 if s == i else 0.0 for s in range(n))
            rows.append(LinearConstraint(unit, "<=", float(min(1.0, center[i] + width[i]))))
            rows.append(LinearConstraint(unit, ">=", float(max(0.0, center[i] - width[i]))))
        credal = CredalSet.from_constraints(rows, n)
        points = credal.extreme_points()
        gamble = rng.normal(size=n) * 10
        lp = credal.upper_expectation(gamble)
        if abs(lp - float(np.max(points @ gamble))) > 1e-9:
            failures.append(f"case {case}: LP and enumeration disagree")
        if credal.lower_expectation(gamble) != -credal.upper_expectation(-gamble):
            failures.append(f"case {case}: duality identity broken")

    _finish(6, "property suite, 500 cases each", failures, time.monotonic() - start, 300.0)


def test_criterion_7_experiment_trends():
    start = time.monotonic()
    failures: list[str] = []

    config = GenConfig(n_acts=20, n_states=5, n_vertices=20, target_dm=6, seed=0)
    rows = run_consistency_trials(100, config, range(2, 7), master_seed=20240817)
    for row in rows:
        for rule in RULES:
            if not row[f"{rule}_weak"]:
                failures.append(f"weak consistency broken for {rule} at k={row['k']}")
        if row["k"] >= row["dm_size"] and row["exact_maximin_value"] >= 0:
            failures.append(f"maximin value nonnegative at k={row['k']} >= dm")

    at_six = [r for r in rows if r["k"] == 6]
    strong_star = sum(r["exact_minimax_strong"] for r in at_six)
    strong_plus = sum(r["exact_maximin_strong"] for r in at_six)
    strong_greedy = sum(r["greedy_maximin_strong"] for r in at_six)
    if not strong_plus > strong_star:
        failures.append(f"k=6 strong rates: maximin {strong_plus} <= minimax {strong_star}")
    if not strong_greedy < strong_plus:
        failures.append(f"k=6 strong rates: greedy {strong_greedy} >= exact {strong_plus}")

    negativity = run_negativity_trials(50, (2, 5, 10), (0, 1, 2, 3), master_seed=7)
    for row in negativity:
        if not row["maximin_negative"]:
            failures.append(
                f"maximin value {row['maximin_value']!r} not negative at "
                f"k={row['k']} >= dm={row['dm_size']}"
            )

    _finish(7, "experiment trends", failures, time.monotonic() - start, 900.0)

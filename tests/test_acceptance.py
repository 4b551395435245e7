"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Each test prints a single "criterion N: PASS" line on success (visible under
pytest -s or on failure) and carries its runtime budget where one is stated.
"""

import dataclasses
import time

import numpy as np

from cpsblotto import (EquilibriumRegimeError, battlefield_values,
                       cascade_failure, complete_info_payoffs, cross_validate,
                       default_nine_node, default_params, flow_capacity_sweep,
                       generate_concentric, payoff_table,
                       single_dependency_case, solve_equilibrium,
                       symmetry_sweep)
from cpsblotto.cascade import physical_effect_matrix
from cpsblotto.model import normalize_weights
from cpsblotto.sampling import allocation_band_probability
from _support import TABLE_CASES, TABLE_H, random_level_spec, routed_dag


def test_criterion_1_payoff_table_reproduction():
    start = time.monotonic()
    rows = payoff_table(TABLE_H, TABLE_CASES, budget_d=2.5, budget_a=1.0)
    expected = [0.8, 0.8034, 0.8081, 0.8130]
    for (name, payoff_d, payoff_a), expect in zip(rows, expected):
        assert abs(payoff_d - expect) <= 1e-3, (name, payoff_d, expect)
        assert abs(payoff_a - 0.2) <= 1e-3, (name, payoff_a)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS — four defender payoffs within 1e-3, "
          f"attacker 0.2, {elapsed:.2f}s")


def test_criterion_2_complete_information_closed_form():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        budget_a = float(rng.uniform(0.5, 5.0))
        budget_d = budget_a * float(rng.uniform(1.0, 4.0))
        payoff_d, payoff_a = complete_info_payoffs(budget_d, budget_a)
        assert payoff_a == budget_a / (2.0 * budget_d)   # exact closed form
        assert payoff_d == 1.0 - payoff_a
        n = int(rng.integers(2, 10))
        g = normalize_weights(rng.uniform(0.1, 1.0, n))
        solution = solve_equilibrium(g, g, budget_d, budget_a)
        assert abs(solution.payoff_d - payoff_d) <= 1e-12
        assert abs(solution.payoff_a - payoff_a) <= 1e-12
    print("criterion 2: PASS — closed form exact, equal-values solver "
          "within 1e-12 on 100 budget pairs")


def test_criterion_3_single_dependency_suite():
    start = time.monotonic()
    rng = np.random.default_rng(333)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 9))
        h = normalize_weights(rng.uniform(0.05, 1.0, n))
        if np.argmax(h) == np.argmin(h):
            continue
        h_m, h_l = float(h.max()), float(h.min())
        bound = (h_m + h_l) / (h_m + h_l - h_m * h_l)
        budget_a = float(rng.uniform(0.5, 2.0))
        budget_d = budget_a * bound * float(rng.uniform(1.0, 3.0))
        report = single_dependency_case(h, budget_d, budget_a)

        # independent route: the general solver on the derived g
        solution = solve_equilibrium(report.g, h, budget_d, budget_a)
        assert abs(solution.mu - report.mu) <= 1e-10 * report.mu
        assert abs(report.lambda_a - 1.0 / (2.0 * budget_d)) <= 1e-10
        assert abs(solution.lambda_a - report.lambda_a) <= 1e-10
        assert abs(solution.lambda_d - report.lambda_d) <= 1e-10
        assert abs(report.payoff_a - budget_a / (2.0 * budget_d)) <= 1e-12
        assert abs(solution.payoff_a - report.payoff_a) <= 1e-12
        assert abs(solution.payoff_d - report.payoff_d) <= 1e-12
        # one dependency always helps the defender (g != h strictly)
        assert report.payoff_d > complete_info_payoffs(budget_d, budget_a)[0]
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 3: PASS — 200 closed-form instances match the general "
          f"solver, {elapsed:.2f}s")


def _feasible_three_field(rng, units_d: int, units_a: int):
    """Draw (g, h) whose relaxed supports fit inside the attacker budget."""
    while True:
        h = normalize_weights(rng.uniform(0.2, 1.0, 3))
        g = normalize_weights(rng.uniform(0.2, 1.0, 3))
        solution = solve_equilibrium(g, h, float(units_d), float(units_a))
        endpoint = 0.0
        for i in range(3):
            if i in solution.omega_a:
                endpoint = max(endpoint, g[i] / solution.lambda_d)
            else:
                endpoint = max(endpoint, h[i] / solution.lambda_a)
        if endpoint <= units_a:
            return g, h


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for index in range(20):
        units_a = 20
        if index % 2 == 0:
            units_d = int(rng.integers(22, 26))
            h_major = float(rng.uniform(0.50, 0.53))
            g_major = float(rng.uniform(0.47, 0.53))
            h = np.array([h_major, 1.0 - h_major])
            g = np.array([g_major, 1.0 - g_major])
        else:
            units_d = int(rng.integers(22, 29))
            g, h = _feasible_three_field(rng, units_d, units_a)
        report = cross_validate(g, h, float(units_d), float(units_a),
                                grid_units=units_a)
        diff = max(report.abs_diff_d, report.abs_diff_a)
        worst = max(worst, diff)
        assert diff <= 0.03, (index, units_d, diff)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 4: PASS — 20 instances within 0.03 "
          f"(worst {worst:.4f}), {elapsed:.1f}s")


def test_criterion_5_cascade_properties():
    rng = np.random.default_rng(4242)
    worst_gap = 0.0
    for _ in range(500):
        topology = routed_dag(rng)
        E = physical_effect_matrix(topology)
        assert np.all(np.diag(E) == 0.0)
        assert E.min() >= 0.0 and E.max() <= 1.0
        for failed in range(topology.n):
            result = cascade_failure(topology, failed)
            for record in result.records:
                gap = abs(record.deficit - (record.absorbed + record.lost))
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-9

    pair_rng = np.random.default_rng(911)
    worst_increase = -np.inf
    for _ in range(100):
        spec = random_level_spec(pair_rng)
        fill = float(pair_rng.uniform(0.45, 0.95))
        scale = float(pair_rng.uniform(1.2, 2.0))
        base = generate_concentric(spec, flow_fill=fill)
        roomier = dataclasses.replace(
            base, capacities=base.capacities * scale)
        E_base = physical_effect_matrix(base)
        E_roomier = physical_effect_matrix(roomier)
        increase = float((E_roomier - E_base).max())
        worst_increase = max(worst_increase, increase)
        assert increase <= 1e-12
    print(f"criterion 5: PASS — accounting gap {worst_gap:.2e} over 500 "
          f"topologies; capacity scaling never raised any effect "
          f"(max change {worst_increase:.2e}) on 100 pairs")


def test_criterion_6_sweep_trends():
    start = time.monotonic()
    flow_rows = flow_capacity_sweep()
    assert len(flow_rows) == 10
    ratios = [row[1] for row in flow_rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    assert max(abs(row[2] - 1.0) for row in flow_rows) <= 1e-12

    values = battlefield_values(default_nine_node(), default_params(9))
    sym_rows = symmetry_sweep(values.attacker, g_base=values.defender)
    assert len(sym_rows) == 10
    sym_ratios = [row[2] for row in sym_rows]
    assert all(b >= a for a, b in zip(sym_ratios, sym_ratios[1:]))
    assert max(abs(row[3] - 1.0) for row in sym_rows) <= 1e-12
    assert max(sym_ratios) > 1.0   # the defender gains from symmetry
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 6: PASS — both sweeps nondecreasing, attacker ratio "
          f"constant, max symmetry gain {max(sym_ratios) - 1.0:.4f}, "
          f"{elapsed:.2f}s")


def test_criterion_7_band_probability_ordering():
    values = battlefield_values(default_nine_node(), default_params(9))
    h = values.attacker
    uniform = np.full(9, 1.0 / 9.0)
    solution = solve_equilibrium(uniform, h, 2.5, 1.0)  # most symmetric point
    probs = {}
    for node in (0, 1, 4):  # one node per tier, h = 4/15, 2/15, 1/15
        probs[node] = allocation_band_probability(
            solution.marginals_d, node, float(uniform[node]), 0.05, 2.5)
    for node, exact in ((0, 3.0 / 16.0), (1, 3.0 / 8.0), (4, 13.0 / 24.0)):
        assert abs(probs[node] - exact) <= 1e-12, (node, probs[node], exact)
    assert probs[0] < probs[1] < probs[4]
    print(f"criterion 7: PASS — defender band probabilities "
          f"{probs[0]:.4f} < {probs[1]:.4f} < {probs[4]:.4f}, "
          f"exactly 3/16 < 3/8 < 13/24")


def test_criterion_8_solver_internal_consistency():
    rng = np.random.default_rng(808)
    solved = 0
    regime_errors = 0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        g = normalize_weights(rng.uniform(0.05, 1.0, n))
        h = normalize_weights(rng.uniform(0.05, 1.0, n))
        budget_a = float(rng.uniform(0.5, 3.0))
        budget_d = budget_a * float(rng.uniform(1.0, 4.0))
        try:
            sol = solve_equilibrium(g, h, budget_d, budget_a)
        except EquilibriumRegimeError:
            regime_errors += 1
            continue
        solved += 1
        q = budget_d / budget_a
        inside = np.zeros(n, dtype=bool)
        inside[list(sol.omega_a)] = True
        a = (g[inside] ** 2 / h[inside]).sum()
        b = -q * g[inside].sum()
        c = h[~inside].sum()
        d = -q * (h[~inside] ** 2 / g[~inside]).sum()
        value = ((a * sol.mu + b) * sol.mu + c) * sol.mu + d
        scale = max(abs(a * sol.mu ** 3), abs(b * sol.mu ** 2),
                    abs(c * sol.mu), abs(d))
        assert abs(value) <= 1e-10 * scale
        assert sol.omega_a == frozenset(
            int(i) for i in np.flatnonzero(h / g > sol.mu))
        spend_d = sum(m.mean() for m in sol.marginals_d)
        spend_a = sum(m.mean() for m in sol.marginals_a)
        assert abs(spend_d - budget_d) <= 1e-9 * budget_d
        assert abs(spend_a - budget_a) <= 1e-9 * budget_a
        for side in (sol.marginals_d, sol.marginals_a):
            for marginal in side:
                assert 0.0 <= marginal.atom_at_zero <= 1.0
        assert 0.0 <= sol.payoff_d <= 1.0
        assert 0.0 <= sol.payoff_a <= 1.0
    assert solved + regime_errors == 1000
    print(f"criterion 8: PASS — {solved} solutions consistent, "
          f"{regime_errors} clean regime rejections")

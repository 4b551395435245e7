"""Experiment drivers: payoff tables, sweeps, band probabilities, CSV."""

import numpy as np
import pytest

from cpsblotto import (ValidationError, band_probability_table,
                       battlefield_values, default_nine_node, default_params,
                       flow_capacity_sweep, payoff_table, symmetry_sweep,
                       write_csv)
from cpsblotto.experiments import csv_lines, matrix_rows, vector_rows
from _support import TABLE_CASES, TABLE_H


def test_payoff_table_reproduces_published_payoffs():
    rows = payoff_table(TABLE_H, TABLE_CASES, budget_d=2.5, budget_a=1.0)
    names = [row[0] for row in rows]
    assert names == ["h", "case1", "case2", "case3"]
    expected_d = [0.800000000, 0.803375865, 0.808072239, 0.812942040]
    for (name, payoff_d, payoff_a), expect in zip(rows, expected_d):
        assert abs(payoff_d - expect) < 1e-8
        assert abs(payoff_a - 0.2) < 1e-12  # attacker payoff never moves
    # stronger coupling concentrates g and buys the defender more
    payoffs = [row[1] for row in rows]
    assert payoffs == sorted(payoffs)


def test_payoff_table_rejects_bad_columns():
    with pytest.raises(ValidationError, match="sums to"):
        payoff_table(TABLE_H, {"bad": TABLE_H * 1.1}, 2.5, 1.0)
    with pytest.raises(ValidationError, match="wrong length"):
        payoff_table(TABLE_H, {"short": TABLE_H[:5]}, 2.5, 1.0)
    with pytest.raises(ValidationError, match="expected 1"):
        payoff_table(TABLE_H * 2.0, {}, 2.5, 1.0)


def test_flow_capacity_sweep_frozen_values():
    rows = flow_capacity_sweep()
    assert [row[0] for row in rows] == [pytest.approx(0.1 * k) for k in range(1, 11)]
    expected = [1.016552157] * 5 + [1.016689151, 1.016832363, 1.016963040,
                                    1.017077829, 1.017177647]
    for (fill, ratio_d, ratio_a), expect in zip(rows, expected):
        assert abs(ratio_d - expect) < 1e-9
        assert abs(ratio_a - 1.0) < 1e-12
    ratios = [row[1] for row in rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))  # nondecreasing


def test_symmetry_sweep_frozen_endpoints_and_monotonicity():
    values = battlefield_values(default_nine_node(), default_params(9))
    rows = symmetry_sweep(values.attacker)
    assert abs(rows[0][2] - 1.000614859) < 1e-9
    assert abs(rows[-1][2] - 1.060606061) < 1e-9
    ratios = [row[2] for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    deviations = [row[1] for row in rows]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] == 0.0  # theta = 1 is exactly uniform
    assert max(abs(row[3] - 1.0) for row in rows) < 1e-12

    seeded = symmetry_sweep(values.attacker, g_base=values.defender)
    assert abs(seeded[0][2] - 1.019832285) < 1e-9
    assert abs(seeded[-1][2] - 1.060606061) < 1e-9
    assert seeded[0][2] > rows[0][2]  # derived values start less symmetric


def test_band_probability_table_frozen_at_uniform():
    values = battlefield_values(default_nine_node(), default_params(9))
    rows = band_probability_table(values.attacker, (0, 1, 4), points=(1.0,))
    assert len(rows) == 6  # 3 nodes x 2 owners
    defender = {row[2]: row[5] for row in rows if row[3] == "defender"}
    attacker = {row[2]: row[5] for row in rows if row[3] == "attacker"}
    # at uniform g every defender share is 1/9; nodes with lower attacker
    # value draw less attacker fire, so staying near the share is easier
    assert abs(defender[0] - 3.0 / 16.0) < 1e-12
    assert abs(defender[1] - 3.0 / 8.0) < 1e-12
    assert abs(defender[4] - 13.0 / 24.0) < 1e-12
    assert defender[0] < defender[1] < defender[4]
    # every attacker band lies inside its support, and 2 * epsilon / u is
    # the same on every node
    assert max(attacker.values()) - min(attacker.values()) < 1e-12
    for row in rows:
        assert 0.0 <= row[5] <= 1.0
        if row[3] == "attacker":
            assert abs(row[4] - values.attacker[row[2]]) < 1e-12


def test_sweep_budgets_default_to_default_params():
    values = battlefield_values(default_nine_node(), default_params(9))
    params = default_params(9)
    budgets = {"budget_d": params.budget_d, "budget_a": params.budget_a}
    assert (symmetry_sweep(values.attacker, g_base=values.defender)
            == symmetry_sweep(values.attacker, g_base=values.defender,
                              **budgets))
    assert (band_probability_table(values.attacker, (0, 4), points=(0.5,))
            == band_probability_table(values.attacker, (0, 4), points=(0.5,),
                                      **budgets))


def test_sweep_spec_validation():
    h = np.full(4, 0.25)
    for sweep in (flow_capacity_sweep, lambda points: symmetry_sweep(h, points)):
        assert len(sweep((0.1, 0.5, 1.0))) == 3
        with pytest.raises(ValidationError, match="at least one"):
            sweep(())
        for points in ((0.5, 0.4), (0.9, 0.1), (0.0, 0.5), (0.5, 1.5),
                       (0.5, 0.5)):
            with pytest.raises(ValidationError, match="strictly increasing"):
                sweep(points)


def test_sweeps_read_points_given_as_an_iterator_once():
    values = battlefield_values(default_nine_node(), default_params(9))
    points = (0.5, 1.0)
    for sweep in (flow_capacity_sweep,
                  lambda p: symmetry_sweep(values.attacker, p),
                  lambda p: band_probability_table(values.attacker, (0, 4),
                                                   points=p)):
        rows = sweep(iter(points))
        assert rows and rows == sweep(points)


def test_flow_capacity_sweep_overrides_reach_default_params():
    budgets = flow_capacity_sweep(points=(0.5,), budget_d=3.0, budget_a=1.5)
    assert budgets != flow_capacity_sweep(points=(0.5,))
    # the ratios divide by the complete-information payoffs at the same
    # budgets, and the attacker payoff stays at that baseline here
    assert abs(budgets[0][2] - 1.0) < 1e-12
    weighted = flow_capacity_sweep(points=(0.5,), alpha=0.6, beta=0.4)
    assert weighted != flow_capacity_sweep(points=(0.5,))
    with pytest.raises(TypeError):
        flow_capacity_sweep(points=(0.5,), budget=3.0)


def test_csv_formatting(tmp_path):
    lines = csv_lines("defender_values", [(1, 0.123456789123), (2, 3.0)])
    assert lines[0].startswith("# cpsblotto v")
    assert lines[0].endswith("; units: dimensionless, sums to 1")
    assert lines[1] == "node,value"
    assert lines[2] == "1,0.123456789"   # 9 significant digits
    assert lines[3] == "2,3"

    path = tmp_path / "out.csv"
    write_csv(str(path), "defender_values", [(1, 2.5)])
    text = path.read_text()
    assert text.endswith("1,2.5\n")


def test_matrix_and_vector_rows():
    M = np.array([[0.0, 1.0], [2.0, 3.0]])
    rows = matrix_rows(M)
    assert rows == [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)]
    assert vector_rows(np.array([5.0, 6.0])) == [(0, 5.0), (1, 6.0)]

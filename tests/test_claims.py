"""The paper's two claims, each on the inputs where it has been tested.

Claim 1: a defender whose attacker does not know the interdependencies
earns at least the complete-information payoff 1 - R_A / (2 R_D).

Claim 2: with more symmetric nodes the defender reaches its highest payoff.
Criterion 6 checks the monotone reading on the nine-node system; here one
generated system pins where that reading fails.  Each sweep point's payoff
is measured in that point's own values g(theta).
"""

import numpy as np
import pytest

from cpsblotto import (battlefield_values, complete_info_payoffs,
                       default_params, generate_concentric, solve_equilibrium,
                       symmetry_sweep)


def test_claim_1_holds_on_random_values():
    # g and h drawn independently from one Dirichlet per input, from
    # spiky (0.3) to near uniform (10)
    rng = np.random.default_rng(20171)
    worst = np.inf
    for k in range(3000):
        n = int(rng.integers(2, 40))
        q = float(rng.uniform(1.0, 4.0))
        concentration = np.full(n, (0.3, 1.0, 10.0)[k % 3])
        g, h = rng.dirichlet(concentration), rng.dirichlet(concentration)
        solution = solve_equilibrium(g, h, q, 1.0)
        worst = min(worst,
                    solution.payoff_d - complete_info_payoffs(q, 1.0)[0])
    assert worst >= -1e-12


def test_claim_2_symmetry_ratio_is_not_monotone_on_tiers_1_8_32():
    topology = generate_concentric([(1, 4.0), (8, 2.0), (32, 1.0)], 0.7)
    params = default_params(topology.n)
    values = battlefield_values(topology, params)
    derived = solve_equilibrium(values.defender, values.attacker,
                                params.budget_d, params.budget_a)
    base_d = complete_info_payoffs(params.budget_d, params.budget_a)[0]
    rows = symmetry_sweep(values.attacker, budget_d=params.budget_d,
                          budget_a=params.budget_a, g_base=values.defender)
    thetas = [0.0] + [row[0] for row in rows]
    ratios = [derived.payoff_d / base_d] + [row[2] for row in rows]
    lowest = int(np.argmin(ratios))
    # a smooth U: down from the derived values, up again toward uniform
    assert ratios[0] == pytest.approx(1.0294, abs=5e-5)
    assert thetas[lowest] == 0.6
    assert ratios[lowest] == pytest.approx(1.0119, abs=5e-5)
    assert ratios[-1] == pytest.approx(1.0414, abs=5e-5)
    assert all(b < a for a, b in zip(ratios[:lowest], ratios[1:lowest + 1]))
    assert all(b > a for a, b in zip(ratios[lowest:], ratios[lowest + 1:]))

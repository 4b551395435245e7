"""The paper's two claims, each on the inputs where it has been tested.

Claim 1: a defender whose attacker does not know the interdependencies
earns at least the complete-information payoff 1 - R_A / (2 R_D).  It is
a theorem: the defender strategy uniform on [0, 2 R_D g_i] on each
battlefield earns that payoff against any attacker, and the equilibrium
defender, best-responding, earns at least as much.  Its stronger form is
tested but not proved: as the attacker's values move from h to g, the
defender's payoff falls to that baseline.

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
from cpsblotto.model import normalize_weights


def test_claim_1_holds_on_random_values():
    # g and h drawn independently from one Dirichlet per input, from
    # spiky (0.3) to near uniform (10).  The proof's security strategy,
    # uniform on [0, 2 R_D g_i], plays the equilibrium attacker: against
    # the atom b it wins, and against the uniform part on (0, v] it wins
    # with probability c.  It earns the baseline or more, and the
    # defender's best response at the equilibrium earns that or more.
    rng = np.random.default_rng(20171)
    worst_secure = worst_response = np.inf
    for k in range(3000):
        n = int(rng.integers(2, 40))
        q = float(rng.uniform(1.0, 4.0))
        concentration = np.full(n, (0.3, 1.0, 10.0)[k % 3])
        g, h = rng.dirichlet(concentration), rng.dirichlet(concentration)
        solution = solve_equilibrium(g, h, q, 1.0)
        b, v = solution.marginals_a.atom, solution.marginals_a.upper
        u = 2.0 * q * g
        c = np.where(u >= v, 1.0 - v / (2.0 * u), u / (2.0 * v))
        secure = g @ (b + (1.0 - b) * c)
        worst_secure = min(worst_secure,
                           secure - complete_info_payoffs(q, 1.0)[0])
        worst_response = min(worst_response, solution.payoff_d - secure)
    assert worst_secure >= -1e-12
    assert worst_response >= -1e-12


def test_claim_1_holds_on_generated_systems():
    # 120 concentric systems of 3-4 tiers, 2-12 nodes in each tier below
    # the reference, descending tier weights in [0.5, 5] and fill in
    # [0.2, 0.95], at default parameters and R_D / R_A of 1, 2.5 and 4
    rng = np.random.default_rng(20172)
    worst = np.inf
    for _ in range(120):
        tiers = int(rng.integers(3, 5))
        counts = [1] + rng.integers(2, 13, size=tiers - 1).tolist()
        weights = np.sort(rng.uniform(0.5, 5.0, size=tiers))[::-1].tolist()
        topology = generate_concentric(list(zip(counts, weights)),
                                       float(rng.uniform(0.2, 0.95)))
        values = battlefield_values(topology, default_params(topology.n))
        for q in (1.0, 2.5, 4.0):
            solution = solve_equilibrium(values.defender, values.attacker,
                                         q, 1.0)
            worst = min(worst,
                        solution.payoff_d - complete_info_payoffs(q, 1.0)[0])
    assert worst >= -1e-12


def test_claim_1_payoff_falls_as_the_attacker_learns():
    # The attacker's values h(lam) = normalize((1 - lam) h + lam g) run
    # from the uninformed attacker's h at lam = 0 to the defender's own g
    # at lam = 1, the complete-information game.  Inputs: 300 seeded
    # (g, h) pairs drawn as in the random-values test, R_D / R_A cycling
    # through 1, 1.5, 2.5 and 4, and 60 concentric systems drawn as in the
    # generated-systems test, at default parameters.
    rng = np.random.default_rng(20173)
    inputs = []
    for k in range(300):
        concentration = np.full(int(rng.integers(2, 40)),
                                (0.3, 1.0, 10.0)[k % 3])
        inputs.append((rng.dirichlet(concentration),
                       rng.dirichlet(concentration),
                       (1.0, 1.5, 2.5, 4.0)[k % 4], 1.0))
    for _ in range(60):
        tiers = int(rng.integers(3, 5))
        counts = [1] + rng.integers(2, 13, size=tiers - 1).tolist()
        weights = np.sort(rng.uniform(0.5, 5.0, size=tiers))[::-1].tolist()
        topology = generate_concentric(list(zip(counts, weights)),
                                       float(rng.uniform(0.2, 0.95)))
        params = default_params(topology.n)
        values = battlefield_values(topology, params)
        inputs.append((values.defender, values.attacker, params.budget_d,
                       params.budget_a))
    worst_rise = worst_gap = 0.0
    for g, h, budget_d, budget_a in inputs:
        payoffs = [solve_equilibrium(
            g, normalize_weights((1.0 - lam) * h + lam * g), budget_d,
            budget_a).payoff_d for lam in np.linspace(0.0, 1.0, 11)]
        worst_rise = max(worst_rise, np.diff(payoffs).max())
        worst_gap = max(worst_gap, abs(
            payoffs[-1] - complete_info_payoffs(budget_d, budget_a)[0]))
    assert worst_rise <= 1e-12
    assert worst_gap <= 1e-12


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

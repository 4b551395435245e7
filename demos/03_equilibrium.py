"""Solve the resource-allocation game for the generated system.

The attacker spreads budget R_A over the nodes to maximize expected damage
(valued by h); the defender spreads R_D to protect (valued by g, the
interdependency-reweighted h).  At equilibrium each side randomizes.  The
solver returns the threshold mu, the shadow prices, and one marginal
distribution per node and side; everything else ships as closed forms.
"""

import numpy as np

from cpsblotto import (battlefield_values, complete_info_payoffs,
                       default_nine_node, default_params, sample_allocations,
                       solve_equilibrium)


def main():
    topology = default_nine_node()
    params = default_params(topology.n)
    values = battlefield_values(topology, params)
    g, h = values.defender, values.attacker

    solution = solve_equilibrium(g, h, params.budget_d, params.budget_a)
    print(f"mu       = {solution.mu:.6f}")
    print(f"lambda_D = {solution.lambda_d:.6f}")
    print(f"lambda_A = {solution.lambda_a:.6f}")
    print(f"attacker-favored set: {sorted(solution.omega_a) or 'empty'}")
    print(f"cubic residual = {solution.cubic_residual:.2e}")

    print("\nper-node marginals (atom at zero, support upper end, mean):")
    for i, (m_d, m_a) in enumerate(zip(solution.marginals_d,
                                       solution.marginals_a)):
        print(f"  node {i}: defender ({m_d.atom_at_zero:.3f}, "
              f"{m_d.support_upper:.3f}, {m_d.mean():.3f})   "
              f"attacker ({m_a.atom_at_zero:.3f}, "
              f"{m_a.support_upper:.3f}, {m_a.mean():.3f})")

    spend_d = sum(m.mean() for m in solution.marginals_d)
    spend_a = sum(m.mean() for m in solution.marginals_a)
    print(f"expected spend: defender {spend_d:.6f} / {params.budget_d}, "
          f"attacker {spend_a:.6f} / {params.budget_a}")

    base_d, base_a = complete_info_payoffs(params.budget_d, params.budget_a)
    print(f"\npayoffs: defender {solution.payoff_d:.6f} "
          f"(no-interdependency baseline {base_d:.6f})")
    print(f"         attacker {solution.payoff_a:.6f} "
          f"(baseline {base_a:.6f})")
    print(f"defender gain from interdependency: "
          f"{solution.payoff_d - base_d:+.6f}")

    # Draw one joint allocation per side from the equilibrium marginals.
    rng = np.random.default_rng(7)
    alloc_d = sample_allocations(solution.marginals_d, params.budget_d, 1,
                                 rng)[0]
    alloc_a = sample_allocations(solution.marginals_a, params.budget_a, 1,
                                 rng)[0]
    print("\none sampled defender allocation:", np.round(alloc_d, 3))
    print("one sampled attacker allocation:", np.round(alloc_a, 3))


if __name__ == "__main__":
    main()

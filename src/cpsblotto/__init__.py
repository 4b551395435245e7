"""cpsblotto: security resource allocation for interdependent cyber-physical systems.

The package models a flow network with a cyber overlay, quantifies how each
node's failure would cascade through flows and degrade cyber connectivity,
folds those effects into defender-side battlefield values, and solves the
resulting two-player Colonel Blotto allocation game in closed form.  A
discrete fictitious-play oracle provides an independent numerical check.
"""

__version__ = "0.1.0"

from .model import (CpsTopology, GameParams, NodeLevel, NodeSpec,
                    ScenarioError, ValidationError, default_nine_node,
                    default_params, generate_concentric, load_scenario,
                    normalize_weights, save_scenario, validate)
from .cascade import (CascadeResult, RebalanceRecord, cascade_failure,
                      node_throughput, physical_effect_matrix, rebalance_node)
from .metrics import (BattlefieldValues, EffectMatrices, ShortestPathTable,
                      all_pairs_shortest_paths, battlefield_values,
                      cyber_effect_matrix, effect_matrices, effective_values,
                      interdependency_matrix)
from .equilibrium import (EquilibriumRegimeError, EquilibriumSolution,
                          MarginalDistribution, SingleDependencyReport,
                          complete_info_payoffs, single_dependency_case,
                          solution_document, solution_from_document,
                          solution_to_json, solve_equilibrium)
from .sampling import (allocation_band_probability, draw_marginals,
                       sample_allocation, sample_allocations)
from .oracle import (CrossValidationReport, DiscreteGame,
                     FictitiousPlayResult, cross_validate,
                     enumerate_strategies, fictitious_play)
from .experiments import (band_probability_table, csv_lines,
                          flow_capacity_sweep, matrix_rows, payoff_table,
                          symmetry_sweep, vector_rows, write_csv)

__all__ = [
    "__version__",
    "CpsTopology", "GameParams", "NodeLevel", "NodeSpec", "ScenarioError",
    "ValidationError", "default_nine_node", "default_params",
    "generate_concentric", "load_scenario", "normalize_weights",
    "save_scenario", "validate",
    "CascadeResult", "RebalanceRecord", "cascade_failure", "node_throughput",
    "physical_effect_matrix", "rebalance_node",
    "BattlefieldValues", "EffectMatrices", "ShortestPathTable",
    "all_pairs_shortest_paths", "battlefield_values", "cyber_effect_matrix",
    "effect_matrices", "effective_values", "interdependency_matrix",
    "EquilibriumRegimeError", "EquilibriumSolution", "MarginalDistribution",
    "SingleDependencyReport", "complete_info_payoffs", "single_dependency_case",
    "solution_document", "solution_from_document", "solution_to_json",
    "solve_equilibrium",
    "allocation_band_probability", "draw_marginals", "sample_allocation",
    "sample_allocations",
    "CrossValidationReport", "DiscreteGame", "FictitiousPlayResult",
    "cross_validate", "enumerate_strategies", "fictitious_play",
    "band_probability_table", "csv_lines", "flow_capacity_sweep",
    "matrix_rows", "payoff_table", "symmetry_sweep", "vector_rows",
    "write_csv",
]

"""cpsblotto: security resource allocation for interdependent cyber-physical systems.

The package models a flow network with a cyber overlay, quantifies how each
node's failure would cascade through flows and degrade cyber connectivity,
folds those effects into defender-side battlefield values, and solves the
resulting two-player Colonel Blotto allocation game in closed form.  A
discrete fictitious-play oracle provides an independent numerical check.
"""

__version__ = "0.1.0"

# The names the demos and the README use, and the error types; everything
# else is imported from its module.
from .model import (ScenarioError, ValidationError, default_nine_node,
                    default_params, generate_concentric, load_scenario,
                    save_scenario)
from .cascade import cascade_failure
from .metrics import battlefield_values, effect_matrices
from .equilibrium import (EquilibriumRegimeError, complete_info_payoffs,
                          single_dependency_case, solve_equilibrium)
from .sampling import sample_allocations
from .oracle import cross_validate
from .experiments import (band_probability_table, flow_capacity_sweep,
                          load_value_table, payoff_table, symmetry_sweep,
                          write_csv)

__all__ = [
    "__version__",
    "ScenarioError", "ValidationError", "default_nine_node", "default_params",
    "generate_concentric", "load_scenario", "save_scenario",
    "cascade_failure",
    "battlefield_values", "effect_matrices",
    "EquilibriumRegimeError", "complete_info_payoffs",
    "single_dependency_case", "solve_equilibrium",
    "sample_allocations",
    "cross_validate",
    "band_probability_table", "flow_capacity_sweep", "load_value_table",
    "payoff_table", "symmetry_sweep", "write_csv",
]

"""Every cpsblotto name the benchmark uses, imported in this one place.

The benchmark calls library functions through their defining modules
(``api.cascade.physical_effect_matrix``) rather than through the package's
``__all__``, so that the traced run can swap a function for a timed wrapper
in every module that refers to it (see ``tracing.instrument``).
"""

from __future__ import annotations

import cpsblotto
from cpsblotto import (cascade, equilibrium, experiments, metrics, model,
                       oracle, sampling)

MODULES = (cpsblotto, model, cascade, metrics, equilibrium, sampling, oracle,
           experiments)

# (holder, attribute, layer) for every public function the traced run
# wraps.  The holder is the module or class that defines the function.
TRACED = (
    (model, "generate_concentric", "model"),
    (cascade, "physical_effect_matrix", "cascade"),
    (cascade, "cascade_failure", "cascade"),
    (metrics, "battlefield_values", "metrics"),
    (metrics, "effect_matrices", "metrics"),
    (metrics, "cyber_effect_matrix", "metrics"),
    (metrics, "all_pairs_shortest_paths", "metrics"),
    (metrics, "interdependency_matrix", "metrics"),
    (metrics, "effective_values", "metrics"),
    (equilibrium, "solve_equilibrium", "equilibrium"),
    (sampling, "sample_allocations", "sampling"),
    (sampling, "allocation_band_probability", "sampling"),
    (oracle, "cross_validate", "oracle"),
    (oracle, "fictitious_play", "oracle"),
    (oracle.DiscreteGame, "payoff_matrices", "oracle"),
    (experiments, "flow_capacity_sweep", "experiments"),
    (experiments, "symmetry_sweep", "experiments"),
    (experiments, "band_probability_table", "experiments"),
)

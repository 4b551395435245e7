"""Trace what a single node failure does to the rest of the system.

Physical side: the failed node's flows are removed and its neighbours pull
replacement flow from their remaining suppliers, within capacity.  Whatever
cannot be replaced is recorded as lost flow, and the loss each survivor
eats (relative to its own throughput) becomes one column of the physical
effect matrix.

Cyber side: removing a node stretches shortest paths in the communication
graph; the per-node path stretch becomes the cyber effect matrix.  The two
are blended into the interdependency matrix that reweights the defender's
values.
"""

import numpy as np

from cpsblotto import (battlefield_values, cascade_failure, default_nine_node,
                       default_params, effect_matrices)

np.set_printoptions(precision=3, suppress=True)

topology = default_nine_node()
params = default_params(topology.n)

# Fail main node 1 and walk the rebalancing steps.
failed = 1
result = cascade_failure(topology, failed)
print(f"failing node {failed}: processing order {result.processing_order}")
for record in result.records:
    print(f"  node {record.node}: deficit {record.deficit:.3f} = "
          f"absorbed {record.absorbed:.3f} + lost {record.lost:.3f}")
for (supplier, customer), flow in result.raised.items():
    print(f"  rerouted flow {supplier} -> {customer}: "
          f"{topology.flows[supplier, customer]:.3f} -> {flow:.3f}")

mats = effect_matrices(topology, params)
print(f"\nphysical effects of node {failed} (column {failed}):")
print(mats.physical[:, failed])
print(f"cyber effects of node {failed}:")
print(mats.cyber[:, failed])

# The blend (alpha * physical + beta * cyber, each max-normalized).
print(f"\ninterdependency column {failed} "
      f"(alpha={params.alpha}, beta={params.beta}):")
print(mats.interdependency[:, failed])

values = battlefield_values(topology, params)
print("\nattacker values h:", np.round(values.attacker, 4))
print("defender values g:", np.round(values.defender, 4))
moved = np.abs(values.defender - values.attacker).max()
print(f"largest reweighting |g - h| = {moved:.4f}")

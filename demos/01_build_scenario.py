"""Build a small distribution system, save it as a scenario file, reload it.

The generator lays the system out in concentric levels: a single reference
node that produces whatever the rest demands, a ring of main nodes, and a
ring of ordinary nodes that only consume.  Every edge gets a capacity so
that the requested flow uses a fixed fraction of it (the flow fill), which
is the single knob the capacity experiments sweep later.
"""

import dataclasses
import os
import tempfile

import numpy as np

from cpsblotto import (ValidationError, default_params, generate_concentric,
                       load_scenario, save_scenario)


def main():
    # 1 reference node worth 4x an ordinary node, 3 mains worth 2x, 5 ordinary.
    topology = generate_concentric([(1, 4.0), (3, 2.0), (5, 1.0)],
                                   flow_fill=0.7)
    n = topology.n

    print(f"built a {n}-node system")
    # Node i is position i of every field: its level, its weight, and row
    # and column i of each matrix.
    h = topology.human_interaction
    for i, level in enumerate(topology.levels):
        print(f"  node {i}: level={level.name.lower():9s} h={h[i]:.4f}")
    print(f"value weights sum to {h.sum():.6f}")

    active = topology.capacities > 0
    fills = topology.flows[active] / topology.capacities[active]
    print(f"{int(active.sum())} flow edges, fill "
          f"{fills.min():.2f}..{fills.max():.2f}")

    # Round-trip through the scenario file format the CLI consumes.
    params = default_params(n)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "nine_node.json")
        save_scenario(topology, params, path)
        reloaded, reloaded_params = load_scenario(path)
    assert np.array_equal(reloaded.flows, topology.flows)
    assert reloaded_params.budget_d == params.budget_d
    print(f"saved and reloaded {path} (flows identical)")

    # A scenario that routes more than an edge can carry is rejected.
    bad_flows = topology.flows.copy()
    i, j = np.argwhere(active)[0]
    bad_flows[i, j] = topology.capacities[i, j] * 1.5
    try:
        dataclasses.replace(topology, flows=bad_flows)
    except ValidationError as exc:
        print("tampered copy rejected:", exc)


if __name__ == "__main__":
    main()

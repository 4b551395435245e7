"""Shared topology builders for the test suite."""

from __future__ import annotations

import numpy as np

from cpsblotto.model import CpsTopology, NodeLevel


def routed_dag(rng: np.random.Generator) -> CpsTopology:
    """Random acyclic flow topology with conservation routed along paths.

    Node 0 is the reference source; the last one or two nodes are pure
    sinks.  Every mid node sits on at least one source-to-sink path and
    every sink terminates one, and the cyber graph is the unit-weight
    skeleton of the flow edges (the scenario reader's and the generator's
    default), which those paths connect.  So the topology always meets the
    structural rules that construction checks.
    """
    n = int(rng.integers(4, 10))
    sinks = max(1, int(rng.integers(1, 3)))
    mids = list(range(1, n - sinks))
    F = np.zeros((n, n))

    def route(through: int, sink: int | None = None) -> None:
        if sink is None:
            sink = int(rng.integers(n - sinks, n))
        k = int(rng.integers(0, max(1, len(mids))))
        via = rng.choice(mids, size=min(k, len(mids)), replace=False)
        stops = sorted(set(via.tolist()) | ({through} if through else set()))
        amount = float(rng.uniform(0.3, 1.5))
        for a, b in zip([0] + stops, stops + [sink]):
            F[a, b] += amount

    for j in mids:
        route(j)
    for s in range(n - sinks, n):
        route(0, sink=s)

    C = np.where(F > 0, F * rng.uniform(1.1, 2.5, (n, n)), 0.0)
    levels = ([NodeLevel.REFERENCE] + [NodeLevel.MAIN] * (n - sinks - 1)
              + [NodeLevel.ORDINARY] * sinks)
    return CpsTopology(levels=levels,
                       human_interaction=rng.uniform(0.5, 1.5, n), flows=F,
                       capacities=C,
                       cyber_adjacency=((F > 0) | (F.T > 0)).astype(float))


def random_level_spec(rng: np.random.Generator) -> list[tuple[int, float]]:
    """Random three-tier size/weight specification for generate_concentric."""
    mains = int(rng.integers(2, 5))
    ordinaries = int(rng.integers(mains, 2 * mains + 2))
    return [(1, float(rng.uniform(3.0, 5.0))),
            (mains, float(rng.uniform(1.5, 3.0))),
            (ordinaries, float(rng.uniform(0.5, 1.5)))]


def cyber_topology(adjacency: np.ndarray) -> CpsTopology:
    """Topology with no physical flows, used for cyber-metric tests."""
    n = adjacency.shape[0]
    zero = np.zeros((n, n))
    return CpsTopology(levels=[NodeLevel.REFERENCE]
                       + [NodeLevel.ORDINARY] * (n - 1),
                       human_interaction=np.ones(n), flows=zero,
                       capacities=zero, cyber_adjacency=adjacency)


def path_adjacency(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1.0
    return A


def star_adjacency(leaves: int) -> np.ndarray:
    A = np.zeros((leaves + 1, leaves + 1))
    for leaf in range(1, leaves + 1):
        A[0, leaf] = A[leaf, 0] = 1.0
    return A


# Frozen nine-node reference values: baseline attacker weights and three
# defender columns, one per single-coupling pattern.
TABLE_H = np.array([0.2667, 0.1333, 0.1333, 0.1333,
                    0.0667, 0.0667, 0.0667, 0.0667, 0.0667])
TABLE_CASES = {
    "case1": np.array([0.3282, 0.1221, 0.1221, 0.1221,
                       0.0611, 0.0611, 0.0611, 0.0611, 0.0611]),
    "case2": np.array([0.2406, 0.2180, 0.1203, 0.1203,
                       0.0602, 0.0602, 0.0602, 0.0602, 0.0602]),
    "case3": np.array([0.2388, 0.1194, 0.1194, 0.1194,
                       0.0597, 0.0597, 0.0597, 0.0597, 0.1641]),
}

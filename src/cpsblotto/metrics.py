"""Cyber effects, interdependency values, and battlefield value derivation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .model import (CpsTopology, GameParams, ValidationError, check_effects,
                    check_node_id, check_values, check_weights)
from .cascade import physical_effect_matrix


@dataclass(frozen=True)
class ShortestPathTable:
    """All-pairs shortest path lengths; inf marks unreachable pairs.

    Attributes:
        lengths: n x n table, row j holding the lengths from source j.
        resolved: ascending source rows this call solved with Dijkstra:
            every row of a table without a removal, and the rows marked in
            `removal_rows[removed]` of a removal's.  A row outside it is
            bitwise the base row.
        removal_rows: on a table without a removal, the n x n boolean map
            whose row i marks the source rows a removal of node i re-solves
            (see all_pairs_shortest_paths); None on a removal's table.
    """

    lengths: np.ndarray
    resolved: np.ndarray
    removal_rows: np.ndarray | None


@dataclass(frozen=True)
class EffectMatrices:
    """Per-failure effect matrices: column i holds the effects of losing i."""

    physical: np.ndarray
    cyber: np.ndarray
    interdependency: np.ndarray


@dataclass(frozen=True)
class BattlefieldValues:
    """Attacker values h and defender values g, both summing to 1."""

    attacker: np.ndarray
    defender: np.ndarray


def all_pairs_shortest_paths(adjacency: np.ndarray | csr_matrix,
                             removed: int | None = None,
                             base: ShortestPathTable | None = None
                             ) -> ShortestPathTable:
    """Exact shortest-path lengths between all node pairs.

    Dijkstra runs directed on the symmetric CSR, which gives the undirected
    lengths without csgraph's per-call transpose.  A removal cuts the links
    out of `removed` by setting their weights to inf; an explicit zero
    would be a zero-weight link to csgraph.

    A removal re-solves only the source rows it can change, read from
    `base.removal_rows[removed]`; without `base`, one call without the
    removal builds it.  Call an edge (u, k) tight for source j when
    base[j, u] + A[u, k] == base[j, k] in float64.  Row j is re-solved
    when some neighbour k of `removed` has `removed` as a tight predecessor
    and no other tight predecessor strictly closer to j.  Otherwise every
    node keeps a tight chain back to j that avoids `removed`: a neighbour
    of `removed` steps to its other tight predecessor, any other node to
    its parent in the base search, each settled earlier.  Dijkstra's
    length is the least float sum, taken left to right, over paths, and
    such a chain already attains the base length, so the row comes back
    bitwise unchanged.  A tie that exact equality misses only costs a
    needless re-solve, never a wrong row.

    Args:
        adjacency: symmetric weight matrix, dense (0 meaning no link) or
            CSR (each stored entry a link).
        removed: optional node to exclude, in 0..n-1; its row/column come
            back inf.
        base: the same adjacency's table without a removal, built when
            omitted; passing it saves that build, and never changes the
            lengths.

    Returns:
        ShortestPathTable over the full index set; only a table without a
        removal carries `removal_rows`.

    Raises:
        ValueError: `removed` is not a node id in 0..n-1, or `base` is a
            removal's table.
    """
    G = csr_matrix(adjacency, dtype=float)
    n = G.shape[0]
    if removed is None:
        dist = dijkstra(G, directed=True)
        return ShortestPathTable(lengths=dist, resolved=np.arange(n),
                                 removal_rows=_removal_rows(G, dist))
    check_node_id(removed, n, "removed")
    if base is None:
        base = all_pairs_shortest_paths(G)
    elif base.removal_rows is None:
        raise ValueError("base must be a table without a removal")
    dist = base.lengths.copy()
    rows = np.flatnonzero(base.removal_rows[removed])
    if rows.size:
        dist[rows] = dijkstra(_without(G, removed), directed=True,
                              indices=rows)
    dist[removed, :] = np.inf
    dist[:, removed] = np.inf
    dist[removed, removed] = 0.0
    return ShortestPathTable(lengths=dist, resolved=rows, removal_rows=None)


def _without(G: csr_matrix, removed: int) -> csr_matrix:
    """`G` with every out-link of node `removed` cut by an inf weight.

    Dijkstra runs directed, so a path may still reach `removed` but never
    leaves it; no other length changes, and the caller sets its row and
    column to inf.
    """
    data = G.data.copy()
    data[G.indptr[removed]:G.indptr[removed + 1]] = np.inf
    return csr_matrix((data, G.indices, G.indptr), shape=G.shape)


# (source, edge) pairs _removal_rows tests at once; bounds its temporaries.
_REMOVAL_BLOCK = 1 << 20


def _removal_rows(G: csr_matrix, lengths: np.ndarray) -> np.ndarray:
    """Row r marks the sources whose shortest-path rows may change when r
    goes.

    Marks source j for r when some neighbour k of r has r as a tight
    predecessor and no other tight predecessor strictly closer to j.  Each
    stored entry (k, u) of the symmetric CSR stands for the edge u -> k, so
    row k's entries are k's incoming edges.  The test runs over every
    (source, edge) pair, for blocks of sources: an edge u -> k is the sole
    way in when it is tight and no other edge into k is a strict detour,
    and r is marked for j when one of its edges is.  The diagonal stays
    unmarked: the removed node's row comes back all inf.
    """
    n = lengths.shape[0]
    nnz = G.indices.size
    entries = np.arange(nnz)
    target = np.repeat(np.arange(n), np.diff(G.indptr))
    # Sum over the edges into each node, and over the edges out of each.
    into = csr_matrix((np.ones(nnz), entries, G.indptr), shape=(n, nnz))
    out_of = csr_matrix((np.ones(nnz), (G.indices, entries)), shape=(n, nnz))
    marked = np.zeros((n, n), dtype=bool)
    step = max(1, _REMOVAL_BLOCK // max(nnz, 1))
    for lo in range(0, n, step):
        to_u = lengths[lo:lo + step, G.indices].T
        to_k = lengths[lo:lo + step, target].T
        tight = to_u + G.data[:, None] == to_k
        detour = tight & (to_u < to_k)
        sole = tight & ((into @ detour)[target] == detour)
        marked[:, lo:lo + step] = (out_of @ sole) > 0
    np.fill_diagonal(marked, False)
    return marked


def cyber_effect_matrix(topology: CpsTopology, t0: float,
                        disconnection_penalty: float | None = None
                        ) -> np.ndarray:
    """Shortest-path degradation caused by each single-node removal.

    Entry (j, i) compares node j's summed shortest-path lengths to all other
    survivors after removing i against the same sums before removal, plus the
    baseline t0.  Pairs disconnected by the removal contribute a fixed
    penalty, by default n times the longest finite base path length.

    The cyber CSR is built once and shared by every removal.  Each
    removal's table is built from the base table, re-solving only the
    sources for which some neighbour of i has i as its only tight
    predecessor, as the base table's removal map, built with it in one
    pass, marks them (see all_pairs_shortest_paths); the other rows are
    bitwise equal to the base.  A row equal to its base row sums to the
    same float, so its ratio is exactly 1 and its entry exactly t0; the
    ratio is computed only for the re-solved rows.

    Args:
        topology: validated topology; its cyber graph must be connected.
        t0: baseline effect when the removal changes no path.
        disconnection_penalty: path length charged for pairs the removal
            disconnects; default n * max finite base length.  No library,
            CLI or demo caller passes it; it stays only because a benchmark
            harness test passes it on, and ROADMAP item 5 deletes it.

    Returns:
        n x n matrix with zero diagonal.

    Raises:
        ValidationError: the base cyber graph is disconnected.
    """
    n = topology.n
    graph = csr_matrix(topology.cyber_adjacency, dtype=float)
    base = all_pairs_shortest_paths(graph)
    reachable = np.isfinite(base.lengths)
    if not reachable.all():
        bad = np.argwhere(~reachable)
        raise ValidationError(
            f"cyber graph is disconnected (e.g. pair {tuple(bad[0])})")
    if disconnection_penalty is None:
        disconnection_penalty = n * base.lengths.max()

    T = np.full((n, n), t0, dtype=float)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        sub = all_pairs_shortest_paths(graph, removed=i, base=base)
        rows = sub.resolved
        if rows.size:
            keep = others[rows]
            keep[:, i] = False
            lengths = sub.lengths[rows]
            capped = np.where(np.isfinite(lengths), lengths,
                              disconnection_penalty)
            num = (capped * keep).sum(axis=1)
            den = (base.lengths[rows] * keep).sum(axis=1)
            ratio = np.divide(num, den, out=np.ones_like(num), where=den > 0)
            T[rows, i] = ratio - 1.0 + t0
        T[i, i] = 0.0
    return T


def interdependency_matrix(physical: np.ndarray, cyber: np.ndarray,
                           alpha: float, beta: float) -> np.ndarray:
    """Blend normalized physical and cyber effects, alpha + beta = 1.

    Each matrix is scaled by its own global maximum (left as zero when the
    maximum is zero), so entries land in [0, 1].

    Raises:
        ValidationError: alpha or beta lies outside [0, 1], or they do not
            sum to 1; or either matrix breaks the effect-matrix rule
            (check_effects), the two of the same order.
    """
    check_weights(alpha, beta)
    physical = check_effects("physical effects", physical)
    cyber = check_effects("cyber effects", cyber, size=len(physical))
    e_max = physical.max()
    t_max = cyber.max()
    e_norm = physical / e_max if e_max > 0 else np.zeros_like(physical)
    t_norm = cyber / t_max if t_max > 0 else np.zeros_like(cyber)
    return alpha * e_norm + beta * t_norm


def effective_values(h: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Defender values: own weight plus interdependency-weighted damage.

    Node i's raw value is h_i plus the sum over other nodes j of
    V[j, i] * h_j, the damage i's failure would inflict elsewhere; the vector
    is then normalized to sum 1.

    Args:
        h: attacker values, positive, summing to 1.
        V: interdependency matrix with zero diagonal, entries in [0, 1].

    Returns:
        Defender value vector g, positive, summing to 1.

    Raises:
        ValidationError: V breaks the effect-matrix rule (check_effects), or
            h breaks the value rule (check_values), as long as V's order.
    """
    V = check_effects("interdependency matrix V", V)
    h = check_values("h", h, size=len(V))
    raw = h + V.T @ h
    return raw / raw.sum()


def effect_matrices(topology: CpsTopology, params: GameParams
                    ) -> EffectMatrices:
    """Run both effect pipelines and blend them."""
    physical = physical_effect_matrix(topology)
    cyber = cyber_effect_matrix(topology, params.t0)
    V = interdependency_matrix(physical, cyber, params.alpha, params.beta)
    return EffectMatrices(physical=physical, cyber=cyber, interdependency=V)


def battlefield_values(topology: CpsTopology, params: GameParams
                       ) -> BattlefieldValues:
    """Derive the game's value vectors from the topology.

    Attacker values are the normalized human-interaction weights; defender
    values fold in the interdependency matrix.
    """
    h = topology.human_interaction
    matrices = effect_matrices(topology, params)
    g = effective_values(h, matrices.interdependency)
    return BattlefieldValues(attacker=h, defender=g)

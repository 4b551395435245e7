"""Cyber effects, interdependency values, and battlefield value derivation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .model import CpsTopology, GameParams, ValidationError
from .cascade import physical_effect_matrix


@dataclass(frozen=True)
class ShortestPathTable:
    """All-pairs shortest path lengths; inf marks unreachable pairs."""

    lengths: np.ndarray


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


def all_pairs_shortest_paths(adjacency: np.ndarray,
                             removed: int | None = None,
                             base: ShortestPathTable | None = None
                             ) -> ShortestPathTable:
    """Exact shortest-path lengths between all node pairs.

    With `removed` and `base` given, only the source rows the removal can
    change are re-solved.  Call an edge (u, k) tight for source j when
    base[j, u] + A[u, k] == base[j, k] in float64.  Row j is re-solved when
    some neighbour k of `removed` has `removed` as a tight predecessor and
    no other tight predecessor strictly closer to j.  Otherwise every node
    keeps a tight chain back to j that avoids `removed`: a neighbour of
    `removed` steps to its other tight predecessor, any other node to its
    parent in the base search, each settled earlier.  Dijkstra's length is
    the least float sum, taken left to right, over paths, and such a chain
    already attains the base length, so the row comes back bitwise
    unchanged.  A tie that exact equality misses only costs a needless
    re-solve, never a wrong row.

    Args:
        adjacency: symmetric weight matrix, 0 meaning no link.
        removed: optional node to exclude; its row/column come back inf.
        base: the same adjacency's table without a removal; it changes the
            cost of a removal, never its result.

    Returns:
        ShortestPathTable over the full index set.
    """
    A = np.asarray(adjacency, dtype=float)
    if removed is None:
        dist = shortest_path(csr_matrix(A), method="D", directed=False)
    elif base is None:
        dist = shortest_path(_without(A, removed), method="D",
                             directed=False)
    else:
        dist = base.lengths.copy()
        rows = np.flatnonzero(_rows_through(A, base.lengths, removed))
        if rows.size:
            dist[rows] = shortest_path(_without(A, removed), method="D",
                                       directed=False, indices=rows)
    if removed is not None:
        dist[removed, :] = np.inf
        dist[:, removed] = np.inf
        dist[removed, removed] = 0.0
    return ShortestPathTable(lengths=dist)


def _without(A: np.ndarray, removed: int) -> csr_matrix:
    """The graph of `A` with every link of node `removed` cut."""
    A = A.copy()
    A[removed, :] = 0.0
    A[:, removed] = 0.0
    return csr_matrix(A)


def _rows_through(A: np.ndarray, lengths: np.ndarray,
                  removed: int) -> np.ndarray:
    """Sources whose shortest-path rows may change when `removed` goes.

    Marks source j when some neighbour k of `removed` has `removed` as a
    tight predecessor and no other tight predecessor strictly closer to j.
    The row of `removed` itself is left unmarked: it comes back all inf.
    """
    through = np.zeros(lengths.shape[0], dtype=bool)
    for k in np.flatnonzero(A[removed] > 0):
        preds = np.flatnonzero(A[:, k] > 0)
        via = preds == removed
        tight = lengths[:, preds] + A[preds, k] == lengths[:, k, None]
        closer = lengths[:, preds[~via]] < lengths[:, k, None]
        through |= (tight[:, via].any(axis=1)
                    & ~(tight[:, ~via] & closer).any(axis=1))
    through[removed] = False
    return through


def cyber_effect_matrix(topology: CpsTopology, t0: float,
                        disconnection_penalty: float | None = None
                        ) -> np.ndarray:
    """Shortest-path degradation caused by each single-node removal.

    Entry (j, i) compares node j's summed shortest-path lengths to all other
    survivors after removing i against the same sums before removal, plus the
    baseline t0.  Pairs disconnected by the removal contribute a fixed
    penalty, by default n times the longest finite base path length.

    Each removal's table is built from the base table, re-solving only the
    sources for which some neighbour of i has i as its only tight
    predecessor (see all_pairs_shortest_paths); the other rows are bitwise
    equal to the base.  A row equal to its base row sums to the same float,
    so its ratio is exactly 1 and its entry exactly t0; the ratio is
    computed only for rows that differ.

    Args:
        topology: validated topology; its cyber graph must be connected.
        t0: baseline effect when the removal changes no path.
        disconnection_penalty: path length charged for pairs the removal
            disconnects; default n * max finite base length.

    Returns:
        n x n matrix with zero diagonal.

    Raises:
        ValidationError: the base cyber graph is disconnected.
    """
    n = topology.n
    adjacency = topology.cyber_adjacency
    base = all_pairs_shortest_paths(adjacency)
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
        sub = all_pairs_shortest_paths(adjacency, removed=i, base=base)
        differs = sub.lengths != base.lengths
        differs[:, i] = False
        changed = np.flatnonzero(differs.any(axis=1))
        if changed.size:
            keep = others[changed]
            keep[:, i] = False
            lengths = sub.lengths[changed]
            capped = np.where(np.isfinite(lengths), lengths,
                              disconnection_penalty)
            num = (capped * keep).sum(axis=1)
            den = (base.lengths[changed] * keep).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0),
                                 1.0)
            T[changed, i] = ratio - 1.0 + t0
        T[i, i] = 0.0
    return T


def interdependency_matrix(physical: np.ndarray, cyber: np.ndarray,
                           alpha: float, beta: float) -> np.ndarray:
    """Blend normalized physical and cyber effects, alpha + beta = 1.

    Each matrix is scaled by its own global maximum (left as zero when the
    maximum is zero), so entries land in [0, 1].
    """
    if abs(alpha + beta - 1.0) > 1e-12:
        raise ValidationError("alpha + beta must equal 1")
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
    """
    h = np.asarray(h, dtype=float)
    V = np.asarray(V, dtype=float)
    if np.any(np.diag(V) != 0):
        raise ValidationError("interdependency matrix must have zero diagonal")
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

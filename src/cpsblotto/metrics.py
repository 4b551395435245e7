"""Cyber effects, interdependency values, and battlefield value derivation.

Only `all_pairs_shortest_paths`, `_solve_pairs`, `_removal_rows` and
`cyber_effect_matrix` import scipy, for its sparse graphs and Dijkstra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import (CpsTopology, GameParams, check_effects,
                    check_node_id, check_values, check_weights)
from .cascade import physical_effect_matrix

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass(frozen=True, eq=False)
class ShortestPathTable:
    """All-pairs shortest path lengths; inf marks unreachable pairs (none
    in a topology's base table: its cyber graph is connected).

    Attributes:
        lengths: n x n table, row j holding the lengths from source j.
        removal_pairs: on a table without a removal, the entries each
            removal re-solves: entry i holds the sources j and the nodes k
            of removal i's (j, k) pairs, two arrays of one length.  Every
            other entry of a removal's table, outside the removed node's
            row and column, is bitwise the base's.  None on a removal's
            table.
    """

    lengths: np.ndarray
    removal_pairs: tuple[tuple[np.ndarray, np.ndarray], ...] | None


@dataclass(frozen=True, eq=False)
class EffectMatrices:
    """Per-failure effect matrices: column i holds the effects of losing i."""

    physical: np.ndarray
    cyber: np.ndarray
    interdependency: np.ndarray


@dataclass(frozen=True, eq=False)
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
    lengths without csgraph's per-call transpose; a float64 CSR is used as
    it is.  A table without a removal is one Dijkstra call, which also
    returns every source's shortest-path tree.

    Dijkstra's length is the least float sum, taken left to right, over
    paths.  Removing node i can change source j's entries only at the
    nodes below i in j's tree: any other node keeps its tree path, which
    avoids i and whose float sum is the base length, and no path gets
    shorter when i goes.  Of the rows with nodes below i, only those
    marked for i can change.  Call an edge (u, k) tight for source j when
    base[j, u] + A[u, k] == base[j, k] in float64.  Row j is marked when
    some neighbour k of i has i as a tight predecessor and no other tight
    predecessor strictly closer to j.  Otherwise every node keeps a tight
    chain back to j that avoids i: a neighbour of i steps to its other
    tight predecessor, any other node to its parent in the base search,
    each settled earlier.  Such a chain already attains the base
    length, so the row comes back bitwise unchanged.  A tie that exact
    equality misses only costs a needless re-solve, never a wrong row.
    The base table records the entries left, below i in a marked row, as
    `removal_pairs[i]`.

    A removal i copies the base table and re-solves its pairs with one
    Dijkstra call over a small "pairs graph": a super source, and one node
    per pair.  The super source links to pair (j, k) with weight the least
    base[j, u] + A[u, k] over the links u -> k whose u lies outside the
    subtree and is not i; a pair with no such link gets no edge.  Pair
    (j, u) links to pair (j, k) with weight A[u, k] when u is itself in the
    subtree.  A path from j that avoids i reaches k through a last node u
    outside the subtree, and then stays inside it.  Round-to-nearest
    addition is monotone, so the least such sum runs to u at u's unchanged
    length base[j, u] and then on through the subtree.  A pairs-graph path
    adds the same terms in the same order, its first step 0 + c being
    exactly c, so the pairs-graph Dijkstra returns the lengths a full
    search without i returns, bitwise.

    Args:
        adjacency: symmetric weight matrix, dense (0 meaning no link) or
            CSR (each stored entry a link).
        removed: optional node to exclude, in 0..n-1; its row/column come
            back inf.
        base: the same adjacency's table without a removal; a removal
            needs it.

    Returns:
        ShortestPathTable over the full index set; only a table without a
        removal carries `removal_pairs`.

    Raises:
        ValueError: `removed` is not a node id in 0..n-1, or `base` is
            missing or a removal's table.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    G = adjacency
    if not (isinstance(G, csr_matrix) and G.dtype == np.float64):
        G = csr_matrix(adjacency, dtype=float)
    n = G.shape[0]
    if removed is None:
        dist, parent = dijkstra(G, directed=True, return_predecessors=True)
        return ShortestPathTable(
            lengths=dist,
            removal_pairs=_removal_pairs(parent, _removal_rows(G, dist)))
    check_node_id(removed, n, "removed")
    if base is None or base.removal_pairs is None:
        raise ValueError("base must be a table without a removal")
    dist = base.lengths.copy()
    sources, nodes = base.removal_pairs[removed]
    if sources.size:
        dist.ravel()[sources * n + nodes] = _solve_pairs(
            G, base.lengths, removed, sources, nodes)
    dist[removed, :] = np.inf
    dist[:, removed] = np.inf
    dist[removed, removed] = 0.0
    return ShortestPathTable(lengths=dist, removal_pairs=None)


def _removal_pairs(parent: np.ndarray, marked: np.ndarray
                   ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (j, k) pairs with k below i in j's tree and j in `marked[i]`:
    entry i holds removal i's sources j and nodes k.

    `parent` is csgraph's predecessor table, negative at each source and
    each unreachable node.  Every pair walks up k's ancestors at once, one
    tree level per step, and keeps the ancestors i whose map marks j; a
    source is unmarked for itself, so the walk records no i = j.  The flat
    position j * n + i indexes both `parent` and the transposed map.
    """
    n = parent.shape[0]
    up_of = parent.ravel()
    marks = marked.T.ravel()
    row = np.repeat(np.arange(0, n * n, n), n)
    pair = np.arange(n * n)
    up = up_of.astype(np.intp)
    empty = np.empty(0, dtype=np.intp)
    removals, pairs = [empty], [empty]
    while True:
        live = up >= 0
        row, pair, up = row[live], pair[live], up[live]
        if not up.size:
            break
        at = row + up
        keep = marks[at]
        removals.append(up[keep])
        pairs.append(pair[keep])
        up = up_of[at]
    removal = np.concatenate(removals)
    # numpy's stable sort is a radix sort on keys of 16 bits or fewer
    order = np.argsort(removal.astype(np.min_scalar_type(n)), kind="stable")
    bounds = np.cumsum(np.bincount(removal, minlength=n))[:-1]
    pair = np.concatenate(pairs)[order]
    return tuple(zip(np.split(pair // n, bounds), np.split(pair % n, bounds)))


def _solve_pairs(G: csr_matrix, lengths: np.ndarray, removed: int,
                 sources: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Lengths of the (source, node) pairs below `removed` once it goes,
    from one Dijkstra over their pairs graph (see all_pairs_shortest_paths).

    Pairs are nodes 0..m-1 of the pairs graph, node m is the super source,
    and nodes m + 1 and m + 2 are sinks with no links out.  Row k of the
    symmetric CSR lists the links u -> k into node k, which are also its
    links out.  So pair (j, k)'s row of the pairs graph is node k's CSR
    row, with u read as pair (j, u) when u is in the subtree, as the first
    sink when it is outside, and as the second when it is `removed`.  The
    links from outside also give the super source's link to (j, k).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = G.shape[0]
    m = sources.size
    outside, cut = m + 1, m + 2
    # At most n * n pairs and n * nnz links: 32-bit indices, where they
    # fit, spare csr_matrix a copy.
    index = np.int32 if n * (n + G.nnz) + 3 < 2**31 else np.int64
    first = G.indptr[nodes]
    degree = G.indptr[nodes + 1] - first
    ends = np.cumsum(degree)
    starts = ends - degree
    link = np.arange(ends[-1]) + np.repeat(first - starts, degree)
    row = sources * n
    at = np.repeat(row, degree) + G.indices[link]
    slot = np.full(n * n, outside, dtype=index)
    slot[row + removed] = cut
    slot[row + nodes] = np.arange(m)
    tail = slot[at]
    weight = G.data[link]
    entry = np.minimum.reduceat(
        np.where(tail == outside, lengths.ravel()[at] + weight, np.inf),
        starts)
    entered = np.flatnonzero(entry < np.inf).astype(index)
    indptr = np.empty(m + 4, dtype=index)
    indptr[0] = 0
    indptr[1:m + 1] = ends
    indptr[m + 1:] = ends[-1] + entered.size
    pairs_graph = csr_matrix((np.concatenate((weight, entry[entered])),
                              np.concatenate((tail, entered)), indptr),
                             shape=(m + 3, m + 3))
    return dijkstra(pairs_graph, directed=True, indices=m)[:m]


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
    and r is marked for j when one of its edges is.  The CSR is symmetric,
    so the edges out of r are the mirrors of row r's entries, and one
    incidence matrix sums over both: the edges into each node as they
    stand, the edges out of it once reordered by u.  The diagonal stays
    unmarked: the removed node's row comes back all inf.
    """
    from scipy.sparse import csr_matrix

    n = lengths.shape[0]
    nnz = G.indices.size
    entries = np.arange(nnz)
    target = np.repeat(np.arange(n), np.diff(G.indptr))
    into = csr_matrix((np.ones(nnz), entries, G.indptr), shape=(n, nnz))
    mirror = np.argsort(G.indices, kind="stable")
    marked = np.zeros((n, n), dtype=bool)
    step = max(1, _REMOVAL_BLOCK // max(nnz, 1))
    for lo in range(0, n, step):
        to_u = lengths[lo:lo + step, G.indices].T
        to_k = lengths[lo:lo + step, target].T
        tight = to_u + G.data[:, None] == to_k
        detour = tight & (to_u < to_k)
        sole = tight & ((into @ detour)[target] == detour)
        marked[:, lo:lo + step] = (into @ sole[mirror]) > 0
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

    The cyber CSR and the base table are built once and shared by every
    removal.  The base table records, for each removal i, the (j, k) pairs
    below i in the shortest-path trees of the rows it can change (see
    all_pairs_shortest_paths).  Each removal's table is the base table
    with those pairs re-solved by one Dijkstra call over a small graph on
    the pairs, so every other entry is bitwise the base's.  A row with no
    pair is its base row and sums to the same float, so its ratio is
    exactly 1 and its entry exactly t0; the ratio is computed only for the
    rows with pairs.

    Args:
        topology: the system, its cyber graph connected by construction.
        t0: baseline effect when the removal changes no path.
        disconnection_penalty: path length charged for pairs the removal
            disconnects; default n * max finite base length.  No library,
            CLI or demo caller passes it; it stays only because a benchmark
            harness test passes it on, and ROADMAP item 1 deletes it.

    Returns:
        n x n matrix with zero diagonal.
    """
    from scipy.sparse import csr_matrix

    n = topology.n
    graph = csr_matrix(topology.cyber_adjacency, dtype=float)
    base = all_pairs_shortest_paths(graph)
    if disconnection_penalty is None:
        disconnection_penalty = n * base.lengths.max()

    T = np.full((n, n), t0, dtype=float)
    for i in range(n):
        sub = all_pairs_shortest_paths(graph, removed=i, base=base)
        sources, _ = base.removal_pairs[i]
        rows = np.flatnonzero(np.bincount(sources, minlength=n))
        if rows.size:
            # Pairs to i leave both sums; both diagonals are 0 already.
            lengths = sub.lengths[rows]
            capped = np.where(np.isfinite(lengths), lengths,
                              disconnection_penalty)
            before = base.lengths[rows]
            capped[:, i] = before[:, i] = 0.0
            # A row with pairs holds some k other than i and j, whose base
            # length is positive, so its sum before the removal is too.
            ratio = capped.sum(axis=1) / before.sum(axis=1)
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

"""Shortest-path degradation, interdependency blending, and derived values."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from cpsblotto import metrics
from cpsblotto import (ValidationError, battlefield_values, default_nine_node,
                       default_params, effect_matrices, generate_concentric,
                       solve_equilibrium)
from cpsblotto.metrics import (all_pairs_shortest_paths, cyber_effect_matrix,
                               effective_values, interdependency_matrix)
from cpsblotto.model import (NINE_NODE_LEVELS, CpsTopology, NodeLevel,
                             normalize_weights)
from _support import (cyber_topology, path_adjacency, random_level_spec,
                      star_adjacency)


def test_shortest_paths_on_a_line():
    table = all_pairs_shortest_paths(path_adjacency(4))
    assert table.lengths[0, 3] == 3.0
    assert table.lengths[1, 2] == 1.0
    assert np.isfinite(table.lengths).all()


def test_shortest_paths_with_removal():
    A = path_adjacency(4)
    table = all_pairs_shortest_paths(A, removed=1,
                                     base=all_pairs_shortest_paths(A))
    assert np.isinf(table.lengths[0, 2])
    assert not np.isfinite(table.lengths[0, 3])
    assert table.lengths[2, 3] == 1.0
    # the removed node keeps a zero self-distance but is otherwise cut off
    assert table.lengths[1, 1] == 0.0
    assert np.isinf(table.lengths[1, 0])


def test_line_graph_endpoint_effect():
    # removing an interior node on a 4-line disconnects the far endpoint;
    # the stranded pair is charged n * (longest base path) = 12, so the
    # endpoint's ratio is (1 + 12) / (1 + 3) and the effect is 2.25 + t0.
    topo = cyber_topology(path_adjacency(4))
    t0 = 1.0 / 3.0
    T = cyber_effect_matrix(topo, t0)
    assert np.isclose(T[0, 2], 2.25 + t0)
    assert np.isclose(T[0, 2], 2.5833333333, atol=1e-9)
    assert np.isclose(T[3, 1], 2.25 + t0)  # mirror image


def test_star_center_removal_hits_every_leaf():
    topo = cyber_topology(star_adjacency(4))  # center 0, leaves 1..4
    t0 = 0.25
    T = cyber_effect_matrix(topo, t0)
    # a leaf loses all three of its leaf-to-leaf routes; penalty 5 * 2 = 10
    assert np.isclose(T[1, 0], 4.0 + t0)
    # removing a leaf leaves every other pair's routes intact
    assert np.isclose(T[2, 1], t0)
    assert np.isclose(T[0, 1], t0)


def test_complete_graph_is_inert():
    n = 4
    A = np.ones((n, n)) - np.eye(n)
    topo = cyber_topology(A)
    T = cyber_effect_matrix(topo, 0.125)
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(T[off], 0.125)
    assert np.all(np.diag(T) == 0.0)


def test_disconnected_base_graph_is_rejected():
    # the flow edge 0 -> 2 bridges the cyber parts {0, 1} and {2, 3}, so
    # every node is reachable from the reference, but T needs a cyber path
    # between every pair: construction rejects the topology
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1.0
    A[2, 3] = A[3, 2] = 1.0
    F = np.zeros((4, 4))
    F[0, 2] = 1.0
    with pytest.raises(ValidationError, match=r"^cyber graph is "
                       r"disconnected \(nodes 0 and 2\)$"):
        CpsTopology(levels=[NodeLevel.REFERENCE] + [NodeLevel.ORDINARY] * 3,
                    human_interaction=np.ones(4), flows=F, capacities=F * 2,
                    cyber_adjacency=A)


def test_custom_disconnection_penalty_scales_the_hit():
    topo = cyber_topology(path_adjacency(3))
    t0 = 0.5
    low = cyber_effect_matrix(topo, t0, disconnection_penalty=2.0)
    high = cyber_effect_matrix(topo, t0, disconnection_penalty=20.0)
    assert high[0, 1] > low[0, 1]


def test_disconnection_penalty_is_n_times_the_longest_base_path():
    # removing the middle of a 3-path strands 0 from 2: the pair is charged
    # 3 * 2 = 6 against its base length 2, so the ratio is exactly 3
    T = cyber_effect_matrix(cyber_topology(path_adjacency(3)), 0.5)
    assert T[0, 1] == T[2, 1] == 2.5
    # removing an end leaves the other pair's route intact
    assert T[1, 0] == T[1, 2] == 0.5


def _random_connected(rng, n, draw):
    """Random spanning tree plus ~15% extra links, weights from draw(size)."""
    links = np.triu(rng.random((n, n)) < 0.15, 1)
    for k in range(1, n):
        links[int(rng.integers(0, k)), k] = True
    W = np.where(links, draw((n, n)), 0.0)
    return W + W.T


def _removal_test_graphs():
    """Tied unit weights, tied and untied weights, bridges, tiny graphs."""
    rng = np.random.default_rng(7)
    graphs = [generate_concentric([(1, 4.0), (4, 2.0), (12, 1.5), (30, 1.0)],
                                  0.7).cyber_adjacency]
    graphs += [generate_concentric(random_level_spec(rng), 0.8).cyber_adjacency
               for _ in range(3)]
    for _ in range(3):
        graphs.append(_random_connected(
            rng, 30, lambda size: rng.integers(1, 4, size).astype(float)))
        graphs.append(_random_connected(
            rng, 30, lambda size: rng.uniform(0.5, 2.0, size)))
    graphs += [path_adjacency(6), star_adjacency(5), path_adjacency(2),
               path_adjacency(3), np.ones((3, 3)) - np.eye(3)]
    # Nodes 2 and 3 both hang off node 1 and share a link too light to
    # change a float sum, so each is a tight predecessor of the other; only
    # the long detour 0-4-2 survives the removal of node 1.
    A = np.zeros((5, 5))
    for a, b, w in ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1e-20),
                    (0, 4, 5.0), (4, 2, 5.0)):
        A[a, b] = A[b, a] = w
    graphs.append(A)
    return graphs


def _undirected_lengths(A):
    """csgraph's undirected Dijkstra on a CSR: a dense input would drop
    weights within 1e-8 of zero as missing links."""
    return shortest_path(csr_matrix(A), method="D", directed=False)


def _table_without(A, i):
    """Undirected Dijkstra on A with node i deleted, i's row and column
    put back as inf around a zero self-distance."""
    n = A.shape[0]
    kept = np.delete(np.arange(n), i)
    table = np.full((n, n), np.inf)
    table[i, i] = 0.0
    table[np.ix_(kept, kept)] = _undirected_lengths(
        np.delete(np.delete(A, i, 0), i, 1))
    return table


def test_base_table_leaves_removal_tables_unchanged():
    for A in _removal_test_graphs():
        graph = csr_matrix(A)  # as cyber_effect_matrix passes it
        base = all_pairs_shortest_paths(graph)
        dense = all_pairs_shortest_paths(A)
        assert np.array_equal(base.lengths, _undirected_lengths(A))
        for i in range(A.shape[0]):
            fast = all_pairs_shortest_paths(graph, removed=i, base=base)
            full = all_pairs_shortest_paths(A, removed=i, base=dense)
            reference = _table_without(A, i)
            assert np.array_equal(fast.lengths, reference)
            assert np.array_equal(full.lengths, reference)


def _rows_through(G, lengths, removed):
    """The per-removal test the one-pass removal map replaced: sources
    whose rows may change when `removed` goes, from the tight edges into
    each neighbour of `removed`."""
    lo, hi = G.indptr[removed], G.indptr[removed + 1]
    if hi == lo:
        return np.zeros(lengths.shape[0], dtype=bool)
    ks = G.indices[lo:hi]
    starts, counts = G.indptr[ks], G.indptr[ks + 1] - G.indptr[ks]
    segments = np.cumsum(counts) - counts
    edges = np.arange(counts.sum()) + np.repeat(starts - segments, counts)
    via = G.indices[edges] == removed
    to_u = lengths[:, G.indices[edges]]
    to_k = lengths[:, np.repeat(ks, counts)]
    tight = to_u + G.data[edges] == to_k
    detour = tight & (to_u < to_k)
    detour[:, via] = False
    spared = np.logical_or.reduceat(detour, segments, axis=1)
    through = (tight[:, via] & ~spared).any(axis=1)
    through[removed] = False
    return through


def test_resolved_rows_are_the_marked_rows():
    graphs = _removal_test_graphs() + [path_adjacency(n) for n in (1, 2, 3)]
    for A in graphs:
        n = A.shape[0]
        G = csr_matrix(A, dtype=float)
        base = all_pairs_shortest_paths(A)
        for i in range(n):
            marked = _rows_through(G, base.lengths, i)
            # the re-solved rows, those with pairs, are marked rows
            sources, _ = base.removal_pairs[i]
            assert marked[sources].all()
            table = all_pairs_shortest_paths(A, removed=i, base=base)
            outside = ~marked
            outside[i] = False
            # column i is cut to inf; every other entry is the base's
            assert np.array_equal(np.delete(table.lengths[outside], i, 1),
                                  np.delete(base.lengths[outside], i, 1))


@pytest.mark.parametrize("block", [None, 1, 50])
def test_removal_map_matches_the_per_removal_test(monkeypatch, block):
    # unit links with ties, weighted links, a star, paths, n = 1 and 2; the
    # small blocks split the sources into several passes
    if block is not None:
        monkeypatch.setattr(metrics, "_REMOVAL_BLOCK", block)
    rng = np.random.default_rng(53)
    graphs = _removal_test_graphs() + [path_adjacency(1), path_adjacency(2),
                                       star_adjacency(1)]
    concentric = generate_concentric(
        [(1, 4.0), (6, 2.0), (24, 1.5), (60, 1.0)], 0.7).cyber_adjacency
    weights = np.triu(np.where(concentric > 0,
                               rng.uniform(0.5, 2.0, concentric.shape), 0.0))
    graphs += [concentric, weights + weights.T]
    for A in graphs:
        G = csr_matrix(A)
        lengths = all_pairs_shortest_paths(G).lengths
        removal_rows = metrics._removal_rows(G, lengths)
        assert removal_rows.shape == A.shape
        for i in range(A.shape[0]):
            assert np.array_equal(removal_rows[i],
                                  _rows_through(G, lengths, i))


@pytest.mark.parametrize("removed", [-3, 4, True, np.bool_(False), 1.0,
                                     "1"])
def test_removed_node_out_of_range_is_a_value_error(removed):
    A = path_adjacency(4)
    base = all_pairs_shortest_paths(A)
    for kwargs in ({}, {"base": base}):
        with pytest.raises(ValueError, match=r"out of range 0\.\.3"):
            all_pairs_shortest_paths(A, removed=removed, **kwargs)
    # a numpy integer id is a node id
    table = all_pairs_shortest_paths(A, removed=np.int64(2), base=base)
    assert np.isinf(table.lengths[1, 3])


def test_base_must_be_a_table_without_a_removal():
    A = path_adjacency(4)
    removal = all_pairs_shortest_paths(A, removed=1,
                                       base=all_pairs_shortest_paths(A))
    assert removal.removal_pairs is None
    for base in (None, removal):
        with pytest.raises(ValueError, match="without a removal"):
            all_pairs_shortest_paths(A, removed=2, base=base)


def _cyber_effects_from_full_tables(A, t0):
    """cyber_effect_matrix's definition, one full table per removal."""
    n = A.shape[0]
    base = _undirected_lengths(A)
    penalty = n * base.max()
    T = np.zeros((n, n))
    for i in range(n):
        sub = _table_without(A, i)
        capped = np.where(np.isfinite(sub), sub, penalty)
        keep = ~np.eye(n, dtype=bool)
        keep[:, i] = False
        num = (capped * keep).sum(axis=1)
        den = (base * keep).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), 1.0)
        T[:, i] = ratio - 1.0 + t0
        T[i, i] = 0.0
    return T


def test_cyber_effects_match_full_recomputation():
    for A in _removal_test_graphs():
        t0 = 1.0 / 7.0
        expected = _cyber_effects_from_full_tables(A, t0)
        assert np.array_equal(cyber_effect_matrix(cyber_topology(A), t0),
                              expected)


def test_cyber_effects_do_not_depend_on_the_unit_of_length():
    # Scaling by a power of 2 is exact while no sum overflows, which the
    # construction rule on the cyber weights ensures.
    weights = [1.5, 0.25, 3.0, 0.75]
    path = np.diag(weights, 1)
    for A in (path + path.T, _ring_adjacency(5, weights + [2.0])):
        T = cyber_effect_matrix(cyber_topology(A), 0.5)
        scaled = cyber_effect_matrix(cyber_topology(A * 2.0 ** 996), 0.5)
        assert np.array_equal(scaled, T)


def _ring_adjacency(n, weights):
    A = np.zeros((n, n))
    for a, w in zip(range(n), weights):
        A[a, (a + 1) % n] = A[(a + 1) % n, a] = w
    return A


def _subtree_test_graphs():
    """Deep subtrees (rings, whose trees run half the ring deep), tied
    subtrees (a ladder), one shortcut (a path with a chord), and a
    weighted concentric system at a benchmark size."""
    rng = np.random.default_rng(29)
    graphs = [_ring_adjacency(40, np.ones(40)),
              _ring_adjacency(40, rng.uniform(0.5, 2.0, 40))]
    ladder = np.zeros((40, 40))  # rails 0..19 and 20..39, rung c to c + 20
    for c in range(20):
        ladder[c, c + 20] = ladder[c + 20, c] = 1.0
        if c < 19:
            for a in (c, c + 20):
                ladder[a, a + 1] = ladder[a + 1, a] = 1.0
    chord = path_adjacency(12)
    chord[2, 9] = chord[9, 2] = 1.5
    concentric = generate_concentric(
        [(1, 4.0), (10, 2.0), (40, 1.5), (80, 1.0)], 0.7).cyber_adjacency
    weights = np.triu(np.where(concentric > 0,
                               rng.uniform(0.5, 2.0, concentric.shape), 0.0))
    return graphs + [ladder, chord, weights + weights.T]


def test_subtree_re_solve_matches_full_recomputation():
    for A in _subtree_test_graphs():
        graph = csr_matrix(A)
        base = all_pairs_shortest_paths(graph)
        for i in range(A.shape[0]):
            table = all_pairs_shortest_paths(graph, removed=i, base=base)
            assert np.array_equal(table.lengths, _table_without(A, i))
        t0 = 1.0 / 7.0
        assert np.array_equal(cyber_effect_matrix(cyber_topology(A), t0),
                              _cyber_effects_from_full_tables(A, t0))


def test_removal_pairs_hold_every_changed_entry():
    # a removal changes entries only at its recorded pairs, and records
    # pairs only in rows its map marks; the last graph has two parts
    parts = np.zeros((7, 7))
    parts[:4, :4] = path_adjacency(4)
    parts[4:, 4:] = star_adjacency(2)
    graphs = (_removal_test_graphs() + _subtree_test_graphs()
              + [path_adjacency(1), path_adjacency(2), parts])
    for A in graphs:
        n = A.shape[0]
        base = all_pairs_shortest_paths(A)
        removal_rows = metrics._removal_rows(csr_matrix(A, dtype=float),
                                             base.lengths)
        pairs = base.removal_pairs
        assert len(pairs) == n
        assert all(sources.size == nodes.size for sources, nodes in pairs)
        for i in range(n):
            sources, nodes = pairs[i]
            recorded = np.zeros((n, n), dtype=bool)
            recorded[sources, nodes] = True
            assert recorded.sum() == sources.size  # no pair twice
            assert removal_rows[i, sources].all()
            assert not np.any(nodes == i) and not np.any(sources == i)
            changed = (all_pairs_shortest_paths(A, removed=i, base=base)
                       .lengths != base.lengths)
            changed[i, :] = changed[:, i] = False
            assert not np.any(changed & ~recorded)
        if n <= 2:
            assert all(nodes.size == 0 for _, nodes in pairs)


def test_default_params_solve_tiny_systems():
    for levels in ([(1, 3.0)], [(1, 3.0), (1, 1.0)], [(1, 3.0), (2, 1.0)],
                   [(1, 3.0), (1, 2.0), (1, 1.0)]):
        topology = generate_concentric(levels, 0.7)
        params = default_params(topology.n)
        values = battlefield_values(topology, params)
        solution = solve_equilibrium(values.defender, values.attacker,
                                     params.budget_d, params.budget_a)
        assert np.isclose(values.defender.sum(), 1.0)
        assert solution.payoff_d > 0.0
    # at n = 2 every off-diagonal cyber effect is t0 and the blend
    # normalizes it away, so the fallback t0 = 0.5 is as good as any
    assert default_params(2).t0 == 0.5
    pair = generate_concentric([(1, 3.0), (1, 1.0)], 0.7)
    g = [battlefield_values(pair, default_params(2, t0=t0)).defender
         for t0 in (0.05, 0.5, 0.99)]
    assert np.array_equal(g[0], g[1]) and np.array_equal(g[1], g[2])


def test_interdependency_blend():
    E = np.array([[0.0, 0.4], [1.0, 0.0]])
    T = np.array([[0.0, 0.8], [1.0, 0.0]])
    V = interdependency_matrix(E, T, alpha=0.5, beta=0.5)
    assert np.isclose(V[0, 1], 0.5 * 0.4 + 0.5 * 0.8)
    assert np.isclose(V[1, 0], 1.0)

    pure_physical = interdependency_matrix(E, T, alpha=1.0, beta=0.0)
    assert np.allclose(pure_physical, E / E.max())

    silent = interdependency_matrix(np.zeros((2, 2)), np.zeros((2, 2)),
                                    alpha=0.3, beta=0.7)
    assert np.all(silent == 0.0)


def test_interdependency_is_scale_free():
    rng = np.random.default_rng(3)
    E = rng.uniform(0, 2, (5, 5)); np.fill_diagonal(E, 0.0)
    T = rng.uniform(0, 3, (5, 5)); np.fill_diagonal(T, 0.0)
    V = interdependency_matrix(E, T, 0.3, 0.7)
    V_scaled = interdependency_matrix(E * 17.0, T * 0.01, 0.3, 0.7)
    assert np.allclose(V, V_scaled)
    assert V.min() >= 0.0 and V.max() <= 1.0


def test_effective_values_single_dependency():
    # one node fully dependent on the other concentrates defender value
    g = effective_values([0.6, 0.4], [[0.0, 0.0], [0.0, 0.0]])
    assert np.allclose(g, [0.6, 0.4])
    g = effective_values([0.6, 0.4], [[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(g, [5.0 / 7.0, 2.0 / 7.0])


def test_effective_values_identity_and_saturation():
    h = normalize_weights([4.0, 2.0, 1.0, 1.0])
    g = effective_values(h, np.zeros((4, 4)))
    assert np.array_equal(g, h)  # no coupling leaves the values untouched

    ones = np.ones((4, 4)) - np.eye(4)
    g = effective_values(h, ones)
    assert np.allclose(g, 0.25)  # full coupling flattens any h to uniform


def test_effective_values_divide_an_overflowing_sum_by_the_largest():
    h = np.full(3, 1.0 / 3.0)
    g = effective_values(h, np.full((3, 3), 1.7e308) * (1.0 - np.eye(3)))
    assert np.array_equal(g, h)


def test_effective_values_names_g_when_an_entry_underflows():
    # the largest raw value, ~0.85e308, is above float max / 3, so the raw
    # values are divided by it first, and 1e-300 divided by it is 0
    V = np.zeros((3, 3))
    V[0, 1] = 1.7e308
    with pytest.raises(ValidationError,
                       match="^defender values g entry 2 normalizes to 0; "
                             "the weights span too wide a range$"):
        effective_values([0.5, 0.5, 1e-300], V)


def test_effective_values_divide_the_raw_values_once():
    # The blend's raw sum is never within n * eps of 1, so g is the one
    # division by it.
    rng = np.random.default_rng(37)
    for _ in range(6):
        topo = generate_concentric(random_level_spec(rng),
                                   float(rng.uniform(0.3, 1.0)))
        h = normalize_weights(rng.uniform(0.2, 1.0, topo.n))
        V = effect_matrices(topo, default_params(topo.n)).interdependency
        raw = h + V.T @ h
        assert np.array_equal(effective_values(h, V), raw / raw.sum())


def test_effective_values_rejects_diagonal_mass():
    with pytest.raises(ValidationError):
        effective_values([0.5, 0.5], [[0.1, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("alpha, beta, message", [
    (1.5, -0.5, r"alpha and beta must lie in \[0, 1\]"),
    (-0.25, 1.25, r"alpha and beta must lie in \[0, 1\]"),
    (np.nan, 0.5, r"alpha and beta must lie in \[0, 1\]"),
    (0.6, 0.6, "alpha \\+ beta must equal 1"),
])
def test_blend_weights_follow_the_game_params_rule(alpha, beta, message):
    # the weights sum to 1 in the first two cases, which once gave a blend
    # with negative entries
    E = np.array([[0.0, 0.4], [1.0, 0.0]])
    T = np.array([[0.0, 0.8], [1.0, 0.0]])
    with pytest.raises(ValidationError, match=message):
        interdependency_matrix(E, T, alpha, beta)
    with pytest.raises(ValidationError, match=message):
        default_params(9, alpha=alpha, beta=beta)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_effective_values_rejects_non_finite_h(bad):
    # one NaN in h once turned every entry of g into NaN
    with pytest.raises(ValidationError, match="h must be finite"):
        effective_values([bad, 0.5], np.zeros((2, 2)))


_BAD_EFFECTS = [
    pytest.param([[0.0, np.nan], [1.0, 0.0]], "must be finite", id="nan"),
    pytest.param([[0.0, np.inf], [1.0, 0.0]], "must be finite", id="inf"),
    pytest.param([[0.0, -0.4], [1.0, 0.0]], "must be non-negative",
                 id="negative"),
    pytest.param([[0.0, 0.4, 0.1], [1.0, 0.0, 0.2]],
                 r"must be a square matrix of order 2, got shape \(2, 3\)",
                 id="not-square"),
]


@pytest.mark.parametrize("bad, message", _BAD_EFFECTS)
@pytest.mark.parametrize("channel", ["physical", "cyber"])
def test_blend_rejects_bad_effect_matrices(channel, bad, message):
    # A NaN or negative matrix once dropped its channel from the blend
    # without a word, and an inf turned it into NaN.
    good = np.array([[0.0, 0.8], [1.0, 0.0]])
    E, T = (bad, good) if channel == "physical" else (good, bad)
    with pytest.raises(ValidationError, match=f"^{channel} effects {message}"):
        interdependency_matrix(np.array(E), np.array(T), 0.3, 0.7)


@pytest.mark.parametrize("bad, message", _BAD_EFFECTS + [
    pytest.param([[0.0, 0.1], [0.1, 0.2]], "must have a zero diagonal",
                 id="diagonal")])
def test_effective_values_rejects_bad_interdependency(bad, message):
    # One NaN in V once gave an all-NaN g.
    with pytest.raises(ValidationError,
                       match=f"^interdependency matrix V {message}"):
        effective_values([0.5, 0.5], bad)


def test_effective_values_monotone_in_coupling():
    rng = np.random.default_rng(11)
    h = normalize_weights(rng.uniform(0.2, 1.0, 5))
    V = rng.uniform(0.0, 0.6, (5, 5)); np.fill_diagonal(V, 0.0)
    g = effective_values(h, V)
    V2 = V.copy(); V2[3, 1] += 0.3
    g2 = effective_values(h, V2)
    assert g2[1] > g[1]          # the node others lean on gains share
    assert g2[0] < g[0]          # paid for by the rest


def test_pipeline_on_default_system():
    topo = default_nine_node()
    params = default_params(9)
    mats = effect_matrices(topo, params)
    n = topo.n
    off = ~np.eye(n, dtype=bool)
    assert np.all(np.diag(mats.interdependency) == 0.0)
    assert mats.interdependency.min() >= 0.0
    assert mats.interdependency.max() <= 1.0 + 1e-12
    assert mats.physical.min() >= 0.0 and mats.physical.max() <= 1.0
    # removals never shorten surviving routes, so t0 floors the cyber effect
    assert np.all(mats.cyber[off] >= params.t0 - 1e-12)

    values = battlefield_values(topo, params)
    h, g = values.attacker, values.defender
    assert np.isclose(h.sum(), 1.0)
    assert np.isclose(g.sum(), 1.0)
    assert g.min() > 0.0
    # a node gains defender share exactly when the damage its loss causes
    # elsewhere beats the h-weighted average of that quantity
    coupling = mats.interdependency.T @ h
    gains = coupling > h * coupling.sum()
    assert np.array_equal(g > h, gains)
    assert gains.any() and not gains.all()


def test_defender_values_flatten_as_slack_vanishes():
    # with less headroom more of every failure propagates, compressing the
    # extremes of g toward the uniform split 1/9
    params = default_params(9)
    worst = []
    spread = []
    for fill in (0.7, 0.9, 1.0):
        topo = generate_concentric(list(NINE_NODE_LEVELS), fill)
        g = battlefield_values(topo, params).defender
        worst.append(np.abs(g - 1.0 / 9.0).max())
        spread.append(g.max() - g.min())
    assert worst[0] > worst[1] > worst[2]
    assert spread[0] > spread[1] > spread[2]
    assert np.allclose(worst, [0.0617, 0.0600, 0.0594], atol=5e-4)

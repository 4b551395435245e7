"""Shortest-path degradation, interdependency blending, and derived values."""

import numpy as np
import pytest

from cpsblotto import (ValidationError, all_pairs_shortest_paths,
                       battlefield_values, cyber_effect_matrix,
                       default_nine_node, default_params, effect_matrices,
                       effective_values, generate_concentric,
                       interdependency_matrix, normalize_weights,
                       solve_equilibrium)
from _support import (cyber_topology, path_adjacency, random_level_spec,
                      star_adjacency)


def test_shortest_paths_on_a_line():
    table = all_pairs_shortest_paths(path_adjacency(4))
    assert table.lengths[0, 3] == 3.0
    assert table.lengths[1, 2] == 1.0
    assert table.reachable.all()


def test_shortest_paths_with_removal():
    table = all_pairs_shortest_paths(path_adjacency(4), removed=1)
    assert np.isinf(table.lengths[0, 2])
    assert not table.reachable[0, 3]
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
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1.0
    A[2, 3] = A[3, 2] = 1.0
    topo = cyber_topology(A)
    with pytest.raises(ValidationError, match="disconnected"):
        cyber_effect_matrix(topo, 0.1)


def test_custom_disconnection_penalty_scales_the_hit():
    topo = cyber_topology(path_adjacency(3))
    t0 = 0.5
    low = cyber_effect_matrix(topo, t0, disconnection_penalty=2.0)
    high = cyber_effect_matrix(topo, t0, disconnection_penalty=20.0)
    assert high[0, 1] > low[0, 1]


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


def test_base_table_leaves_removal_tables_unchanged():
    for A in _removal_test_graphs():
        base = all_pairs_shortest_paths(A)
        for i in range(A.shape[0]):
            fast = all_pairs_shortest_paths(A, removed=i, base=base)
            full = all_pairs_shortest_paths(A, removed=i)
            assert np.array_equal(fast.lengths, full.lengths)
            assert np.array_equal(fast.reachable, full.reachable)


def _cyber_effects_from_full_tables(A, t0):
    """cyber_effect_matrix's definition, one full table per removal."""
    n = A.shape[0]
    base = all_pairs_shortest_paths(A).lengths
    penalty = n * base.max()
    T = np.zeros((n, n))
    for i in range(n):
        sub = all_pairs_shortest_paths(A, removed=i).lengths
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

    with pytest.raises(ValidationError):
        interdependency_matrix(E, T, alpha=0.6, beta=0.6)


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


def test_effective_values_rejects_diagonal_mass():
    with pytest.raises(ValidationError):
        effective_values([0.5, 0.5], [[0.1, 0.0], [0.0, 0.0]])


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
    topo = default_nine_node(0.7)
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
        g = battlefield_values(default_nine_node(fill), params).defender
        worst.append(np.abs(g - 1.0 / 9.0).max())
        spread.append(g.max() - g.min())
    assert worst[0] > worst[1] > worst[2]
    assert spread[0] > spread[1] > spread[2]
    assert np.allclose(worst, [0.0617, 0.0600, 0.0594], atol=5e-4)

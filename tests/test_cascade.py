"""Flow redistribution after node failures and the physical effect matrix."""

import dataclasses
import math

import numpy as np
import pytest

from cpsblotto import (ValidationError, cascade_failure, default_nine_node,
                       generate_concentric)
from cpsblotto.cascade import (RebalanceRecord, node_throughput,
                               physical_effect_matrix)
from cpsblotto.model import (NINE_NODE_LEVELS, CpsTopology, NodeLevel,
                             validate)
from _support import routed_dag, random_level_spec


def topology_from_flows(F: np.ndarray, C: np.ndarray) -> CpsTopology:
    n = F.shape[0]
    levels = [NodeLevel.REFERENCE] + [NodeLevel.ORDINARY] * (n - 1)
    A = np.zeros((n, n))
    mask = (F > 0) | (F.T > 0)
    A[mask] = 1.0
    return CpsTopology(levels=levels, human_interaction=np.ones(n), flows=F,
                       capacities=C, cyber_adjacency=A)


def post_failure_flows(topology: CpsTopology, failed: int,
                       raised: dict[tuple[int, int], float]) -> np.ndarray:
    """The dense flows after a cascade: the failed node's row and column
    removed, and the rebalanced flows written in."""
    F = topology.flows.copy()
    F[failed, :] = F[:, failed] = 0.0
    for (i, j), flow in raised.items():
        F[i, j] = flow
    return F


def lost_flow(result) -> dict[int, float]:
    """Each rebalanced node's lost flow, from the cascade's records."""
    return {record.node: record.lost for record in result.records}


def test_rebalance_single_supplier_within_headroom():
    # r(0) -> i(1) -> j(3), alternate supplier k(2) -> j with headroom 8
    F = np.zeros((4, 4)); C = np.zeros((4, 4))
    F[0, 1] = 4.0; C[0, 1] = 8.0
    F[1, 3] = 4.0; C[1, 3] = 8.0
    F[2, 3] = 2.0; C[2, 3] = 10.0
    topo = topology_from_flows(F, C)
    result = cascade_failure(topo, 1)
    assert result.raised == {(2, 3): 6.0}   # only k's flow to j moved
    assert topo.flows[1, 3] == 4.0     # input untouched
    record = next(r for r in result.records if r.node == 3)
    assert record.deficit == 4.0
    assert record.absorbed == 4.0
    assert record.lost == 0.0


def test_rebalance_saturates_at_capacity():
    F = np.zeros((4, 4)); C = np.zeros((4, 4))
    F[0, 1] = 4.0; C[0, 1] = 8.0
    F[1, 3] = 4.0; C[1, 3] = 8.0
    F[2, 3] = 2.0; C[2, 3] = 5.0   # headroom 3 < deficit 4
    result = cascade_failure(topology_from_flows(F, C), 1)
    assert result.raised[2, 3] == 5.0
    record = next(r for r in result.records if r.node == 3)
    assert record.lost == 1.0


def test_cascade_rejects_cyclic_flows():
    # node 0 supplies 1, 2 and 3, which pass flow round the cycle 1->2->3->1:
    # no customer could go first, so no cascade could order them; such
    # flows make no topology
    F = np.zeros((4, 4))
    F[0, 1] = F[0, 2] = F[0, 3] = 1.0
    F[1, 2] = F[2, 3] = F[3, 1] = 1.0
    with pytest.raises(ValidationError, match="cycle in flow graph"):
        topology_from_flows(F, F * 2)
    # a self-loop is a cycle too, reported by the self-loop rule
    F = np.zeros((3, 3))
    F[0, 1] = F[1, 2] = F[1, 1] = 1.0
    with pytest.raises(ValidationError, match="self-loop"):
        topology_from_flows(F, F * 2)


@pytest.mark.parametrize("failed", [-1, 9, True, 1.0])
def test_failed_node_out_of_range_is_a_value_error(failed):
    with pytest.raises(ValueError, match=r"out of range 0\.\.8"):
        cascade_failure(default_nine_node(), failed)


def test_leaf_failure_only_zeroes_the_failed_node():
    F = np.array([[0.0, 1.0, 1.0],
                  [0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])
    topo = topology_from_flows(F, F * 2)
    result = cascade_failure(topo, 2)
    assert result.raised == {}
    assert sum(lost_flow(result).values()) == 0.0


def test_chain_total_loss_downstream():
    # 0 -> 1 -> 2, one unit; failing 1 starves 2 completely
    F = np.zeros((3, 3))
    F[0, 1] = 1.0; F[1, 2] = 1.0
    topo = topology_from_flows(F, F.copy())
    E = physical_effect_matrix(topo)
    assert E[2, 1] == 1.0
    assert E[1, 1] == 0.0  # diagonal convention


def test_diamond_absorbs_via_surviving_branch():
    # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; c_23 = 2 leaves room for the reroute
    F = np.zeros((4, 4))
    F[0, 1] = 1.0; F[0, 2] = 1.0; F[1, 3] = 1.0; F[2, 3] = 1.0
    C = F.copy()
    C[2, 3] = 2.0
    C[0, 2] = 2.0   # the surviving branch can also be resupplied
    topo = topology_from_flows(F, C)
    result = cascade_failure(topo, 1)
    assert result.raised[2, 3] == 2.0
    assert lost_flow(result)[3] == 0.0
    # node 2 raised its outflow and pulled the difference from node 0
    assert result.raised[0, 2] == 2.0
    assert lost_flow(result)[2] == 0.0


def test_diamond_upstream_shortfall_is_recorded():
    # same diamond, but node 2 cannot be resupplied: the pull is lost there
    F = np.zeros((4, 4))
    F[0, 1] = 1.0; F[0, 2] = 1.0; F[1, 3] = 1.0; F[2, 3] = 1.0
    C = F.copy()
    C[2, 3] = 2.0
    topo = topology_from_flows(F, C)
    result = cascade_failure(topo, 1)
    assert result.raised[2, 3] == 2.0
    assert lost_flow(result)[3] == 0.0
    assert lost_flow(result)[2] == 1.0
    record = next(r for r in result.records if r.node == 2)
    assert record.deficit == 1.0 and record.lost == 1.0


def test_all_edges_at_capacity_lose_entire_deficit():
    # no headroom anywhere: every starved node loses its supplied fraction
    F = np.zeros((4, 4))
    F[0, 1] = 2.0; F[0, 2] = 1.0; F[1, 3] = 2.0; F[2, 3] = 1.0
    topo = topology_from_flows(F, F.copy())
    E = physical_effect_matrix(topo)
    # node 3 takes 2 of its 3 inflow units from node 1
    assert np.isclose(E[3, 1], 2.0 / 3.0)
    assert np.isclose(E[3, 2], 1.0 / 3.0)


@pytest.mark.parametrize("large", [1e8, 1e4])
def test_small_branch_loss_survives_a_large_sibling(large):
    # 0 -> 1 -> 3 carries `large`, 0 -> 2 -> 3 carries 1e-9, no headroom:
    # a deficit taken as a difference of node 3's inflow totals cancels
    F = np.zeros((4, 4))
    F[0, 1] = F[1, 3] = large
    F[0, 2] = F[2, 3] = 1e-9
    topo = topology_from_flows(F, F.copy())
    result = cascade_failure(topo, 2)
    assert result.records == (RebalanceRecord(node=3, deficit=1e-9,
                                              absorbed=0.0, lost=1e-9),)
    assert physical_effect_matrix(topo)[3, 2] == 1e-9 / (large + 1e-9)


@pytest.mark.parametrize("scale", [2.0 ** -44, 2.0 ** -40, 2.0 ** 30,
                                   2.0 ** 40, 2.0 ** 60])
@pytest.mark.parametrize("topo", [
    default_nine_node(),
    generate_concentric([(1, 4.0), (8, 2.0), (32, 1.0)], 0.7),
    generate_concentric([(1, 4.0), (2, 2.0), (4, 2.0), (3, 1.0)], 0.7)],
    ids=["nine_node", "tiers_1_8_32", "tiers_1_2_4_3"])
def test_effects_do_not_depend_on_the_unit_of_flow(topo, scale):
    # a power-of-two unit change is exact, so E must not move at all; the
    # tiers (1, 2, 4, 3) leave node 1 a rounding imbalance, which a
    # conservation rule relative to throughput admits at every scale
    E = physical_effect_matrix(topo)
    scaled = dataclasses.replace(topo, flows=topo.flows * scale,
                                 capacities=topo.capacities * scale)
    assert np.count_nonzero(E) > 0
    assert np.array_equal(physical_effect_matrix(scaled), E)


def test_throughput_uses_larger_flow_side():
    F = np.zeros((3, 3))
    F[0, 1] = 1.0; F[1, 2] = 1.0
    topo = topology_from_flows(F, F * 2)
    assert np.allclose(node_throughput(topo), [1.0, 1.0, 1.0])


def test_nine_node_closed_forms():
    for fill, expected in ((0.6, (2 * 0.6 - 1) / (2 * 0.6)),
                           (0.7, (2 * 0.7 - 1) / (2 * 0.7))):
        topo = generate_concentric(list(NINE_NODE_LEVELS), fill)
        E = physical_effect_matrix(topo)
        # a main node loses everything when the reference fails
        assert all(E[m, 0] == 1.0 for m in (1, 2, 3))
        # ordinary nodes keep half their supply when one main fails; the
        # remaining parent absorbs only up to its capacity headroom
        assert np.isclose(E[4, 1], expected)
        # failures of leaf (ordinary) nodes never propagate flow loss
        assert np.all(E[:, 4:] == 0.0)
        assert np.all(np.diag(E) == 0.0)
        assert E.min() >= 0.0 and E.max() <= 1.0


def test_low_fill_kills_main_to_ordinary_effects():
    # below half fill the surviving parent has enough headroom for everything
    E = physical_effect_matrix(
        generate_concentric(list(NINE_NODE_LEVELS), 0.4))
    assert np.all(E[4:, 1:4] == 0.0)


def test_cascade_determinism():
    rng = np.random.default_rng(17)
    topo = routed_dag(rng)
    assert validate(topo) == []
    a = cascade_failure(topo, 1)
    b = cascade_failure(topo, 1)
    assert a.raised == b.raised
    assert a.records == b.records
    assert a.processing_order == b.processing_order
    assert np.array_equal(physical_effect_matrix(topo),
                          physical_effect_matrix(topo))


def test_failed_row_and_column_are_zeroed():
    rng = np.random.default_rng(23)
    topo = routed_dag(rng)
    for failed in range(topo.n):
        for (i, j), flow in cascade_failure(topo, failed).raised.items():
            assert failed not in (i, j)
            assert topo.capacities[i, j] > 0.0
            assert 0.0 <= flow <= topo.capacities[i, j] + 1e-12


def test_accounting_identity_on_random_topologies():
    rng = np.random.default_rng(29)
    for _ in range(25):
        topo = routed_dag(rng)
        assert validate(topo) == []
        for failed in range(topo.n):
            for record in cascade_failure(topo, failed).records:
                assert abs(record.deficit
                           - (record.absorbed + record.lost)) <= 1e-9


def test_effect_matrix_range_on_random_topologies():
    rng = np.random.default_rng(31)
    for _ in range(10):
        topo = routed_dag(rng)
        E = physical_effect_matrix(topo)
        assert np.all(np.diag(E) == 0.0)
        assert E.min() >= 0.0 and E.max() <= 1.0


def test_more_capacity_never_worsens_layered_effects():
    rng = np.random.default_rng(37)
    for _ in range(10):
        topo = generate_concentric(random_level_spec(rng),
                                   flow_fill=float(rng.uniform(0.45, 0.95)))
        scaled = dataclasses.replace(
            topo, capacities=topo.capacities * float(rng.uniform(1.2, 2.0)))
        assert float((physical_effect_matrix(scaled)
                      - physical_effect_matrix(topo)).max()) <= 1e-12


def test_processing_order_customers_before_suppliers():
    # failing the reference of the 9-node system touches the three mains
    # (direct customers) first, then their ordinary customers
    topo = default_nine_node()
    result = cascade_failure(topo, 0)
    first = set(result.processing_order[0])
    assert first <= {1, 2, 3}
    flat = [n for group in result.processing_order for n in group]
    assert flat == sorted(set(flat), key=flat.index)  # no node twice


def _second_order_by_loop(F: np.ndarray, failed: int) -> set[int]:
    """Nodes two flow links from `failed`, one neighbour at a time."""
    n = F.shape[0]
    first = {j for j in range(n) if F[failed, j] > 0 or F[j, failed] > 0}
    second = set()
    for j in first:
        second |= {k for k in range(n) if F[j, k] > 0 or F[k, j] > 0}
    return second - first - {failed}


def test_cascade_processes_customers_then_the_second_order_neighbourhood():
    # acyclic flows let every phase drain, so each customer and each
    # second-order neighbour is processed exactly once
    rng = np.random.default_rng(41)
    topologies = [routed_dag(rng) for _ in range(10)]
    topologies += [generate_concentric(random_level_spec(rng), 0.7)
                   for _ in range(3)]
    for topo in topologies:
        for failed in range(topo.n):
            customers = set(np.flatnonzero(topo.flows[failed] > 0).tolist())
            second = _second_order_by_loop(topo.flows, failed)
            flat = [j for group in cascade_failure(topo, failed)
                    .processing_order for j in group]
            assert len(flat) == len(set(flat))
            assert set(flat[:len(customers)]) == customers
            assert set(flat[len(customers):]) == second


# ---------------------------------------------------------------------------
# parity with the cascade on the dense flow matrix
# ---------------------------------------------------------------------------

def _dense_rebalance(F0, F, C, failed, node):
    deficit = math.fsum([*(F0[:, node] - F[:, node]), *F[node, :],
                         *(-F0[node, :])])
    if deficit <= 0.0:
        return RebalanceRecord(node=node, deficit=0.0, absorbed=0.0, lost=0.0)
    suppliers = np.flatnonzero(C[:, node] > 0)
    suppliers = suppliers[(suppliers != failed) & (suppliers != node)]
    headroom = np.maximum(C[suppliers, node] - F[suppliers, node], 0.0)
    total = math.fsum(headroom)
    if total >= deficit:
        if total > 0.0:
            F[suppliers, node] += headroom * (deficit / total)
        absorbed = deficit
    else:
        F[suppliers, node] = C[suppliers, node]
        absorbed = total
    return RebalanceRecord(node=node, deficit=float(deficit),
                           absorbed=float(absorbed),
                           lost=float(deficit - absorbed))


def _dense_pop_group(pending, F, incoming):
    idx = np.array(pending, dtype=int)
    linked = (F[idx[:, None], idx] > 0).any(axis=0 if incoming else 1)
    group = [j for j, held in zip(pending, linked) if not held]
    pending[:] = [j for j, held in zip(pending, linked) if held]
    return group


def _dense_cascade(topology, failed):
    """The cascade on the dense flow matrix, each deficit the correctly
    rounded sum of its column's and row's changes and each headroom total
    correctly rounded: (flows, per_node_loss, processing_order, records)."""
    n = topology.n
    F0, C = topology.flows, topology.capacities
    F = np.array(F0, dtype=float)
    F[failed, :] = 0.0
    F[:, failed] = 0.0
    supplies = F0[failed] > 0
    first_order = supplies | (F0[:, failed] > 0)
    second_order = ((F0[first_order] > 0).any(axis=0)
                    | (F0[:, first_order] > 0).any(axis=1)) & ~first_order
    second_order[failed] = False
    per_node_loss = np.zeros(n)
    records, order = [], []
    for members, incoming in ((supplies, False), (second_order, True)):
        pending = np.flatnonzero(members).tolist()
        while pending:
            group = _dense_pop_group(pending, F, incoming)
            assert group, "cycle in flow graph"
            order.append(tuple(group))
            for j in group:
                record = _dense_rebalance(F0, F, C, failed, j)
                if record.deficit > 0.0:
                    records.append(record)
                    per_node_loss[j] = record.lost
    return F, per_node_loss, tuple(order), tuple(records)


def _parity_systems():
    """Concentric systems at n = 9, 41 and 131, each also with spare
    capacity on unused edges into every third leaf, so that a rebalance
    opens links that carried no flow and sums over eight or more
    suppliers."""
    rng = np.random.default_rng(43)
    for tiers in ((1, 3, 5), (1, 8, 32), (1, 10, 40, 80)):
        for fill in (0.5, 0.8, 1.0):
            topo = generate_concentric(
                [(count, float(rng.uniform(0.5, 4.0))) for count in tiers],
                fill)
            yield topo
            C = topo.capacities.copy()
            upper = range(topo.n - tiers[-1] - tiers[-2], topo.n - tiers[-1])
            for leaf in range(topo.n - tiers[-1], topo.n, 3):
                for parent in upper:
                    if C[parent, leaf] == 0.0:
                        C[parent, leaf] = float(rng.uniform(0.1, 1.0))
            spare = dataclasses.replace(topo, capacities=C)
            assert validate(spare) == []
            yield spare


def test_cascade_matches_the_dense_cascade_bitwise():
    opened = cascades = 0
    for topo in _parity_systems():
        for failed in range(topo.n):
            result = cascade_failure(topo, failed)
            flows, loss, order, records = _dense_cascade(topo, failed)
            assert np.array_equal(
                post_failure_flows(topo, failed, result.raised), flows)
            record_loss = np.zeros(topo.n)
            for node, lost in lost_flow(result).items():
                record_loss[node] = lost
            assert np.array_equal(record_loss, loss)
            assert result.processing_order == order
            assert result.records == records
            opened += int(((flows > 0) & (topo.flows == 0)).sum())
            cascades += 1
    assert cascades == 6 * (9 + 41 + 131)
    assert opened > 0


def test_flow_links_are_built_once_per_topology():
    topo = default_nine_node()
    links = topo.flow_links
    assert topo.flow_links is links
    cascade_failure(topo, 1)
    assert topo.flow_links is links
    assert links.outflow[0] == {1: topo.flows[0, 1], 2: topo.flows[0, 2],
                                3: topo.flows[0, 3]}
    assert list(links.inflow[4]) == np.flatnonzero(topo.flows[:, 4]).tolist()
    # a replaced topology builds its own
    wider = dataclasses.replace(topo, capacities=topo.capacities * 2.0)
    assert wider.flow_links is not links

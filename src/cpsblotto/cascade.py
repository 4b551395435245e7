"""Flow-cascade simulation after a single node failure.

When a node fails its row and column are removed from the flow matrix.  Nodes
it was supplying try to restore their balance by drawing more from surviving
suppliers, limited by edge headroom (capacity minus current flow); whatever
cannot be restored is recorded as lost flow.  Suppliers that raised their
output acquire a deficit of their own and are processed in a second wave, so
demand propagates upstream toward the reference node.  Processing stops at
second-order neighbors of the failed node; nodes further out keep their flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CpsTopology, FlowLinks, check_node_id

_TOL = 1e-12


@dataclass(frozen=True)
class RebalanceRecord:
    """Accounting for one rebalanced node: absorbed + lost == deficit."""

    node: int
    deficit: float
    absorbed: float
    lost: float


@dataclass(frozen=True, eq=False)
class CascadeResult:
    """Outcome of one failure cascade.

    The post-cascade flows are the topology's flows with the failed node's
    row and column removed and `raised` written in.

    Attributes:
        processing_order: node groups in the order they were rebalanced.
        records: per-node deficit/absorbed/lost accounting; a node without
            a record lost nothing.
        raised: the flow each rebalance set, keyed (supplier, customer).
    """

    processing_order: tuple[tuple[int, ...], ...]
    records: tuple[RebalanceRecord, ...]
    raised: dict[tuple[int, int], float]


def _dense_sum(size: int, entries: list[tuple[int, float]]) -> float:
    """Bitwise the float `np.sum` of a length-`size` vector that holds
    `entries` ((index, value) pairs, values >= 0) and zeros.

    Up to two entries are added directly: two terms round alike in any
    grouping, and adding a zero is exact.  More entries are written into a
    zero vector of length `size`, and numpy sums it.
    """
    if len(entries) > 2:
        vector = np.zeros(size)
        for i, value in entries:
            vector[i] = value
        return float(vector.sum())
    total = 0.0
    for _, value in entries:
        total += value
    return total


def _rebalance(links: FlowLinks, n: int, failed: int, node: int,
               raised: dict[int, dict[int, float]]
               ) -> RebalanceRecord | None:
    """Restore `node`'s balance; return the accounting record, or None when
    the node has no deficit.

    The deficit is the inflow the node is missing relative to its pre-failure
    balance plus any outflow increase it has committed to since: deficit =
    (pre_in - cur_in) + (cur_out - pre_out).  It is spread over surviving
    incoming edges proportionally to headroom; when total headroom is smaller,
    every surviving incoming edge saturates and the remainder is lost.

    A node's inflow changes only in its own rebalance, so cur_in sums its
    pre-failure in-links without the failed node.  cur_out overlays the
    flows its customers' rebalances set, kept in raised[node][customer], on
    its pre-failure out-links; an unchanged row sums to pre_out.  New flows
    go to raised[supplier][node].  Both sums add as numpy adds the node's
    column and row of the flow matrix, so the record is bitwise the dense
    computation's.
    """
    cur_in = _dense_sum(n, [(i, flow) for i, flow in links.inflow[node].items()
                            if i != failed])
    outflow, changed = links.outflow[node], raised.get(node)
    if changed is None and failed not in outflow:
        cur_out = links.pre_out[node]
    else:
        row = dict(outflow)
        row.pop(failed, None)
        row.update(changed or ())
        cur_out = _dense_sum(n, list(row.items()))
    deficit = (links.pre_in[node] - cur_in) + (cur_out - links.pre_out[node])
    if deficit <= _TOL:
        return None

    suppliers = [link for link in links.suppliers[node] if link[0] != failed]
    headroom = [max(capacity - flow, 0.0) for _, capacity, flow in suppliers]
    total = _dense_sum(len(headroom), list(enumerate(headroom)))
    if total >= deficit:
        # deficit > _TOL here, so total is positive.
        share = deficit / total
        for (i, _, flow), room in zip(suppliers, headroom):
            raised.setdefault(i, {})[node] = flow + room * share
        absorbed = deficit
    else:
        for i, capacity, _ in suppliers:
            raised.setdefault(i, {})[node] = capacity
        absorbed = total
    return RebalanceRecord(node=node, deficit=deficit, absorbed=absorbed,
                           lost=deficit - absorbed)


def _pop_group(pending: list[int], links: tuple[dict[int, float], ...]
               ) -> list[int]:
    """Extract the next processable group from `pending` (ascending ids).

    Selects the members none of whose `links` (out-links or in-links) leads
    to a remaining member.  A topology's flows are acyclic, so the group is
    never empty.
    """
    waiting = set(pending)
    held = [not waiting.isdisjoint(links[j]) for j in pending]
    group = [j for j, hold in zip(pending, held) if not hold]
    pending[:] = [j for j, hold in zip(pending, held) if hold]
    return group


def cascade_failure(topology: CpsTopology, failed: int) -> CascadeResult:
    """Simulate the flow cascade triggered by removing one node.

    Customers of the failed node are rebalanced first, most-downstream
    members first.  The second-order neighborhood follows, most-upstream
    first.  Groups are processed in ascending node id.  Each node is
    rebalanced once.  Rebalancing a node writes only its own column, so the
    links among the nodes still pending are pre-failure links, and acyclic
    flows, which every topology has, leave no group empty.

    The cascade walks the topology's `flow_links`, built once per
    topology, and touches only the nodes it rebalances.

    Args:
        topology: the system.
        failed: id of the node to remove.

    Returns:
        CascadeResult with the rebalance records and the flows they set.

    Raises:
        ValueError: `failed` is not a node id in 0..n-1.
    """
    n = topology.n
    check_node_id(failed, n, "failed")
    links = topology.flow_links
    customers = list(links.outflow[failed])
    first_order = set(customers).union(links.inflow[failed])
    second_order = set()
    for j in first_order:
        second_order.update(links.outflow[j], links.inflow[j])
    second_order -= first_order
    second_order.discard(failed)

    raised: dict[int, dict[int, float]] = {}
    records: list[RebalanceRecord] = []
    order: list[tuple[int, ...]] = []
    for pending, held_by in ((customers, links.outflow),
                             (sorted(second_order), links.inflow)):
        while pending:
            group = _pop_group(pending, held_by)
            order.append(tuple(group))
            for j in group:
                record = _rebalance(links, n, failed, j, raised)
                if record is not None:
                    records.append(record)
    return CascadeResult(
        processing_order=tuple(order), records=tuple(records),
        raised={(i, j): flow for i, row in raised.items()
                for j, flow in row.items()})


def node_throughput(topology: CpsTopology) -> np.ndarray:
    """Pre-failure flow through each node: max(total inflow, total outflow)."""
    return np.maximum(topology.flows.sum(axis=0), topology.flows.sum(axis=1))


def physical_effect_matrix(topology: CpsTopology) -> np.ndarray:
    """Fraction of each node's flow lost under every single-node failure.

    Entry (j, i) is the fraction of node j's pre-failure throughput lost when
    node i fails, clipped to [0, 1].  Nodes with zero pre-failure throughput
    are 0, and so is the diagonal: a cascade never rebalances the failed node.

    Args:
        topology: the system.

    Returns:
        n x n effect matrix with entries in [0, 1] and zero diagonal.
    """
    n = topology.n
    throughput = node_throughput(topology)[:, None]
    losses = np.zeros((n, n))
    for i in range(n):
        for record in cascade_failure(topology, i).records:
            losses[record.node, i] = record.lost
    effects = np.divide(losses, throughput, out=np.zeros((n, n)),
                        where=throughput > 0)
    return np.clip(effects, 0.0, 1.0)

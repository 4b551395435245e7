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

from .model import CpsTopology

_TOL = 1e-12


@dataclass(frozen=True)
class RebalanceRecord:
    """Accounting for one rebalanced node: absorbed + lost == deficit."""

    node: int
    deficit: float
    absorbed: float
    lost: float


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of one failure cascade.

    Attributes:
        failed_node: the removed node.
        flows: post-cascade flow matrix (row/column of the failed node zero).
        per_node_loss: flow units lost at each surviving node, 0 elsewhere.
        processing_order: node groups in the order they were rebalanced.
        records: per-node deficit/absorbed/lost accounting.
    """

    failed_node: int
    flows: np.ndarray
    per_node_loss: np.ndarray
    processing_order: tuple[tuple[int, ...], ...]
    records: tuple[RebalanceRecord, ...]


def _rebalance(F: np.ndarray, C: np.ndarray, failed: int, node: int,
               pre_in: np.ndarray, pre_out: np.ndarray) -> RebalanceRecord:
    """Restore `node`'s balance in-place; return the accounting record.

    The deficit is the inflow the node is missing relative to its pre-failure
    balance plus any outflow increase it has committed to since: deficit =
    (pre_in - cur_in) + (cur_out - pre_out).  It is spread over surviving
    incoming edges proportionally to headroom; when total headroom is smaller,
    every surviving incoming edge saturates and the remainder is lost.
    """
    cur_in = F[:, node].sum()
    cur_out = F[node, :].sum()
    deficit = (pre_in[node] - cur_in) + (cur_out - pre_out[node])
    if deficit <= _TOL:
        return RebalanceRecord(node=node, deficit=0.0, absorbed=0.0, lost=0.0)

    suppliers = np.flatnonzero(C[:, node] > 0)
    suppliers = suppliers[(suppliers != failed) & (suppliers != node)]
    headroom = C[suppliers, node] - F[suppliers, node]
    headroom = np.maximum(headroom, 0.0)
    total = headroom.sum()
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


def _pop_group(pending: list[int], F: np.ndarray, incoming: bool) -> list[int]:
    """Extract the next processable group from `pending` (ascending ids).

    incoming=False selects members with no outgoing edge to the remaining
    members; incoming=True selects members with no incoming edge from them.
    The group is empty only when the remaining members' links hold a cycle
    (a self-loop counts as one).
    """
    idx = np.array(pending, dtype=int)
    linked = (F[idx[:, None], idx] > 0).any(axis=0 if incoming else 1)
    group = [j for j, held in zip(pending, linked) if not held]
    pending[:] = [j for j, held in zip(pending, linked) if held]
    return group


def cascade_failure(topology: CpsTopology, failed: int) -> CascadeResult:
    """Simulate the flow cascade triggered by removing one node.

    Customers of the failed node are rebalanced first, most-downstream
    members first.  The second-order neighborhood follows, most-upstream
    first.  Groups are processed in ascending node id.  Each node is
    rebalanced once.  Rebalancing a node writes only its own column, so the
    links among the nodes still pending are pre-failure links, and acyclic
    flows (which `validate` checks) leave no group empty.

    Args:
        topology: validated topology.
        failed: id of the node to remove.

    Returns:
        CascadeResult with the post-cascade flows and per-node losses.

    Raises:
        ValueError: `failed` is out of range, or the flows hold a cycle
            through the nodes the cascade visits.
    """
    n = topology.n
    if not (0 <= failed < n):
        raise ValueError(f"failed node id {failed} out of range")
    F0 = topology.flows
    if F0[failed, failed] > 0:
        # Its own customer: the zeroed row would hide the self-loop.
        raise ValueError("cycle in flow graph")
    C = topology.capacities
    pre_in = F0.sum(axis=0)
    pre_out = F0.sum(axis=1)
    F = np.array(F0, dtype=float)
    F[failed, :] = 0.0
    F[:, failed] = 0.0

    supplies = F0[failed] > 0
    first_order = supplies | (F0[:, failed] > 0)
    second_order = ((F0[first_order] > 0).any(axis=0)
                    | (F0[:, first_order] > 0).any(axis=1)) & ~first_order
    second_order[failed] = False

    per_node_loss = np.zeros(n)
    records: list[RebalanceRecord] = []
    order: list[tuple[int, ...]] = []
    for members, incoming in ((supplies, False), (second_order, True)):
        pending = np.flatnonzero(members).tolist()
        while pending:
            group = _pop_group(pending, F, incoming)
            if not group:
                raise ValueError("cycle in flow graph")
            order.append(tuple(group))
            for j in group:
                record = _rebalance(F, C, failed, j, pre_in, pre_out)
                if record.deficit > 0.0:
                    records.append(record)
                    per_node_loss[j] = record.lost

    F.setflags(write=False)
    per_node_loss.setflags(write=False)
    return CascadeResult(failed_node=failed, flows=F,
                         per_node_loss=per_node_loss,
                         processing_order=tuple(order),
                         records=tuple(records))


def node_throughput(topology: CpsTopology) -> np.ndarray:
    """Pre-failure flow through each node: max(total inflow, total outflow)."""
    return np.maximum(topology.flows.sum(axis=0), topology.flows.sum(axis=1))


def physical_effect_matrix(topology: CpsTopology) -> np.ndarray:
    """Fraction of each node's flow lost under every single-node failure.

    Entry (j, i) is the fraction of node j's pre-failure throughput lost when
    node i fails, clipped to [0, 1].  Nodes with zero pre-failure throughput
    are 0, and so is the diagonal: a cascade never rebalances the failed node.

    Args:
        topology: validated topology.

    Returns:
        n x n effect matrix with entries in [0, 1] and zero diagonal.
    """
    n = topology.n
    throughput = node_throughput(topology)[:, None]
    losses = np.zeros((n, n))
    for i in range(n):
        losses[:, i] = cascade_failure(topology, i).per_node_loss
    effects = np.divide(losses, throughput, out=np.zeros((n, n)),
                        where=throughput > 0)
    return np.clip(effects, 0.0, 1.0)

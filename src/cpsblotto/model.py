"""Topology model and scenario file I/O for interdependent cyber-physical systems.

A system is a set of nodes arranged around a single reference (source) node.
Directed edges carry physical flow up to a capacity; an undirected weighted
graph over the same nodes describes cyber connectivity.  Each node carries a
human-interaction weight; the normalized weights form the attacker's value
vector for the allocation game.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

# Conservation is enforced at nodes that both receive and send flow.
FLOW_BALANCE_TOL = 1e-6
WEIGHT_SUM_TOL = 1e-9
# Supply parents per node in generate_concentric (fewer when the tier above
# is smaller).
_PARENTS_PER_NODE = 2

_SCENARIO_KEYS = {"nodes", "edges", "cyber_edges", "params"}
_NODE_KEYS = {"id", "level", "h"}
_EDGE_KEYS = {"from", "to", "flow", "capacity"}
_CYBER_EDGE_KEYS = {"a", "b", "weight"}
_PARAM_KEYS = {"alpha", "beta", "t0", "R_D", "R_A"}


class ScenarioError(ValueError):
    """Scenario file cannot be parsed into the documented schema."""


class ValidationError(ValueError):
    """A topology or parameter set violates a structural invariant."""


class NodeLevel(enum.Enum):
    REFERENCE = "reference"
    MAIN = "main"
    ORDINARY = "ordinary"


@dataclass(frozen=True)
class NodeSpec:
    """One node: integer id, tier, and raw human-interaction weight ``h``."""

    id: int
    level: NodeLevel
    h: float


@dataclass(frozen=True)
class GameParams:
    """Game and interdependency parameters.

    Args:
        alpha: weight of physical effects in the interdependency values.
        beta: weight of cyber effects; alpha + beta must equal 1.
        t0: baseline cyber effect assigned when a removal changes nothing.
        budget_d: defender resource budget (R_D in scenario files).
        budget_a: attacker resource budget (R_A); must not exceed budget_d.
    """

    alpha: float
    beta: float
    t0: float
    budget_d: float
    budget_a: float

    def __post_init__(self) -> None:
        for name, budget in (("R_D", self.budget_d), ("R_A", self.budget_a)):
            if not np.isfinite(budget):
                raise ValidationError(f"{name} must be finite")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValidationError("alpha and beta must lie in [0, 1]")
        if abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise ValidationError("alpha + beta must equal 1")
        if not (0.0 <= self.t0 < 1.0):
            raise ValidationError("t0 must lie in [0, 1)")
        if self.budget_d <= 0.0 or self.budget_a <= 0.0:
            raise ValidationError("budgets must be positive")
        if self.budget_d < self.budget_a:
            raise ValidationError("defender budget must be >= attacker budget")


def default_params(n_nodes: int, budget_d: float = 2.5, budget_a: float = 1.0,
                   alpha: float = 0.3, beta: float = 0.7,
                   t0: float | None = None) -> GameParams:
    """Build a GameParams with the conventional t0 = 1/(n-1) fallback.

    The default weighting favors the cyber channel: cyber effects reach every
    node pair through the path metric while physical redistribution is local
    (truncated at second-order neighbors), and the heavier cyber weight also
    keeps the layered demo scenario's flow-capacity trend monotone.

    At n = 2 the formula gives 1, outside t0's range [0, 1), so t0 falls
    back to 0.5.  The choice is immaterial there: with one other node every
    off-diagonal cyber effect is t0, and the blend divides the cyber matrix
    by its maximum, so any t0 in (0, 1) yields the same values.  A single
    node has no cyber effects at all and takes t0 = 0.
    """
    if t0 is None:
        if n_nodes > 2:
            t0 = 1.0 / (n_nodes - 1)
        else:
            t0 = 0.5 if n_nodes == 2 else 0.0
    return GameParams(alpha=alpha, beta=beta, t0=t0,
                      budget_d=budget_d, budget_a=budget_a)


def normalize_weights(h: np.ndarray) -> np.ndarray:
    """Scale a positive vector so it sums to 1.

    Iterates the division until the array reaches a bitwise fixed point, so
    normalizing an already-normalized vector returns it unchanged and
    load/save round trips stay bit-exact.
    """
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise ValidationError("human-interaction weights must be finite")
    if np.any(h <= 0.0):
        raise ValidationError("human-interaction weights must be positive")
    for _ in range(32):
        s = h.sum()
        if s == 1.0:
            break
        scaled = h / s
        if np.array_equal(scaled, h):
            break
        h = scaled
    return h


@dataclass(frozen=True)
class CpsTopology:
    """Validated system topology.

    Attributes:
        nodes: node specs ordered by id (ids are 0..n-1).
        flows: n x n matrix, flows[i, j] is the physical flow on edge i -> j.
        capacities: n x n matrix of edge capacities (0 where no edge exists).
        cyber_adjacency: symmetric n x n matrix of cyber link weights.
    """

    nodes: tuple[NodeSpec, ...]
    flows: np.ndarray
    capacities: np.ndarray
    cyber_adjacency: np.ndarray

    def __post_init__(self) -> None:
        for name in ("flows", "capacities", "cyber_adjacency"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def human_interaction(self) -> np.ndarray:
        """Normalized human-interaction weights (sum exactly restored to 1)."""
        return normalize_weights(np.array([node.h for node in self.nodes]))

    @property
    def reference_node(self) -> int:
        for node in self.nodes:
            if node.level is NodeLevel.REFERENCE:
                return node.id
        raise ValidationError("topology has no reference node")


def _flow_cycle(flows: np.ndarray) -> bool:
    """True when the positive entries of `flows` contain a directed cycle."""
    n = flows.shape[0]
    indegree = (flows > 0).sum(axis=0)
    queue = [i for i in range(n) if indegree[i] == 0]
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for j in np.flatnonzero(flows[i] > 0):
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(int(j))
    return seen < n


def validate(topology: CpsTopology) -> list[str]:
    """Check every structural invariant; return violation messages.

    An empty list means the topology is valid.  Messages name the violated
    invariant and the offending node or edge.
    """
    problems: list[str] = []
    n = topology.n
    if n == 0:
        return ["topology has no nodes"]
    ids = [node.id for node in topology.nodes]
    if ids != list(range(n)):
        problems.append(f"node ids must be contiguous 0..{n - 1}, got {ids}")
    refs = [node.id for node in topology.nodes
            if node.level is NodeLevel.REFERENCE]
    if len(refs) != 1:
        problems.append(f"expected exactly one reference node, found {refs}")
    for node in topology.nodes:
        if node.h <= 0.0:
            problems.append(f"node {node.id} has non-positive weight h={node.h}")

    F, C = topology.flows, topology.capacities
    A = topology.cyber_adjacency
    for mat, name in ((F, "flows"), (C, "capacities"), (A, "cyber_adjacency")):
        if mat.shape != (n, n):
            problems.append(f"{name} matrix must be {n}x{n}, got {mat.shape}")
        elif not np.isfinite(mat).all():
            problems.append(f"{name} must be finite")
    if problems:
        return problems

    if np.any(F < 0):
        problems.append("flows must be non-negative")
    if np.any(C < 0):
        problems.append("capacities must be non-negative")
    over = np.argwhere(F > C + 1e-12)
    for i, j in over:
        problems.append(f"flow exceeds capacity on edge ({i}, {j})")
    both = np.argwhere((F > 0) & (F.T > 0))
    for i, j in both:
        if i < j:
            problems.append(f"flow must be one-directional between nodes {i} and {j}")
    if np.any(np.diag(F) > 0) or np.any(np.diag(C) > 0):
        problems.append("self-loop flows are not allowed")
    if _flow_cycle(F):
        problems.append("cycle in flow graph")

    inflow = F.sum(axis=0)
    outflow = F.sum(axis=1)
    internal = (inflow > 0) & (outflow > 0)
    for j in np.flatnonzero(internal):
        if abs(inflow[j] - outflow[j]) > FLOW_BALANCE_TOL:
            problems.append(
                f"conservation violated at node {j}: "
                f"inflow {inflow[j]:.9g} != outflow {outflow[j]:.9g}")

    if refs and not problems:
        # Reachability over the union of physical and cyber links.
        reach = np.zeros(n, dtype=bool)
        stack = [refs[0]]
        reach[refs[0]] = True
        link = (F > 0) | (F.T > 0) | (A > 0)
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(link[i]):
                if not reach[j]:
                    reach[j] = True
                    stack.append(int(j))
        for j in np.flatnonzero(~reach):
            problems.append(f"node {j} unreachable from reference node")

    if not np.allclose(A, A.T, atol=0):
        problems.append("cyber adjacency must be symmetric")
    if np.any(np.diag(A) != 0):
        problems.append("cyber adjacency diagonal must be zero")
    if np.any(A < 0):
        problems.append("cyber link weights must be non-negative")
    return problems


# ---------------------------------------------------------------------------
# scenario file I/O
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], required: set[str],
                  where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"missing keys {sorted(missing)} in {where}")


def _parse_scenario(doc: dict) -> tuple[CpsTopology, GameParams]:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _require_keys(doc, _SCENARIO_KEYS, {"nodes", "edges", "params"}, "scenario")

    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ScenarioError("'nodes' must be a non-empty array")
    nodes = []
    for entry in raw_nodes:
        _require_keys(entry, _NODE_KEYS, _NODE_KEYS, "node entry")
        try:
            level = NodeLevel(entry["level"])
        except ValueError:
            raise ScenarioError(
                f"node {entry['id']}: unknown level {entry['level']!r}") from None
        nodes.append(NodeSpec(id=int(entry["id"]), level=level,
                              h=float(entry["h"])))
    nodes.sort(key=lambda node: node.id)
    n = len(nodes)

    F = np.zeros((n, n))
    C = np.zeros((n, n))
    for entry in doc["edges"]:
        _require_keys(entry, _EDGE_KEYS, _EDGE_KEYS, "edge entry")
        i, j = int(entry["from"]), int(entry["to"])
        if not (0 <= i < n and 0 <= j < n):
            raise ScenarioError(f"edge ({i}, {j}) references unknown node")
        F[i, j] = float(entry["flow"])
        C[i, j] = float(entry["capacity"])

    A = np.zeros((n, n))
    if "cyber_edges" in doc:
        for entry in doc["cyber_edges"]:
            _require_keys(entry, _CYBER_EDGE_KEYS, _CYBER_EDGE_KEYS,
                          "cyber edge entry")
            a, b = int(entry["a"]), int(entry["b"])
            if not (0 <= a < n and 0 <= b < n):
                raise ScenarioError(f"cyber edge ({a}, {b}) references unknown node")
            A[a, b] = A[b, a] = float(entry["weight"])
    else:
        # Default cyber graph: unit-weight undirected skeleton of the flow edges.
        mask = (F > 0) | (F.T > 0)
        A[mask] = 1.0

    raw_params = doc["params"]
    _require_keys(raw_params, _PARAM_KEYS, _PARAM_KEYS, "params")
    params = GameParams(alpha=float(raw_params["alpha"]),
                        beta=float(raw_params["beta"]),
                        t0=float(raw_params["t0"]),
                        budget_d=float(raw_params["R_D"]),
                        budget_a=float(raw_params["R_A"]))

    normalized = normalize_weights(np.array([node.h for node in nodes]))
    nodes = tuple(NodeSpec(id=node.id, level=node.level, h=float(w))
                  for node, w in zip(nodes, normalized))
    return CpsTopology(nodes=nodes, flows=F, capacities=C,
                       cyber_adjacency=A), params


def _read_json(path: str, what: str):
    """The JSON document in a UTF-8 file; ScenarioError names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot parse {what} {path}: {exc}") from exc


def _read_scenario(path: str) -> tuple[CpsTopology, GameParams]:
    """Parse a scenario file without checking the structural invariants."""
    return _parse_scenario(_read_json(path, "scenario"))


def load_scenario(path: str) -> tuple[CpsTopology, GameParams]:
    """Load and validate a scenario file.

    Args:
        path: UTF-8 JSON document with keys nodes/edges/params and optional
            cyber_edges.

    Returns:
        (topology, params) with node weights normalized to sum 1.

    Raises:
        ScenarioError: the file is not valid JSON or not schema-conformant.
        ValidationError: the parsed topology violates a structural invariant.
    """
    topology, params = _read_scenario(path)
    problems = validate(topology)
    if problems:
        raise ValidationError("; ".join(problems))
    return topology, params


def scenario_document(topology: CpsTopology, params: GameParams) -> dict:
    """Serialize to the scenario schema (plain dict, JSON-ready)."""
    nodes = [{"id": node.id, "level": node.level.value, "h": node.h}
             for node in topology.nodes]
    edges = []
    for i, j in np.argwhere(topology.capacities > 0):
        edges.append({"from": int(i), "to": int(j),
                      "flow": float(topology.flows[i, j]),
                      "capacity": float(topology.capacities[i, j])})
    cyber_edges = []
    for a, b in np.argwhere(topology.cyber_adjacency > 0):
        if a < b:
            cyber_edges.append({"a": int(a), "b": int(b),
                                "weight": float(topology.cyber_adjacency[a, b])})
    return {
        "nodes": nodes,
        "edges": edges,
        "cyber_edges": cyber_edges,
        "params": {"alpha": params.alpha, "beta": params.beta, "t0": params.t0,
                   "R_D": params.budget_d, "R_A": params.budget_a},
    }


def save_scenario(topology: CpsTopology, params: GameParams, path: str) -> None:
    """Write a scenario file that load_scenario round-trips bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_document(topology, params), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_concentric(levels: list[tuple[int, float]],
                        flow_fill: float) -> CpsTopology:
    """Build a layered topology around a single reference node.

    The first level must hold exactly one node (the reference).  Every node
    in level L+1 draws supply from min(2, |level L|) parents chosen
    round-robin.  Leaves demand one flow unit each; edge capacities split a
    node's required inflow equally across its parents, so flow conservation
    holds exactly at every fill level.  Each edge carries
    flow = flow_fill * capacity.  The cyber graph is the unit-weight
    undirected skeleton of the flow edges.

    Args:
        levels: list of (node_count, h_weight) per tier, outermost last.
        flow_fill: fraction of capacity in use on every edge, in (0, 1].

    Returns:
        A validated CpsTopology.
    """
    if not levels:
        raise ValidationError("levels must be non-empty")
    if not (0.0 < flow_fill <= 1.0):
        raise ValidationError("flow_fill must lie in (0, 1]")
    if levels[0][0] != 1:
        raise ValidationError("the first level must hold exactly one node")
    for count, weight in levels:
        if count < 1:
            raise ValidationError("level node counts must be positive")
        if weight <= 0:
            raise ValidationError("level h weights must be positive")

    tiers: list[list[int]] = []
    nodes: list[NodeSpec] = []
    next_id = 0
    for depth, (count, weight) in enumerate(levels):
        if depth == 0:
            level = NodeLevel.REFERENCE
        elif depth == len(levels) - 1:
            level = NodeLevel.ORDINARY
        else:
            level = NodeLevel.MAIN
        tier = []
        for _ in range(count):
            nodes.append(NodeSpec(id=next_id, level=level, h=float(weight)))
            tier.append(next_id)
            next_id += 1
        tiers.append(tier)

    n = next_id
    parents: dict[int, list[int]] = {}
    for depth in range(1, len(tiers)):
        upper = tiers[depth - 1]
        take = min(_PARENTS_PER_NODE, len(upper))
        for k, child in enumerate(tiers[depth]):
            parents[child] = [upper[(k + t) % len(upper)] for t in range(take)]

    # Capacities bottom-up: a node's inflow capacity equals its outflow
    # capacity (leaves demand 1 unit), split equally across its parents.
    C = np.zeros((n, n))
    for depth in range(len(tiers) - 1, 0, -1):
        for child in tiers[depth]:
            need = C[child, :].sum()
            if need == 0.0:
                need = 1.0
            share = need / len(parents[child])
            for parent in parents[child]:
                C[parent, child] += share

    F = flow_fill * C
    A = np.zeros((n, n))
    mask = C > 0
    A[mask | mask.T] = 1.0

    normalized = normalize_weights(np.array([node.h for node in nodes]))
    nodes = [NodeSpec(id=node.id, level=node.level, h=float(w))
             for node, w in zip(nodes, normalized)]
    topology = CpsTopology(nodes=tuple(nodes), flows=F, capacities=C,
                           cyber_adjacency=A)
    problems = validate(topology)
    if problems:
        raise ValidationError("; ".join(problems))
    return topology


def default_nine_node(flow_fill: float = 0.7) -> CpsTopology:
    """The canonical 9-node demo system: 1 reference, 3 main, 5 ordinary."""
    return generate_concentric([(1, 4.0), (3, 2.0), (5, 1.0)], flow_fill)

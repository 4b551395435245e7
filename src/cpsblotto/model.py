"""Topology model and scenario file I/O for interdependent cyber-physical systems.

A system is a set of nodes arranged around a single reference (source) node.
Directed edges carry physical flow up to a capacity; an undirected weighted
graph over the same nodes describes cyber connectivity.  Each node carries a
human-interaction weight; the normalized weights form the attacker's value
vector for the allocation game.

Only `validate` imports scipy, for the graph components its cycle and
cyber-connectivity rules search.
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Conservation is enforced at nodes that both receive and send flow, to this
# fraction of the node's throughput (and at least the smallest normal float).
FLOW_BALANCE_RTOL = 1e-6
# The solver's value vectors must sum to 1 within this tolerance.
VALUE_SUM_TOL = 1e-6
# Supply parents per node in generate_concentric (fewer when the tier above
# is smaller).
_PARENTS_PER_NODE = 2


class ScenarioError(ValueError):
    """Scenario file cannot be parsed into the documented schema."""


class ValidationError(ValueError):
    """A topology or parameter set violates a structural invariant."""


class NodeLevel(enum.Enum):
    REFERENCE = "reference"
    MAIN = "main"
    ORDINARY = "ordinary"


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
        check_budgets(self.budget_d, self.budget_a)
        check_weights(self.alpha, self.beta)
        if not (0.0 <= self.t0 < 1.0):
            raise ValidationError("t0 must lie in [0, 1)")



# The budgets R_D and R_A of the paper's experiments.
DEFAULT_BUDGET_D = 2.5
DEFAULT_BUDGET_A = 1.0


def default_params(n_nodes: int, budget_d: float = DEFAULT_BUDGET_D,
                   budget_a: float = DEFAULT_BUDGET_A,
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


def check_values(name: str, values: np.ndarray, size: int | None = None,
                 sum_tol: float | None = None) -> np.ndarray:
    """`values` as a float array, or a ValidationError whose message starts
    with `name`: a value vector is non-empty and 1-D, `size` long when given
    (the length of the vector it is paired with), with every entry finite
    and positive; with `sum_tol` it sums to 1 within that tolerance."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D vector")
    if size is not None and values.size != size:
        raise ValidationError(
            f"{name} has wrong length {values.size}, expected {size}")
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} must be finite")
    if (values <= 0.0).any():
        raise ValidationError(f"{name} must be positive")
    if sum_tol is not None and abs(values.sum() - 1.0) > sum_tol:
        raise ValidationError(
            f"{name} sums to {values.sum():.6g}, expected 1")
    return values


def check_effects(name: str, matrix: np.ndarray,
                  size: int | None = None) -> np.ndarray:
    """`matrix` as a float array, or a ValidationError whose message starts
    with `name`: entry (j, i) of an effect matrix is the effect of losing
    node i on node j, so it is square, of order `size` when given, with
    every entry finite and non-negative and a zero diagonal."""
    matrix = np.asarray(matrix, dtype=float)
    n = size if size is not None else len(matrix) if matrix.ndim else 0
    if matrix.shape != (n, n):
        raise ValidationError(f"{name} must be a square matrix of order {n}, "
                              f"got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValidationError(f"{name} must be finite")
    if (matrix < 0.0).any():
        raise ValidationError(f"{name} must be non-negative")
    if matrix.diagonal().any():
        raise ValidationError(f"{name} must have a zero diagonal")
    return matrix


def normalize_weights(h: np.ndarray, name: str = "weights",
                      size: int | None = None,
                      sum_tol: float | None = None) -> np.ndarray:
    """Scale a value vector so it sums to 1, once check_values(name, h,
    size, sum_tol) has passed it.

    One division by the sum, skipped when the sum is within n * eps of 1:
    one division always lands that close, the quotients rounding by eps/2
    and the two n-term sums, of the weights and of the quotients, adding
    at most (n - 1) * eps/2 each (Higham 2002, section 4), so normalizing
    is idempotent and load/save round trips are bit-exact.  Weights whose sum could overflow (the largest above float
    max / n) are first divided by the largest.  An entry the division
    takes to 0 raises ValidationError naming `name` and the entry.
    """
    h = check_values(name, h, size, sum_tol)
    if h.max() > np.finfo(float).max / h.size:
        h = h / h.max()
    total = h.sum()
    if abs(total - 1.0) > h.size * np.finfo(float).eps:
        h = h / total
    if not h.all():
        raise ValidationError(f"{name} entry {int(np.argmin(h))} normalizes "
                              f"to 0; the weights span too wide a range")
    return h


@dataclass(frozen=True, eq=False)
class FlowLinks:
    """A topology's flow and capacity links as per-node lists.

    Each node's links list only the positive entries of the matrix they
    come from, in ascending order of the other node's id.  They are shared
    by every cascade on the topology and must not be modified.

    Attributes:
        inflow: inflow[j] maps i to the flow on each edge i -> j with flow.
        outflow: outflow[i] maps j to the flow on each edge i -> j with flow.
        suppliers: suppliers[j] holds (i, capacity, flow) for every edge
            i -> j with capacity, the flow being 0 on an unused edge.
    """

    inflow: tuple[dict[int, float], ...]
    outflow: tuple[dict[int, float], ...]
    suppliers: tuple[tuple[tuple[int, float, float], ...], ...]


def _link_lists(matrix: np.ndarray, *values: np.ndarray) -> list[list]:
    """Per row, (column, *values[row, column]) for each positive entry."""
    rows, cols = np.nonzero(matrix > 0)
    lists: list[list[tuple]] = [[] for _ in range(matrix.shape[0])]
    for row, *entry in zip(rows.tolist(), cols.tolist(),
                           *(v[rows, cols].tolist() for v in values)):
        lists[row].append(tuple(entry))
    return lists


@dataclass(frozen=True, eq=False)
class CpsTopology:
    """System topology, valid by construction (see `validate`); node i is
    position i of every field.

    Attributes:
        levels: each node's tier.
        human_interaction: each node's human-interaction weight, a value
            vector (check_values) that normalize_weights scales to sum 1.
        flows: n x n matrix, flows[i, j] is the physical flow on edge i -> j.
        capacities: n x n matrix of edge capacities (0 where no edge exists).
        cyber_adjacency: symmetric n x n matrix of cyber link weights.
    """

    levels: tuple[NodeLevel, ...]
    human_interaction: np.ndarray
    flows: np.ndarray
    capacities: np.ndarray
    cyber_adjacency: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "human_interaction", normalize_weights(
            self.human_interaction, "node weights h", len(self.levels)))
        # A C-ordered copy, so that freezing it leaves the caller's array
        # writable.
        for name in ("human_interaction", "flows", "capacities",
                     "cyber_adjacency"):
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        problems = validate(self)
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def n(self) -> int:
        return len(self.levels)

    @cached_property
    def flow_links(self) -> FlowLinks:
        """The flow and capacity links as node lists, built on first use.

        The arrays are frozen, so one build serves every cascade on this
        topology; a `dataclasses.replace` copy builds its own.
        """
        F, C = self.flows, self.capacities
        return FlowLinks(inflow=tuple(map(dict, _link_lists(F.T, F.T))),
                         outflow=tuple(map(dict, _link_lists(F, F))),
                         suppliers=tuple(map(tuple,
                                             _link_lists(C.T, C.T, F.T))))


def is_integer(value: object) -> bool:
    """Whether `value` is an int or a numpy integer; a bool is neither,
    although Python counts it as an int."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def check_node_id(node: object, n: int, what: str) -> None:
    """Raise ValueError unless `node` is an integer node id in 0..n-1."""
    if not is_integer(node) or not 0 <= node < n:
        raise ValueError(f"{what} node id {node!r} out of range 0..{n - 1}")


def check_budget(name: str, budget: float) -> None:
    """Raise ValidationError, naming `name`, unless `budget` is finite and
    positive; a non-finite one reads "must be finite", as in check_values."""
    if not np.isfinite(budget):
        raise ValidationError(f"{name} must be finite")
    if budget <= 0.0:
        raise ValidationError(f"{name} must be finite and positive, "
                              f"got {budget}")


def check_budgets(budget_d: float, budget_a: float) -> None:
    """Raise ValidationError unless R_D and R_A pass check_budget,
    R_D >= R_A and the ratio R_D / R_A is finite."""
    check_budget("R_D", budget_d)
    check_budget("R_A", budget_a)
    if budget_d < budget_a:
        raise ValidationError("defender budget must be >= attacker budget")
    # Python floats overflow to inf without a warning.
    if not np.isfinite(float(budget_d) / float(budget_a)):
        raise ValidationError("budget ratio R_D / R_A must be finite")


def check_weights(alpha: float, beta: float) -> None:
    """Raise ValidationError unless the physical and cyber weights lie in
    [0, 1] and sum to 1."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValidationError("alpha and beta must lie in [0, 1]")
    if abs(alpha + beta - 1.0) > 1e-12:
        raise ValidationError("alpha + beta must equal 1")


def validate(topology: CpsTopology) -> list[str]:
    """Check every structural invariant; return violation messages.

    CpsTopology construction raises ValidationError on any.  Messages name
    the violated invariant and the offending node or edge, one per fault.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    problems: list[str] = []
    n = topology.n
    for i, level in enumerate(topology.levels):
        if not isinstance(level, NodeLevel):
            problems.append(f"node {i} has level {level!r}, not a NodeLevel")
    refs = [i for i, level in enumerate(topology.levels)
            if level is NodeLevel.REFERENCE]
    if len(refs) != 1:
        problems.append(f"expected exactly one reference node, found {refs}")

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
    for i, j in np.argwhere(F > C):
        problems.append(f"flow exceeds capacity on edge ({i}, {j})")
    # With F <= C, a node's capacity total, in plus out, bounds its flow
    # totals and every sum a cascade takes there; the balance is judged only
    # once these bounds hold, so its sums are finite.
    with np.errstate(over="ignore", invalid="ignore"):
        capacity_total = C.sum(axis=0) + C.sum(axis=1)
    for j in np.flatnonzero(~np.isfinite(capacity_total)):
        problems.append(f"capacity total overflows at node {j}")
    if not problems:
        inflow, outflow = F.sum(axis=0), F.sum(axis=1)
        slack = (FLOW_BALANCE_RTOL * np.maximum(inflow, outflow)
                 + np.finfo(float).tiny)
        for j in np.flatnonzero((inflow > 0) & (outflow > 0)
                                & (np.abs(inflow - outflow) > slack)):
            problems.append(
                f"conservation violated at node {j}: "
                f"inflow {inflow[j]:.9g} != outflow {outflow[j]:.9g}")
    # F <= C makes a flow self-loop a capacity self-loop.
    if np.any(np.diag(C) > 0):
        problems.append("self-loop flows are not allowed")
    # A cycle, a two-way edge included, puts its nodes in one strong
    # component.
    strong, part = connected_components(csr_matrix(F > 0), connection="strong")
    if strong < n:
        node = int(np.argmax(np.bincount(part)[part] > 1))
        problems.append(f"cycle in flow graph through node {node}")

    if not np.array_equal(A, A.T):
        problems.append("cyber adjacency must be symmetric")
    if np.any(np.diag(A) != 0):
        problems.append("cyber adjacency diagonal must be zero")
    if np.any(A < 0):
        problems.append("cyber link weights must be non-negative")
    # n^2 times the weight total bounds every path length, the penalty (n
    # times the longest) and every row sum T takes, so none overflows.
    with np.errstate(over="ignore"):
        if not np.isfinite(n * n * A.sum()):
            problems.append("cyber link weight total times n^2 overflows")
    # T needs a cyber path between every pair, which reaches every node.
    parts, part = connected_components(csr_matrix(A > 0), directed=False)
    if parts > 1:
        other = int(np.argmax(part != part[0]))
        problems.append(f"cyber graph is disconnected (nodes 0 and {other})")
    return problems


# ---------------------------------------------------------------------------
# scenario file I/O
# ---------------------------------------------------------------------------

class _Array(NamedTuple):
    """A JSON array of `section` objects; a file may omit an optional one."""
    section: str
    optional: bool = False


# The scenario file format, stated once: each section's JSON keys, in the
# order save_scenario writes them (a node's position as its id, its level
# and weight, then the GameParams field order), and their kinds: int, float
# (an int or a float; a bool is neither), NodeLevel (a level's name), a
# section (an object of it) or an _Array.
SCENARIO_FIELDS = {
    "scenario": {"nodes": _Array("node entry"), "edges": _Array("edge entry"),
                 "cyber_edges": _Array("cyber edge entry", optional=True),
                 "params": "params"},
    "node entry": {"id": int, "level": NodeLevel, "h": float},
    "edge entry": {"from": int, "to": int, "flow": float, "capacity": float},
    "cyber edge entry": {"a": int, "b": int, "weight": float},
    "params": {"alpha": float, "beta": float, "t0": float, "R_D": float,
               "R_A": float},
}
_LEVEL_NAMES = [level.value for level in NodeLevel]
_KIND_NAMES = {int: "an integer", float: "a number",
               NodeLevel: f"one of {_LEVEL_NAMES}"}


def is_number(value: object) -> bool:
    """Whether a parsed JSON value is a float or an int a float can hold."""
    return type(value) is float or (type(value) is int
                                    and abs(value) <= sys.float_info.max)


def _read_entry(obj: object, section: str) -> list:
    """The values of a `section` object in SCENARIO_FIELDS order, each read
    as its kind; an omitted optional key reads as None."""
    fields = SCENARIO_FIELDS[section]
    if not isinstance(obj, dict):
        raise ScenarioError(f"{section} must be a JSON object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {section}")
    missing = {key for key, kind in fields.items()
               if key not in obj and not getattr(kind, "optional", False)}
    if missing:
        raise ScenarioError(f"missing keys {sorted(missing)} in {section}")
    return [_read_field(section, key, kind, obj[key]) if key in obj else None
            for key, kind in fields.items()]


def _read_field(section: str, key: str, kind, value: object):
    """`value` read as `kind`; a ScenarioError names section, key and value."""
    if isinstance(kind, str):
        return _read_entry(value, kind)
    if isinstance(kind, _Array) and isinstance(value, list):
        return [_read_entry(entry, kind.section) for entry in value]
    if kind is NodeLevel and value in _LEVEL_NAMES:
        return NodeLevel(value)
    if kind is int and type(value) is int or kind is float and is_number(value):
        return kind(value)
    raise ScenarioError(f"{key!r} must be {_KIND_NAMES.get(kind, 'an array')}"
                        f" in {section}, got {json.dumps(value)}")


def _check_pair(what: str, pair: tuple[int, int], n: int, listed: set) -> None:
    """Add `pair` to `listed`; ScenarioError if it names no node or is there."""
    if not all(0 <= end < n for end in pair):
        raise ScenarioError(f"{what} {pair} references unknown node")
    if pair in listed:
        raise ScenarioError(f"{what} {pair} is listed more than once")
    listed.add(pair)


def _parse_scenario(doc: object) -> tuple[CpsTopology, GameParams]:
    nodes, edges, cyber_edges, params = _read_entry(doc, "scenario")
    nodes.sort(key=lambda node: node[0])   # (id, level, h), by id
    n = len(nodes)
    ids = [node_id for node_id, _, _ in nodes]
    if ids != list(range(n)):
        raise ScenarioError(f"node ids must be 0..{n - 1}, each used once, "
                            f"got {ids}")

    F, C, A = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    listed: set[tuple[int, int]] = set()
    for i, j, flow, capacity in edges:
        _check_pair("edge", (i, j), n, listed)
        F[i, j], C[i, j] = flow, capacity
    if cyber_edges is None:
        # Default cyber graph: unit-weight undirected skeleton of the flow edges.
        A[(F > 0) | (F.T > 0)] = 1.0
    listed.clear()
    for a, b, weight in cyber_edges or ():
        # A link is listed once, in either orientation; weight 0 is no link.
        _check_pair("cyber edge", (a, b), n, listed)
        listed.add((b, a))
        if weight == 0.0:
            raise ScenarioError(f"cyber edge {(a, b)} has weight 0; "
                                "leave out a pair with no link")
        A[a, b] = A[b, a] = weight

    params = GameParams(*params)
    return CpsTopology(levels=[level for _, level, _ in nodes],
                       human_interaction=[h for _, _, h in nodes],
                       flows=F, capacities=C, cyber_adjacency=A), params


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; ValueError on a repeated key, of which a dict
    would silently keep only the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _read_json(path: str, what: str):
    """The JSON document in a UTF-8 file; ScenarioError names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        # Bad UTF-8, bad JSON, huge ints or a repeated key.
        raise ScenarioError(f"cannot parse {what} {path}: {exc}") from exc


def load_scenario(path: str) -> tuple[CpsTopology, GameParams]:
    """(topology, params) from a UTF-8 scenario file (see SCENARIO_FIELDS),
    weights normalized to sum 1; ScenarioError for a file not in the format,
    ValidationError for a topology that breaks a structural invariant."""
    return _parse_scenario(_read_json(path, "scenario"))


def _entry(section: str, *values) -> dict:
    """A `section` object of the scenario format holding `values`."""
    return dict(zip(SCENARIO_FIELDS[section], values))


def scenario_document(topology: CpsTopology, params: GameParams) -> dict:
    """Serialize to the scenario schema (plain dict, JSON-ready)."""
    F, C, A = topology.flows, topology.capacities, topology.cyber_adjacency
    return _entry(
        "scenario",
        [_entry("node entry", i, level.value, h) for i, (level, h)
         in enumerate(zip(topology.levels,
                          topology.human_interaction.tolist()))],
        [_entry("edge entry", i, j, F[i, j].item(), C[i, j].item())
         for i, j in np.argwhere(C > 0).tolist()],
        [_entry("cyber edge entry", a, b, A[a, b].item())
         for a, b in np.argwhere(A > 0).tolist() if a < b],
        _entry("params", *astuple(params)))


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
    holds at every fill level, to rounding.  Each edge carries
    flow = flow_fill * capacity.  The cyber graph is the unit-weight
    undirected skeleton of the flow edges.

    Args:
        levels: list of (node_count, h_weight) per tier, outermost last.
        flow_fill: fraction of capacity in use on every edge, in (0, 1].

    Returns:
        The CpsTopology.
    """
    if not levels:
        raise ValidationError("levels must be non-empty")
    if not (0.0 < flow_fill <= 1.0):
        raise ValidationError("flow_fill must lie in (0, 1]")
    if not all(is_integer(count) for count, _ in levels):
        raise ValidationError("level node counts must be integers")
    if levels[0][0] != 1:
        raise ValidationError("the first level must hold exactly one node")
    if any(count < 1 for count, _ in levels):
        raise ValidationError("level node counts must be positive")
    check_values("level h weights", [weight for _, weight in levels])

    tiers: list[range] = []
    node_levels: list[NodeLevel] = []
    weights: list[float] = []
    n = 0
    for depth, (count, weight) in enumerate(levels):
        if depth == 0:
            level = NodeLevel.REFERENCE
        elif depth == len(levels) - 1:
            level = NodeLevel.ORDINARY
        else:
            level = NodeLevel.MAIN
        tiers.append(range(n, n + count))
        node_levels += [level] * count
        weights += [float(weight)] * count
        n += count

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

    return CpsTopology(levels=node_levels, human_interaction=weights,
                       flows=F, capacities=C, cyber_adjacency=A)


# (node count, h weight) per tier of the nine-node system, reference first.
NINE_NODE_LEVELS = ((1, 4.0), (3, 2.0), (5, 1.0))


def default_nine_node() -> CpsTopology:
    """The canonical 9-node demo system: 1 reference, 3 main, 5 ordinary,
    every edge filled to 0.7 of its capacity."""
    return generate_concentric(list(NINE_NODE_LEVELS), 0.7)

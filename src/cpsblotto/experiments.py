"""Reusable experiment drivers: payoff tables, sweeps, allocation bands."""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .model import (DEFAULT_BUDGET_A, DEFAULT_BUDGET_D, NINE_NODE_LEVELS,
                    ScenarioError, ValidationError, _read_json, check_node_id,
                    default_params, generate_concentric, is_number,
                    normalize_weights)
from .metrics import battlefield_values
from .equilibrium import (EquilibriumSolution, complete_info_payoffs,
                          solve_equilibrium)
from .sampling import allocation_band_probability

COLUMN_SUM_TOL = 2e-3


def _check_points(points: Iterable[float]) -> tuple[float, ...]:
    """Sweep points as a tuple, strictly increasing within (0, 1]."""
    points = tuple(points)
    if not points:
        raise ValidationError("sweep needs at least one point")
    last = 0.0
    for p in points:
        if not (0.0 < p <= 1.0) or p <= last:
            raise ValidationError(
                "sweep points must be strictly increasing within (0, 1]")
        last = p
    return points


DEFAULT_SWEEP_POINTS = tuple(round(0.1 * k, 10) for k in range(1, 11))


def _number_array(name: str, values: object) -> np.ndarray:
    """A table file's array of JSON numbers (see is_number) as floats."""
    if isinstance(values, list) and all(map(is_number, values)):
        return np.array(values, dtype=float)
    raise ScenarioError("table file values must be arrays of numbers, "
                        f"got {name!r}: {json.dumps(values)}")


def load_value_table(path: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The attacker values h and the named defender-value columns of a
    table file: a JSON object of exactly "h", an array of numbers, and
    "g_columns", an object of such arrays.  A file that cannot be read or
    has another shape raises ScenarioError; payoff_table checks the values.
    """
    doc = _read_json(path, "table file")
    if (not isinstance(doc, dict) or set(doc) != {"h", "g_columns"}
            or not isinstance(doc["g_columns"], dict)):
        raise ScenarioError("table file must hold exactly 'h' and "
                            "'g_columns', an object of columns")
    return (_number_array("h", doc["h"]),
            {name: _number_array(name, column)
             for name, column in doc["g_columns"].items()})


def payoff_table(h: np.ndarray, g_columns: dict[str, np.ndarray],
                 budget_d: float, budget_a: float
                 ) -> list[tuple[str, float, float]]:
    """Equilibrium payoffs for several defender-value columns over one h.

    Each column follows the value rule (check_values), as long as h.
    Columns whose sum strays from 1 by more than COLUMN_SUM_TOL are rejected;
    closer columns are normalized by normalize_weights.  No column may be
    named "h", the name of the first row.

    Returns:
        Rows (column name, defender payoff, attacker payoff), h first.
    """
    if "h" in g_columns:
        raise ValidationError("column name 'h' clashes with the h row")
    h = normalize_weights(h, "h", sum_tol=COLUMN_SUM_TOL)
    rows = []
    for name, column in [("h", h)] + list(g_columns.items()):
        g = normalize_weights(column, f"column {name!r}", h.size,
                              COLUMN_SUM_TOL)
        solution = solve_equilibrium(g, h, budget_d, budget_a)
        rows.append((name, solution.payoff_d, solution.payoff_a))
    return rows


def _payoff_ratios(solution: EquilibriumSolution, budget_d: float,
                   budget_a: float) -> tuple[float, float]:
    base_d, base_a = complete_info_payoffs(budget_d, budget_a)
    return solution.payoff_d / base_d, solution.payoff_a / base_a


def flow_capacity_sweep(points: tuple[float, ...] = DEFAULT_SWEEP_POINTS,
                        levels: tuple[tuple[int, float], ...] = NINE_NODE_LEVELS,
                        **overrides: float
                        ) -> list[tuple[float, float, float]]:
    """Payoff ratios versus the flow/capacity fill of a layered topology.

    Each point regenerates the topology with flows = point * capacity, runs
    the full value pipeline, solves the game, and reports both payoffs
    relative to their no-interdependency baselines.  The game parameters
    come from default_params, with `overrides` (budget_d, budget_a, alpha,
    beta, t0) passed to it at every point.

    Returns:
        Rows (fill ratio, defender payoff ratio, attacker payoff ratio).
    """
    points = _check_points(points)
    rows = []
    for fill in points:
        topology = generate_concentric(list(levels), flow_fill=fill)
        params = default_params(topology.n, **overrides)
        values = battlefield_values(topology, params)
        solution = solve_equilibrium(values.defender, values.attacker,
                                     params.budget_d, params.budget_a)
        ratio_d, ratio_a = _payoff_ratios(solution, params.budget_d,
                                          params.budget_a)
        rows.append((float(fill), ratio_d, ratio_a))
    return rows


def _solved_symmetry_path(h: np.ndarray, points: tuple[float, ...],
                          g_base: np.ndarray | None, budget_d: float,
                          budget_a: float) -> tuple[np.ndarray, Iterator]:
    """Normalized h, and (theta, deviation of g, g, solution) along
    g(theta) = (1 - theta) * g_base + theta * uniform, g_base defaulting
    to h.  The points, h and g_base are checked at the call, in that
    order, and each point is solved only when it is read."""
    points = _check_points(points)
    h = normalize_weights(h, "h")
    g_base = h if g_base is None else normalize_weights(
        g_base, "g_base", h.size)
    uniform = np.full(h.size, 1.0 / h.size)
    path = ((theta, (1.0 - theta) * g_base + theta * uniform)
            for theta in points)
    return h, ((float(theta), float(g.std()), g,
                solve_equilibrium(g, h, budget_d, budget_a))
               for theta, g in path)


def symmetry_sweep(h: np.ndarray,
                   points: tuple[float, ...] = DEFAULT_SWEEP_POINTS,
                   budget_d: float = DEFAULT_BUDGET_D,
                   budget_a: float = DEFAULT_BUDGET_A,
                   g_base: np.ndarray | None = None
                   ) -> list[tuple[float, float, float, float]]:
    """Payoff ratios as defender values interpolate toward uniform.

    At interpolation weight theta the defender values are
    g(theta) = (1 - theta) * g_base + theta * uniform.  g_base defaults to h
    itself, making theta = 0 the interdependency-free game; passing a
    scenario's derived values starts the sweep at that scenario's ratio
    instead.  The deviation column is the standard deviation of g(theta),
    which shrinks as theta grows.  The rows read the one solved path that
    band_probability_table reads too.

    Returns:
        Rows (theta, deviation of g, defender ratio, attacker ratio),
        ordered by theta ascending.
    """
    _, path = _solved_symmetry_path(h, points, g_base, budget_d, budget_a)
    return [(theta, deviation, *_payoff_ratios(solution, budget_d, budget_a))
            for theta, deviation, _, solution in path]


def band_probability_table(h: np.ndarray, node_ids: tuple[int, ...],
                           points: tuple[float, ...] = DEFAULT_SWEEP_POINTS,
                           epsilon: float = 0.05,
                           samples: int | None = None,
                           seed: int | None = None,
                           budget_d: float = DEFAULT_BUDGET_D,
                           budget_a: float = DEFAULT_BUDGET_A,
                           g_base: np.ndarray | None = None
                           ) -> list[tuple[float, float, int, str, float, float]]:
    """Probability of allocating near the value share, across a symmetry sweep.

    For every sweep point theta (defender values interpolating from g_base,
    default h, toward uniform, on the solved path symmetry_sweep reads)
    and every watched node, gives the exact probability that the owner's
    equilibrium marginal puts within epsilon * R of the value share s * R
    on that node, where R is the owner's budget and s is g_i(theta) for
    the defender and h_i for the attacker.  With lo = (s - epsilon) * R,
    hi = (s + epsilon) * R, atom a at zero and support upper bound u, the
    probability is
    a * [lo <= 0] + (1 - a) * max(0, min(hi, u) - max(lo, 0)) / u
    (see allocation_band_probability).

    `samples` and `seed` are read by nothing: they stay only because the
    benchmark harness passes them, and ROADMAP item 1 deletes them.

    Returns:
        Rows (theta, deviation of g, node, owner, share, probability).

    Raises:
        ValueError: a watched node id is not an integer in 0..n-1.
    """
    h, path = _solved_symmetry_path(h, points, g_base, budget_d, budget_a)
    for node in node_ids:
        check_node_id(node, h.size, "watched")
    return [(theta, deviation, int(node), owner, share,
             allocation_band_probability(marginals, node, share, epsilon,
                                         budget))
            for theta, deviation, g, solution in path
            for node in node_ids
            for owner, marginals, share, budget in (
                ("defender", solution.marginals_d, float(g[node]), budget_d),
                ("attacker", solution.marginals_a, float(h[node]), budget_a))]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_RATIO_UNITS = "dimensionless ratios vs complete-information baseline"
# The header and units of each CSV table, stated once: the CLI and the demos
# write every table through csv_lines.
CSV_TABLES = {
    "effects": ("node_j,failed_node_i,value", "dimensionless fractions"),
    "defender_values": ("node,value", "dimensionless, sums to 1"),
    "table1": ("column,payoff_defender,payoff_attacker",
               "dimensionless payoffs"),
    "sweep_flow": ("flow_capacity_ratio,defender_payoff_ratio,"
                   "attacker_payoff_ratio", _RATIO_UNITS),
    "sweep_symmetry": ("theta,defender_value_std,defender_payoff_ratio,"
                       "attacker_payoff_ratio", _RATIO_UNITS),
    "fig4": ("theta,defender_value_std,node,owner,share,probability",
             "probabilities; share of budget"),
}


def csv_lines(table: str, rows: list[tuple]) -> list[str]:
    """A CSV_TABLES table's lines, floats to 9 significant digits."""
    header, units = CSV_TABLES[table]
    return [f"# cpsblotto v{__version__}; units: {units}", header,
            *(",".join(str(value) if isinstance(value, (str, int, np.integer))
                       else f"{value:.9g}" for value in row) for row in rows)]


def write_csv(path: str, table: str, rows: list[tuple]) -> None:
    """Write a CSV_TABLES table (see csv_lines) to `path`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in csv_lines(table, rows))


def matrix_rows(matrix: np.ndarray) -> list[tuple[int, int, float]]:
    """Long-format (row j, column i, value) triplets of a matrix."""
    n = matrix.shape[0]
    return [(j, i, float(matrix[j, i])) for j in range(n) for i in range(n)]


def vector_rows(vector: np.ndarray) -> list[tuple[int, float]]:
    return [(i, float(value)) for i, value in enumerate(vector)]

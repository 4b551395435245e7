"""Command-line interface.

Exit codes: 0 success, 1 scenario/validation error, 2 solver regime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .model import (ScenarioError, ValidationError, default_nine_node,
                    default_params, load_scenario, validate, _read_json,
                    _read_scenario)
from .metrics import battlefield_values, effect_matrices, effective_values
from .equilibrium import (EquilibriumRegimeError, solution_to_json,
                          solve_equilibrium)
from .oracle import cross_validate
from .experiments import (DEFAULT_LEVELS, DEFAULT_SWEEP_POINTS,
                          band_probability_table, flow_capacity_sweep,
                          matrix_rows, payoff_table, symmetry_sweep,
                          vector_rows, write_csv, csv_lines)


def _parse_points(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _load_or_default(args) -> tuple:
    """Scenario from --scenario, or the built-in 9-node system."""
    if args.scenario:
        topology, params = load_scenario(args.scenario)
    else:
        topology = default_nine_node()
        params = default_params(topology.n)
    overrides = {name: value for name, value in (
        ("alpha", args.alpha), ("beta", args.beta), ("t0", args.t0),
        ("budget_d", args.rd), ("budget_a", args.ra)) if value is not None}
    return topology, dataclasses.replace(params, **overrides)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_validate(args) -> int:
    if args.scenario:
        topology, _ = _read_scenario(args.scenario)
    else:
        topology = default_nine_node()
    problems = validate(topology)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    print(f"OK: {topology.n} nodes, "
          f"{int((topology.capacities > 0).sum())} flow edges")
    return 0


def cmd_effects(args) -> int:
    topology, params = _load_or_default(args)
    matrices = effect_matrices(topology, params)
    defender = effective_values(topology.human_interaction,
                                matrices.interdependency)
    out_dir = args.out or "effects_out"
    os.makedirs(out_dir, exist_ok=True)
    for name, matrix in (("physical_effects", matrices.physical),
                         ("cyber_effects", matrices.cyber),
                         ("interdependency", matrices.interdependency)):
        write_csv(os.path.join(out_dir, f"{name}.csv"),
                  ["node_j", "failed_node_i", "value"],
                  matrix_rows(matrix), units="dimensionless fractions")
    write_csv(os.path.join(out_dir, "defender_values.csv"),
              ["node", "value"], vector_rows(defender),
              units="dimensionless, sums to 1")
    print(f"wrote effects tables to {out_dir}/")
    return 0


def cmd_solve(args) -> int:
    topology, params = _load_or_default(args)
    values = battlefield_values(topology, params)
    solution = solve_equilibrium(values.defender, values.attacker,
                                 params.budget_d, params.budget_a)
    _emit(solution_to_json(solution), args.out)
    return 0


def cmd_table1(args) -> int:
    if not args.scenario:
        raise ScenarioError("table1 requires --scenario pointing to a JSON "
                            "file with keys 'h' and 'g_columns'")
    doc = _read_json(args.scenario, "table file")
    if set(doc) != {"h", "g_columns"}:
        raise ScenarioError("table file must hold exactly 'h' and 'g_columns'")
    h = np.asarray(doc["h"], dtype=float)
    columns = {name: np.asarray(col, dtype=float)
               for name, col in doc["g_columns"].items()}
    budget_d = args.rd if args.rd is not None else 2.5
    budget_a = args.ra if args.ra is not None else 1.0
    rows = payoff_table(h, columns, budget_d, budget_a)
    text = "\n".join(csv_lines(["column", "payoff_defender", "payoff_attacker"],
                               rows, units="dimensionless payoffs"))
    _emit(text, args.out)
    return 0


def cmd_sweep_flow(args) -> int:
    points = _parse_points(args.points) if args.points else DEFAULT_SWEEP_POINTS
    kwargs = {}
    if args.rd is not None:
        kwargs["budget_d"] = args.rd
    if args.ra is not None:
        kwargs["budget_a"] = args.ra
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    if args.beta is not None:
        kwargs["beta"] = args.beta
    if args.t0 is not None:
        kwargs["t0"] = args.t0
    rows = flow_capacity_sweep(points=points, levels=DEFAULT_LEVELS, **kwargs)
    text = "\n".join(csv_lines(
        ["flow_capacity_ratio", "defender_payoff_ratio",
         "attacker_payoff_ratio"], rows,
        units="dimensionless ratios vs complete-information baseline"))
    _emit(text, args.out)
    return 0


def cmd_sweep_symmetry(args) -> int:
    topology, params = _load_or_default(args)
    points = _parse_points(args.points) if args.points else DEFAULT_SWEEP_POINTS
    values = battlefield_values(topology, params)
    rows = symmetry_sweep(values.attacker, points=points,
                          budget_d=params.budget_d, budget_a=params.budget_a,
                          g_base=values.defender)
    text = "\n".join(csv_lines(
        ["theta", "defender_value_std", "defender_payoff_ratio",
         "attacker_payoff_ratio"], rows,
        units="dimensionless ratios vs complete-information baseline"))
    _emit(text, args.out)
    return 0


def cmd_fig4(args) -> int:
    topology, params = _load_or_default(args)
    if args.nodes:
        node_ids = tuple(int(part) for part in args.nodes.split(","))
    else:
        node_ids = (0, 1, 4) if topology.n >= 5 else tuple(range(topology.n))
    points = _parse_points(args.points) if args.points else DEFAULT_SWEEP_POINTS
    values = battlefield_values(topology, params)
    rows = band_probability_table(
        values.attacker, node_ids, points=points,
        epsilon=args.epsilon, samples=args.samples, seed=args.seed,
        budget_d=params.budget_d, budget_a=params.budget_a,
        g_base=values.defender)
    text = "\n".join(csv_lines(
        ["theta", "defender_value_std", "node", "owner", "share",
         "probability"], rows, units="probabilities; share of budget"))
    _emit(text, args.out)
    return 0


def cmd_oracle(args) -> int:
    topology, params = _load_or_default(args)
    values = battlefield_values(topology, params)
    report = cross_validate(values.defender, values.attacker,
                            params.budget_d, params.budget_a,
                            grid_units=args.grid_units,
                            iterations=args.iterations)
    _emit(json.dumps(report.document(), indent=2), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsblotto",
        description="Model failure cascades in an interdependent "
                    "cyber-physical system and solve the attacker/defender "
                    "resource-allocation game.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="scenario JSON file")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--rd", type=float, help="defender budget R_D")
    common.add_argument("--ra", type=float, help="attacker budget R_A")
    common.add_argument("--alpha", type=float,
                        help="physical effect weight in [0, 1]")
    common.add_argument("--beta", type=float,
                        help="cyber effect weight in [0, 1]")
    common.add_argument("--t0", type=float, help="baseline cyber effect")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="check a scenario against the structural invariants"
                   ).set_defaults(func=cmd_validate)
    sub.add_parser("effects", parents=[common],
                   help="dump effect matrices and defender values as CSV"
                   ).set_defaults(func=cmd_effects)
    sub.add_parser("solve", parents=[common],
                   help="solve the allocation game, emit the solution as JSON"
                   ).set_defaults(func=cmd_solve)
    sub.add_parser("table1", parents=[common],
                   help="payoffs for a file of defender-value columns"
                   ).set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep-flow", parents=[common],
                       help="payoff ratios across flow/capacity fills")
    p.add_argument("--points", help="comma-separated sweep points in (0, 1]")
    p.set_defaults(func=cmd_sweep_flow)

    p = sub.add_parser("sweep-symmetry", parents=[common],
                       help="payoff ratios as defender values symmetrize")
    p.add_argument("--points", help="comma-separated sweep points in (0, 1]")
    p.set_defaults(func=cmd_sweep_symmetry)

    p = sub.add_parser("fig4", parents=[common],
                       help="allocation band probabilities across a "
                            "symmetry sweep")
    p.add_argument("--nodes", help="comma-separated node ids to watch")
    p.add_argument("--points", help="comma-separated sweep points in (0, 1]")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("oracle", parents=[common],
                       help="cross-check the analytic payoffs against "
                            "discrete fictitious play")
    p.add_argument("--grid-units", type=int, default=25)
    p.add_argument("--iterations", type=int, default=60_000)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EquilibriumRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

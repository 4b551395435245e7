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
from .model import (GameParams, ScenarioError, ValidationError,
                    default_nine_node, default_params, load_scenario, validate,
                    _read_json, _read_scenario)
from .metrics import battlefield_values, effect_matrices, effective_values
from .equilibrium import (EquilibriumRegimeError, solution_to_json,
                          solve_equilibrium)
from .oracle import cross_validate
from .experiments import (DEFAULT_LEVELS, DEFAULT_SWEEP_POINTS,
                          band_probability_table, flow_capacity_sweep,
                          matrix_rows, payoff_table, symmetry_sweep,
                          vector_rows, write_csv, csv_lines)


def _parse_points(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers such as 0.5,1.0, got {text!r}"
        ) from None


def _parse_nodes(text: str) -> tuple[int, ...]:
    """Node ids; the empty string selects the default nodes."""
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated node ids such as 0,1,4, got {text!r}"
        ) from None


def _overrides(args) -> dict[str, float]:
    """The GameParams fields set on the command line; the parameter flags
    store under the field names (--rd as budget_d, --ra as budget_a)."""
    return {field.name: getattr(args, field.name)
            for field in dataclasses.fields(GameParams)
            if getattr(args, field.name, None) is not None}


def _load_or_default(args) -> tuple:
    """Scenario from --scenario, or the built-in 9-node system."""
    if args.scenario:
        topology, params = load_scenario(args.scenario)
    else:
        topology = default_nine_node()
        params = default_params(topology.n)
    return topology, dataclasses.replace(params, **_overrides(args))


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
    params = default_params(h.size, **_overrides(args))
    rows = payoff_table(h, columns, params.budget_d, params.budget_a)
    text = "\n".join(csv_lines(["column", "payoff_defender", "payoff_attacker"],
                               rows, units="dimensionless payoffs"))
    _emit(text, args.out)
    return 0


def cmd_sweep_flow(args) -> int:
    rows = flow_capacity_sweep(points=args.points, levels=DEFAULT_LEVELS,
                               **_overrides(args))
    text = "\n".join(csv_lines(
        ["flow_capacity_ratio", "defender_payoff_ratio",
         "attacker_payoff_ratio"], rows,
        units="dimensionless ratios vs complete-information baseline"))
    _emit(text, args.out)
    return 0


def cmd_sweep_symmetry(args) -> int:
    topology, params = _load_or_default(args)
    values = battlefield_values(topology, params)
    rows = symmetry_sweep(values.attacker, points=args.points,
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
    node_ids = args.nodes or (
        (0, 1, 4) if topology.n >= 5 else tuple(range(topology.n)))
    values = battlefield_values(topology, params)
    rows = band_probability_table(
        values.attacker, node_ids, points=args.points,
        epsilon=args.epsilon, budget_d=params.budget_d,
        budget_a=params.budget_a, g_base=values.defender)
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the code for invalid input; argparse uses 2,
    which this CLI keeps for solver regime errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpsblotto",
        description="Model failure cascades in an interdependent "
                    "cyber-physical system and solve the attacker/defender "
                    "resource-allocation game.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    # Option groups, each attached only to the subcommands that read it.
    # The parameter flags store under their GameParams field names.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", help="scenario JSON file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")
    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--alpha", type=float,
                         help="physical effect weight in [0, 1]")
    weights.add_argument("--beta", type=float,
                         help="cyber effect weight in [0, 1]")
    weights.add_argument("--t0", type=float, help="baseline cyber effect")
    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--rd", dest="budget_d", metavar="RD", type=float,
                         help="defender budget R_D")
    budgets.add_argument("--ra", dest="budget_a", metavar="RA", type=float,
                         help="attacker budget R_A")
    points = argparse.ArgumentParser(add_help=False)
    points.add_argument("--points", type=_parse_points,
                        default=DEFAULT_SWEEP_POINTS,
                        help="comma-separated sweep points in (0, 1]")
    game = [scenario, out, weights, budgets]

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[scenario],
                   help="check a scenario against the structural invariants"
                   ).set_defaults(func=cmd_validate)
    sub.add_parser("effects", parents=[scenario, out, weights],
                   help="dump effect matrices and defender values as CSV"
                   ).set_defaults(func=cmd_effects)
    sub.add_parser("solve", parents=game,
                   help="solve the allocation game, emit the solution as JSON"
                   ).set_defaults(func=cmd_solve)
    sub.add_parser("table1", parents=[scenario, out, budgets],
                   help="payoffs for a file of defender-value columns"
                   ).set_defaults(func=cmd_table1)
    sub.add_parser("sweep-flow", parents=[out, weights, budgets, points],
                   help="payoff ratios across flow/capacity fills"
                   ).set_defaults(func=cmd_sweep_flow)
    sub.add_parser("sweep-symmetry", parents=game + [points],
                   help="payoff ratios as defender values symmetrize"
                   ).set_defaults(func=cmd_sweep_symmetry)

    p = sub.add_parser("fig4", parents=game + [points],
                       help="allocation band probabilities across a "
                            "symmetry sweep")
    p.add_argument("--nodes", type=_parse_nodes,
                   help="comma-separated node ids to watch")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("oracle", parents=game,
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

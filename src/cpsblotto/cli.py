"""Command-line interface.

Exit codes: 0 success, 1 scenario/validation error or an --out path that
cannot be written, 2 solver regime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import nullcontext

from . import __version__
from .model import (GameParams, ScenarioError, default_nine_node,
                    default_params, load_scenario)
from .metrics import battlefield_values, effect_matrices, effective_values
from .equilibrium import (EquilibriumRegimeError, solution_document,
                          solve_equilibrium)
from .oracle import cross_validate
from .experiments import (band_probability_table, flow_capacity_sweep,
                          load_value_table, matrix_rows, payoff_table,
                          symmetry_sweep, vector_rows, write_csv, csv_lines)


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


def _given(args, *names: str) -> dict:
    """The named options set on the command line, as keyword arguments; the
    library's defaults stand for the rest."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


# The parameter flags store under the GameParams field names (--rd as
# budget_d, --ra as budget_a).
_PARAMS = tuple(field.name for field in dataclasses.fields(GameParams))


def _load_or_default(args) -> tuple:
    """Scenario from --scenario, or the built-in 9-node system."""
    if args.scenario:
        topology, params = load_scenario(args.scenario)
    else:
        topology = default_nine_node()
        params = default_params(topology.n)
    return topology, dataclasses.replace(params, **_given(args, *_PARAMS))


def _emit(lines: list[str], out: str | None) -> None:
    """Write `lines` to the file `out`, or to stdout."""
    with (open(out, "w", encoding="utf-8", newline="\n") if out
          else nullcontext(sys.stdout)) as fh:
        fh.writelines(line + "\n" for line in lines)


def cmd_validate(args) -> None:
    topology, _ = _load_or_default(args)
    print(f"OK: {topology.n} nodes, "
          f"{int((topology.capacities > 0).sum())} flow edges")


def cmd_effects(args) -> None:
    topology, params = _load_or_default(args)
    matrices = effect_matrices(topology, params)
    defender = effective_values(topology.human_interaction,
                                matrices.interdependency)
    out_dir = args.out or "effects_out"
    os.makedirs(out_dir, exist_ok=True)
    for name, matrix in (("physical_effects", matrices.physical),
                         ("cyber_effects", matrices.cyber),
                         ("interdependency", matrices.interdependency)):
        write_csv(os.path.join(out_dir, f"{name}.csv"), "effects",
                  matrix_rows(matrix))
    write_csv(os.path.join(out_dir, "defender_values.csv"), "defender_values",
              vector_rows(defender))
    print(f"wrote effects tables to {out_dir}/")


def cmd_solve(args) -> None:
    topology, params = _load_or_default(args)
    values = battlefield_values(topology, params)
    solution = solve_equilibrium(values.defender, values.attacker,
                                 params.budget_d, params.budget_a)
    _emit([json.dumps(solution_document(solution), indent=2)], args.out)


def cmd_table1(args) -> None:
    if not args.scenario:
        raise ScenarioError("table1 requires --scenario pointing to a JSON "
                            "file with keys 'h' and 'g_columns'")
    h, columns = load_value_table(args.scenario)
    params = default_params(h.size, **_given(args, *_PARAMS))
    rows = payoff_table(h, columns, params.budget_d, params.budget_a)
    _emit(csv_lines("table1", rows), args.out)


def cmd_sweep_flow(args) -> None:
    rows = flow_capacity_sweep(**_given(args, "points", *_PARAMS))
    _emit(csv_lines("sweep_flow", rows), args.out)


def cmd_sweep_symmetry(args) -> None:
    topology, params = _load_or_default(args)
    values = battlefield_values(topology, params)
    rows = symmetry_sweep(values.attacker, budget_d=params.budget_d,
                          budget_a=params.budget_a, g_base=values.defender,
                          **_given(args, "points"))
    _emit(csv_lines("sweep_symmetry", rows), args.out)


def cmd_fig4(args) -> None:
    topology, params = _load_or_default(args)
    node_ids = args.node_ids or (
        (0, 1, 4) if topology.n >= 5 else tuple(range(topology.n)))
    values = battlefield_values(topology, params)
    rows = band_probability_table(
        values.attacker, node_ids, budget_d=params.budget_d,
        budget_a=params.budget_a, g_base=values.defender,
        **_given(args, "points", "epsilon"))
    _emit(csv_lines("fig4", rows), args.out)


def cmd_oracle(args) -> None:
    topology, params = _load_or_default(args)
    values = battlefield_values(topology, params)
    report = cross_validate(values.defender, values.attacker,
                            params.budget_d, params.budget_a,
                            **_given(args, "grid_units", "iterations"))
    _emit([json.dumps(report.document(), indent=2)], args.out)


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
                        help="comma-separated sweep points in (0, 1]")
    game = [scenario, out, weights, budgets]

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[scenario],
                   help="check a scenario against the structural invariants"
                   ).set_defaults(func=cmd_validate)
    p = sub.add_parser("effects", parents=[scenario, weights],
                       help="dump effect matrices and defender values as CSV")
    p.add_argument("--out", metavar="DIR",
                   help="directory for the four CSV files "
                        "(default effects_out)")
    p.set_defaults(func=cmd_effects)
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
    p.add_argument("--nodes", dest="node_ids", type=_parse_nodes,
                   help="comma-separated node ids to watch")
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("oracle", parents=game,
                       help="cross-check the analytic payoffs against "
                            "discrete fictitious play")
    p.add_argument("--grid-units", type=int)
    p.add_argument("--iterations", type=int)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, EquilibriumRegimeError) as exc:
        # ScenarioError and ValidationError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, EquilibriumRegimeError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

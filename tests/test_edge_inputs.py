"""One table of edge inputs across every entry point.

Each row is an edge input: a scenario file, a value vector, a table
file, an oracle size or an --out path that cannot be written.  Each
column is an entry point that takes the input: the library call, and
each CLI subcommand.  A cell pins the result, or the error type, the
message prefix and the exit code; a CLI error is one "error: " line on
stderr and nothing on stdout.  Files are named relative to the test's
own directory, so the messages that name them are exact.
"""

import json
import re
from typing import NamedTuple

import pytest

from cpsblotto import (EquilibriumRegimeError, ScenarioError, ValidationError,
                       battlefield_values, cross_validate, default_params,
                       generate_concentric, load_scenario, load_value_table,
                       payoff_table, solve_equilibrium, write_csv)
from cpsblotto.cli import main
from cpsblotto.model import scenario_document


class Fails(NamedTuple):
    """The library raises `error` with a message starting `prefix` and
    ending `suffix`; the CLI exits `code` and prints the same message."""

    error: type
    prefix: str
    code: int
    suffix: str = ""


def _three_node(**params) -> dict:
    """The three-node concentric scenario, its params edited by `params`:
    flows 0.7 on the edges 0 -> 1 and 0 -> 2 of capacity 1."""
    doc = scenario_document(
        generate_concentric([(1, 2.0), (2, 1.0)], flow_fill=0.7),
        default_params(3))
    doc["params"].update(params)
    return doc


def _edited(section: str, **edits) -> dict:
    """The three-node scenario with `edits` made to a section's first entry."""
    doc = _three_node()
    doc[section][0].update(edits)
    return doc


def _scenario(nodes: list[tuple], edges: list[tuple], cyber: list[tuple],
              t0: float) -> dict:
    """A scenario of (level, h) nodes, (from, to, flow, capacity) edges and
    unit-weight cyber links, at the default budgets and weights."""
    return {"nodes": [{"id": i, "level": level, "h": h}
                      for i, (level, h) in enumerate(nodes)],
            "edges": [{"from": i, "to": j, "flow": flow, "capacity": cap}
                      for i, j, flow, cap in edges],
            "cyber_edges": [{"a": a, "b": b, "weight": 1.0} for a, b in cyber],
            "params": {"alpha": 0.3, "beta": 0.7, "t0": t0, "R_D": 2.5,
                       "R_A": 1.0}}


_BASE = _three_node()
nan, inf = float("nan"), float("inf")

SCENARIOS = {
    "R_D=R_A": _three_node(R_D=1.0, R_A=1.0),
    "n=1": _scenario([("reference", 1.0)], [], [], t0=0.0),
    "n=2": _scenario([("reference", 2.0), ("ordinary", 1.0)],
                       [(0, 1, 0.7, 1.0)], [(0, 1)], t0=0.5),
    # The flow edge 0 -> 2 reaches every node from the reference, but the
    # cyber graph has two parts, {0, 1} and {2, 3}.
    "disconnected-cyber-graph": _scenario(
        [("reference", 1.0)] + [("ordinary", 1.0)] * 3, [(0, 2, 1.0, 2.0)],
        [(0, 1), (2, 3)], t0=0.5),
    "R_D/R_A=inf": _three_node(R_D=1e308, R_A=1e-308),
    # The weights' sum overflows.
    "h=1e308": {**_BASE, "nodes": [{**node, "h": 1e308}
                                   for node in _BASE["nodes"]]},
    # Divided by the largest weight, 1e-300 underflows to 0.
    "h=1e308,1e-300,1": {**_BASE, "nodes": [
        {**node, "h": h}
        for node, h in zip(_BASE["nodes"], (1e308, 1e-300, 1.0))]},
    "missing-file": None,
    "node-not-object": {**_BASE, "nodes": [1]},
    "edges-not-array": {**_BASE, "edges": 5},
    "cyber-edges-not-array": {**_BASE, "cyber_edges": {}},
    "edge-not-object": {**_BASE, "edges": [[0, 1]]},
    "params-not-object": {**_BASE, "params": [2.5, 1.0]},
    "null-id": _edited("nodes", id=None),
    "float-id": _edited("nodes", id=1.7),
    "string-id": _edited("nodes", id="1"),
    "repeated-id": _edited("nodes", id=1),
    "missing-id": _edited("nodes", id=3),
    "string-weight": _edited("nodes", h="0.5"),
    "bool-weight": _edited("nodes", h=True),
    "weight-beyond-float": _edited("nodes", h=10 ** 400),
    "array-flow": _edited("edges", flow=[1]),
    "string-alpha": _three_node(alpha="0.3"),
    "repeated-edge": {**_BASE, "edges": _BASE["edges"] + [
        {"from": 0, "to": 1, "flow": 0, "capacity": 1.5}]},
    "reversed-cyber-edge": {**_BASE, "cyber_edges": _BASE["cyber_edges"] + [
        {"a": 1, "b": 0, "weight": 5.0}]},
    "zero-weight-cyber-edge": _edited("cyber_edges", weight=0),
    "over-capacity": _edited("edges", flow=2.0),
    # Capacity and conservation do not depend on the unit of flow.
    "tiny-over-capacity": _edited("edges", flow=4e-13, capacity=2e-13),
    "small-scale-imbalance": _scenario(
        [("reference", 2.0), ("main", 1.0), ("ordinary", 1.0)],
        [(0, 1, 1e-10, 1.0), (1, 2, 2e-10, 1.0)], [(0, 1), (1, 2)],
        t0=0.5),
    # A node's capacity total, in plus out, overflows: with flows 1.0 the
    # cascade's headroom sums would overflow, and with flows 1.5e308 the
    # flow totals would.
    "capacity-overflow-5": _scenario(
        [("reference", 1.0)] + [("ordinary", 1.0)] * 4,
        [(0, 1, 1.0, 1.7e308), (0, 2, 1.0, 1.7e308), (0, 4, 1.0, 1.7e308),
         (1, 3, 1.0, 1.7e308), (2, 3, 1.0, 1.7e308), (4, 3, 1.0, 1.7e308)],
        [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)], t0=0.25),
    "capacity-overflow-4": _scenario(
        [("reference", 1.0)] + [("ordinary", 1.0)] * 3,
        [(0, 1, 1.5e308, 1.7e308), (0, 2, 1.5e308, 1.7e308),
         (1, 3, 1.5e308, 1.7e308), (2, 3, 1.5e308, 1.7e308)],
        [(0, 1), (0, 2), (1, 3), (2, 3)], t0=0.5),
    # Each number a scenario holds, at NaN and at inf; "NaN" is the flow's.
    "NaN": _edited("edges", flow=nan),
    "flow=inf": _edited("edges", flow=inf),
    "capacity=NaN": _edited("edges", capacity=nan),
    "capacity=inf": _edited("edges", capacity=inf),
    "cyber-weight=NaN": _edited("cyber_edges", weight=nan),
    "cyber-weight=inf": _edited("cyber_edges", weight=inf),
    "h=NaN": _edited("nodes", h=nan),
    "h=inf": _edited("nodes", h=inf),
    "R_D=NaN": _three_node(R_D=nan),
    "R_D=inf": _three_node(R_D=inf),
    # Raw JSON text: a dict cannot hold a repeated key.
    "repeated-key": json.dumps(_BASE).replace(
        '"R_A": 1.0', '"R_A": 1.0, "R_A": 2.0'),
}

# The scenario subcommands, in the order the parser lists them.
_SCENARIO_COMMANDS = ("validate", "effects", "solve", "sweep-symmetry", "fig4",
                      "oracle")


def _every_column(outcome: Fails) -> dict:
    return dict.fromkeys(("library",) + _SCENARIO_COMMANDS, outcome)


_RATIO = Fails(ValidationError, "budget ratio R_D / R_A must be finite", 1)

# The values each non-finite row's message names.
_NOT_FINITE = {"NaN": "flows", "flow=inf": "flows",
               "capacity=NaN": "capacities", "capacity=inf": "capacities",
               "cyber-weight=NaN": "cyber_adjacency",
               "cyber-weight=inf": "cyber_adjacency",
               "h=NaN": "node weights h", "h=inf": "node weights h",
               "R_D=NaN": "R_D", "R_D=inf": "R_D"}
# The file reader's faults, each a ScenarioError.
_READER_FAULTS = {
    "missing-file": "cannot parse scenario scenario.json: [Errno 2] "
                    "No such file or directory: 'scenario.json'",
    "node-not-object": "node entry must be a JSON object",
    "edges-not-array": "'edges' must be an array in scenario, got 5",
    "cyber-edges-not-array": "'cyber_edges' must be an array in scenario, "
                             "got {}",
    "edge-not-object": "edge entry must be a JSON object",
    "params-not-object": "params must be a JSON object",
    "null-id": "'id' must be an integer in node entry, got null",
    "float-id": "'id' must be an integer in node entry, got 1.7",
    "string-id": "'id' must be an integer in node entry, got \"1\"",
    "repeated-id": "node ids must be 0..2, each used once, got [1, 1, 2]",
    "missing-id": "node ids must be 0..2, each used once, got [1, 2, 3]",
    "string-weight": "'h' must be a number in node entry, got \"0.5\"",
    "bool-weight": "'h' must be a number in node entry, got true",
    "weight-beyond-float": "'h' must be a number in node entry, got "
                           f"{10 ** 400}",
    "array-flow": "'flow' must be a number in edge entry, got [1]",
    "string-alpha": "'alpha' must be a number in params, got \"0.3\"",
    "repeated-edge": "edge (0, 1) is listed more than once",
    "reversed-cyber-edge": "cyber edge (1, 0) is listed more than once",
    "zero-weight-cyber-edge": "cyber edge (0, 1) has weight 0; leave "
                              "out a pair with no link",
}

# A result is the payoff pair (D, A) of the library's solution, of solve's
# JSON or of the oracle's analytic solve; validate's line; or the CSV lines
# after the header: effects' defender values, and the last row of the sweep
# and fig4 tables (uniform defender values, the last node and owner).
SCENARIO_CELLS = {
    "R_D=R_A": {
        "library": (0.5059336052054741, 0.5074008852425631),
        "validate": "OK: 3 nodes, 2 flow edges",
        "effects": ["0,0.584795322", "1,0.207602339", "2,0.207602339"],
        "solve": (0.5059336052054741, 0.5074008852425631),
        "sweep-symmetry": "1,0,1.03470329,1.06202282",
        "fig4": "1,0,2,attacker,0.25,0.109574394",
        "oracle": (0.5059336052054741, 0.5074008852425631),
    },
    "n=1": {
        "library": (0.8, 0.2),
        "validate": "OK: 1 nodes, 0 flow edges",
        "effects": ["0,1"],
        "solve": (0.8, 0.2),
        "sweep-symmetry": "1,0,1,1",
        "fig4": "1,0,0,attacker,1,0.008",
        # 25 attacker units and round(62.5) = 62 defender units
        "oracle": (0.7983870967741935, 0.20161290322580647),
    },
    "n=2": {
        "library": (0.8095238095238095, 0.2),
        "validate": "OK: 2 nodes, 1 flow edges",
        "effects": ["0,0.555555556", "1,0.444444444"],
        "solve": (0.8095238095238095, 0.2),
        "sweep-symmetry": "1,0,1.025,1",
        "fig4": "1,0,1,attacker,0.333333333,0.0144",
        "oracle": (0.8079877112135176, 0.20161290322580644),
    },
    "R_D/R_A=inf": _every_column(_RATIO),
    # The cells of the same file with every h = 1: the weights are 1/3 each.
    "h=1e308": {
        "library": (0.82923551268875, 0.19999999999999998),
        "validate": "OK: 3 nodes, 2 flow edges",
        "effects": ["0,0.539568345", "1,0.230215827", "2,0.230215827"],
        "solve": (0.82923551268875, 0.19999999999999998),
        "sweep-symmetry": "1,0,1,1",
        "fig4": "1,0,2,attacker,0.333333333,0.024",
        "oracle": (0.8278583797265626, 0.2016129032258064),
    },
    "h=1e308,1e-300,1": _every_column(Fails(
        ValidationError, "node weights h entry 1 normalizes to 0; the weights "
        "span too wide a range", 1)),
    "disconnected-cyber-graph": _every_column(Fails(
        ValidationError, "cyber graph is disconnected (nodes 0 and 2)", 1)),
    "over-capacity": _every_column(Fails(
        ValidationError, "flow exceeds capacity on edge (0, 1)", 1)),
    "tiny-over-capacity": _every_column(Fails(
        ValidationError, "flow exceeds capacity on edge (0, 1)", 1)),
    "small-scale-imbalance": _every_column(Fails(
        ValidationError, "conservation violated at node 1: inflow 1e-10 != "
        "outflow 2e-10", 1)),
    "capacity-overflow-5": _every_column(Fails(
        ValidationError, "; ".join(f"capacity total overflows at node {j}"
                                   for j in range(5)), 1)),
    "capacity-overflow-4": _every_column(Fails(
        ValidationError, "; ".join(f"capacity total overflows at node {j}"
                                   for j in range(4)), 1)),
    **{row: _every_column(Fails(ValidationError, f"{name} must be finite", 1))
       for row, name in _NOT_FINITE.items()},
    "repeated-key": _every_column(Fails(
        ScenarioError, "cannot parse scenario ", 1, "repeated key 'R_A'")),
    **{row: _every_column(Fails(ScenarioError, message, 1))
       for row, message in _READER_FAULTS.items()},
}

# (h, g, R_D, R_A); the CLI reads them as a table1 file with the column
# "g" and the options --rd and --ra.
VALUES = {
    "R_D=R_A,g!=h": ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], 1.0, 1.0),
    "R_D=R_A,g=h": ([0.5, 0.3, 0.2], [0.5, 0.3, 0.2], 1.0, 1.0),
    "tied-ratios": ([0.4, 0.4, 0.2], [0.3, 0.3, 0.4], 2.5, 1.0),
    # The column's only consistent partitions have roots whose cubic terms
    # overflow.
    "tiny-values": ([1e-170, 1.0 - 1e-170], [1.0 - 1e-300, 1e-300], 2.5, 1.0),
    # h_1 / g_1 overflows to inf.
    "subnormal-g": ([0.5, 0.5], [1.0, 1e-310], 2.5, 1.0),
    "n=1": ([1.0], [1.0], 2.5, 1.0),
    "n=2": ([0.6, 0.4], [0.3, 0.7], 2.5, 1.0),
    "R_D/R_A=inf": ([0.5, 0.5], [0.5, 0.5], 1e308, 1e-308),
}

# A result is the payoff pair (D, A) of the solution, or of table1's "g"
# row.
_REGIME = Fails(EquilibriumRegimeError, "no equilibrium in solver's regime",
                2)
VALUE_CELLS = {
    "R_D=R_A,g!=h": {"library": (0.59, 0.59), "table1": (0.59, 0.59)},
    "R_D=R_A,g=h": {"library": (0.5, 0.5), "table1": (0.5, 0.5)},
    "tied-ratios": {"library": (0.8285714285714285, 0.2),
                    "table1": (0.828571429, 0.2)},
    "tiny-values": {"library": _REGIME, "table1": _REGIME},
    "subnormal-g": {"library": (0.8, 0.6), "table1": (0.8, 0.6)},
    "n=1": {"library": (0.8, 0.2), "table1": (0.8, 0.2)},
    "n=2": {"library": (0.86, 0.2), "table1": (0.86, 0.2)},
    "R_D/R_A=inf": {"library": _RATIO, "table1": _RATIO},
}

# Table files, written as the scenario files are.  The row
# "h=1e308,1e-300,1" holds the weights of the scenario row of that name,
# which the sum rule rejects before they are normalized.
TABLE_FILES = {
    "missing-file": None,
    "bad-json": '{"h": [0.5, 0.5],',
    "bad-utf-8": b'{"h": [0.5, 0.5], \xff}',
    "repeated-key": ('{"h": [0.5, 0.5], "g_columns": '
                     '{"a": [0.9, 0.1], "a": [0.5, 0.5]}}'),
    "top-level-array": [[0.5, 0.5]],
    "columns-array": {"h": [0.5, 0.5], "g_columns": [[0.5, 0.5]]},
    "extra-key": {"h": [0.5, 0.5], "extra": 1},
    "h-object": {"h": {"a": 1.0}, "g_columns": {}},
    "h-strings": {"h": ["0.5", "0.5"], "g_columns": {}},
    "h-bool": {"h": [True, 0.5], "g_columns": {}},
    "h=1e308,1e-300,1": {"h": [1e308, 1e-300, 1.0], "g_columns": {}},
    "negative-column": {"h": [0.4, 0.3, 0.3],
                        "g_columns": {"a": [0.6, 0.41, -0.01]}},
    "column-named-h": {"h": [0.5, 0.3, 0.2],
                       "g_columns": {"h": [0.2, 0.3, 0.5]}},
}
_PARSE = "cannot parse table file table.json: "
_SHAPE = ("table file must hold exactly 'h' and 'g_columns', an object of "
          "columns")
_TABLE_FAULTS = {
    "missing-file": Fails(ScenarioError, f"{_PARSE}[Errno 2] No such file or "
                          "directory: 'table.json'", 1),
    "bad-json": Fails(ScenarioError, f"{_PARSE}Expecting property name "
                      "enclosed in double quotes: line 1 column 18 (char 17)",
                      1),
    "bad-utf-8": Fails(ScenarioError, f"{_PARSE}'utf-8' codec can't decode "
                       "byte 0xff in position 18: invalid start byte", 1),
    "repeated-key": Fails(ScenarioError, _PARSE, 1, "repeated key 'a'"),
    "top-level-array": Fails(ScenarioError, _SHAPE, 1),
    "columns-array": Fails(ScenarioError, _SHAPE, 1),
    "extra-key": Fails(ScenarioError, _SHAPE, 1),
    "h-object": Fails(ScenarioError, "table file values must be arrays of "
                      "numbers, got 'h': {\"a\": 1.0}", 1),
    "h-strings": Fails(ScenarioError, "table file values must be arrays of "
                       "numbers, got 'h': [\"0.5\", \"0.5\"]", 1),
    "h-bool": Fails(ScenarioError, "table file values must be arrays of "
                    "numbers, got 'h': [true, 0.5]", 1),
    "h=1e308,1e-300,1": Fails(ValidationError, "h sums to 1e+308, expected 1",
                              1),
    "negative-column": Fails(ValidationError, "column 'a' must be positive",
                             1),
    "column-named-h": Fails(ValidationError,
                            "column name 'h' clashes with the h row", 1),
}
TABLE_CELLS = {row: dict.fromkeys(("library", "table1"), outcome)
               for row, outcome in _TABLE_FAULTS.items()}

# Every subcommand that writes a file takes --out; effects takes a
# directory, which it makes, parents and all.  A path below a regular file
# cannot be either, a file in a missing directory cannot be written, and
# an existing file is no directory.
OUT_PATHS = {"unwritable-out": "file/out", "missing-directory": "missing/out",
             "existing-file": "file"}
_OUT_COLUMNS = ("library", "effects", "solve", "table1", "sweep-flow",
                "sweep-symmetry", "fig4", "oracle")
OUT_CELLS = {
    "unwritable-out": dict.fromkeys(_OUT_COLUMNS, Fails(
        NotADirectoryError, "[Errno 20] Not a directory: 'file/out'", 1)),
    "missing-directory": dict.fromkeys(
        _OUT_COLUMNS[:1] + _OUT_COLUMNS[2:], Fails(
            FileNotFoundError,
            "[Errno 2] No such file or directory: 'missing/out'", 1)),
    "existing-file": {"effects": Fails(FileExistsError,
                                       "[Errno 17] File exists: 'file'", 1)},
}


def _cells(table: dict) -> list:
    return [pytest.param(row, column, expected, id=f"{row}/{column}")
            for row, cells in table.items()
            for column, expected in cells.items()]


def _write(path: str, content) -> None:
    """Write a row's file: bytes and text as they stand, and anything else
    as JSON, which writes NaN and inf as the literals NaN and Infinity.
    None writes no file."""
    if isinstance(content, bytes):
        with open(path, "wb") as fh:
            fh.write(content)
    elif content is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str)
                     else json.dumps(content))


def _library(call, expected):
    """The result of `call()`, or None once it has raised as `expected`."""
    if isinstance(expected, Fails):
        with pytest.raises(expected.error,
                           match=f"^{re.escape(expected.prefix)}.*"
                                 f"{re.escape(expected.suffix)}$"):
            call()
        return None
    return call()


def _cli(argv: list[str], expected, capsys) -> str | None:
    """`main(argv)`'s stdout, or None once it has failed as `expected`."""
    code = main(argv)
    out, err = capsys.readouterr()
    if isinstance(expected, Fails):
        assert (code, out) == (expected.code, "")
        assert err.startswith(f"error: {expected.prefix}")
        assert err.count("\n") == 1 and err.endswith(f"{expected.suffix}\n")
        return None
    assert (code, err) == (0, "")
    return out


def _data_lines(path) -> list[str]:
    """A CSV table's lines after its comment and header."""
    return path.read_text().splitlines()[2:]


def _payoffs(doc: dict) -> tuple[float, float]:
    return doc["payoff_D"], doc["payoff_A"]


def _pipeline(path: str) -> tuple[float, float]:
    """The library's scenario-to-solution pipeline, as the CLI runs it."""
    topology, params = load_scenario(path)
    values = battlefield_values(topology, params)
    solution = solve_equilibrium(values.defender, values.attacker,
                                 params.budget_d, params.budget_a)
    return solution.payoff_d, solution.payoff_a


def _assert_result(result, expected) -> None:
    if isinstance(expected, tuple):
        assert result == pytest.approx(expected, rel=1e-9)
    else:
        assert result == expected


# Each subcommand's result, from its stdout and its --out path.
_READ_RESULT = {
    "validate": lambda stdout, out: stdout.strip(),
    "effects": lambda stdout, out: _data_lines(out / "defender_values.csv"),
    "solve": lambda stdout, out: _payoffs(json.loads(out.read_text())),
    "sweep-symmetry": lambda stdout, out: _data_lines(out)[-1],
    "fig4": lambda stdout, out: _data_lines(out)[-1],
    "oracle": lambda stdout, out: _payoffs(
        json.loads(out.read_text())["analytic"]),
}


@pytest.mark.parametrize("row, column, expected", _cells(SCENARIO_CELLS))
def test_scenario_edge_input(tmp_path, monkeypatch, capsys, row, column,
                             expected):
    monkeypatch.chdir(tmp_path)
    _write("scenario.json", SCENARIOS[row])
    out = tmp_path / "out"
    if column == "library":
        result = _library(lambda: _pipeline("scenario.json"), expected)
    else:
        to_out = [] if column == "validate" else ["--out", "out"]
        stdout = _cli([column, "--scenario", "scenario.json"] + to_out,
                      expected, capsys)
        result = (None if stdout is None
                  else _READ_RESULT[column](stdout, out))
    if result is not None:
        _assert_result(result, expected)


@pytest.mark.parametrize("row, column, expected", _cells(VALUE_CELLS))
def test_value_edge_input(tmp_path, monkeypatch, capsys, row, column,
                          expected):
    h, g, budget_d, budget_a = VALUES[row]
    if column == "library":
        solution = _library(lambda: solve_equilibrium(g, h, budget_d,
                                                      budget_a), expected)
        if solution is not None:
            _assert_result((solution.payoff_d, solution.payoff_a), expected)
        return
    monkeypatch.chdir(tmp_path)
    _write("table.json", {"h": h, "g_columns": {"g": g}})
    if _cli(["table1", "--scenario", "table.json", "--rd", str(budget_d),
             "--ra", str(budget_a), "--out", "payoffs.csv"],
            expected, capsys) is not None:
        name, payoff_d, payoff_a = _data_lines(
            tmp_path / "payoffs.csv")[-1].split(",")
        assert name == "g"
        _assert_result((float(payoff_d), float(payoff_a)), expected)


@pytest.mark.parametrize("row, column, expected", _cells(TABLE_CELLS))
def test_table_file_edge_input(tmp_path, monkeypatch, capsys, row, column,
                               expected):
    monkeypatch.chdir(tmp_path)
    _write("table.json", TABLE_FILES[row])
    if column == "library":
        _library(lambda: payoff_table(*load_value_table("table.json"),
                                      budget_d=2.5, budget_a=1.0), expected)
    else:
        _cli(["table1", "--scenario", "table.json"], expected, capsys)


# R_D / R_A = 1e308 is finite, but the oracle's defender units, 25 times
# it, are not; 10**400 grid units are too many for any float.
UNITS_CELLS = {
    row: dict.fromkeys(("library", "oracle"), Fails(
        ValueError, f"defender units {units} * R_D / R_A must be finite", 1))
    for row, units in (("R_D=1e308,R_A=1", 25),
                       ("grid_units=10**400", 10 ** 400))}
# Each row's library keywords and oracle flags, at R_D = 2.5 and R_A = 1
# unless given.
UNITS_INPUTS = {
    "R_D=1e308,R_A=1": ({"budget_d": 1e308}, ["--rd", "1e308", "--ra", "1"]),
    "grid_units=10**400": ({"grid_units": 10 ** 400},
                           ["--grid-units", str(10 ** 400)]),
}


@pytest.mark.parametrize("row, column, expected", _cells(UNITS_CELLS))
def test_oracle_unit_overflow(capsys, row, column, expected):
    keywords, flags = UNITS_INPUTS[row]
    if column == "library":
        _library(lambda: cross_validate(
            [0.5, 0.5], [0.5, 0.5], **{"budget_d": 2.5, "budget_a": 1.0,
                                       **keywords}), expected)
    else:
        _cli(["oracle"] + flags, expected, capsys)


@pytest.mark.parametrize("row, column, expected", _cells(OUT_CELLS))
def test_unwritable_out(tmp_path, monkeypatch, capsys, row, column,
                        expected):
    monkeypatch.chdir(tmp_path)
    _write("file", "")
    out = OUT_PATHS[row]
    if column == "library":
        _library(lambda: write_csv(out, "table1", []), expected)
    else:
        _write("scenario.json", _three_node())
        _write("table.json", {"h": [0.5, 0.5], "g_columns": {}})
        inputs = {"table1": ["--scenario", "table.json"], "sweep-flow": []}
        _cli([column, "--out", out]
             + inputs.get(column, ["--scenario", "scenario.json"]),
             expected, capsys)
    assert (tmp_path / "file").read_text() == ""
    assert not (tmp_path / "missing").exists()

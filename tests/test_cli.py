"""End-to-end command-line interface behavior and exit codes."""

import argparse
import dataclasses
import json
import re

import pytest

from cpsblotto import (EquilibriumRegimeError, ValidationError,
                       battlefield_values, default_nine_node, default_params,
                       generate_concentric, load_scenario, metrics,
                       save_scenario)
from cpsblotto.cli import build_parser, main
from cpsblotto.model import scenario_document
from _support import TABLE_CASES, TABLE_H


def small_scenario(tmp_path, name="scenario.json"):
    topology = generate_concentric([(1, 2.0), (2, 1.0)], flow_fill=0.7)
    params = default_params(3)
    path = tmp_path / name
    save_scenario(topology, params, str(path))
    return path, topology, params


def test_validate_default_system(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: 9 nodes")


def test_one_rule_every_entry_point(tmp_path, capsys):
    # An over-capacity edge meets the same rule, with the same message,
    # whether the topology is built, read from a file or checked by the CLI.
    topology = generate_concentric([(1, 2.0), (2, 1.0)], flow_fill=0.7)
    F = topology.flows.copy()
    F[0, 1] = topology.capacities[0, 1] * 50.0
    with pytest.raises(ValidationError) as built:
        dataclasses.replace(topology, flows=F)
    message = str(built.value)
    assert message == "flow exceeds capacity on edge (0, 1)"

    doc = scenario_document(topology, default_params(3))
    edge = next(e for e in doc["edges"] if (e["from"], e["to"]) == (0, 1))
    edge["flow"] = F[0, 1]
    path = tmp_path / "over_capacity.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_scenario(str(path))

    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("section, key", [
    ("edges", "flow"), ("edges", "capacity"), ("cyber_edges", "weight"),
    ("nodes", "h"), ("params", "R_D")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_scenario_numbers_are_exit_one(tmp_path, capsys, section,
                                                  key, value):
    topology = generate_concentric([(1, 2.0), (2, 1.0)], flow_fill=0.7)
    doc = scenario_document(topology, default_params(3))
    entry = doc["params"] if section == "params" else doc[section][0]
    entry[key] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert "finite" in captured.out + captured.err
    assert main(["solve", "--scenario", str(path)]) == 1
    assert "finite" in capsys.readouterr().err


def test_missing_scenario_file_is_exit_one(capsys):
    assert main(["validate", "--scenario", "/does/not/exist.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_nan_budget(capsys):
    assert main(["solve", "--rd", "nan"]) == 1
    assert capsys.readouterr().err == "error: R_D must be finite\n"


def test_effects_writes_four_csv_files(tmp_path, capsys):
    out_dir = tmp_path / "effects"
    assert main(["effects", "--out", str(out_dir)]) == 0
    names = ["physical_effects.csv", "cyber_effects.csv",
             "interdependency.csv", "defender_values.csv"]
    for name in names:
        lines = (out_dir / name).read_text().splitlines()
        assert lines[0].startswith("# cpsblotto v")
        assert len(lines) >= 3
    matrix_lines = (out_dir / "physical_effects.csv").read_text().splitlines()
    assert len(matrix_lines) == 2 + 81  # comment + header + 9x9 entries
    # --out names a directory here, not the output file of the other
    # subcommands.
    with pytest.raises(SystemExit):
        main(["effects", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "directory for the four CSV files (default effects_out)" \
        in help_text


def test_effects_out_on_an_existing_file_is_exit_one(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["effects", "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == ""


def test_solve_out_in_a_missing_directory_is_exit_one(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["solve", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


def test_solve_emits_parseable_solution(capsys, tmp_path):
    assert main(["solve"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"mu", "lambda_A", "lambda_D", "omega_A", "marginals",
                        "payoff_D", "payoff_A", "cubic_residual"}
    assert doc["payoff_A"] == pytest.approx(0.2, abs=1e-12)

    out = tmp_path / "solution.json"
    assert main(["solve", "--out", str(out), "--rd", "3.0", "--ra", "1.5"]) == 0
    doc2 = json.loads(out.read_text())
    assert doc2["payoff_A"] == pytest.approx(0.25, abs=1e-12)


def test_table1_reproduces_payoff_column(tmp_path, capsys):
    table = {"h": TABLE_H.tolist(),
             "g_columns": {name: col.tolist()
                           for name, col in TABLE_CASES.items()}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    out = tmp_path / "payoffs.csv"
    assert main(["table1", "--scenario", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "column,payoff_defender,payoff_attacker"
    data = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[2:]}
    assert data["h"] == pytest.approx(0.8, abs=1e-9)
    assert data["case1"] == pytest.approx(0.803375865, abs=1e-8)
    assert data["case3"] == pytest.approx(0.812942040, abs=1e-8)


def test_table1_requires_a_well_formed_file(tmp_path, capsys):
    assert main(["table1"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"h": [0.5, 0.5], "extra": 1}))
    assert main(["table1", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_table1_names_an_unreadable_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["table1", "--scenario", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot parse table file {missing}: ")
    malformed = tmp_path / "malformed.json"
    for content in (b"{\"h\": [0.5, 0.5],", b"{\"h\": [0.5, 0.5], \xff}"):
        malformed.write_bytes(content)   # bad JSON, then bad UTF-8
        assert main(["table1", "--scenario", str(malformed)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot parse table file {malformed}: ")


def _scenario_with(**edits):
    doc = scenario_document(
        generate_concentric([(1, 2.0), (2, 1.0)], flow_fill=0.7),
        default_params(3))
    doc.update(edits)
    return doc


def _edited(section, edits):
    """The small scenario with `edits` made to the first entry of a
    section, or to its params."""
    doc = _scenario_with()
    (doc[section] if section == "params" else doc[section][0]).update(edits)
    return doc


def _appended(section, entry):
    doc = _scenario_with()
    doc[section].append(entry)
    return doc


@pytest.mark.parametrize("command, doc, message", [
    pytest.param("table1", {"h": [0.5, 0.5], "g_columns": [[0.5, 0.5]]},
                 "table file must hold exactly", id="table-columns-array"),
    pytest.param("table1", [[0.5, 0.5]], "table file must hold exactly",
                 id="table-top-level-array"),
    pytest.param("table1", {"h": {"a": 1.0}, "g_columns": {}},
                 "table file values must be arrays of numbers",
                 id="table-h-object"),
    pytest.param("table1", {"h": [0.4, 0.3, 0.3],
                            "g_columns": {"a": [0.6, 0.41, -0.01]}},
                 "column 'a' must be positive", id="table-negative-column"),
    pytest.param("solve", _scenario_with(nodes=[1]),
                 "node entry must be a JSON object", id="scenario-node-int"),
    pytest.param("solve", _scenario_with(edges=5), "'edges' must be an array",
                 id="scenario-edges-int"),
    pytest.param("solve", _scenario_with(cyber_edges={}),
                 "'cyber_edges' must be an array", id="scenario-cyber-object"),
    pytest.param("solve", _scenario_with(edges=[[0, 1]]),
                 "edge entry must be a JSON object", id="scenario-edge-array"),
    pytest.param("solve", _scenario_with(params=[2.5, 1.0]),
                 "params must be a JSON object", id="scenario-params-array"),
    pytest.param("solve", _edited("nodes", {"id": 1.7}),
                 "'id' must be an integer in node entry, got 1.7",
                 id="scenario-id-float"),
    pytest.param("solve", _edited("nodes", {"id": "1"}),
                 "'id' must be an integer in node entry, got \"1\"",
                 id="scenario-id-string"),
    pytest.param("solve", _edited("nodes", {"h": True}),
                 "'h' must be a number in node entry, got true",
                 id="scenario-h-bool"),
    pytest.param("solve", _edited("nodes", {"h": 10 ** 400}),
                 "'h' must be a number in node entry, got 1000",
                 id="scenario-h-beyond-float"),
    pytest.param("solve", _edited("edges", {"flow": [1]}),
                 "'flow' must be a number in edge entry, got [1]",
                 id="scenario-flow-array"),
    pytest.param("solve", _edited("params", {"alpha": "0.3"}),
                 "'alpha' must be a number in params, got \"0.3\"",
                 id="scenario-alpha-string"),
    pytest.param("table1", {"h": ["0.5", "0.5"], "g_columns": {}},
                 "table file values must be arrays of numbers",
                 id="table-h-strings"),
    pytest.param("table1", {"h": [True, 0.5], "g_columns": {}},
                 "table file values must be arrays of numbers",
                 id="table-h-bool"),
    pytest.param("solve", _appended("edges", {"from": 0, "to": 1, "flow": 0,
                                              "capacity": 1.5}),
                 "edge (0, 1) is listed more than once",
                 id="scenario-edge-repeated"),
    pytest.param("solve", _appended("cyber_edges",
                                    {"a": 1, "b": 0, "weight": 5.0}),
                 "cyber edge (1, 0) is listed more than once",
                 id="scenario-cyber-edge-reversed-repeat"),
    pytest.param("solve", _edited("cyber_edges", {"weight": 0}),
                 "cyber edge (0, 1) has weight 0",
                 id="scenario-cyber-edge-zero-weight"),
    pytest.param("solve", _edited("nodes", {"id": 1}),
                 "node ids must be 0..2, each used once, got [1, 1, 2]",
                 id="scenario-node-id-repeated"),
    pytest.param("solve", _edited("nodes", {"id": 3}),
                 "node ids must be 0..2, each used once, got [1, 2, 3]",
                 id="scenario-node-id-missing"),
    pytest.param("table1", {"h": [0.5, 0.3, 0.2],
                            "g_columns": {"h": [0.2, 0.3, 0.5]}},
                 "column name 'h' clashes with the h row",
                 id="table-column-named-h"),
])
def test_malformed_files_exit_one_without_traceback(tmp_path, capsys,
                                                    command, doc, message):
    # Each of these once ended in a traceback or named the wrong vector.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_effects_runs_each_effect_layer_once(tmp_path, monkeypatch):
    calls = {"cyber": 0, "physical": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "cyber_effect_matrix",
                        counting("cyber", metrics.cyber_effect_matrix))
    monkeypatch.setattr(metrics, "physical_effect_matrix",
                        counting("physical", metrics.physical_effect_matrix))
    assert main(["effects", "--out", str(tmp_path / "effects")]) == 0
    assert calls == {"cyber": 1, "physical": 1}
    values = (tmp_path / "effects" / "defender_values.csv").read_text()
    expected = battlefield_values(default_nine_node(), default_params(9))
    assert [float(line.split(",")[1]) for line in values.splitlines()[2:]] \
        == pytest.approx(expected.defender.tolist(), abs=1e-9)


def test_sweep_flow_with_custom_points(tmp_path):
    out = tmp_path / "flow.csv"
    assert main(["sweep-flow", "--points", "0.5,1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    # CSV carries 9 significant digits
    assert float(rows[0][1]) == pytest.approx(1.016552157, abs=1e-8)
    assert float(rows[1][1]) == pytest.approx(1.017177647, abs=1e-8)
    assert main(["sweep-flow", "--points", "0.9,0.1"]) == 1  # not increasing


def test_sweep_symmetry_reaches_uniform_ceiling(tmp_path):
    out = tmp_path / "sym.csv"
    assert main(["sweep-symmetry", "--points", "0.5,1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[2]) == pytest.approx(1.060606061, abs=1e-8)


def test_fig4_band_probabilities(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["fig4", "--nodes", "0", "--points", "1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == ("theta,defender_value_std,node,owner,share,"
                        "probability")
    # one node, both owners; exact values, 3/16 and 3/55
    assert lines[2:] == ["1,0,0,defender,0.111111111,0.1875",
                         "1,0,0,attacker,0.266666667,0.0545454545"]


def test_oracle_cross_check_on_a_small_scenario(tmp_path):
    path, _, _ = small_scenario(tmp_path)
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--scenario", str(path), "--grid-units", "20",
                 "--iterations", "4000", "--rd", "1.25", "--ra", "1.0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"analytic", "oracle", "abs_diff", "converged",
                        "grid_units"}
    assert doc["grid_units"] == 20
    assert doc["abs_diff"] < 0.03


def test_oracle_rejects_an_oversized_grid(capsys):
    # nine battlefields at the default grid blow the strategy cap; the CLI
    # must fail loudly instead of silently truncating
    assert main(["oracle"]) == 1
    assert "cap" in capsys.readouterr().err


def test_regime_error_has_its_own_exit_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise EquilibriumRegimeError("forced")
    monkeypatch.setattr("cpsblotto.cli.solve_equilibrium", explode)
    assert main(["solve"]) == 2
    assert "forced" in capsys.readouterr().err


def test_version_flag():
    # --version and --help keep exit 0 although usage errors exit 1
    for argv in (["--version"], ["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "1"],
    ["fig4", "--samples", "1000"],
    ["fig4", "--seed", "0"],
    ["sweep-flow", "--scenario", "x.json"],
    ["validate", "--out", "x.txt"],
    ["effects", "--rd", "3"],
    ["table1", "--alpha", "0.5"],
    ["solve", "--bogus"],
    ["sweep-flow", "--points", "a,b"],
    [],
])
def test_usage_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_points_name_the_expected_format(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep-flow", "--points", "a,b"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "0.5,1.0" in err
    assert "_parse_points" not in err


def test_malformed_nodes_name_the_option_and_format(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fig4", "--nodes", "a,b"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "--nodes" in err
    assert "0,1,4" in err
    assert "_parse_nodes" not in err


def test_fig4_empty_nodes_watch_the_default_nodes(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["fig4", "--nodes", "", "--points", "1.0",
                 "--out", str(out)]) == 0
    nodes = {line.split(",")[2] for line in out.read_text().splitlines()[2:]}
    assert nodes == {"0", "1", "4"}


def test_fig4_rejects_unknown_node_ids(capsys):
    for node in ("99", "9", "-1"):
        assert main(["fig4", "--nodes", node, "--points", "1.0"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: watched node id {node} out of range 0..8")


# Each subcommand's exact option set: every option listed is read by the
# subcommand, so none is accepted and then ignored.
_GAME = {"--scenario", "--out", "--alpha", "--beta", "--t0", "--rd", "--ra"}
SUBCOMMAND_OPTIONS = {
    "validate": {"--scenario"},
    "effects": {"--scenario", "--out", "--alpha", "--beta", "--t0"},
    "solve": _GAME,
    "table1": {"--scenario", "--out", "--rd", "--ra"},
    "sweep-flow": _GAME - {"--scenario"} | {"--points"},
    "sweep-symmetry": _GAME | {"--points"},
    "fig4": _GAME | {"--points", "--nodes", "--epsilon"},
    "oracle": _GAME | {"--grid-units", "--iterations"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: {flag for action in sub._actions
                      for flag in action.option_strings
                      if flag not in ("-h", "--help")}
               for name, sub in subparsers.choices.items()}
    assert options == SUBCOMMAND_OPTIONS
    assert sum(len(flags) for flags in options.values()) == 51

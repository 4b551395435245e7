"""The package's public names: exactly what the demos and the README use;
every module uses each name it imports; records that hold arrays or dicts
compare by identity; and only the graph layers load scipy."""

import ast
import dataclasses
import glob
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import typing

import numpy as np

import cpsblotto
from cpsblotto.equilibrium import Marginals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ERROR_TYPES = {"ScenarioError", "ValidationError", "EquilibriumRegimeError"}


def _demo_imports() -> set[str]:
    names = set()
    for path in glob.glob(os.path.join(ROOT, "demos", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "cpsblotto" for alias in node.names}
    return names


def test_every_exported_name_resolves():
    for name in cpsblotto.__all__:
        assert hasattr(cpsblotto, name), name


def test_exports_are_the_demo_names_and_the_error_types():
    demos = _demo_imports()
    assert demos, "no demo imports from cpsblotto"
    assert sorted(cpsblotto.__all__) == sorted(
        demos | ERROR_TYPES | {"__version__"})
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = set(re.findall(r"\bcb\.(\w+)", fh.read()))
    assert readme and readme <= demos


def _unused_imports(path: str) -> list[str]:
    """The names `path` imports and never reads.  A name in the module's
    `__all__` counts as read: the module exports it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{os.path.relpath(path, ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_every_module_uses_each_name_it_imports():
    paths = [path for folder in ("src/cpsblotto", "tests", "demos")
             for path in glob.glob(os.path.join(ROOT, folder, "*.py"))]
    assert len(paths) > 20
    assert [unused for path in sorted(paths)
            for unused in _unused_imports(path)] == []


def _records() -> list[type]:
    """Every dataclass the package's modules define."""
    modules = [importlib.import_module(f"cpsblotto.{info.name}")
               for info in pkgutil.iter_modules(cpsblotto.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__]


def _holds_array_or_dict(hint) -> bool:
    """Whether a field's type is, or contains, an array, Marginals or dict."""
    return (hint in (np.ndarray, Marginals, dict)
            or typing.get_origin(hint) is dict
            or any(_holds_array_or_dict(arg) for arg in typing.get_args(hint)))


def test_records_that_hold_arrays_compare_by_identity():
    # Array fields make a generated __eq__ raise ValueError and a generated
    # __hash__ raise TypeError; dict fields, even inside a tuple, make a
    # generated __hash__ raise TypeError.
    params = cpsblotto.default_params(9)
    topologies = [cpsblotto.default_nine_node() for _ in range(2)]
    values = [cpsblotto.battlefield_values(topology, params)
              for topology in topologies]
    solutions = [cpsblotto.solve_equilibrium(v.defender, v.attacker, 2.5, 1.0)
                 for v in values]
    for first, again in (topologies, values, solutions):
        assert (first == again) is False
        assert first == first
        assert isinstance(hash(first), int)

    holders = [cls for cls in _records()
               if any(map(_holds_array_or_dict,
                          typing.get_type_hints(cls).values()))]
    assert {"CpsTopology", "BattlefieldValues", "EquilibriumSolution",
            "Marginals", "CascadeResult", "FlowLinks"} <= {
                cls.__name__ for cls in holders}
    assert [cls.__name__ for cls in holders
            if cls.__dataclass_params__.eq] == []


# Run in a fresh interpreter: the game layers on given value vectors, then
# the graph layers on the nine-node system.  Prints whether scipy is loaded
# after each, then the defender values g as hex.
_IMPORT_PROBE = """
import sys
import numpy as np
import cpsblotto as cb
from cpsblotto import cli
h, g = np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.1, 0.2, 0.3, 0.4])
solution = cb.solve_equilibrium(g, h, 2.5, 1.0)
cb.sample_allocations(solution.marginals_a, 1.0, 10,
                      np.random.default_rng(0))
cb.cross_validate([0.6, 0.4], [0.5, 0.5], 2.5, 1.0, iterations=200)
cb.symmetry_sweep(h)
cb.band_probability_table(h, (0,))
assert cli.main(["table1", "--scenario", sys.argv[1],
                 "--out", sys.argv[2]]) == 0
print("scipy" in sys.modules)
values = cb.battlefield_values(cb.default_nine_node(), cb.default_params(9))
print("scipy" in sys.modules)
print(values.defender.tobytes().hex())
"""


def test_only_the_graph_layers_load_scipy(tmp_path):
    table = tmp_path / "table.json"
    table.write_text('{"h": [0.5, 0.5], "g_columns": {"g": [0.3, 0.7]}}')
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(table),
         str(tmp_path / "table1.csv")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120, check=True)
    after_game, after_graph, defender = done.stdout.split()
    assert (after_game, after_graph) == ("False", "True")
    values = cpsblotto.battlefield_values(cpsblotto.default_nine_node(),
                                          cpsblotto.default_params(9))
    assert bytes.fromhex(defender) == values.defender.tobytes()

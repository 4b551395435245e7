"""The package's public names: exactly what the demos and the README use."""

import ast
import glob
import os
import re

import cpsblotto

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

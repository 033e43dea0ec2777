"""The package enforces its invariants with raises, never with ``assert``.

``python -O`` strips assert statements, so a check written as one would
silently vanish in an optimised run.
"""

import ast
from pathlib import Path

import pytest

import procyclic

MODULES = sorted(Path(procyclic.__file__).resolve().parent.glob("*.py"))


def test_package_modules_found():
    assert {m.name for m in MODULES} >= {"__init__.py", "fpx.py", "taumap.py", "cli.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_has_no_assert_statement(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module.name}: assert at line(s) {lines}"

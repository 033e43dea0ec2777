"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

``tests/golden/manifest.json`` maps each case name to its argv, exit code
and stderr; ``tests/golden/<name>.out`` holds its stdout.  The files pin
the behaviour of the command-line surface so that a refactor of the
subcommands, the renderer or the exit-code mapping shows any change in
what a user sees.  They are data, not a snapshot to refresh: a mismatch
is a change in output.
"""

import json
from pathlib import Path

import pytest

from procyclic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    # report prints both budgets, so they must be at their defaults
    monkeypatch.delenv("PROCYCLIC_MAX_BAR", raising=False)
    monkeypatch.delenv("PROCYCLIC_MAX_GROUP", raising=False)
    case = MANIFEST[name]
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err == case["stderr"]
    assert captured.out == (GOLDEN / f"{name}.out").read_text()

"""The public surface and the import footprint of the package.

Every name in an ``__all__`` must resolve, and importing the package and
its CLI must not pull in modules beyond numpy's own and a fixed set from
the standard library: the import is part of every run's set-up time.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import procyclic

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(procyclic.__path__))

# modules outside procyclic that importing it and its CLI may load beyond
# those `import numpy` loads
ALLOWED_IMPORTS = {
    "__future__",
    "_json",
    "argparse",
    "copy",
    "dataclasses",
    "gettext",
    "json",
    "json.decoder",
    "json.encoder",
    "json.scanner",
}

FOOTPRINT = """
import sys
import numpy
before = set(sys.modules)
import procyclic, procyclic.cli
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps(loaded))
"""


def test_package_all_resolves_without_duplicates():
    names = procyclic.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(procyclic, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"procyclic.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [attr for attr in names if not hasattr(module, attr)]
    assert missing == []


def test_submodules_are_found():
    assert {"cli", "cycmod", "linfp", "taumap"} <= set(SUBMODULES)


def test_import_footprint():
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "procyclic.cli" in loaded
    outside = {
        name for name in loaded if name != "procyclic" and not name.startswith("procyclic.")
    }
    assert outside <= ALLOWED_IMPORTS, sorted(outside - ALLOWED_IMPORTS)

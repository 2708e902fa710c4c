"""The package layout: ``import gvcam`` loads no module of its own, and
every public name is imported from the module that defines it."""

import importlib
import os
import pathlib
import subprocess
import sys

import gvcam

PACKAGE = pathlib.Path(gvcam.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_import_gvcam_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, gvcam; print(sorted(m for m in "
         "sys.modules if m.startswith('gvcam.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


def test_every_public_name_resolves():
    assert "cli" in MODULES and "cameras" in MODULES
    for name in MODULES:
        module = importlib.import_module("gvcam." + name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), "gvcam.%s.%s" % (name, attr)

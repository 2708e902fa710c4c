"""The package layout: ``import gvcam`` loads no module of its own, a
command loads only the modules it runs, every public name is imported
from the module that defines it, and every small literal tolerance is a
named module constant."""

import ast
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest

import gvcam

PACKAGE = pathlib.Path(gvcam.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _loaded(code):
    """The gvcam modules (without the package prefix) in ``sys.modules``
    after a fresh interpreter runs ``code``, and the lines ``code``
    printed."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n%s\nprint(json.dumps("
         "sorted(m[6:] for m in sys.modules if m.startswith('gvcam.'))))"
         % code], env=env, capture_output=True, text=True, check=True).stdout
    *printed, modules = out.strip().split("\n")
    return set(json.loads(modules)), printed


def test_import_gvcam_loads_no_submodule():
    assert _loaded("import gvcam")[0] == set()


def test_no_module_loads_dataclasses():
    """Importing every gvcam module leaves ``dataclasses`` unloaded, so no
    command pays for its import and decorators."""
    code = "import %s\nprint('dataclasses' in sys.modules)" % ", ".join(
        "gvcam." + name for name in MODULES)
    assert _loaded(code)[1] == ["False"]


def test_every_public_name_resolves():
    assert "cli" in MODULES and "cameras" in MODULES
    for name in MODULES:
        module = importlib.import_module("gvcam." + name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), "gvcam.%s.%s" % (name, attr)


def test_import_cli_loads_only_errors_and_numeric():
    assert _loaded("import gvcam.cli")[0] == {"cli", "errors", "numeric"}


PINHOLE = {"type": "pinhole", "center": [0, 0, 0, 1]}
TWO_SLIT = {"type": "two_slit",
            "slits": [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]}
# a rig without photographic matrices, the point (1:2:3:1) and its images
RIG = {"version": 1, "rig": [PINHOLE, TWO_SLIT], "points": [[1, 2, 3, 1]],
       "observations": [[[0, 0, -1, 0, -2, -3], [0, -3, -1, -6, -2, 0]]]}
MATRICES = {"version": 1, "rig": [
    {"type": "pinhole", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 1, 0]]},
    {"type": "two_slit", "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                                      [[0, 0, 1, 0], [0, 0, 0, 1]]]}]}
PINHOLES = {"version": 1, "rig": [PINHOLE, {"type": "pinhole",
                                            "center": [0, 0, 1, 0]}]}
MIRROR = {"surface": {"degree": 2, "coeffs": {"2000": -1, "0200": 1,
                                             "0020": 1, "0002": 1}},
          "lines": [[0, 0, 1, 0, 0, 0]]}

# command, its arguments after the input files are written, the modules
# it must load and the modules it must not load
COMMANDS = [
    ("project", ["--scene", "rig.json"], {"scene", "cameras", "concurrency"},
     {"multiimage", "tensors", "catadioptric"}),
    ("check", ["--scene", "rig.json"], {"multiimage", "concurrency"},
     {"tensors", "catadioptric"}),
    ("triangulate", ["--scene", "rig.json"], {"multiimage"},
     {"tensors", "catadioptric"}),
    ("baselines", ["--scene", "pinholes.json"], {"multiimage"},
     {"tensors", "catadioptric"}),
    ("tensor", ["--kind", "mixed", "--scene", "matrices.json"], {"tensors"},
     {"concurrency", "multiimage", "catadioptric"}),
    ("invariant", ["--tensor", "tensor.json"], {"tensors"},
     {"cameras", "concurrency", "multiimage", "catadioptric"}),
    ("reflect", ["--input", "mirror.json"], {"plucker", "catadioptric"},
     {"cameras", "concurrency", "multiimage", "tensors"}),
    ("multidegree", ["3"], {"concurrency"},
     {"scene", "cameras", "multiimage", "tensors", "catadioptric"}),
]


@pytest.mark.parametrize("command, arguments, loads, skips", COMMANDS,
                         ids=[case[0] for case in COMMANDS])
def test_command_loads_only_its_modules(tmp_path, command, arguments,
                                        loads, skips):
    """A fresh process that runs ``<command> --help`` and then the command
    on a tiny input loads the modules the command uses and not the ones it
    does not; each exits 0."""
    from gvcam import cli
    for name, data in (("rig", RIG), ("matrices", MATRICES),
                       ("pinholes", PINHOLES), ("mirror", MIRROR)):
        (tmp_path / (name + ".json")).write_text(json.dumps(data))
    tensor = tmp_path / "tensor.json"
    assert cli.main(["tensor", "--kind", "mixed", "--scene",
                     str(tmp_path / "matrices.json"),
                     "--out", str(tensor)]) == 0
    argv = [command] + [str(tmp_path / a) if a.endswith(".json") else a
                        for a in arguments]
    modules, printed = _loaded(
        "import contextlib, io\nfrom gvcam import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(%r), cli.main(%r)]\n"
        "print(codes)" % ([command, "--help"], argv))
    assert printed == ["[0, 0]"], (command, printed)
    assert loads <= modules, (command, sorted(modules))
    assert not skips & modules, (command, sorted(modules))


def _constant_lines(tree):
    """The line numbers of the module-level assignments to one upper-case
    name (``NAME = ...`` or ``_NAME = ...``)."""
    lines = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", node.targets[0].id)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_small_literals_are_module_constants():
    """No number literal with a negative exponent (``1e-...``) appears in
    gvcam outside a module-level constant, so that each tolerance has one
    name and one comment saying what it is relative to."""
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        allowed = _constant_lines(ast.parse(text))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string)
                    and tok.start[0] not in allowed):
                bare.append("%s:%d: %s" % (path.name, tok.start[0],
                                           tok.string))
    assert not bare, bare


def _unread_imports(tree):
    """The names a module imports and never reads: a name is read where it
    is loaded, where a parameter has its name (a pytest fixture) and where
    ``__all__`` lists it.  ``from __future__`` imports are not names."""
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif (isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_import_is_read():
    """No module of the package or of the tests imports a name that it
    never reads, so that a deleted caller leaves no stale import behind."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        pathlib.Path(__file__).parent.glob("*.py"))
    unread = ["%s:%d: %s" % (path.name, line, name) for path in paths
              for line, name in _unread_imports(ast.parse(path.read_text()))]
    assert not unread, unread


#: The size that the package stays under (``wc -l src/gvcam/*.py``): a
#: change that adds lines pairs them with deletions.
MAX_PACKAGE_LINES = 4000


def test_package_stays_under_its_line_budget():
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in PACKAGE.glob("*.py")}
    assert sum(counts.values()) < MAX_PACKAGE_LINES, sorted(counts.items())

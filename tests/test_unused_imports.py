"""No module under src/seqveritas, tests or perfbench imports a name it
never uses, or defines a private name it never reads.

Stands in for a linter's unused-import and unused-private-name rules:
each file is parsed with `ast`, and every name an import binds must
appear as a name somewhere in the file. `from __future__` imports bind no
name and are skipped. A private name (one leading underscore, not a
dunder) that a module defines at its top level, as a function, class or
constant, or as a method of one of its classes, must be read in that
module: so a deletion cannot leave an orphan helper behind.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "seqveritas").glob("*.py"),
                *(ROOT / "tests").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py")])


def _file_id(path):
    return f"{path.parent.name}/{path.name}"


def unused_imports(source):
    """Names bound by the imports in `source` that nothing references."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_scan_covers_both_trees():
    names = {_file_id(p) for p in FILES}
    assert {"seqveritas/porter.py", "tests/test_unused_imports.py",
            "perfbench/run.py"} <= names


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom a import b, c\n"
              "os.path.join(c)\n")
    assert unused_imports(source) == ["j", "b"]


@pytest.mark.parametrize("path", FILES, ids=_file_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def unread_private_names(source):
    """Private names that `source` defines at its top level, or as methods
    of its top-level classes, and never reads: as a name, or as an
    attribute such as `self._method`."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined += [n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Store)]
        if isinstance(node, ast.ClassDef):
            defined += [m.name for m in node.body
                        if isinstance(m, ast.FunctionDef)]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
    return [name for name in defined if _private(name) and name not in read]


def test_the_scan_finds_an_unread_private_name():
    source = ("_USED = 1\n_ORPHAN, PUBLIC = 2, 3\n"
              "def _helper():\n    return _USED\n"
              "class _Box:\n"
              "    def __init__(self):\n        self._keep()\n"
              "    def _read(self):\n        pass\n"
              "    def _keep(self):\n        pass\n"
              "_Box()\n")
    assert unread_private_names(source) == ["_ORPHAN", "_helper", "_read"]


@pytest.mark.parametrize("path", FILES, ids=_file_id)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []

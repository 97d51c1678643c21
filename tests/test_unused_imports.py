"""No module under src/seqveritas, tests or perfbench imports a name it
never uses.

Stands in for a linter's unused-import rule: each file is parsed with
`ast`, and every name an import binds must appear as a name somewhere in
the file. `from __future__` imports bind no name and are skipped.
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

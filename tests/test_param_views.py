"""No code under src/seqveritas places or rebinds a parameter's arrays
outside `layers.Arena`.

A ParamTensor's `value` and `grad` are views of its `span` of its
`arena`'s flat arrays, which Adam, clipping and zeroing walk; Adam's
moments `m` and `v` are the arena's alone, with no per-tensor views.
Binding one of those attributes anywhere else would silently detach the
tensor or its moments, or place it where its arena does not expect it:
Adam would then update a buffer that no layer reads. Each file is parsed
with `ast`, and every attribute store of one of those names is refused
unless it is in the class that builds arenas. An augmented assignment
(`p.grad += d`) is allowed: numpy's in-place operators return the array
they were given, so the attribute is bound to itself.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "seqveritas").glob("*.py"))
NAMES = {"value", "grad", "m", "v", "arena", "span"}
# (file name, class) where binding those attributes is the point
ALLOWED = {("layers.py", "Arena")}


def rebindings(source):
    """(line, enclosing class or None, attribute) for each store of an
    attribute named in NAMES in `source`, `setattr(x, "value", ...)`
    included and augmented assignments left out."""
    found = []

    def visit(node, cls):
        in_place = (id(node.target) if isinstance(node, ast.AugAssign)
                    else None)
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)
                    and child.attr in NAMES and id(child) != in_place):
                found.append((child.lineno, cls, child.attr))
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "setattr" and len(child.args) > 1
                    and isinstance(child.args[1], ast.Constant)
                    and child.args[1].value in NAMES):
                found.append((child.lineno, cls, child.args[1].value))
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else cls)

    visit(ast.parse(source), None)
    return found


def test_the_scan_finds_each_kind_of_rebinding():
    source = ("class Arena:\n"
              "    def pack(self, p):\n"
              "        p.value = 1\n"
              "def f(p, q, d):\n"
              "    p.grad += d\n"
              "    p.grad[0] = d\n"
              "    p.m, q.v = d, d\n"
              "    p.value: int = 2\n"
              "    setattr(p, 'grad', d)\n"
              "    p.other = d\n"
              "    for p.v in d: pass\n")
    assert rebindings(source) == [(3, "Arena", "value"), (7, None, "m"),
                                  (7, None, "v"), (8, None, "value"),
                                  (9, None, "grad"), (11, None, "v")]


def test_the_allowed_class_binds_the_parameter_arrays():
    layers = (ROOT / "src" / "seqveritas" / "layers.py").read_text()
    bound = {attr for _, cls, attr in rebindings(layers) if cls == "Arena"}
    assert {"value", "arena", "span"} <= bound
    assert {"layers.py", "optim.py", "objective.py"} <= {p.name
                                                         for p in FILES}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_parameter_array_is_rebound_outside_the_arena(path):
    stray = [(line, cls, attr)
             for line, cls, attr in rebindings(path.read_text())
             if (path.name, cls) not in ALLOWED]
    assert stray == []

"""The size of `src/` in lines and in code lines, as ROADMAP.md counts it.

A code line holds a `tokenize` token other than a comment, a line break
or an indentation change, and is not a line of a docstring (the string
that `ast.get_docstring` finds first in a module, class or function). A
token that spans lines, such as a multi-line string, makes each of its
lines a code line.

Print the counts of each module under `src/`, then of all of them:

    python tests/test_code_lines.py

Given a git ref, print each module's counts at that ref, in the working
tree and the change; a module on one side only counts as zero on the
other:

    python tests/test_code_lines.py HEAD~1
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the tokens that do not make their line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, _SCOPES)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


def _sources(ref=None):
    """{path under src/: source} of every module under src/, in the
    working tree or, given a git ref, at that ref."""
    if ref is None:
        return {path.relative_to(ROOT / "src").as_posix(): path.read_text()
                for path in (ROOT / "src").rglob("*.py")}
    names = _git("ls-tree", "-r", "--name-only", ref, "--", "src").split()
    return {name.removeprefix("src/"): _git("show", f"{ref}:{name}")
            for name in names if name.endswith(".py")}


def module_counts(ref=None):
    """{path under src/: (lines, code lines)} of every module under src/,
    in path order, in the working tree or at git ref `ref`."""
    return {name: (len(source.splitlines()), code_lines(source))
            for name, source in sorted(_sources(ref).items())}


def _total(counts):
    """(lines, code lines) summed over `module_counts`' `counts`."""
    return (sum(n for n, _ in counts.values()),
            sum(c for _, c in counts.values()))


def src_counts():
    """(lines, code lines) of all the modules under src/."""
    return _total(module_counts())


def compare(before, after):
    """[(module, (lines, code) before, (lines, code) after)] for the
    modules of either count, in path order; a module missing from one
    counts (0, 0) there."""
    return [(name, before.get(name, (0, 0)), after.get(name, (0, 0)))
            for name in sorted(before.keys() | after.keys())]


_SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


def join(a,
         b):
    """A function docstring."""

    x = "a string, not a docstring"
    return os.path.join(a,
                        b, x)


class C:
    """A class docstring."""
    y = """a multi-line
string"""
'''


def test_code_lines_counts_code_not_docstrings_comments_or_blanks():
    # import; def and its continuation; x; the call over two lines; class;
    # and both lines of y's string
    assert code_lines(_SAMPLE) == 9


def test_a_string_that_is_not_first_is_code():
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines('def f():\n    pass\n    """not one either"""\n') == 3


def test_src_counts_every_module():
    lines, code = src_counts()
    assert 0 < code < lines
    assert "seqveritas/layers.py" in module_counts()


def test_a_module_on_one_side_counts_zero_on_the_other():
    assert compare({"a.py": (3, 2), "b.py": (5, 4)},
                   {"b.py": (6, 4), "c.py": (1, 1)}) == [
        ("a.py", (3, 2), (0, 0)), ("b.py", (5, 4), (6, 4)),
        ("c.py", (0, 0), (1, 1))]


def _in_git():
    try:
        return _git("rev-parse", "--verify", "HEAD") != ""
    except (OSError, subprocess.CalledProcessError):
        return False


@pytest.mark.skipif(not _in_git(), reason="not a git checkout")
def test_a_ref_is_counted_from_its_committed_files():
    at_head, tree = module_counts("HEAD"), module_counts()
    # the modules the working tree has not changed count alike on both
    same = [name for name in at_head
            if not _git("diff", "HEAD", "--", f"src/{name}")]
    assert "seqveritas/layers.py" in at_head and same
    assert all(at_head[name] == tree[name] for name in same)
    # git's empty tree holds no module
    assert module_counts("4b825dc642cb6eb9a060e54bf8d69288fbee4904") == {}


def _report(ref=None):
    """The printed counts: of each module and of src/, or, given a git
    ref, at the ref, in the working tree and the change."""
    after = module_counts()
    if ref is None:
        width = max(map(len, after))
        for name, (lines, code) in after.items():
            print(f"{name:<{width}}  {lines:>6,} lines  {code:>6,} code")
        lines, code = _total(after)
        print(f"src/: {lines:,} lines, {code:,} of them code")
        return
    before = module_counts(ref)
    rows = compare(before, after) + [("src/", _total(before), _total(after))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'':<{width}}  {ref + ' lines':>15} {'code':>6}  "
          f"{'tree lines':>10} {'code':>6}  {'change':>7} {'code':>6}")
    for name, (lines0, code0), (lines1, code1) in rows:
        print(f"{name:<{width}}  {lines0:>15,} {code0:>6,}  {lines1:>10,} "
              f"{code1:>6,}  {lines1 - lines0:>+7,} {code1 - code0:>+6,}")


if __name__ == "__main__":
    try:
        _report(*sys.argv[1:2])
    except subprocess.CalledProcessError as e:  # an unknown ref, say
        sys.exit(e.stderr.strip())

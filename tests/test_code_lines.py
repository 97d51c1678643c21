"""The size of `src/` in lines and in code lines, as ROADMAP.md counts it.

A code line holds a `tokenize` token other than a comment, a line break
or an indentation change, and is not a line of a docstring (the string
that `ast.get_docstring` finds first in a module, class or function). A
token that spans lines, such as a multi-line string, makes each of its
lines a code line.

Print the counts of each module under `src/`, then of all of them:

    python tests/test_code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

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


def module_counts():
    """{path under src/: (lines, code lines)} of every module under src/,
    in path order."""
    counts = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text()
        counts[path.relative_to(ROOT / "src").as_posix()] = (
            len(source.splitlines()), code_lines(source))
    return counts


def src_counts():
    """(lines, code lines) of all the modules under src/."""
    counts = module_counts().values()
    return sum(n for n, _ in counts), sum(c for _, c in counts)


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


if __name__ == "__main__":
    counts = module_counts()
    width = max(map(len, counts))
    for name, (lines, code) in counts.items():
        print(f"{name:<{width}}  {lines:>6,} lines  {code:>6,} code")
    lines, code = src_counts()
    print(f"src/: {lines:,} lines, {code:,} of them code")

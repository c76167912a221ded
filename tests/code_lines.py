"""Code lines of the package, per file and in all.

    python tests/code_lines.py [file ...]

A code line is a line that holds a token that is neither a comment nor part
of a docstring: blank lines, comment lines and docstrings do not count, and
a statement or string literal over several lines counts each of them.  The
tokens come from `tokenize`; the docstrings, the string statements that
open a module, class or function, from `ast`.  Without arguments the files
are those of `src/waveslab`.

pytest does not collect this file (it is not named `test_*.py`).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "waveslab"
# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set:
    """(line, column) of the first token of every docstring in `tree`."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in the Python source `source`."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(paths) -> int:
    files = [Path(p) for p in paths] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

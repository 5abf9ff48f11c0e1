"""Count the code lines of Python files.

A code line holds a token other than a comment.  Blank lines do not
count, and neither do the lines of bare string statements (an ``Expr``
whose value is a ``str`` constant), which are docstrings.  A token that
spans several lines, such as a multi-line string inside an expression,
makes each of its lines a code line.

    python3 tests/code_lines.py [paths]

prints the code lines of each file and their total; a directory stands
for the ``.py`` files below it, and the default path is ``src/arcscat``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines of a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(paths) -> int:
    files = sorted(f for p in map(Path, paths or ["src/arcscat"])
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = code_lines(f.read_text())
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main(sys.argv[1:])

"""Count the code lines of Python modules.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring.  Run as

    python tools/code_lines.py [path ...]

where each path is a ``.py`` file or a directory searched recursively
(default ``src/fluidqoe``).  Prints one ``count module`` line per file,
then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python source text ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else (path,)


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/fluidqoe"]
    total = 0
    for module in _modules(paths):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {module}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Code lines per module: the lines that hold a token, less docstrings,
comments and blank lines.

Usage (from the repository root):

    python tools/codelines.py [path ...]

Each path is a Python file or a directory, searched for *.py files; the
default is src/hypme.  Prints each module's count, then the total.  A line
counts when a token other than a comment, a newline or an indentation
change starts on it or spans it, and it is not a line of a docstring: the
string that opens a module, class or function body.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths: list[str]) -> list[str]:
    """The .py files named by `paths`, directories searched, in sorted order."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for folder, _, files in os.walk(path):
                found += [os.path.join(folder, f) for f in files if f.endswith(".py")]
        else:
            found.append(path)
    return sorted(found)


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or [os.path.join(ROOT, "src", "hypme")]):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:7,}  {os.path.relpath(path)}")
    print(f"{total:7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

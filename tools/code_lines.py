"""Print the code lines of each module of ``src/distilldet``, then the total.

A code line is a line that holds some code: blank lines, comment-only lines
and the lines of module, class and function docstrings do not count. A line
that holds code and a trailing comment counts once.

Usage (from the repository root)::

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distilldet"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def module_counts(package: Path = PACKAGE) -> list[tuple[str, int]]:
    """(file name, code lines) of each module, in file-name order."""
    return [(path.name, code_lines(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]


def main():
    counts = module_counts()
    for name, n in counts:
        print(f"{name} {n}")
    print(f"total {sum(n for _, n in counts)}")


if __name__ == "__main__":
    main()

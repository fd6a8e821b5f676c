"""Code lines of each module of ``src/agripellet``: the rule the ROADMAP's
line budgets use.

A code line holds a token other than a comment, a line break, an indent, a
dedent or the end marker; the lines of a module, class or function docstring
do not count.
Run ``python tests/code_lines.py`` to print each module's count, largest
first, and the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "agripellet"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(src: Path = SRC) -> dict:
    """Each module's code lines, by module name."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


if __name__ == "__main__":
    counts = count()
    for name, lines in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:>12} {lines:5}")
    print(f"{'total':>12} {sum(counts.values()):5}")

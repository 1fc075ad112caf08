"""Count the code lines of the ``dcx`` package.

A line counts when it holds a token other than a comment and lies outside
every module, class and function docstring.  A token that spans several
lines, such as a multi-line string that is not a docstring, counts on each
of them.  Blank lines, comment lines and docstrings do not count.

Usage: ``python3 tests/src_lines.py [DIR]``.  It prints the code lines of
each module of DIR, ``src/dcx`` by default, and their total.  It uses only
the standard library.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dcx"

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """Where each module, class and function docstring starts, as the
    (line, column) of its string token."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.add((first.lineno, first.col_offset))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docs = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        print(f"{n:6d}  {path.name}")
        total += n
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the code-only lines of each module in src/psiforge, and their total.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, outside docstrings.  A docstring is the first statement
of a module, class or function when that statement is a string constant,
found by ast; its lines do not count.  Blank lines, comment-only lines and
docstring lines therefore never count, and a statement spread over several
lines counts each line that holds one of its tokens.

Usage:  python tools/code_lines.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based lines spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines holding a code token outside docstrings."""
    skip = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "psiforge"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:24} {count:5}")
    print(f"{'total':24} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

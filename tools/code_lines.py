"""Print each module's physical lines and code lines in src/divint.

    python3 tools/code_lines.py

A code line holds a token of a statement: blank lines, comment-only lines
and the lines of docstrings (the leading string of a module, class or
function body, found with `ast`) are left out.  Physical lines are the
file's lines.  The last row sums each column.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main() -> None:
    src = Path(__file__).resolve().parents[1] / "src" / "divint"
    total = [0, 0]
    print(f"{'module':<24}{'physical':>10}{'code':>8}")
    for f in sorted(src.glob("*.py")):
        physical, code = count(f.read_text())
        total[0] += physical
        total[1] += code
        print(f"{f.name:<24}{physical:>10}{code:>8}")
    print(f"{'total':<24}{total[0]:>10}{total[1]:>8}")


if __name__ == "__main__":
    main()

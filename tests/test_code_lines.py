"""The code-line counter that the ROADMAP's size gates are measured with."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment-only line

import os


def f(a,
      b):
    """Function docstring."""
    text = """not a docstring:
it counts as code"""
    return a + b  # a trailing comment


class C:
    """Class docstring
    on two lines."""

    x = 1
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    """21 physical lines.  The code lines are `import os`, the two lines of
    `def f(a, b)`, the two lines of the string bound to `text`, the
    `return`, `class C:` and `x = 1`."""
    assert code_lines.count(SOURCE) == (21, 8)


def test_main_ends_with_the_column_sums(capsys):
    code_lines.main()
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "physical", "code"]
    assert "cli.py" in {row.split()[0] for row in rows}
    sums = [sum(int(row.split()[i]) for row in rows) for i in (1, 2)]
    assert total.split() == ["total", *map(str, sums)]

"""`tools/code_lines.py`, the code-line count that the size gates read:
it counts lines that hold code, and leaves out docstrings, comments and
blank lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment


class A:
    """A class docstring."""

    x = 1  # a trailing comment


def f(a, b, c):
    """A function
    docstring."""
    # a comment in the body

    return (a
            + b
            + c)
'''


def test_counts_code_lines_only():
    # class A, x = 1, def f and the three lines of the return expression
    assert code_lines.code_lines(SNIPPET) == 6


def test_main_prints_each_package_file_and_the_total(capsys):
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *files, total = rows
    package = ROOT / "src" / "qprodasym"
    assert sorted(name for _, name in files) == sorted(p.name for p in package.glob("*.py"))
    for n, name in files:
        assert int(n) == code_lines.code_lines((package / name).read_text())
    assert total == [str(sum(int(n) for n, _ in files)), "total"]

"""The tools: `tools/code_lines.py`, the code-line count that the size
gates read, which counts lines that hold code and leaves out docstrings,
comments and blank lines; and `tools/bitcheck.py`, the bit-identity
digests of the package's outputs over a seeded corpus."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
bitcheck = _load("bitcheck")

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


def test_bitcheck_slice_matches_recorded_digests():
    # the named specs and the first random ones, against the digests in
    # tools/bitcheck.json (under 1 s on a 2-core host);
    # `python tools/bitcheck.py` checks the whole corpus
    got = bitcheck.digests(bitcheck.corpus()[:bitcheck.SLICE])
    recorded = json.loads((ROOT / "tools" / "bitcheck.json").read_text())
    assert got == recorded["slice"]
    assert set(recorded["corpus"]) == set(got) == set(bitcheck.SURFACES)

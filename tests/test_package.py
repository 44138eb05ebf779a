"""The package namespace loads each submodule on first use, and exports
only names that the package or the benchmark harness runs.

Every import case runs in a fresh interpreter and compares
``sys.modules`` before and after inside that process, so what ``site``
and pytest have already imported does not count.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qprodasym

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# the public names, fixed: a lazy namespace must not lose or add one
NAMES = {
    "ArcClass", "ArcDatum", "CoeffSeries", "DominantLevel", "HypothesisError",
    "LogComplex", "NoMajorArcsError", "ProductSpec", "ResidueVerdict",
    "arc_datum", "bessel_I_minus1", "check_assumption", "check_main_transform",
    "classify_arcs", "compare", "dedekind_sum_fast", "default_K",
    "dominant_levels", "eval_Zh", "expand_spec", "g_asymptotic",
    "g_asymptotic_members", "gcd0", "hbar", "lambda_int", "lambda_star",
    "leading_profile", "oracle_expand", "sign_check",
}

# loaded by no session: the records need neither
NO_RECORD_MACHINERY = {"dataclasses", "inspect"}
# loaded only when argparse prints help or an error; gettext loads locale
ARGPARSE_AND_ITS_LOCALE = {"argparse", "gettext", "locale"}
# loaded by nothing that expand_spec runs
NOT_FOR_EXPAND = {"fractions", "csv", "mpmath"} | NO_RECORD_MACHINERY


def _probe(code: str, *args: str):
    """Run `code` in a fresh interpreter with src/ on the path; return the
    JSON document on its only stdout line."""
    script = "import json, sys\nsys.path.insert(0, sys.argv[1])\n" + code
    proc = subprocess.run([sys.executable, "-c", script, SRC, *args],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    return json.loads(proc.stdout)


def _package_modules(names):
    return {m for m in names if m == "qprodasym" or m.startswith("qprodasym.")}


def test_expand_session_loads_only_qseries():
    loaded, during_call = _probe("""
before = set(sys.modules)
import qprodasym
from qprodasym import ProductSpec, expand_spec
loaded = set(sys.modules) - before
spec = ProductSpec((5, 10, 10), (2, 2, 4), (-2, 1, 2))
before = set(sys.modules)
expand_spec(spec, 300)
print(json.dumps([sorted(loaded), sorted(set(sys.modules) - before)]))
""")
    assert _package_modules(loaded) == {"qprodasym", "qprodasym.qseries"}
    assert not NOT_FOR_EXPAND & set(loaded)
    assert during_call == []


def test_expand_session_loads_no_json():
    """Only `cli` encodes, so an expand-only session never loads `json`.
    The script records ``sys.modules`` before it imports anything, where
    :func:`_probe` would already have loaded `json` itself."""
    script = """import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import qprodasym
from qprodasym import ProductSpec, expand_spec
expand_spec(ProductSpec((5, 10, 10), (2, 2, 4), (-2, 1, 2)), 300)
print(" ".join(sorted(set(sys.modules) - before)))
"""
    proc = subprocess.run([sys.executable, "-c", script, SRC],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert "qprodasym.qseries" in loaded
    assert not {"json", "_json"} & loaded


def test_cli_import_loads_no_dataclasses():
    """The records are built without `dataclasses`, which would pull in
    `inspect` (and with it `ast`, `dis` and `tokenize`) at start-up."""
    loaded = _probe("""
before = set(sys.modules)
import qprodasym.cli
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert _package_modules(loaded)
    assert not NO_RECORD_MACHINERY & set(loaded)


def test_cli_import_loads_no_argparse():
    """Plain argv is parsed from `COMMANDS`; argparse is imported only for
    help, errors and the forms the strict parser leaves to it."""
    loaded = _probe("""
before = set(sys.modules)
import qprodasym.cli
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert _package_modules(loaded)
    assert not ARGPARSE_AND_ITS_LOCALE & set(loaded)


def test_every_public_name_resolves_to_its_home_module():
    doc = _probe("""
import qprodasym
homes = {}
for name in sys.argv[2:]:
    exec(f"from qprodasym import {name} as obj")
    home = sys.modules[obj.__module__]
    homes[name] = [home.__name__, obj is getattr(home, name),
                   obj is getattr(qprodasym, name)]
print(json.dumps({"homes": homes, "all": qprodasym.__all__, "dir": dir(qprodasym)}))
""", *sorted(NAMES))
    for name, (home, is_home, is_package) in doc["homes"].items():
        assert home.startswith("qprodasym."), name
        assert is_home and is_package, name
    assert set(doc["all"]) == NAMES
    assert len(doc["all"]) == len(NAMES)
    assert NAMES <= set(doc["dir"])


def _annotation_nodes(tree):
    """The nodes of every annotation in `tree`: under ``from __future__
    import annotations`` none of them is evaluated."""
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        elif isinstance(node, ast.AnnAssign):
            note = node.annotation
        else:
            continue
        if note is not None:
            nodes.update(map(id, ast.walk(note)))
    return nodes


def _loads(node, skip, scopes=()):
    """Yield (identifier, names of the enclosing defs and classes) for each
    loaded Name, loaded Attribute and import alias under `node`."""
    if id(node) in skip:
        return
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        yield (node.id if isinstance(node, ast.Name) else node.attr), scopes
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], scopes
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scopes += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, skip, scopes)


def _docstrings(tree):
    """The module, class and function docstring nodes of `tree`."""
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                nodes.add(id(first.value))
    return nodes


def test_every_public_name_is_run_by_the_package_or_the_harness():
    """A public name is loaded by package code outside its own def or
    class, or is named in the benchmark harness: by a load, an import, or
    a dotted string such as ``"asymptotics.arc_datum"`` that is not a
    docstring.  Test oracles live in tests/oracles.py, not in the package."""
    used = set()
    for path in sorted((ROOT / "src" / "qprodasym").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= {name for name, scopes in _loads(tree, _annotation_nodes(tree))
                 if name not in scopes}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= {name for name, _ in _loads(tree, set())}
        docs = _docstrings(tree)
        used |= {part for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and id(node) not in docs
                 for part in node.value.split(".")}
    assert sorted(set(qprodasym.__all__) - used) == []


def test_unknown_name_raises_and_submodules_still_import():
    doc = _probe("""
import qprodasym
try:
    qprodasym.no_such_name
    raised = False
except AttributeError:
    raised = True
from qprodasym import _backend, analysis, asymptotics
print(json.dumps([raised, [m.__name__ for m in (_backend, analysis, asymptotics)]]))
""")
    assert doc == [True, ["qprodasym._backend", "qprodasym.analysis",
                          "qprodasym.asymptotics"]]


@pytest.mark.parametrize("argv", [
    ["expand", "5:1:-1", "--order", "100", "--format", "csv"],
    ["arcs", "5:1:-1", "--format", "text"],
    ["asym", "5:1:-1", "--n", "500"],
    ["compare", "5:1:-1", "--n-list", "100,200", "--format", "csv"],
    ["analyze", "5:1:-1", "--depth", "1"],
    ["signs", "5:1:1", "5:2:-1", "--mod", "5", "--range", "0..100"],
    ["transform-test", "5:1:-1", "--samples", "2", "--seed", "0"],
], ids=lambda argv: argv[0])
def test_cli_query_compiles_no_package_code(argv):
    """The CLI stays eager and parses plain argv without argparse: a timed
    query imports no module at all."""
    rc, loaded = _probe("""
import contextlib, io
import qprodasym.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    rc = qprodasym.cli.main(sys.argv[2:])
print(json.dumps([rc, sorted(set(sys.modules) - before)]))
""", *argv)
    assert rc == 0
    assert loaded == []

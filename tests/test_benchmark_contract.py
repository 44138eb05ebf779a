"""The names the benchmark harness (perfbench/) reads from the package.

A traced benchmark run wraps every target of ``tracer.TARGETS`` and
counts arc work through ``run.arc_work``; a renamed or removed name would
only show there.  The check runs in a fresh interpreter, so the wrapping
cannot leak into other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:]
import qprodasym.cli
import run, tracer
t = tracer.Tracer()
t.install(tracer.TARGETS)
print(json.dumps({"status": t.status,
                  "arc_work": run.arc_work([[[5], [1], [-1], 1000, None]])}))
"""


def test_harness_finds_every_name():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stderr == ""
    # nothing printed on import: the harness reads its result from the last line
    assert proc.stdout.count("\n") == 1
    doc = json.loads(proc.stdout)
    assert set(doc["status"].values()) == {"wrapped"}, doc["status"]
    assert doc["arc_work"] == [205, 1782]


# the session worker's order: the package, a name from it, then the tracer
SESSION_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:]
import qprodasym
from qprodasym import ProductSpec
import tracer
t = tracer.Tracer()
t.install(tracer.TARGETS)
traced = getattr(qprodasym.expand_spec, "perfbench_traced", False)
qprodasym.expand_spec(ProductSpec((5,), (1,), (-1,)), 200)
names = t.report()["names"]
print(json.dumps({"status": t.status, "traced": traced,
                  "expand_calls": names["qseries.expand_spec"][0]}))
"""


def test_session_path_traces_expand_once():
    proc = subprocess.run(
        [sys.executable, "-c", SESSION_PROBE, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    doc = json.loads(proc.stdout)
    status = doc["status"]
    assert status.pop("cli.main") == "unused"
    assert set(status.values()) == {"wrapped"}, status
    assert doc["traced"] is True
    assert doc["expand_calls"] == 1


# the reference generator imports its oracle from the package
REFERENCE_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
import make_reference
import qprodasym.qseries
assert make_reference.oracle_expand is qprodasym.qseries.oracle_expand
"""


def test_make_reference_imports_its_oracle():
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_PROBE, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ""

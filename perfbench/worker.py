"""Worker process for the benchmark: one per CLI query or library session.

    python3 perfbench/worker.py cli [--trace] -- <qprodasym CLI arguments>
    python3 perfbench/worker.py session [--trace] < plan.json

``cli`` runs one CLI invocation exactly as the ``qprodasym`` console
script does (``qprodasym.cli.main(argv)``), leaving its stdout untouched,
and appends one marker line with its own measurements to stderr.

``session`` reads a JSON plan of ``expand_spec`` queries from stdin,
imports the library and loads the reference, then runs each query as one
timed public-library call and checks it against the reference outside
the timed region.  It prints one JSON line with the results.

Both report ``ready_at`` on the system-wide monotonic clock, so the
parent can measure set-up from its own spawn time; ``cli`` also reports
``done_at``, when ``main`` has returned and stdout is flushed, so that a
query's latency leaves out process start and exit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MARKER = "@@perfbench "


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import(module: str) -> float:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    __import__(module)
    return time.perf_counter() - t0


def _tracer():
    import tracer
    t = tracer.Tracer()
    t.install(tracer.TARGETS)
    return t


def run_cli(argv: list[str], trace: bool) -> int:
    import_s = _import("qprodasym.cli")
    ready_at = time.monotonic()
    cli = sys.modules["qprodasym.cli"]
    t = _tracer() if trace else None
    exception = None
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # reported to the parent as a failed query
        exception, rc = repr(exc), 70
    sys.stdout.flush()
    done_at = time.monotonic()
    record = {"ready_at": ready_at, "done_at": done_at, "import_s": import_s,
              "rss_kb": _rss_kb(), "exception": exception,
              "trace": t.report() if t else None}
    sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")
    return rc


def _parse_spec(text: str):
    from qprodasym import ProductSpec
    m, r, d = zip(*(tuple(int(x) for x in tok.split(":")) for tok in text.split()))
    return ProductSpec(m, r, d)


def run_session(plan: dict, trace: bool) -> int:
    import_s = _import("qprodasym")
    import check
    import workloads
    qp = sys.modules["qprodasym"]
    ref = workloads.load_reference(plan["workload"])["expected"]
    specs = {q["spec"]: _parse_spec(q["spec"]) for q in plan["queries"]}
    t = _tracer() if trace else None
    ready_at = time.monotonic()
    results = []
    for q in plan["queries"]:
        t0 = time.perf_counter()
        try:
            out = qp.expand_spec(specs[q["spec"]], q["N"])
        except Exception:  # counted as a failed query
            results.append([time.perf_counter() - t0, check.EXCEPTION])
            continue
        dt = time.perf_counter() - t0
        reason = check.check_expand(check.coeff_digest(out.coeffs),
                                    ref[f"{q['spec']}@{q['N']}"])
        results.append([dt, reason])
    doc = {"ready_at": ready_at, "import_s": import_s, "rss_kb": _rss_kb(),
           "results": results, "trace": t.report() if t else None}
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    rest = rest[trace:]
    if mode == "cli" and rest[:1] == ["--"]:
        return run_cli(rest[1:], trace)
    if mode == "session" and not rest:
        return run_session(json.loads(sys.stdin.readline()), trace)
    raise SystemExit("usage: worker.py cli [--trace] -- ARGS | session [--trace]")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

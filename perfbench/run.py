"""qprodasym benchmark.

    python3 perfbench/run.py --workload {expand,oneshot,all,defects} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  Load model: qprodasym is a batch CLI
and library, so every workload is a closed loop with one client that
sends one query at a time and waits for it.  One worker process runs at
a time.  A query is one CLI invocation (``oneshot``: a fresh process
each, so every cache starts cold, timed from the end of its set-up to
the return of ``main``) or one public-library call (``expand``: inside a
library session).

A run repeats its seed's round of queries and starts another round only
while the rounds so far say it will end within ``--seconds``; it always
runs at least one round.  Every query is checked against the stored
reference (``perfbench/reference``); failures are counted by reason.

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` untraced and traced rounds alternate,
and the last line carries the per-layer metrics, per traced round, plus
``trace.overhead_frac``.  Lines before it, starting with ``#``, give the
environment, every end-to-end metric with its unit, the tail percentile
and its sample count, the failure breakdown, and (traced) the self-time
shares.  ``--workload all`` runs the workloads one after another.
``--workload defects`` is a probe, not a benchmark workload: ``asym``
where the program is known to fail the gate (see ``workloads.py``).  It
reports ``correct: false`` until those defects are fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import check
import stats
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

CLI_TIMEOUT = 40.0       # s per fresh-process query
SESSION_TIMEOUT = 60.0   # s per library session
HARD_STOP = 100.0        # s after the start of a run: start no further query
MIN_ROUNDS = 2           # untraced rounds per run, so each query has a repeat
SETUP_SLOTS = 6          # expand: set-up-only sessions per untraced round

ENV = {k: v for k, v in os.environ.items() if k != "QPRODASYM_THREADS"}


class Acc:
    """What one kind of round (traced or untraced) measured."""

    def __init__(self) -> None:
        self.elapsed: list[float] = []
        self.latencies: list[float] = []
        # query position in the round -> its latency in each round
        self.slots: dict[str, list[float]] = {}
        # set-up slot -> its set-up time in each round
        self.setups: dict[str, list[float]] = {}
        self.imports: list[float] = []
        self.rss_kb: list[int] = []
        self.failures: Counter = Counter()
        self.attempted = 0
        self.traces: list[dict] = []

    def query(self, latency: float | None, reason: str | None, slot: str = "") -> None:
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
            self.slots.setdefault(slot, []).append(latency)
        if reason is not None:
            self.failures[reason] += 1

    def best(self) -> list[float]:
        """Each query's fastest latency over the run's rounds."""
        return [min(v) for v in self.slots.values()]

    def best_setups(self) -> list[float]:
        """Each set-up slot's fastest set-up over the run's rounds."""
        return [min(v) for v in self.setups.values()]

    def worker(self, record: dict, spawn: float, slot: str) -> None:
        self.setups.setdefault(slot, []).append(record["ready_at"] - spawn)
        self.imports.append(record["import_s"])
        self.rss_kb.append(record["rss_kb"])
        if record.get("trace"):
            self.traces.append(record["trace"])


# -- one query or session ------------------------------------------------------

def _communicate(p: subprocess.Popen, data: str | None, timeout: float):
    try:
        out, err = p.communicate(data, timeout=timeout)
        return out, err, None
    except subprocess.TimeoutExpired:
        p.kill()
        out, err = p.communicate()
        return out, err, check.TIMEOUT


def check_cli(q: dict, out: str, ref: dict) -> str | None:
    kind = q["check"]
    if kind == "asym":
        g = ref["asym"][q["spec"]]
        return check.check_asym(out, int(g["g"][str(q["n"])]), g["K"][str(q["n"])])
    if kind == "analyze":
        return check.check_analyze(out, ref["analyze"][q["spec"]])
    if kind == "transform":
        return check.check_transform(out, ref["transform"][q["spec"]])
    return check.check_compare(out, ref["compare"])


def cli_query(q: dict, slot: str, trace: bool, ref: dict, acc: Acc) -> None:
    cmd = [sys.executable, WORKER, "cli", *(["--trace"] if trace else []), "--", *q["argv"]]
    spawn = time.monotonic()
    p = subprocess.Popen(cmd, cwd=ROOT, env=ENV, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err, reason = _communicate(p, None, CLI_TIMEOUT)
    marks = [ln for ln in err.splitlines() if ln.startswith("@@perfbench ")]
    record = json.loads(marks[-1][len("@@perfbench "):]) if marks else None
    latency = None
    if record is not None:
        acc.worker(record, spawn, slot)
        latency = record["done_at"] - record["ready_at"]
    if reason is None:
        if record is None or record["exception"]:
            reason = check.EXCEPTION
        elif p.returncode != 0:
            reason = check.EXIT_CODE
        else:
            reason = check_cli(q, out, ref)
    acc.query(latency, reason, slot)


def session(plan: dict, slot: str, trace: bool, acc: Acc) -> None:
    """Run one library session; its queries are slots `slot`/0, `slot`/1, ...,
    and its set-up is set-up slot `slot`."""
    cmd = [sys.executable, WORKER, "session", *(["--trace"] if trace else [])]
    spawn = time.monotonic()
    p = subprocess.Popen(cmd, cwd=ROOT, env=ENV, text=True, stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err, reason = _communicate(p, json.dumps(plan) + "\n", SESSION_TIMEOUT)
    doc = None
    if reason is None and p.returncode == 0 and out.strip():
        doc = json.loads(out.strip().splitlines()[-1])
    if doc is None:
        reason = reason or check.EXIT_CODE
        for _ in plan["queries"]:
            acc.query(None, reason)
        return
    acc.worker(doc, spawn, slot)
    for i, (latency, why) in enumerate(doc["results"]):
        acc.query(latency, why, f"{slot}/{i}")


def run_round(workload: str, queries: list[dict], trace: bool, ref: dict,
              acc: Acc, stop_at: float) -> None:
    t0 = time.monotonic()
    if workload == "expand":
        session({"workload": "expand", "queries": queries}, "main", trace, acc)
        for slot in range(0 if trace else SETUP_SLOTS):
            session({"workload": "expand", "queries": []}, f"setup{slot}", False, acc)
    else:
        for i, q in enumerate(queries):
            if time.monotonic() > stop_at:
                return
            cli_query(q, str(i), trace, ref, acc)
    acc.elapsed.append(time.monotonic() - t0)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    ref_doc = W.load_reference(workload)
    ref = ref_doc["expected"]
    queries = W.plan_round(workload, seed, ref_doc)
    accs = {False: Acc(), True: Acc()}
    kinds = [False, True] if trace else [False] * MIN_ROUNDS
    start = time.monotonic()
    stop_at = start + HARD_STOP
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        now = time.monotonic()
        if i >= len(kinds):
            done = accs[kind].elapsed
            estimate = statistics.mean(done) if done else seconds
            if now - start + estimate > seconds or now > stop_at:
                break
        run_round(workload, queries, kind, ref, accs[kind], stop_at)
        i += 1
    return queries, accs


# -- metrics -------------------------------------------------------------------

def end_to_end(acc: Acc) -> dict:
    """Timings use each query's (or set-up slot's) best time over the run's
    rounds, which removes most interference from other processes on a
    shared host.  A metric with no samples, because every query failed
    before it could be timed, is left out."""
    best, setups = acc.best(), acc.best_setups()
    metrics = {}
    if best:
        metrics["wall_s"] = sum(best)
        metrics["query_p50_ms"] = 1000 * statistics.median(best)
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if acc.rss_kb:
        metrics["peak_rss_mb"] = max(acc.rss_kb) / 1024
    return metrics


def merge_traces(traces: list[dict]) -> dict:
    names: dict[str, list] = {}
    counters: Counter = Counter()
    records: dict[str, list] = {}
    status: dict[str, str] = {}
    hook_errors: set[str] = set()
    rank = {"unused": 0, "wrapped": 1, "absent": 2}
    for tr in traces:
        for name, (calls, total, self_s) in tr["names"].items():
            e = names.setdefault(name, [0, 0.0, 0.0])
            e[0] += calls
            e[1] += total
            e[2] += self_s
        counters.update(tr["counters"])
        for key, rows in tr["records"].items():
            records.setdefault(key, []).extend(rows)
        for name, st in tr["status"].items():
            if rank[st] > rank.get(status.get(name, "unused"), 0):
                status[name] = st
        hook_errors.update(tr["hook_errors"])
    return {"names": names, "counters": counters, "records": records, "status": status,
            "hook_errors": hook_errors}


def arc_work(g_calls: list) -> tuple[int, int] | None:
    """(members, h-terms) of the recorded g_asymptotic calls, from public
    functions; None when those functions are gone or have changed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from qprodasym import ProductSpec
        from qprodasym.arith import coprime_residues
        from qprodasym.asymptotics import classify_arcs, default_K
        return _arc_work(g_calls, ProductSpec, coprime_residues, classify_arcs, default_K)
    except (ImportError, AttributeError, TypeError, ValueError):
        return None


def _arc_work(g_calls, ProductSpec, coprime_residues, classify_arcs, default_K):
    by_spec: dict = {}
    counts: dict = {}
    members = h_terms = 0
    for m, r, d, n, K in g_calls:
        spec = ProductSpec(tuple(m), tuple(r), tuple(d))
        K = default_K(spec, n) if K is None else K
        if (spec, K) not in counts:
            if spec not in by_spec:
                by_ell: dict = {}
                for cls in classify_arcs(spec)[0]:
                    by_ell.setdefault(cls.ell, []).append(cls)
                by_spec[spec] = by_ell
            mem = hs = 0
            for k in range(1, K + 1):
                for cls in by_spec[spec].get((k - 1) % spec.L + 1, ()):
                    mem += 1
                    hs += sum(1 for _ in coprime_residues(k, cls.kappa, cls.ell))
            counts[(spec, K)] = (mem, hs)
        members += counts[(spec, K)][0]
        h_terms += counts[(spec, K)][1]
    return members, h_terms


CALLS, TOTAL, SELF = 0, 1, 2
# per-layer metric -> (traced name, field or counter)
LAYER_SOURCES = {
    "qseries.expand_s": ("qseries.expand_spec", TOTAL),
    "qseries.coeff_bytes": ("qseries.expand_spec", "coeff_bytes"),
    "asymptotics.classify_calls": ("asymptotics.classify_arcs", CALLS),
    "asymptotics.classify_s": ("asymptotics.classify_arcs", TOTAL),
    "asymptotics.check_calls": ("asymptotics.check_assumption", CALLS),
    "asymptotics.check_s": ("asymptotics.check_assumption", TOTAL),
    "asymptotics.arc_datum_calls": ("asymptotics.arc_datum", CALLS),
    "asymptotics.arc_datum_self_s": ("asymptotics.arc_datum", SELF),
    "arith.dedekind_calls": ("arith.dedekind_sum_fast", CALLS),
    "arith.dedekind_s": ("arith.dedekind_sum_fast", TOTAL),
    "asymptotics.ksum_self_s": ("asymptotics.g_asymptotic_members", SELF),
    "asymptotics.bessel_calls": ("asymptotics.bessel_I_minus1", CALLS),
    "asymptotics.bessel_s": ("asymptotics.bessel_I_minus1", TOTAL),
    "asymptotics.logsum_s": ("asymptotics.logc_sum", TOTAL),
    "analysis.levels_s": ("analysis.dominant_levels", TOTAL),
    "analysis.profile_s": ("analysis.leading_profile", TOTAL),
    "transform.check_calls": ("transform.check_main_transform", CALLS),
    "transform.check_self_s": ("transform.check_main_transform", SELF),
    "transform.zh_calls": ("transform.eval_zh_point", CALLS),
    "transform.zh_s": ("transform.eval_zh_point", TOTAL),
    "transform.zh_terms": ("transform.eval_zh_point", "zh_terms"),
    "cli.self_s": ("cli.main", SELF),
}


def per_layer(untraced: Acc, traced: Acc) -> tuple[dict, set, dict]:
    """Per-layer values per traced round, the names marked absent, and merged trace."""
    tr = merge_traces(traced.traces)
    rounds = max(1, len(traced.elapsed))
    absent = {name for name, st in tr["status"].items() if st == "absent"}
    values: dict[str, float] = {}
    missing: set[str] = set()
    for metric, (name, field) in LAYER_SOURCES.items():
        if name in absent or (isinstance(field, str) and name in tr["hook_errors"]):
            missing.add(metric)
        if isinstance(field, str):
            values[metric] = tr["counters"].get(field, 0) / rounds
        else:
            values[metric] = tr["names"].get(name, [0, 0.0, 0.0])[field] / rounds
    work = arc_work(tr["records"].get("g_asymptotic", []))
    g_name = "asymptotics.g_asymptotic"
    if work is None or g_name in absent or g_name in tr["hook_errors"]:
        missing |= {"asymptotics.members", "asymptotics.h_terms", "asymptotics.arc_reuse"}
        work = (0, 0)
    values["asymptotics.members"] = work[0] / rounds
    values["asymptotics.h_terms"] = work[1] / rounds
    values["asymptotics.arc_reuse"] = (
        1 - values["asymptotics.arc_datum_calls"] / values["asymptotics.h_terms"]
        if values["asymptotics.h_terms"] else 0.0)
    values["cli.import_s"] = statistics.median(traced.imports) if traced.imports else 0.0
    untraced_wall = sum(untraced.best())
    if untraced_wall and traced.best():
        values["trace.overhead_frac"] = sum(traced.best()) / untraced_wall - 1
    else:
        values["trace.overhead_frac"] = 0.0
        missing.add("trace.overhead_frac")
    return values, missing, tr


# -- environment and output ----------------------------------------------------

def git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        import mpmath.libmp
        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": sys.version.split()[0], "mpmath_backend": backend,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(ROOT),
            "src_sha256": check.tree_digest(ROOT)}


def load_metric_specs() -> dict:
    """Metric specs from BENCHMARK.json.  Each workload's designated layer
    is the ' + '-joined metric list after 'Designated: ' in its `why`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    designated = {w["name"]: w["why"].partition("Designated: ")[2].split(" + ")
                  for w in doc["workloads"]}
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"],
            "designated": designated}


def report(workload: str, queries: list, accs: dict, trace: bool, specs: dict) -> dict:
    untraced, traced = accs[False], accs[True]
    attempted = untraced.attempted + traced.attempted
    failures = untraced.failures + traced.failures
    failed = sum(failures.values())
    e2e = end_to_end(untraced)
    units = {m["name"]: m["unit"] for m in specs["end_to_end"]}
    print(f"# {workload}: {len(untraced.elapsed)} untraced + {len(traced.elapsed)} traced "
          f"rounds of {len(queries)} queries; attempted {attempted}, failed {failed}")
    for name, value in e2e.items():
        print(f"# {workload} {name} = {value:.6g} {units.get(name, '')}")
    tail = stats.tail(untraced.latencies)
    if untraced.latencies:
        print(f"# {workload} raw median latency = "
              f"{1000 * statistics.median(untraced.latencies):.6g} ms over "
              f"{len(untraced.latencies)} samples")
    if tail is None:
        print(f"# {workload} query_tail_ms omitted: {len(untraced.latencies)} samples "
              f"leave no percentile with {stats.TAIL_BEYOND} beyond it")
    else:
        value, pct, n = tail
        print(f"# {workload} query_tail_ms = {1000 * value:.6g} ms "
              f"(p{pct:.1f} of {n} samples)")
    print(f"# {workload} fail_frac = {failed / attempted:.6g} ratio"
          + (" (" + ", ".join(f"{r}: {c}" for r, c in sorted(failures.items())) + ")"
             if failed else ""))
    print(f"# {workload} correct = {str(failed == 0).lower()}")
    if not trace:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in specs["end_to_end"] if m["name"] in e2e}
    else:
        values, missing, tr = per_layer(untraced, traced)
        metrics = {}
        for m in specs["per_layer"]:
            entry = {"value": values[m["name"]], "unit": m["unit"]}
            if m["name"] in missing:
                entry["absent"] = True
            metrics[m["name"]] = entry
            print(f"# {workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}"
                  + (" (absent)" if m["name"] in missing else ""))
        if workload in specs["designated"]:
            shares(workload, tr, traced, specs["designated"][workload])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def shares(workload: str, tr: dict, traced: Acc, designated: list) -> None:
    """Print self-time shares of the traced wall time, designated layer first."""
    wall = sum(traced.latencies)
    if not wall:
        return
    selfs = {name: e[SELF] for name, e in tr["names"].items()}
    group = sum(selfs.get(LAYER_SOURCES[m][0], 0.0) for m in designated)
    grouped = {LAYER_SOURCES[m][0] for m in designated}
    others = sorted(((s, n) for n, s in selfs.items() if n not in grouped), reverse=True)
    covered = sum(selfs.values())
    top = others[0] if others else (0.0, "-")
    print(f"# {workload} designated {'+'.join(designated)}: self share "
          f"{group / wall:.3f}; largest other {top[1]} {top[0] / wall:.3f}; "
          f"outside traced calls {1 - covered / wall:.3f}; "
          f"designated largest = {str(group >= top[0]).lower()}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="qprodasym benchmark")
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all", *W.PROBES])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qprodasym", "__init__.py")):
        print("perfbench: no qprodasym sources under src/; run from the repository root",
              file=sys.stderr)
        return 2
    specs = load_metric_specs()
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print("# env " + json.dumps(environment(name, args.seed, args.seconds,
                                                 bool(args.trace)), sort_keys=True))
        queries, accs = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = report(name, queries, accs, bool(args.trace), specs)
        if len(names) == 1:
            combined = result
        else:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{k}": v
                                        for k, v in result["metrics"].items()})
    sys.stdout.flush()
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

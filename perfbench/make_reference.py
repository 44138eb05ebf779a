"""Generate the benchmark's input pools and reference outputs.

Run once, from the repository root, against a known-good tree:

    python3 perfbench/make_reference.py [--only expand,oneshot]

It writes ``perfbench/reference/<workload>.json``.  Exact coefficients
come from ``expand_spec`` and are cross-checked against the independent
``oracle_expand`` up to N = 2000.  The ``analyze``, ``transform-test``
and ``compare`` documents are the CLI's own output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
import time

import workloads as W

ROOT = os.path.dirname(W.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from qprodasym import ProductSpec, expand_spec, oracle_expand  # noqa: E402
from qprodasym import asymptotics, cli  # noqa: E402

import check  # noqa: E402

MASTER_SEED = 190210839
EXPAND_CANDIDATES = 64
EXPAND_POOL = 40
CALIBRATION_N = 1500
ORACLE_N = 2000


def parse(spec: str) -> ProductSpec:
    m, r, d = zip(*(tuple(int(x) for x in tok.split(":")) for tok in spec.split()))
    return ProductSpec(m, r, d)


def spec_str(spec: ProductSpec) -> str:
    return " ".join(f"{m}:{r}:{d}" for m, r, d in zip(spec.m, spec.r, spec.delta))


def random_spec(rng: random.Random, max_j=4, max_m=12, max_delta=3) -> ProductSpec:
    """Same distribution as the test suite's random-spec corpus."""
    ms, rs, ds = [], [], []
    for _ in range(rng.randint(1, max_j)):
        m = rng.randint(2, max_m)
        ms.append(m)
        rs.append(rng.randint(1, m - 1))
        d = 0
        while d == 0:
            d = rng.randint(-max_delta, max_delta)
        ds.append(d)
    return ProductSpec(tuple(ms), tuple(rs), tuple(ds))


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"reference query {argv} exited {rc}")
    return buf.getvalue()


def best_times(fns, repeat=7) -> list[float]:
    """Each callable's fastest time, with the repeats interleaved so that a
    slow spell on a shared host does not hit every repeat of one callable."""
    best = [math.inf] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def closest_to_median(items: list, costs: list[float], keep: int) -> list:
    mid = statistics.median(costs)
    order = sorted(range(len(items)), key=lambda i: abs(costs[i] - mid))
    return [items[i] for i in sorted(order[:keep])]


def cross_checked(spec: ProductSpec, N: int) -> tuple[int, ...]:
    coeffs = expand_spec(spec, N).coeffs
    top = min(N, ORACLE_N)
    if oracle_expand(spec, top).coeffs != coeffs[: top + 1]:
        raise RuntimeError(f"expand_spec disagrees with oracle_expand on {spec_str(spec)}")
    return coeffs


def provenance() -> dict:
    return {"python": sys.version.split()[0], "src_sha256": check.tree_digest(ROOT),
            "master_seed": MASTER_SEED}


def stride_ops(spec: ProductSpec, N: int) -> int:
    """Coefficient updates expand_spec makes: one per n >= e for each factor
    (1 - q^e), e = a, a + m, ... <= N with a in {r, m - r}, |delta| times."""
    ops = 0
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        for a in (r, m - r):
            ops += abs(d) * sum(N - e + 1 for e in range(a, N + 1, m))
    return ops


def make_expand() -> dict:
    rng = random.Random(f"{MASTER_SEED}/expand")
    specs, seen = [], set()
    while len(specs) < EXPAND_CANDIDATES:
        spec = random_spec(rng)
        if spec_str(spec) not in seen:
            seen.add(spec_str(spec))
            specs.append(spec)
    target = statistics.median(stride_ops(s, CALIBRATION_N) for s in specs)
    candidates = []
    for spec in specs:
        lo, hi = 100, 8000  # largest N whose update count stays within the target
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if stride_ops(spec, mid) <= target else (lo, mid - 1)
        candidates.append((spec, lo))
    # the update count ignores integer size; keep the candidates whose
    # measured cost is closest to the median
    times = best_times([lambda s=s, n=n: expand_spec(s, n) for s, n in candidates])
    kept = closest_to_median(candidates, times, EXPAND_POOL)
    pool = [{"spec": spec_str(s), "N": n} for s, n in kept]
    expected = {}
    for spec, N in list(W.EXPAND_FIXED) + [(p["spec"], p["N"]) for p in pool]:
        expected[f"{spec}@{N}"] = check.coeff_digest(cross_checked(parse(spec), N))
    kept_times = [t for c, t in zip(candidates, times) if c in kept]
    print(f"expand pool: {target} stride updates each, kept {min(kept_times):.3f}.."
          f"{max(kept_times):.3f}s", file=sys.stderr)
    return {"inputs": {"random": pool}, "expected": expected, "generated": provenance()}


def g_reference(spec_text: str, ns: list[int]) -> dict:
    spec = parse(spec_text)
    coeffs = cross_checked(spec, max(ns))
    return {"g": {str(n): str(coeffs[n]) for n in sorted(ns)},
            "K": {str(n): asymptotics.default_K(spec, n) for n in sorted(ns)}}


def make_oneshot() -> dict:
    asym = {}
    for spec, centre in W.ONESHOT_ASYM.items():
        ns = set(W.asym_pool(centre)) | set(W.asym_pool(W.LOW_TERCILE))
        asym[spec] = g_reference(spec, sorted(ns))
    analyze = {spec: json.loads(run_cli(["analyze", *spec.split()]))
               for spec in W.ANALYZE_SPECS}
    transform = {spec: json.loads(run_cli(
        ["transform-test", *spec.split(), "--samples", str(W.TRANSFORM_SAMPLES),
         "--seed", str(W.TRANSFORM_SEED)])) for spec in W.ANALYZE_SPECS}
    compare = json.loads(run_cli(["compare", *W.COMPARE_SPEC.split(), "--n-list",
                                  W.COMPARE_NLIST, "--format", "json"]))
    return {"expected": {"asym": asym, "analyze": analyze, "transform": transform,
                         "compare": compare}, "generated": provenance()}


MAKERS = {"expand": make_expand, "oneshot": make_oneshot}



def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", default=",".join(W.WORKLOADS))
    args = ap.parse_args()
    for name in args.only.split(","):
        doc = MAKERS[name]()
        path = os.path.join(W.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

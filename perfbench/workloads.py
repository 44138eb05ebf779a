"""Workload definitions: the fixed inputs, the seeded input pools and the
per-seed round plans.

Every input a run can draw comes from a finite pool stored under
``reference/``, so that each one has a stored reference output.  A seed
selects from the pools; the same seed always gives the same plan.

A *round* is one pass over a workload's queries.  A run repeats the same
round until its time is used up.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# the three benchmark quotients of the test suite
P5 = "5:1:-1"
RR = "5:1:1 5:2:-1"
TG = "5:2:-2 10:2:1 10:4:2"

# Timings are taken as each query's best over a run's rounds, so queries
# are kept short (well under a second) and rounds are repeated often:
# on a shared host a long query only ever measures the average load.

# expand: the benchmark specs at fixed orders, plus random specs whose
# order is calibrated so that each costs about what a median random spec
# costs at N = 1500 (keeps the median latency independent of the seed)
EXPAND_FIXED = ((P5, 4000), (RR, 4000), (TG, 3000))
EXPAND_RANDOM = 9

# oneshot: asym at n near the midpoint of the lowest log-tercile of
# [1e3, 1e4] (about 1470), moved by a seeded jitter of up to 2.3 %; cold
# per-arc data dominates at every n.  The centre is given in thirds of the
# decade.  60:5:-1 is centred higher (about 2610): near 1470 its g(n) is
# only about 3e5 and the series truncated at default_K misses the 1e-6
# tolerance by a factor of 3.  Only n with g(n) != 0 are drawn: where
# g(n) = 0 exactly, g_asymptotic still reports a sign.  Both failures are
# known defects, kept in the `defects` probe, which fails until they are
# fixed.
LOW_TERCILE = 0.5
ONESHOT_ASYM = {P5: LOW_TERCILE, RR: LOW_TERCILE, TG: LOW_TERCILE,
                "12:5:-1": LOW_TERCILE, "30:2:-1": LOW_TERCILE, "60:5:-1": 1.25}
ONESHOT_JITTER = tuple(range(-3, 4))
ANALYZE_SPECS = (P5, RR, TG)
TRANSFORM_SAMPLES = 25
TRANSFORM_SEED = 0     # fixed: the sample points set its cost
COMPARE_SPEC = RR
COMPARE_NLIST = "200,500,1000"

WORKLOADS = ("expand", "oneshot")
# run only when named, never by `all`: asym on every n of the lowest-tercile
# pool that `oneshot` does not draw
PROBES = ("defects",)
REFERENCE_OF = {"defects": "oneshot"}


def asym_pool(centre: float) -> list[int]:
    return sorted({round(10 ** (3 + (centre + j / 100) / 3)) for j in ONESHOT_JITTER})


def _asym(spec: str, n: int) -> dict:
    return {"kind": "cli", "check": "asym", "spec": spec, "n": n,
            "argv": ["asym", *spec.split(), "--n", str(n)]}


def load_reference(workload: str) -> dict:
    name = REFERENCE_OF.get(workload, workload)
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def plan_round(workload: str, seed: int, ref: dict) -> list[dict]:
    """The queries of one round, in order, for `seed`."""
    rng = _rng(workload, seed)
    if workload == "expand":
        pool = ref["inputs"]["random"]
        picks = [pool[i] for i in rng.sample(range(len(pool)), EXPAND_RANDOM)]
        return [{"kind": "expand", "spec": s, "N": n}
                for s, n in list(EXPAND_FIXED) + [(p["spec"], p["N"]) for p in picks]]
    g = ref["expected"].get("asym", {})
    if workload == "defects":
        return [_asym(spec, n) for spec, centre in ONESHOT_ASYM.items()
                for n in asym_pool(LOW_TERCILE)
                if centre != LOW_TERCILE or int(g[spec]["g"][str(n)]) == 0]
    if workload == "oneshot":
        queries = []
        for spec, centre in ONESHOT_ASYM.items():
            queries.append(_asym(spec, rng.choice(
                [n for n in asym_pool(centre) if int(g[spec]["g"][str(n)]) != 0])))
        for spec in ANALYZE_SPECS:
            queries.append({"kind": "cli", "check": "analyze", "spec": spec,
                            "argv": ["analyze", *spec.split()]})
        for spec in ANALYZE_SPECS:
            queries.append({"kind": "cli", "check": "transform", "spec": spec,
                            "argv": ["transform-test", *spec.split(), "--samples",
                                     str(TRANSFORM_SAMPLES), "--seed", str(TRANSFORM_SEED)]})
        queries.append({"kind": "cli", "check": "compare", "spec": COMPARE_SPEC,
                        "argv": ["compare", *COMPARE_SPEC.split(), "--n-list",
                                 COMPARE_NLIST, "--format", "json"]})
        return queries
    raise ValueError(f"unknown workload {workload!r}")

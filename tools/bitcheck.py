"""Bit-identity digests of the package's outputs over a seeded spec corpus.

The corpus is the named specs P5, RR, TG, 12:5:-1, 30:2:-1 and 60:5:-1,
then 300 specs drawn by random.Random(11) with J <= 3, m <= 14 and
|delta| <= 3.  Each spec gets one n in [1, 400] from the same generator.
For every spec the tool runs one call per surface and prints one SHA-1
per surface over the corpus:

    expand           expand_spec(spec, 80) coefficients
    level_arcs       the integer tuples of asymptotics._level_arcs on the
                     live cells (asymptotics._live_cells) of each level
                     k <= 40, all together and each alone
    asym             g_asymptotic(spec, n), as (log_mag, arg)
    asym_K           g_asymptotic(spec, n, 40), as (log_mag, arg)
    members          g_asymptotic_members(spec, n, ...) over the members of
                     the three top dominant levels, as (log_mag, arg)
    dominant_levels  repr of dominant_levels(spec, 3)
    profile_1        repr of leading_profile(spec, 1)
    profile_3        repr of leading_profile(spec, 3)
    compare          repr of compare(spec, [n, n + 1])
    errors           the type and message of every call that raised

A call that raises adds the same marker to its own surface, and its type
and message to `errors`.  Floats are hashed by repr, which round-trips
exactly.  A change that is meant to be bit-identical leaves every digest
as it is; one that changes bits on purpose rewrites the digests of the
surfaces it names, and says which.

Run from anywhere:
    python tools/bitcheck.py            print the digests of the full corpus;
                                        exit 1 if they differ from bitcheck.json
    python tools/bitcheck.py --write    record them in tools/bitcheck.json
The "slice" entry of bitcheck.json holds the digests of the first
`SLICE` specs, which the test suite checks.
"""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qprodasym import (ProductSpec, compare, dominant_levels,  # noqa: E402
                       expand_spec, g_asymptotic, g_asymptotic_members,
                       leading_profile)
from qprodasym import asymptotics  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "bitcheck.json"
NAMED = ("5:1:-1", "5:1:1 5:2:-1", "5:2:-2 10:2:1 10:4:2",
         "12:5:-1", "30:2:-1", "60:5:-1")
SEED, RANDOM_SPECS = 11, 300
ORDER, K, DEPTH = 80, 40, 3
SLICE = 100
SURFACES = ("expand", "level_arcs", "asym", "asym_K", "members",
            "dominant_levels", "profile_1", "profile_3", "compare", "errors")


def _spec(text: str) -> ProductSpec:
    m, r, d = zip(*(map(int, term.split(":")) for term in text.split()))
    return ProductSpec(m, r, d)


def corpus() -> list[tuple[ProductSpec, int]]:
    """(spec, n) for the named specs, then the random ones."""
    rng = random.Random(SEED)
    specs = [_spec(text) for text in NAMED]
    for _ in range(RANDOM_SPECS):
        ms, rs, ds = [], [], []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(2, 14)
            ms.append(m)
            rs.append(rng.randint(1, m - 1))
            ds.append(rng.choice([-3, -2, -1, 1, 2, 3]))
        specs.append(ProductSpec(ms, rs, ds))
    return [(spec, rng.randint(1, 400)) for spec in specs]


def _level_arcs(spec):
    """Per level k <= K, the arcs of all its live cells, then of each
    cell alone: the paired route and, where c != -c (mod D), the unpaired one."""
    live = asymptotics._live_cells(spec)
    return [(k, [asymptotics._level_arcs(spec, k, cs)
                 for cs in (list(cells), *([c] for c in cells))])
            for k in range(1, K + 1)
            if (cells := live.get(math.gcd(k, spec.L)))]


def _members(spec, n):
    try:
        members = [mb for level in dominant_levels(spec, DEPTH) for mb in level.members]
    except ValueError:
        members = [(0, 1, 1)]
    return g_asymptotic_members(spec, n, members)


def _calls(spec, n):
    """(surface, call) for every surface but `errors`."""
    polar = lambda z: (z.log_mag, z.arg)
    return (("expand", lambda: expand_spec(spec, ORDER).coeffs),
            ("level_arcs", lambda: _level_arcs(spec)),
            ("asym", lambda: polar(g_asymptotic(spec, n))),
            ("asym_K", lambda: polar(g_asymptotic(spec, n, K))),
            ("members", lambda: polar(_members(spec, n))),
            ("dominant_levels", lambda: dominant_levels(spec, DEPTH)),
            ("profile_1", lambda: leading_profile(spec, 1)),
            ("profile_3", lambda: leading_profile(spec, DEPTH)),
            ("compare", lambda: compare(spec, [n, n + 1])))


def digests(cases) -> dict[str, str]:
    """{surface: SHA-1} over the (spec, n) `cases`."""
    hashes = {name: hashlib.sha1() for name in SURFACES}
    for spec, n in cases:
        for name, call in _calls(spec, n):
            key = f"{spec!r}|{n}|"
            try:
                line = repr(call())
            except (ValueError, ArithmeticError, AssertionError) as exc:
                line = "raised"
                hashes["errors"].update(
                    f"{name}|{key}{type(exc).__name__}: {exc}\n".encode())
            hashes[name].update(f"{key}{line}\n".encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def main(argv: list[str]) -> int:
    cases = corpus()
    recorded = {"corpus": digests(cases), "slice": digests(cases[:SLICE])}
    for name, digest in recorded["corpus"].items():
        print(f"{digest}  {name}")
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")
        return 0
    if argv:
        print("usage: python tools/bitcheck.py [--write]", file=sys.stderr)
        return 2
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if stored != recorded:
        print("digests differ from tools/bitcheck.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

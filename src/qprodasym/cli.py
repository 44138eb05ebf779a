"""Command-line front end.

Product specifications are given as repeated `m:r:delta` triples, e.g.

    qprodasym expand 5:1:-1 --order 20
    qprodasym arcs 5:1:1 5:2:-1
    qprodasym analyze 5:2:-2 10:2:1 10:4:2

Exit codes: 0 success, 1 usage error, 2 hypothesis failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import analysis, asymptotics, transform
from .analysis import _fmt
from .qseries import (ProductSpec, expand_spec, series_to_csv, series_to_json)

USAGE_ERROR = 1
HYPOTHESIS_ERROR = 2


class SpecParseError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def parse_spec(tokens: list[str]) -> ProductSpec:
    """Parse `m:r:delta` triples into a ProductSpec, with positioned errors."""
    ms, rs, ds = [], [], []
    for pos, tok in enumerate(tokens, start=1):
        parts = tok.split(":")
        where = f"spec term {pos} ({tok!r})"
        if len(parts) != 3:
            raise SpecParseError(f"{where}: expected m:r:delta")
        try:
            m, r, d = (int(p) for p in parts)
        except ValueError:
            raise SpecParseError(f"{where}: entries must be integers") from None
        if m < 2:
            raise SpecParseError(f"{where}: m must be at least 2")
        if not 1 <= r < m:
            raise SpecParseError(f"{where}: r out of range (need 1 <= r < m)")
        if d == 0:
            raise SpecParseError(f"{where}: delta must be nonzero")
        ms.append(m)
        rs.append(r)
        ds.append(d)
    if not ms:
        raise SpecParseError("empty specification")
    return ProductSpec(tuple(ms), tuple(rs), tuple(ds))


def _out_stream(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_expand(args) -> int:
    spec = parse_spec(args.spec)
    series = expand_spec(spec, args.order)
    with _out_stream(args.out) as out:
        if args.format == "json":
            out.write(series_to_json(series) + "\n")
        else:
            series_to_csv(series, out)
    return 0


def cmd_arcs(args) -> int:
    spec = parse_spec(args.spec)
    omega = asymptotics.omega_big(spec)
    positive, nonpositive = asymptotics.classify_arcs(spec)
    ok, violations = asymptotics.check_assumption(spec)
    doc = {
        "L": spec.L,
        "Omega": _frac(omega),
        "positive_classes": [[c.kappa, c.ell] for c in positive],
        "nonpositive_classes": [[c.kappa, c.ell] for c in nonpositive],
        "assumption": ok,
        "violations": [list(v) for v in violations],
    }
    with _out_stream(args.out) as out:
        if args.format == "json":
            out.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
        else:
            out.write(f"L = {spec.L}\n")
            out.write(f"Omega = {_frac(omega)}\n")
            out.write("positive classes: "
                      + ", ".join(f"({c.kappa},{c.ell})" for c in positive) + "\n")
            out.write(f"assumption satisfied: {ok}\n")
            if violations:
                out.write("violations: "
                          + ", ".join(f"({k},{l})" for k, l in violations) + "\n")
    return 0


def cmd_asym(args) -> int:
    spec = parse_spec(args.spec)
    # hypothesis validation happens inside g_asymptotic, before the default
    # truncation bound is evaluated (it is undefined for out-of-range n)
    value = asymptotics.g_asymptotic(spec, args.n, args.K, args.precision)
    K = args.K if args.K is not None else asymptotics.default_K(spec, args.n)
    doc = {
        "n": args.n,
        "K": K,
        "sign": value.real_sign,
        "log_abs": _fmt(value.log_abs_real()),
        "imag_over_real": _fmt(value.imag_over_real()),
    }
    with _out_stream(args.out) as out:
        out.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def cmd_compare(args) -> int:
    spec = parse_spec(args.spec)
    n_values = [int(s) for s in args.n_list.split(",") if s]
    if not n_values:
        raise ValueError(f"--n-list names no n: {args.n_list!r}")
    rows = analysis.compare(spec, n_values, args.K, precision=args.precision)
    with _out_stream(args.out) as out:
        if args.format == "json":
            out.write(analysis.compare_to_json(rows) + "\n")
        else:
            analysis.compare_to_csv(rows, out)
    return 0


def cmd_analyze(args) -> int:
    spec = parse_spec(args.spec)
    # the profile checks the hypothesis inequality before any classification
    verdict = analysis.leading_profile(spec, args.depth, args.precision)
    levels = analysis.dominant_levels(spec, args.depth)
    doc = {
        "levels": [{"value": _fmt(lv.value),
                    "members": [list(m) for m in lv.members]} for lv in levels],
        "modulus": verdict.modulus,
        "signs": list(verdict.signs),
        "amplitudes": [_fmt(a) for a in verdict.amplitudes],
        "level_index": verdict.level_index,
        "inconclusive": verdict.inconclusive,
    }
    with _out_stream(args.out) as out:
        out.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def cmd_signs(args) -> int:
    spec = parse_spec(args.spec)
    try:
        lo, hi = (int(x) for x in args.range.split(".."))
    except ValueError:
        raise SpecParseError("--range expects the form a..b") from None
    scans = analysis.sign_check(spec, args.mod, lo, hi)
    doc = [{"residue": s.residue, "verdict": s.verdict,
            "first_counterexample": s.first_counterexample} for s in scans]
    with _out_stream(args.out) as out:
        out.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def cmd_transform_test(args) -> int:
    spec = parse_spec(args.spec)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        k = rng.randint(1, 20)
        hs = [h for h in range(k) if math.gcd(h, k) == 1]
        h = rng.choice(hs)
        z = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2))
        disc = transform.check_main_transform(spec, h, k, z,
                                              precision=args.precision)
        worst = max(worst, disc)
    doc = {"samples": args.samples, "max_discrepancy": _fmt(worst)}
    with _out_stream(args.out) as out:
        out.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qprodasym", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("spec", nargs="+", help="m:r:delta triples")
        p.add_argument("--out", default=None, help="write output to FILE")
        p.set_defaults(fn=fn)
        return p

    p = add("expand", cmd_expand, help="exact Taylor coefficients")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("arcs", cmd_arcs, help="Omega, L, arc classes, hypothesis check")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("asym", cmd_asym, help="truncated Bessel-series value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--precision", choices=["double", "extended"], default="double")

    p = add("compare", cmd_compare, help="exact vs asymptotic table")
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--precision", choices=["double", "extended"], default="double")

    p = add("analyze", cmd_analyze, help="dominant levels and sign profile")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--precision", choices=["double", "extended"], default="double")

    p = add("signs", cmd_signs, help="exact sign scan by residue class")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--range", required=True, help="inclusive range a..b")

    p = add("transform-test", cmd_transform_test,
            help="verify the arc transformation formula on random samples")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=["double", "extended"], default="double")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecParseError as exc:
        print(f"qprodasym: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (asymptotics.HypothesisError, analysis.NoMajorArcsError) as exc:
        print(f"qprodasym: hypothesis failure: {exc}", file=sys.stderr)
        return HYPOTHESIS_ERROR
    except ValueError as exc:
        print(f"qprodasym: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Product specifications are given as repeated `m:r:delta` triples, e.g.

    qprodasym expand 5:1:-1 --order 20
    qprodasym arcs 5:1:1 5:2:-1
    qprodasym analyze 5:2:-2 10:2:1 10:4:2

Exit codes: 0 success, 1 usage error, 2 hypothesis failure.

Plain argv is read straight from `COMMANDS`; argparse is imported only for
help, errors and the forms the strict parser leaves to it, and the output is
the same either way.
"""

from __future__ import annotations

import json
import math
import random
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from . import analysis, asymptotics, transform
from .analysis import _fmt
from .qseries import (ProductSpec, expand_spec, series_to_csv, series_to_json)

USAGE_ERROR = 1
HYPOTHESIS_ERROR = 2


class SpecParseError(ValueError):
    pass


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
    positive, nonpositive = [], []
    for kappa, ell, dn in asymptotics._classes(spec):
        (positive if dn > 0 else nonpositive).append([kappa, ell])
    ok, violations = asymptotics.check_assumption(spec)
    doc = {
        "L": spec.L,
        "Omega": str(spec.omega),
        "positive_classes": positive,
        "nonpositive_classes": nonpositive,
        "assumption": ok,
        "violations": [list(v) for v in violations],
    }
    with _out_stream(args.out) as out:
        if args.format == "json":
            out.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
        else:
            out.write(f"L = {spec.L}\n")
            out.write(f"Omega = {spec.omega}\n")
            out.write("positive classes: "
                      + ", ".join(f"({k},{l})" for k, l in positive) + "\n")
            out.write(f"assumption satisfied: {ok}\n")
            if violations:
                out.write("violations: "
                          + ", ".join(f"({k},{l})" for k, l in violations) + "\n")
    return 0


def cmd_asym(args) -> int:
    spec = parse_spec(args.spec)
    # hypothesis validation happens inside g_asymptotic, before the default
    # truncation bound is evaluated (it is undefined for out-of-range n)
    value = asymptotics.g_asymptotic(spec, args.n, args.K)
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
    n_values = []
    for item in filter(None, args.n_list.split(",")):
        try:
            n_values.append(int(item))
        except ValueError:
            raise ValueError(f"--n-list item {item!r} is not an integer") from None
    if not n_values:
        raise ValueError(f"--n-list names no n: {args.n_list!r}")
    rows = analysis.compare(spec, n_values, args.K)
    with _out_stream(args.out) as out:
        if args.format == "json":
            out.write(analysis.compare_to_json(rows) + "\n")
        else:
            analysis.compare_to_csv(rows, out)
    return 0


def cmd_analyze(args) -> int:
    spec = parse_spec(args.spec)
    # the profile checks the hypothesis inequality before it ranks the levels
    verdict = analysis.leading_profile(spec, args.depth)
    doc = {
        "levels": [{"value": _fmt(lv.value),
                    "members": [list(m) for m in lv.members]} for lv in verdict.levels],
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


_K = {"--K": dict(type=int, default=None)}
_OUT = {"--out": dict(default=None, help="write output to FILE")}

# name -> (handler, help, options after spec and _OUT)
COMMANDS = {
    "expand": (cmd_expand, "exact Taylor coefficients",
               {"--order": dict(type=int, required=True),
                "--format": dict(choices=["csv", "json"], default="csv")}),
    "arcs": (cmd_arcs, "Omega, L, arc classes, hypothesis check",
             {"--format": dict(choices=["text", "json"], default="text")}),
    "asym": (cmd_asym, "truncated Bessel-series value",
             {"--n": dict(type=int, required=True), **_K}),
    "compare": (cmd_compare, "exact vs asymptotic table",
                {"--n-list": dict(required=True, help="comma-separated n values"), **_K,
                 "--format": dict(choices=["csv", "json"], default="csv")}),
    "analyze": (cmd_analyze, "dominant levels and sign profile",
                {"--depth": dict(type=int, default=3)}),
    "signs": (cmd_signs, "exact sign scan by residue class",
              {"--mod": dict(type=int, required=True),
               "--range": dict(required=True, help="inclusive range a..b")}),
    "transform-test": (cmd_transform_test,
                       "verify the arc transformation formula on random samples",
                       {"--samples": dict(type=int, default=25),
                        "--seed": dict(type=int, default=0),
                        "--precision": dict(choices=["double", "extended"],
                                            default="double")}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names one."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse default exits with 2; we reserve that
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)

    # --help shows the docstring without its last paragraph, a note on the source
    parser = _Parser(prog="qprodasym", description=__doc__.rsplit("\n\n", 1)[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        fn, help_, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.add_argument("spec", nargs="+", help="m:r:delta triples")
        for flag, kwargs in {**_OUT, **options}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give plain argv, read from `COMMANDS`.

    Plain argv is a subcommand, one contiguous run of spec tokens and each
    flag spelled in full at most once, followed by a non-empty value that
    does not start with "-", converts and passes its choices, with every
    required flag present.  Anything else gives None and is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, options = COMMANDS[argv[0]]
    options = {**_OUT, **options}
    spec, given, closed = [], {}, False
    tokens = iter(argv[1:])
    for tok in tokens:
        if not tok.startswith("-"):
            if closed:
                return None
            spec.append(tok)
            continue
        closed = bool(spec)
        kwargs, value = options.get(tok), next(tokens, "")
        if kwargs is None or tok in given or not value or value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", [value]):
            return None
        given[tok] = value
    if not spec or any(kw.get("required") and flag not in given
                       for flag, kw in options.items()):
        return None
    return SimpleNamespace(command=argv[0], spec=spec, fn=fn, **{
        flag[2:].replace("-", "_"): given.get(flag, kw.get("default"))
        for flag, kw in options.items()})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        # unrecognized arguments get the usage of the full parser
        args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
        if extra:
            build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except asymptotics.HypothesisError as exc:
        print(f"qprodasym: hypothesis failure: {exc}", file=sys.stderr)
        return HYPOTHESIS_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"qprodasym: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

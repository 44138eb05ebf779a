"""Command-line front end.

Product specifications are given as repeated `m:r:delta` triples, e.g.

    qprodasym expand 5:1:-1 --order 20
    qprodasym arcs 5:1:1 5:2:-1
    qprodasym analyze 5:2:-2 10:2:1 10:4:2

Exit codes: 0 success, 1 usage error, 2 hypothesis failure.

Plain argv is read straight from `COMMANDS`; argparse is imported only for
help, errors and the forms the strict parser leaves to it, and the output is
the same either way.  Each `cmd_*(spec, args)` only computes and returns a
writer `out -> None`; `main` opens `--out` after it, writes and maps errors.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from . import analysis, asymptotics, transform
from .qseries import (ProductSpec, expand_spec, series_to_csv, series_to_json)

USAGE_ERROR = 1
HYPOTHESIS_ERROR = 2


class SpecParseError(ValueError):
    pass


def parse_spec(tokens: list[str]) -> ProductSpec:
    """Parse `m:r:delta` triples into a ProductSpec, with positioned errors."""
    terms = []
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
        terms.append((m, r, d))
    if not terms:
        raise SpecParseError("empty specification")
    return ProductSpec(*zip(*terms))


def _text(text: str):
    return lambda out: out.write(text)


def _fmt(x: float | None) -> str | None:
    return None if x is None else f"{x:.15g}"


def _json(doc):
    """The writer of `doc` as compact, key-sorted JSON and a newline."""
    return _text(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


def cmd_expand(spec: ProductSpec, args):
    series = expand_spec(spec, args.order)
    if args.format == "json":
        return _text(series_to_json(series) + "\n")
    return lambda out: series_to_csv(series, out)


def cmd_arcs(spec: ProductSpec, args):
    positive, nonpositive = [], []
    for kappa, ell, dn in asymptotics._classes(spec):
        (positive if dn > 0 else nonpositive).append([kappa, ell])
    ok, violations = asymptotics.check_assumption(spec)
    if args.format == "json":
        return _json({
            "L": spec.L,
            "Omega": str(spec.omega),
            "positive_classes": positive,
            "nonpositive_classes": nonpositive,
            "assumption": ok,
            "violations": [list(v) for v in violations],
        })
    text = (f"L = {spec.L}\n"
            f"Omega = {spec.omega}\n"
            "positive classes: " + ", ".join(f"({k},{l})" for k, l in positive) + "\n"
            f"assumption satisfied: {ok}\n")
    if violations:
        text += "violations: " + ", ".join(f"({k},{l})" for k, l in violations) + "\n"
    return _text(text)


def cmd_asym(spec: ProductSpec, args):
    # hypothesis validation happens inside g_asymptotic, before the default
    # truncation bound is evaluated (it is undefined for out-of-range n)
    value = asymptotics.g_asymptotic(spec, args.n, args.K)
    K = args.K if args.K is not None else asymptotics.default_K(spec, args.n)
    return _json({
        "n": args.n,
        "K": K,
        "sign": value.real_sign,
        "log_abs": _fmt(value.log_abs_real()),
        "imag_over_real": _fmt(value.imag_over_real()),
    })


_COMPARE_FIELDS = ("n", "exact", "log_abs_exact", "log_abs_asym", "rel_error")


def cmd_compare(spec: ProductSpec, args):
    n_values = []
    for item in filter(None, args.n_list.split(",")):
        try:
            n_values.append(int(item))
        except ValueError:
            raise ValueError(f"--n-list item {item!r} is not an integer") from None
    if not n_values:
        raise ValueError(f"--n-list names no n: {args.n_list!r}")
    table = [(r.n, str(r.exact), _fmt(r.log_abs_exact), _fmt(r.log_abs_asym),
              _fmt(r.rel_error)) for r in analysis.compare(spec, n_values, args.K)]
    if args.format == "json":
        return _json([dict(zip(_COMPARE_FIELDS, row)) for row in table])
    return lambda out: csv.writer(out, lineterminator="\n").writerows(
        [_COMPARE_FIELDS, *table])


def cmd_analyze(spec: ProductSpec, args):
    # the profile checks the hypothesis inequality before it ranks the levels
    verdict = analysis.leading_profile(spec, args.depth)
    return _json({
        "levels": [{"value": _fmt(lv.value),
                    "members": [list(m) for m in lv.members]} for lv in verdict.levels],
        "modulus": verdict.modulus,
        "signs": list(verdict.signs),
        "amplitudes": [_fmt(a) for a in verdict.amplitudes],
        "level_index": verdict.level_index,
        "inconclusive": verdict.inconclusive,
    })


def cmd_signs(spec: ProductSpec, args):
    try:
        lo, hi = (int(x) for x in args.range.split(".."))
    except ValueError:
        raise SpecParseError("--range expects the form a..b") from None
    scans = analysis.sign_check(spec, args.mod, lo, hi)
    return _json([{"residue": s.residue, "verdict": s.verdict,
                   "first_counterexample": s.first_counterexample} for s in scans])


def cmd_transform_test(spec: ProductSpec, args):
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        k = rng.randint(1, 20)
        h = rng.choice([h for h in range(k) if math.gcd(h, k) == 1])
        z = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2))
        worst = max(worst, transform.check_main_transform(
            spec, h, k, z, precision=args.precision))
    return _json({"samples": args.samples, "max_discrepancy": _fmt(worst)})


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


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
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
    for name, (fn, help_, options) in COMMANDS.items():
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
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    try:
        write = args.fn(parse_spec(args.spec), args)
        try:
            with (nullcontext(sys.stdout) if args.out is None
                  else open(args.out, "w", encoding="utf-8")) as out:
                write(out)
                out.flush()
        except OSError as exc:
            # a partial --out file stays, as it may be a device; on stdout,
            # devnull takes the flush at interpreter exit
            if args.out is None:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return USAGE_ERROR                  # the reader closed stdout
            target = "stdout" if args.out is None else args.out
            raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from None
        return 0
    except asymptotics.HypothesisError as exc:
        code, message = HYPOTHESIS_ERROR, f"hypothesis failure: {exc}"
    except (ValueError, OverflowError) as exc:
        code, message = USAGE_ERROR, f"error: {exc}"
    except MemoryError:
        code, message = USAGE_ERROR, "error: not enough memory for this query"
    print(f"qprodasym: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

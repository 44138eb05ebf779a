"""Dominant-term analysis: rank the Bessel levels sqrt(Delta)/k, sum the
same-level terms, detect periodic vanishing and per-residue signs, and
cross-compare exact coefficients against the truncated approximation.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from fractions import Fraction
from typing import IO, Sequence

from .asymptotics import (HypothesisError, _class_sums, _level_terms,
                          _main_sums, _major_classes, _require_assumption,
                          _unit)
from .qseries import ProductSpec, _Record, expand_spec

VANISH_RATIO = 1e-9


class NoMajorArcsError(HypothesisError):
    """The positive-Delta class set is empty; no dominant term exists."""


class DominantLevel(_Record):
    """One distinct value of sqrt(Delta(kappa, ell))/k and its attaining triples."""

    ratio_squared: Fraction              # Delta / k^2, exact; used for grouping
    members: tuple[tuple[int, int, int], ...]   # (kappa, ell, k), k = ell mod L

    @property
    def value(self) -> float:
        return math.sqrt(float(self.ratio_squared))


def dominant_levels(spec: ProductSpec, depth: int) -> list[DominantLevel]:
    """The `depth` largest distinct values of sqrt(Delta)/k over major arcs.

    Enumeration terminates because sqrt(Delta)/k decreases in k; whether a
    member actually contributes (existence of an admissible h) is decided
    later, when terms are summed.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    L = spec.L
    # k-way merge over the per-class sequences k = ell, ell + L, ...; each
    # sequence is strictly decreasing in sqrt(Delta)/k, so a heap pop order
    # enumerates values globally in decreasing order.
    heap = [(Fraction(-dn, L * ell * ell), kappa, ell, ell) for ell in range(1, L + 1)
            for kappa, dn in _major_classes(spec, ell)]
    if not heap:
        raise NoMajorArcsError("no major arcs: every class has Delta <= 0")
    heapq.heapify(heap)
    buckets: dict[Fraction, list[tuple[int, int, int]]] = {}
    while heap:
        neg, kappa, ell, k = heapq.heappop(heap)
        ratio = -neg
        if len(buckets) >= depth and ratio not in buckets:
            break
        buckets.setdefault(ratio, []).append((kappa, ell, k))
        dv = ratio * k * k
        k += L
        heapq.heappush(heap, (-dv / (k * k), kappa, ell, k))
    levels = [DominantLevel(ratio, tuple(sorted(buckets[ratio])))
              for ratio in sorted(buckets, reverse=True)]
    return levels[:depth]


class ResidueVerdict(_Record):
    """Per-residue sign/vanishing verdict for the leading amplitude A(n).

    `signs[rho]` is 'positive', 'negative' or 'vanishing'; amplitudes carry
    the real value of the n-periodic factor at each residue.  A vanishing
    verdict is numerical evidence, not a proof.  `levels` are those examined.
    """

    modulus: int
    signs: tuple[str, ...]
    amplitudes: tuple[float, ...]
    level_index: int
    inconclusive: bool = False
    levels: tuple[DominantLevel, ...] = ()


def leading_profile(spec: ProductSpec, depth: int = 3) -> ResidueVerdict:
    """Sign profile of the top nonvanishing Bessel level.

    Sums the h-sums of all members at the largest sqrt(Delta)/k value; the
    resulting amplitude is periodic in n.  If every residue cancels, the
    next level is examined, down to `depth` levels; exhausting them yields
    an inconclusive verdict.  Raises HypothesisError where the hypothesis
    inequality fails, as the asymptotic formula does not hold there.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    _require_assumption(spec)
    levels = tuple(dominant_levels(spec, depth))
    front = _unit(sum(spec.delta), 2)
    for idx, level in enumerate(levels):
        # one kernel pass per (k, ell) of the level; the exact phases and
        # Pi values are shared by all residues n0
        arcs = dict(_level_terms(spec, level.members))
        present = {(h % ell, ell, k) for (k, ell), terms in arcs.items()
                   for h, _, _ in terms}
        contributing = [m for m in level.members if m in present]
        if not contributing:
            continue
        P = math.lcm(*(k for _, _, k in contributing))
        scale = 0.0
        amps = []
        for n0 in range(P):
            sums = {lv: _class_sums(spec, n0, lv, terms) for lv, terms in arcs.items()}
            total = 0j
            for kappa, ell, k in contributing:
                total += sums[k, ell][kappa]
            value = front * total
            amps.append(value.real)
            scale = max(scale, abs(value))
        if scale == 0.0 or all(abs(a) < VANISH_RATIO * scale for a in amps):
            continue  # the whole level cancels; descend
        cutoff = VANISH_RATIO * max(abs(a) for a in amps)
        signs = tuple("vanishing" if abs(a) < cutoff
                      else ("positive" if a > 0 else "negative")
                      for a in amps)
        return ResidueVerdict(P, signs, tuple(amps), idx, levels=levels)
    return ResidueVerdict(1, ("vanishing",), (0.0,), len(levels), inconclusive=True,
                          levels=levels)


class CompareRow(_Record):
    n: int
    exact: int
    log_abs_exact: float | None
    log_abs_asym: float
    rel_error: float


def compare(spec: ProductSpec, n_values: Sequence[int], K: int | None = None
            ) -> list[CompareRow]:
    """Exact g(n) vs the truncated approximation, compared in log space.

    The approximations at every n come from one main-sum pass, which
    checks every n and K, before the series is expanded to max(n).
    G is a power series, so g(n) = 0 for n < 0.
    """
    if not n_values:
        return []
    approxes = _main_sums(spec, n_values, K)
    series = expand_spec(spec, max(0, *n_values))
    rows = []
    for n, approx in zip(n_values, approxes):
        exact = series[n] if n >= 0 else 0
        log_exact = math.log(abs(exact)) if exact else None
        if exact:
            sign = approx.real_sign * (1 if exact > 0 else -1)
            rel = sign * math.exp(approx.log_abs_real() - log_exact) - 1.0
        else:
            rel = math.inf
        rows.append(CompareRow(n, exact, log_exact, approx.log_abs_real(), rel))
    return rows


class ResidueScan(_Record):
    residue: int
    verdict: str            # all-positive / all-negative / all-zero / mixed
    first_counterexample: int | None


def sign_check(spec: ProductSpec, modulus: int, n_from: int, n_to: int
               ) -> list[ResidueScan]:
    """Scan exact coefficients over [n_from, n_to] by residue class; the
    range must hold an n of every residue."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= n_from <= n_to:
        raise ValueError("need 0 <= n_from <= n_to")
    if n_to - n_from + 1 < modulus:
        raise ValueError("need n_to - n_from + 1 >= modulus, so that every residue has an n")
    series = expand_spec(spec, n_to)
    out = []
    for rho in range(modulus):
        ns = [n for n in range(n_from, n_to + 1) if n % modulus == rho]
        values = [series[n] for n in ns]
        if all(v > 0 for v in values):
            verdict, first = "all-positive", None
        elif all(v < 0 for v in values):
            verdict, first = "all-negative", None
        elif all(v == 0 for v in values):
            verdict, first = "all-zero", None
        else:
            # mixed: report the first n breaking the majority sign
            pos = sum(v > 0 for v in values)
            neg = sum(v < 0 for v in values)
            zero = sum(v == 0 for v in values)
            majority = max((pos, "positive"), (neg, "negative"), (zero, "zero"))[1]
            breaks = {"positive": lambda v: v <= 0,
                      "negative": lambda v: v >= 0,
                      "zero": lambda v: v != 0}[majority]
            first = next(n for n, v in zip(ns, values) if breaks(v))
            verdict = "mixed"
        out.append(ResidueScan(rho, verdict, first))
    return out


def compare_to_csv(rows: list[CompareRow], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "exact", "log_abs_exact", "log_abs_asym", "rel_error"])
    for row in rows:
        writer.writerow([row.n, str(row.exact),
                         _fmt(row.log_abs_exact), _fmt(row.log_abs_asym),
                         _fmt(row.rel_error)])


def compare_to_json(rows: list[CompareRow]) -> str:
    docs = [{"n": r.n, "exact": str(r.exact),
             "log_abs_exact": _fmt(r.log_abs_exact),
             "log_abs_asym": _fmt(r.log_abs_asym),
             "rel_error": _fmt(r.rel_error)} for r in rows]
    return json.dumps(docs, separators=(",", ":"), sort_keys=True)


def _fmt(x: float | None) -> str | None:
    if x is None:
        return None
    return f"{x:.15g}"

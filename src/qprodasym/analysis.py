"""Dominant-term analysis: rank the Bessel levels sqrt(Delta)/k, sum the
same-level terms, detect periodic vanishing and per-residue signs, and
cross-compare exact coefficients against the truncated approximation.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import count, groupby, islice
from operator import itemgetter
from typing import Sequence

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

    def walk(ell, dn, kappas):
        """(-Delta/k^2, ell, k, kappas) over k = ell, ell + L, ...: strictly
        increasing.  The classes of one ell and one Delta share a walk."""
        for k in count(ell, L):
            yield Fraction(-dn, L * k * k), ell, k, kappas

    walks = []
    for ell in range(1, L + 1):
        kappas: dict[int, list[int]] = {}
        for kappa, dn in _major_classes(spec, ell):
            kappas.setdefault(dn, []).append(kappa)
        walks += [walk(ell, dn, ks) for dn, ks in kappas.items()]
    if not walks:
        raise NoMajorArcsError("no major arcs: every class has Delta <= 0")
    # merged, the walks enumerate every member by decreasing Delta/k^2
    groups = islice(groupby(heapq.merge(*walks), key=itemgetter(0)), depth)
    return [DominantLevel(-neg, tuple(sorted((kappa, ell, k) for _, ell, k, ks in group
                                             for kappa in ks)))
            for neg, group in groups]


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
        kappas: dict[tuple[int, int], list[int]] = {}
        for kappa, ell, k in level.members:
            kappas.setdefault((k, ell), []).append(kappa)
        arcs = {lv: _level_terms(spec, *lv, ks) for lv, ks in kappas.items()}
        present = {(h % ell, ell, k) for (k, ell), terms in arcs.items()
                   for h, _, _ in terms}
        contributing = [m for m in level.members if m in present]
        if not contributing:
            continue
        P = math.lcm(*(k for _, _, k in contributing))
        scale = 0.0
        amps = []
        for n0 in range(P):
            sums = {lv: _class_sums(spec, n0, *lv, terms) for lv, terms in arcs.items()}
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


_SIGN_NAMES = ((1, "positive"), (-1, "negative"), (0, "zero"))


class ResidueScan(_Record):
    residue: int
    verdict: str            # all-positive / all-negative / all-zero / mixed
    first_counterexample: int | None


def sign_check(spec: ProductSpec, modulus: int, n_from: int, n_to: int
               ) -> list[ResidueScan]:
    """Scan exact coefficients over [n_from, n_to] by residue class; the
    range must hold an n of every residue.  Each residue walks only its own
    progression, so every n of the range is read once."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= n_from <= n_to:
        raise ValueError("need 0 <= n_from <= n_to")
    if n_to - n_from + 1 < modulus:
        raise ValueError("need n_to - n_from + 1 >= modulus, so that every residue has an n")
    series = expand_spec(spec, n_to)
    out = []
    for rho in range(modulus):
        ns = range(n_from + (rho - n_from) % modulus, n_to + 1, modulus)
        signs = [(v > 0) - (v < 0) for v in map(series.__getitem__, ns)]
        # the majority sign: the largest count, then the largest name
        size, name, sign = max((signs.count(s), name, s) for s, name in _SIGN_NAMES)
        if size == len(ns):
            out.append(ResidueScan(rho, f"all-{name}", None))
        else:
            first = next(n for n, s in zip(ns, signs) if s != sign)
            out.append(ResidueScan(rho, "mixed", first))
    return out

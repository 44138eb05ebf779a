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

from .asymptotics import (NoMajorArcsError, _class_sums, _level_terms,
                          _live_cells, _main_sums, _require_assumption, _unit)
from .qseries import ProductSpec, _Record, expand_spec

VANISH_RATIO = 1e-9


class DominantLevel(_Record):
    """One distinct value of sqrt(Delta(kappa, ell))/k and its attaining triples."""

    ratio_squared: Fraction              # Delta / k^2, exact; used for grouping
    members: tuple[tuple[int, int, int], ...]   # (kappa, ell, k), k = ell mod L

    @property
    def value(self) -> float:
        return math.sqrt(float(self.ratio_squared))


def dominant_levels(spec: ProductSpec, depth: int) -> list[DominantLevel]:
    """The `depth` largest distinct values of sqrt(Delta)/k over major arcs.

    Each positive divisor cell (D, c) of `spec.arcs` stands for the classes
    (kappa, ell) with gcd(ell, L) = D and kappa = c (mod D), whose levels
    k = ell (mod L) are exactly the k = D t with gcd(t, L/D) = 1, as
    gcd(k, L) = gcd(ell, L).  The cells of one D and one Delta share a walk
    over those k; sqrt(Delta)/k decreases along it, so merging the walks
    terminates, and only the `depth` levels returned list their members.
    Whether a member actually contributes (existence of an admissible h)
    is decided later, when terms are summed.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    L = spec.L
    cells: dict[tuple[int, int], list[int]] = {}
    for D, row in spec.arcs.items():
        for c, (dn, _) in enumerate(row):
            if dn > 0:
                cells.setdefault((D, dn), []).append(c)
    if not cells:
        raise NoMajorArcsError("no major-arc class: every class has Delta <= 0")

    def walk(D, dn, cs):
        """(-Delta/k^2, k, D, cs) over the levels k of the cells cs of D:
        strictly increasing, and k fixes D, so ties never reach cs."""
        for k in count(D, D):
            if math.gcd(k, L) == D:
                yield Fraction(-dn, L * k * k), k, D, cs

    # merged, the walks enumerate every level by decreasing Delta/k^2
    merged = heapq.merge(*(walk(D, dn, cs) for (D, dn), cs in cells.items()))
    return [DominantLevel(-neg, tuple(sorted(
                (kappa, ell, k) for _, k, D, cs in group
                for ell in ((k - 1) % L + 1,) for c in cs
                for kappa in range(c, ell, D))))
            for neg, group in islice(groupby(merged, key=itemgetter(0)), depth)]


class ResidueVerdict(_Record):
    """Per-residue sign/vanishing verdict for the leading amplitude A(n).

    `signs[rho]` is 'positive', 'negative' or 'vanishing'; amplitudes carry
    the real value of the n-periodic factor at each residue.  A vanishing
    verdict is numerical evidence, not a proof.  `levels` are all the
    `depth` ranked levels, also those past `level_index`, which were not
    examined.  `inconclusive` means that no ranked level has a member with
    an admissible h; `level_index` is then `depth`, and the profile is a
    placeholder: modulus 1, one 'vanishing' sign, amplitude 0.
    """

    modulus: int
    signs: tuple[str, ...]
    amplitudes: tuple[float, ...]
    level_index: int
    inconclusive: bool = False
    levels: tuple[DominantLevel, ...] = ()


def leading_profile(spec: ProductSpec, depth: int = 3) -> ResidueVerdict:
    """Sign profile of the top ranked Bessel level that has a term.

    The members of a level share sqrt(Delta)/k, so their h-sums add to one
    amplitude A(n0) = front * sum c_{h,k} e^{-2 pi i n0 h/k}, periodic in n0
    with period P, the lcm of the levels k that have an admissible h.  A
    level is passed over, and the next ranked one examined, only when none
    of its members has an admissible h.  A level with a term never cancels
    at every residue: its h/k are distinct reduced fractions and |c_{h,k}|
    = |Pi_{h,k}| > 0, so by Parseval sum_{n0 < P} |A(n0)|^2 = P |front|^2
    sum |c_{h,k}|^2 > 0.  A is real, as the arc factor at -h/k is the
    conjugate of the one at h/k (see :func:`asymptotics._paired_kernel`),
    and a residue is 'vanishing' below VANISH_RATIO times the largest
    |amplitude|.  When none of the `depth` levels has a term, the verdict
    is inconclusive.

    Raises ValueError when depth < 1, before any other check;
    HypothesisError where the hypothesis inequality fails, as the
    asymptotic formula does not hold there; and NoMajorArcsError or
    HypothesisError where no class is positive or none has an admissible h
    at any level: the main sum's own check, :func:`asymptotics._live_cells`.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    _require_assumption(spec)
    _live_cells(spec)
    levels = tuple(dominant_levels(spec, depth))
    front = _unit(sum(spec.delta), 2)
    for idx, level in enumerate(levels):
        # one kernel pass per (k, ell) of the level, kept if it has a term;
        # the exact phases and Pi values are shared by all residues n0
        kappas: dict[tuple[int, int], list[int]] = {}
        for kappa, ell, k in level.members:
            kappas.setdefault((k, ell), []).append(kappa)
        arcs = {lv: terms for lv, ks in kappas.items()
                if (terms := _level_terms(spec, *lv, ks))}
        if not arcs:
            continue  # no member has an admissible h; descend
        present = {(h % ell, ell, k) for (k, ell), terms in arcs.items()
                   for h, _, _ in terms}
        contributing = [m for m in level.members if m in present]
        P = math.lcm(*(k for k, _ in arcs))
        amps = []
        for n0 in range(P):
            sums = {lv: _class_sums(spec, n0, *lv, terms) for lv, terms in arcs.items()}
            total = 0j
            for kappa, ell, k in contributing:
                total += sums[k, ell][kappa]
            amps.append((front * total).real)
        cutoff = VANISH_RATIO * max(map(abs, amps))
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

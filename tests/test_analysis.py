"""Dominant-level ranking, leading-amplitude sign profiles, periodic
vanishing detection, and the exact-vs-asymptotic comparison table.
"""

import heapq
import json
import math
import random
import time
from fractions import Fraction

import pytest

from qprodasym import (CoeffSeries, HypothesisError, NoMajorArcsError, ProductSpec,
                       analysis, asymptotics, classify_arcs, compare, dominant_levels,
                       expand_spec, leading_profile, sign_check)
from qprodasym.analysis import DominantLevel, ResidueScan
from qprodasym.asymptotics import _major_classes
from qprodasym.cli import main

from conftest import P5, RR, TG, h_sum, random_spec

# G = (q, q; q^2)_inf / (q, q; q^2)_inf = 1: every Delta cancels exactly
IDENTITY = ProductSpec((2, 2), (1, 1), (1, -1))


def heap_dominant_levels(spec, depth):
    """The hand-written k-way heap merge of the levels, kept as the oracle."""
    L = spec.L
    heap = [(Fraction(-dn, L * ell * ell), kappa, ell, ell) for ell in range(1, L + 1)
            for kappa, dn in _major_classes(spec, ell)]
    heapq.heapify(heap)
    buckets = {}
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


def filter_sign_check(spec, modulus, n_from, n_to):
    """The scan that filters the whole range once per residue, kept as the oracle."""
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


class TestDominantLevels:
    def test_depth_one_benchmark_members(self):
        assert dominant_levels(P5, 1)[0].members == ((0, 1, 1), (0, 5, 5))
        assert dominant_levels(RR, 1)[0].members == ((2, 5, 5), (3, 5, 5))
        assert dominant_levels(TG, 1)[0].members == (
            (0, 1, 1), (0, 5, 5), (2, 5, 5), (3, 5, 5))

    def test_depth_one_benchmark_values(self):
        assert dominant_levels(P5, 1)[0].ratio_squared == Fraction(2, 5)
        # 2 sqrt(6) / (5 sqrt(5)) squared = 24/125
        assert dominant_levels(RR, 1)[0].ratio_squared == Fraction(24, 125)
        assert dominant_levels(TG, 1)[0].ratio_squared == Fraction(1, 5)

    def test_levels_strictly_decreasing(self):
        for spec in (P5, RR, TG):
            levels = dominant_levels(spec, 5)
            assert len(levels) == 5
            values = [lv.ratio_squared for lv in levels]
            assert values == sorted(values, reverse=True)
            L = spec.L
            for lv in levels:
                assert lv.members
                for kappa, ell, k in lv.members:
                    assert k % L == ell % L
                    assert lv.ratio_squared * k * k == \
                        next(c.delta_value for c in classify_arcs(spec)[0]
                             if (c.kappa, c.ell) == (kappa, ell))

    def test_deeper_levels_pull_in_larger_k(self):
        levels = dominant_levels(RR, 3)
        assert [lv.members for lv in levels] == [
            ((2, 5, 5), (3, 5, 5)),
            ((2, 5, 10), (3, 5, 10)),
            ((2, 5, 15), (3, 5, 15)),
        ]

    def test_no_major_arcs(self):
        with pytest.raises(NoMajorArcsError):
            dominant_levels(IDENTITY, 1)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            dominant_levels(P5, 0)

    def test_matches_heap_merge(self):
        rng = random.Random(2101)
        specs = [P5, RR, TG, ProductSpec((60,), (5,), (-1,))]
        while len(specs) < 24:
            spec = random_spec(rng, max_j=3, max_m=12)
            if spec.L <= 120 and any(_major_classes(spec, ell)
                                     for ell in range(1, spec.L + 1)):
                specs.append(spec)
        for spec in specs:
            for depth in range(1, 9):
                assert dominant_levels(spec, depth) == heap_dominant_levels(spec, depth)


class TestLeadingProfile:
    def test_hypothesis_failure(self):
        # the inequality fails at (2, 6) and (4, 6); no sign profile is given
        with pytest.raises(HypothesisError, match="hypothesis inequality fails"):
            leading_profile(ProductSpec((3, 6), (1, 3), (1, -2)))

    def test_constant_positive_profile(self):
        # 1/(q, q^4; q^5): the (0,1,1) amplitude is csc(pi/5)/2, n-independent
        verdict = leading_profile(P5)
        assert verdict.modulus == 1
        assert verdict.signs == ("positive",)
        assert not verdict.inconclusive
        assert abs(verdict.amplitudes[0] - 1 / (2 * math.sin(math.pi / 5))) < 1e-12

    def test_rogers_ramanujan_profile(self):
        # amplitude proportional to cos(4 pi (n + 3/20)/5): sign pattern
        # +,-,+,-,- over n mod 5
        verdict = leading_profile(RR)
        assert verdict.modulus == 5
        assert verdict.signs == ("positive", "negative", "positive",
                                 "negative", "negative")
        for n0, amp in enumerate(verdict.amplitudes):
            expected = math.cos(4 * math.pi / 5 * (n0 + 3 / 20))
            assert math.copysign(1, amp) == math.copysign(1, expected)

    def test_vanishing_residue(self):
        # amplitude proportional to sin(pi/5) + sin(2 pi (2n+1)/5), which
        # cancels exactly at n = 1 mod 5
        verdict = leading_profile(TG)
        assert verdict.modulus == 5
        assert verdict.signs == ("positive", "vanishing", "positive",
                                 "positive", "negative")
        factors = [math.sin(math.pi / 5)
                   + math.sin(2 * math.pi / 5 * (2 * n0 + 1))
                   for n0 in range(5)]
        for amp, expected in zip(verdict.amplitudes, factors):
            assert abs(amp - verdict.amplitudes[0] * expected / factors[0]) < 1e-9

    def test_amplitudes_periodic(self):
        # recomputing at n0 + P reproduces the same amplitudes
        verdict = leading_profile(TG)
        P = verdict.modulus
        levels = dominant_levels(TG, 1)
        for n0 in range(P):
            a = sum(h_sum(TG, n0, kappa, ell, k)
                    for kappa, ell, k in levels[0].members)
            b = sum(h_sum(TG, n0 + P, kappa, ell, k)
                    for kappa, ell, k in levels[0].members)
            assert abs(a - b) < 1e-13


class TestCompare:
    def test_errors_shrink_with_n(self):
        rows = compare(RR, [200, 500, 1000])
        rels = [abs(r.rel_error) for r in rows]
        assert all(r < 1e-6 for r in rels)
        assert rels[0] >= rels[1] >= rels[2]

    def test_exact_column_matches_series(self):
        series = expand_spec(P5, 300)
        rows = compare(P5, [100, 300])
        assert rows[0].exact == series[100]
        assert rows[1].exact == series[300]

    def test_empty_input(self):
        assert compare(P5, []) == []

    def test_range_violations(self):
        with pytest.raises(ValueError):
            compare(P5, [0])

    def test_range_checked_before_expansion(self, monkeypatch):
        # an out-of-range n fails at once, not after expanding to max(n)
        def expand(spec, N):
            pytest.fail(f"expanded to N = {N} before checking every n")
        monkeypatch.setattr(analysis, "expand_spec", expand)
        with pytest.raises(HypothesisError, match="violates n > -Omega/24"):
            compare(P5, [10**6, 0])

    @pytest.mark.parametrize("K", [0, -3])
    def test_truncation_checked_before_expansion(self, monkeypatch, K):
        # a K below 1 fails at once, with the message of g_asymptotic
        def expand(spec, N):
            pytest.fail(f"expanded to N = {N} before checking K")
        monkeypatch.setattr(analysis, "expand_spec", expand)
        with pytest.raises(ValueError, match=f"K must be at least 1, got {K}"):
            compare(P5, [40000], K)

    def test_empty_sum_checked_before_expansion(self, monkeypatch):
        # RR has no major class at k = 1
        def expand(spec, N):
            pytest.fail(f"expanded to N = {N} before summing")
        monkeypatch.setattr(analysis, "expand_spec", expand)
        with pytest.raises(ValueError, match="K = 1: its first term is at level k = 5$"):
            compare(RR, [200, 500], 1)

    def test_one_kernel_pass_for_every_n(self, monkeypatch):
        # the level terms do not depend on n: one pass serves all 100 n
        calls = []
        level_terms = asymptotics._level_terms

        def counted(spec, members):
            calls.append(spec)
            return level_terms(spec, members)

        monkeypatch.setattr(asymptotics, "_level_terms", counted)
        rows = compare(TG, range(4000, 4100))
        assert [r.n for r in rows] == list(range(4000, 4100)) and len(calls) == 1

    def test_csv_and_json_output(self, capsys):
        rows = compare(P5, [100, 200])
        assert main(["compare", "5:1:-1", "--n-list", "100,200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,exact,log_abs_exact,log_abs_asym,rel_error"
        assert len(lines) == 3
        assert main(["compare", "5:1:-1", "--n-list", "100,200", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["n"] for d in docs] == [100, 200]
        assert int(docs[0]["exact"]) == rows[0].exact


class TestSignCheck:
    def test_tang_pattern(self):
        scans = sign_check(TG, 5, 50, 600)
        verdicts = {s.residue: s.verdict for s in scans}
        assert verdicts == {0: "all-positive", 1: "all-zero",
                            2: "all-positive", 3: "all-positive",
                            4: "all-negative"}
        assert all(s.first_counterexample is None for s in scans)

    def test_rogers_ramanujan_pattern(self):
        scans = sign_check(RR, 5, 50, 600)
        verdicts = {s.residue: s.verdict for s in scans}
        assert verdicts == {0: "all-positive", 1: "all-negative",
                            2: "all-positive", 3: "all-negative",
                            4: "all-negative"}

    def test_mixed_reports_first_counterexample(self):
        # near the origin the Rogers-Ramanujan signs have not settled yet
        scans = sign_check(RR, 1, 0, 30)
        assert scans[0].verdict == "mixed"
        assert scans[0].first_counterexample is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            sign_check(P5, 0, 0, 10)
        with pytest.raises(ValueError):
            sign_check(P5, 5, 10, 5)

    def test_every_residue_needs_an_n(self):
        # 0..2 holds no n = 3, 4, 5 (mod 6): no verdict is claimed for them
        with pytest.raises(ValueError, match="every residue has an n"):
            sign_check(P5, 6, 0, 2)
        assert [s.residue for s in sign_check(P5, 3, 0, 2)] == [0, 1, 2]

    def test_matches_filter_per_residue(self):
        rng = random.Random(2102)
        specs = [P5, RR, TG] + [random_spec(rng, max_j=3, max_m=12) for _ in range(20)]
        seen = set()
        for spec in specs:
            modulus = rng.randint(1, 40)
            n_from = rng.randint(0, 60)
            if n_from % modulus == 0:
                n_from += 1
            n_to = n_from + modulus - 1 + rng.randint(0, 120)
            scans = sign_check(spec, modulus, n_from, n_to)
            assert scans == filter_sign_check(spec, modulus, n_from, n_to)
            seen.update(s.verdict for s in scans)
        assert seen == {"all-positive", "all-negative", "all-zero", "mixed"}

    def test_each_n_read_once(self, monkeypatch):
        # 2000 residues over 0..40000: one walk of the range, not one per residue
        monkeypatch.setattr(analysis, "expand_spec",
                            lambda spec, N: CoeffSeries((1,) * (N + 1)))
        start = time.perf_counter()
        scans = sign_check(P5, 2000, 0, 40000)
        assert time.perf_counter() - start < 1.0
        assert {s.verdict for s in scans} == {"all-positive"}

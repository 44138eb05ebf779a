"""Arc quantities, exact phase assembly, Bessel evaluation, and the
truncated main-term sum against exact coefficients.
"""

import cmath
import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from qprodasym import (HypothesisError, LogComplex, NoMajorArcsError, ProductSpec,
                       arc_datum, bessel_I_minus1, check_assumption,
                       classify_arcs, default_K, expand_spec, g_asymptotic,
                       lambda_int, lambda_star)
from qprodasym import analysis, asymptotics
from qprodasym.arith import coprime_residues, dedekind_sum_fast, gcd0, hbar
from qprodasym.asymptotics import (g_asymptotic_members, logc_sum,
                                   _arc_kernel, _arc_table,
                                   _bessel_i1_asym_log, _bessel_i1_series_log,
                                   _class_sums, _classes, _level_arcs,
                                   _level_terms, _live_cells, _pi_value,
                                   _tail_groups, _unit)
from qprodasym.cli import parse_spec

from conftest import (P5, RR, TG, delta_hk, h_sum, logcomplex_main_sum,
                      member_kernel, random_farey, random_spec, upsilon)
from oracles import delta_arc

# expected positive-class (major-arc) lists for the three benchmark specs
P5_POSITIVE = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
               (0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (4, 5)]
RR_POSITIVE = [(2, 5), (3, 5)]
TG_POSITIVE = [(0, 1), (0, 3), (1, 3), (2, 3), (0, 5), (2, 5), (3, 5),
               (0, 7), (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7),
               (0, 9), (1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9),
               (7, 9), (8, 9), (1, 10), (2, 10), (3, 10), (4, 10),
               (6, 10), (7, 10), (8, 10), (9, 10)]


class TestLambda:
    def test_integer_part(self):
        assert lambda_int(5, 1, 0, 1) == 0
        assert lambda_int(5, 1, 1, 1) == 1
        assert lambda_int(5, 2, 3, 7) == 6
        assert lambda_int(10, 4, 3, 4) == 6

    def test_fractional_complement_range(self):
        rng = random.Random(1)
        for _ in range(200):
            m = rng.randint(2, 12)
            r = rng.randint(1, m - 1)
            h, k = random_farey(rng, 15)
            ls = lambda_star(m, r, h, k)
            assert 0 <= ls < 1
            assert lambda_int(m, r, h, k) - Fraction(r * h, gcd0(m, k)) == ls


class TestUpsilon:
    def test_piecewise(self):
        assert upsilon(Fraction(0)) == 1
        assert upsilon(Fraction(1, 4)) == Fraction(1, 4)
        assert upsilon(Fraction(1, 2)) == Fraction(1, 2)
        assert upsilon(Fraction(3, 4)) == Fraction(1, 4)
        with pytest.raises(ValueError):
            upsilon(Fraction(3, 2))


class TestConstants:
    def test_omega(self):
        assert P5.omega == Fraction(-2, 5)
        assert RR.omega == Fraction(24, 5)
        assert TG.omega == -8
        assert isinstance(TG.omega, Fraction) and TG.omega is TG.omega

    def test_delta_examples(self):
        assert delta_arc(P5, 0, 1) == Fraction(2, 5)
        assert delta_arc(RR, 2, 5) == Fraction(24, 5)
        assert delta_arc(TG, 0, 1) == Fraction(1, 5)
        with pytest.raises(ValueError):
            delta_arc(P5, 1, 1)

    def test_positive_class_lists(self):
        for spec, expected in ((P5, P5_POSITIVE), (RR, RR_POSITIVE),
                               (TG, TG_POSITIVE)):
            positive, nonpositive = classify_arcs(spec)
            got = [(c.kappa, c.ell) for c in positive]
            assert sorted(got) == sorted(expected)
            total = sum(range(1, spec.L + 1))
            assert len(positive) + len(nonpositive) == total

    def test_assumption_holds_on_benchmarks(self):
        for spec in (P5, RR, TG):
            ok, violations = check_assumption(spec)
            assert ok and not violations

    def test_assumption_can_fail(self):
        ok, violations = check_assumption(ProductSpec((2,), (1,), (-13,)))
        assert not ok
        assert (0, 1) in violations


def oracle_delta_arc(spec, kappa, ell):
    """Delta(kappa, ell) assembled term by term in Fraction from lambda*."""
    total = Fraction(0)
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        g = gcd0(m, ell)
        ls = lambda_star(m, r, kappa, ell)
        total += d * (Fraction(2 * g * g, m)
                      + Fraction(12 * g * g, m) * (ls * ls - ls))
    return -total


def oracle_classify_arcs(spec):
    """The direct O(L^2) classification: Delta on every (kappa, ell)."""
    positive, nonpositive = [], []
    for ell in range(1, spec.L + 1):
        for kappa in range(ell):
            dv = oracle_delta_arc(spec, kappa, ell)
            (positive if dv > 0 else nonpositive).append((kappa, ell, dv))
    return positive, nonpositive


def oracle_check_assumption(spec):
    """The direct O(L^2) hypothesis check on every (kappa, ell)."""
    violations = []
    for ell in range(1, spec.L + 1):
        for kappa in range(ell):
            bound = min(
                upsilon(lambda_star(m, r, kappa, ell)) * Fraction(gcd0(m, ell) ** 2, m)
                for m, r in zip(spec.m, spec.r))
            if bound < oracle_delta_arc(spec, kappa, ell) / 24:
                violations.append((kappa, ell))
    return not violations, violations


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _table_specs():
    named = [P5, RR, TG, ProductSpec((12,), (5,), (-1,)),
             ProductSpec((30,), (2,), (-1,)), ProductSpec((60,), (5,), (-1,)),
             ProductSpec((3, 6), (1, 3), (1, -2))]
    rng = random.Random(44)
    drawn = []
    while len(drawn) < 30:
        spec = random_spec(rng, max_j=3, max_m=12)
        if spec.L <= 120:
            drawn.append(spec)
    return named + drawn


class TestArcTable:
    """classify_arcs and check_assumption, read off the divisor cells of
    L, against the direct enumeration of all L(L+1)/2 classes."""

    @pytest.mark.parametrize("spec", _table_specs(), ids=str)
    def test_matches_enumeration(self, spec):
        positive, nonpositive = classify_arcs(spec)
        expected = oracle_classify_arcs(spec)
        for got, want in zip((positive, nonpositive), expected):
            assert [(c.kappa, c.ell, c.delta_value) for c in got] == want
            assert all(type(c.delta_value) is Fraction for c in got)
        assert check_assumption(spec) == oracle_check_assumption(spec)

    def test_delta_matches_fraction_assembly(self):
        rng = random.Random(45)
        for _ in range(2000):
            spec = random_spec(rng, max_j=4, max_m=30)
            ell = rng.randint(1, 60)
            kappa = rng.randrange(ell)
            assert delta_arc(spec, kappa, ell) == oracle_delta_arc(spec, kappa, ell)

    def test_violating_spec(self):
        ok, violations = check_assumption(ProductSpec((3, 6), (1, 3), (1, -2)))
        assert not ok and violations

    @pytest.mark.parametrize("mrd", [((5, 10, 10), (2, 2, 4), (-2, 1, 2)),
                                     ((60,), (5,), (-1,)),
                                     ((7, 8, 9), (1, 1, 1), (-1, -1, -1))],
                             ids=lambda mrd: str(ProductSpec(*mrd)))
    def test_one_delta_per_divisor_cell(self, mrd, monkeypatch):
        # a fresh spec: `spec.arcs` is built once per spec object
        spec = ProductSpec(*mrd)
        calls = []
        real = asymptotics._cell_nums

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(asymptotics, "_cell_nums", counted)
        classify_arcs(spec)
        assert len(calls) == _sigma(spec.L)
        calls.clear()
        check_assumption(spec)
        assert calls == []

    def test_divisors_from_the_moduli(self):
        rng = random.Random(47)
        specs = [ProductSpec((9240,), (1,), (-1,))]
        while len(specs) < 60:
            spec = random_spec(rng, max_j=4, max_m=30)
            if spec.L <= 2000:
                specs.append(spec)
        for spec in specs:
            assert asymptotics._divisors(spec) == [d for d in range(1, spec.L + 1)
                                                   if spec.L % d == 0]

    @pytest.mark.parametrize("mrd, L, sigma", [
        (((997, 991), (1, 1), (-1, -1)), 988027, 990016),
        (((997, 991, 983), (1, 1, 1), (-1, -1, -1)), 971230541, 974175744),
        (((2, 3, 5, 7, 11, 13, 17, 19), (1,) * 8, (1,) * 8), 9699690, 34836480),
        # 2^20 divisors: sigma(L) comes from the prime powers, not from them
        (((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71),
          (1,) * 20, (-1,) * 20),
         557940830126698960967415390, 2660857705190196806418432000),
    ])
    def test_sigma_limit(self, mrd, L, sigma, monkeypatch):
        # refused before a cell is built, and before L is scanned
        def refuse(*args):
            raise AssertionError("built a cell")

        monkeypatch.setattr(asymptotics, "_cell_nums", refuse)
        spec = ProductSpec(*mrd)
        message = (f"L = {L} has sigma(L) = {sigma} divisor cells, more than the "
                   f"limit of {asymptotics._MAX_CELLS}")
        start = time.perf_counter()
        for query in (lambda: spec.arcs, lambda: g_asymptotic(spec, 10 ** 9),
                      lambda: check_assumption(spec)):
            with pytest.raises(ValueError) as exc:
                query()
            assert str(exc.value) == message
            assert not isinstance(exc.value, HypothesisError)
        assert time.perf_counter() - start < 0.5
        assert len(expand_spec(spec, 30).coeffs) == 31


class TestHypothesisFailure:
    """The HypothesisError of a failing spec counts its classes from the
    divisor cells and lists the first ten from the walk check_assumption
    makes."""

    @staticmethod
    def _failing_specs():
        rng = random.Random(46)
        drawn = []
        while len(drawn) < 25:
            spec = random_spec(rng, max_j=3, max_m=30, max_delta=13)
            if spec.L <= 420 and not check_assumption(spec)[0]:
                drawn.append(spec)
        return drawn

    def test_count_and_first_ten_match_the_enumeration(self):
        for spec in self._failing_specs():
            _, violations = check_assumption(spec)
            shown = violations[:10]
            first = ", the first 10" if len(violations) > 10 else ""
            with pytest.raises(HypothesisError) as exc:
                asymptotics._require_assumption(spec)
            assert str(exc.value) == (f"hypothesis inequality fails at "
                                      f"{len(violations)} classes{first}: {shown}")

    def test_walk_reads_only_failing_divisors(self):
        # 997:1:-1 fails only in cells of D = 997: one lookup per level ell,
        # not one per step of kappa through every level
        class Counted(dict):
            lookups = 0

            def get(self, *args):
                self.lookups += 1
                return super().get(*args)

            def __getitem__(self, key):
                self.lookups += 1
                return super().__getitem__(key)

            def __contains__(self, key):
                self.lookups += 1
                return super().__contains__(key)

        spec = ProductSpec((997,), (1,), (-1,))
        L = spec.L
        failing = asymptotics._failing_cells(spec)
        counted = Counted(failing)
        walked = list(asymptotics._violations(spec, counted))
        assert counted.lookups <= L
        assert walked == [(kappa, ell) for ell in range(1, L + 1)
                          for D in [math.gcd(ell, L)] for kappa in range(ell)
                          if kappa % D in failing.get(D, ())]
        assert len(walked) == 112

    def test_large_L_stays_small(self):
        # L = 9240: 31,931,311 failing classes, which the full list held
        # at about 3 GB
        spec = ProductSpec((2, 9240), (1, 1), (-13, 1))
        tracemalloc.start()
        try:
            with pytest.raises(HypothesisError, match="fails at 31931311 classes, "
                               r"the first 10: \[\(0, 1\), \(0, 2\), \(0, 3\)"):
                asymptotics._require_assumption(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000_000


class TestDeltaClassInvariance:
    def test_delta_depends_only_on_residue_class(self):
        # Delta(h, k) = Delta(h mod ell, ell) for ell = ((k-1) mod L) + 1
        rng = random.Random(2)
        for _ in range(100):
            spec = random_spec(rng, max_j=3, max_m=10)
            h, k = random_farey(rng, 30)
            L = spec.L
            ell = (k - 1) % L + 1
            assert delta_hk(spec, h, k) == delta_arc(spec, h % ell, ell)


class TestUnit:
    def test_values(self):
        # e^{i pi} = -1 and e^{i pi / 2} = i
        assert abs(_unit(1, 1) + 1) < 1e-15
        assert abs(_unit(1, 2) - 1j) < 1e-15

    def test_reduction_leaves_the_float(self):
        # num/den and its reduced form (any representative mod 2) give the
        # same float, so exact exponents need no reduction before _unit
        for den in range(1, 13):
            for num in range(-3 * den, 3 * den + 1):
                t = Fraction(num, den)
                want = _unit(t.numerator, t.denominator)
                assert repr(_unit(num, den)) == repr(want)
                assert repr(_unit(num + 4 * den, den)) == repr(want)


def _datum_pi(datum):
    """Pi_{h,k} of an ArcDatum, from its exact factor exponents."""
    return _pi_value(tuple((x.numerator, x.denominator, d) for x, d in datum.pi_exponents))


def _rect(lc):
    """The complex value of a LogComplex."""
    return cmath.rect(math.exp(lc.log_mag), lc.arg)


class TestArcDatum:
    def test_simple_arc_pi_factor(self):
        # spec 1/(q, q^4; q^5): at (h, k) = (0, 1) the quotient contributes
        # the single factor (1 - e^{2 pi i / 5})^{-1}
        datum = arc_datum(P5, 0, 1)
        assert datum.lambdas == (0,)
        assert datum.lambda_stars == (Fraction(0),)
        # the D factor contributes e^{-pi i delta r d / (m k)} = e^{pi i/5}
        assert datum.phase == Fraction(1, 5)
        expected = (1 - cmath.exp(2j * cmath.pi / 5)) ** -1
        assert abs(_datum_pi(datum) - expected) < 1e-14

    def test_hbar_shift_invariance(self):
        # shifting hbar_j by any multiple of k/gcd(m_j, k) changes nothing
        rng = random.Random(3)
        for _ in range(60):
            spec = random_spec(rng, max_j=3, max_m=10)
            h, k = random_farey(rng, 15)
            base = arc_datum(spec, h, k)
            shifts = tuple(hb + rng.randint(1, 3) * (k // gcd0(m, k))
                           for hb, m in zip(base.hbars, spec.m))
            shifted = arc_datum(spec, h, k, hbars=shifts)
            assert shifted.phase == base.phase          # exact rational equality
            assert shifted.pi_exponents == base.pi_exponents
            assert abs(_datum_pi(shifted) - _datum_pi(base)) < 1e-12

    def test_rejects_invalid_hbar_override(self):
        base = arc_datum(TG, 3, 7)
        with pytest.raises(ValueError):
            arc_datum(TG, 3, 7, hbars=tuple(hb + 1 for hb in base.hbars))

    @pytest.mark.parametrize("h, k", [(0, 0), (-1, 5), (5, 5), (2, 4), (0, 2)])
    def test_rejects_a_bad_arc_before_the_kernel(self, h, k, monkeypatch):
        def refuse(*args):
            raise AssertionError("ran the kernel")

        monkeypatch.setattr(asymptotics, "_arc_kernel", refuse)
        with pytest.raises(ValueError, match=r"^need 0 <= h < k with gcd\(h, k\) = 1$"):
            arc_datum(TG, h, k)

    def test_runs_the_main_sum_kernel_path(self, monkeypatch):
        # without an override the kernel makes one Euclid pass per distinct
        # modulus (TG has moduli 5, 10, 10), as in the main sum; an explicit
        # override makes one per factor
        calls = []
        real = asymptotics.inverse_dedekind6

        def counted(d, c):
            calls.append((d, c))
            return real(d, c)

        monkeypatch.setattr(asymptotics, "inverse_dedekind6", counted)
        base = arc_datum(TG, 3, 7)
        assert len(calls) == 2
        calls.clear()
        assert arc_datum(TG, 3, 7, hbars=base.hbars) == base
        assert len(calls) == 3


def fraction_arc_datum(spec, h, k, hbars=None):
    """Oracle: the per-arc phase and Pi assembled term by term in Fraction."""
    given = hbars
    lambdas, stars, hbars = [], [], []
    t = Fraction(0)
    pi_factors = []
    for j, (m, r, d) in enumerate(zip(spec.m, spec.r, spec.delta)):
        g = gcd0(m, k)
        lam = lambda_int(m, r, h, k)
        ls = lam - Fraction(r * h, g)
        hb = given[j] if given is not None else hbar(m, h, k)
        if (hb * (m // g) * h + 1) % (k // g) != 0:
            raise ValueError(f"invalid hbar override for factor {j}")
        lambdas.append(lam)
        stars.append(ls)
        hbars.append(hb)
        t += d * lam                      # (-1)^{delta * lambda}
        t += d * (Fraction(r * h, k) - Fraction(r * g, m * k)
                  + 2 * Fraction(r * g, m * k) * ls
                  + Fraction(hb * g, k) * (lam * lam - lam))
        if ls == 0:
            x = Fraction(r * g + r * hb * m * h, m * k) % 1
            if x == 0:
                raise AssertionError("Pi exponent is an integer")
            pi_factors.append((x, d))
    for m, d in zip(spec.m, spec.delta):  # twice the omega exponent
        g = gcd0(m, k)
        t -= 2 * d * dedekind_sum_fast((m // g) * h, k // g)
    return (tuple(lambdas), tuple(stars), tuple(hbars),
            t % 2, tuple(pi_factors))


class TestArcKernel:
    def test_matches_fraction_oracle(self):
        # 600 random arcs with k <= 60, a third of them with shifted hbars
        rng = random.Random(5)
        checked = overridden = 0
        while checked < 600:
            spec = random_spec(rng, max_j=4, max_m=12)
            h, k = random_farey(rng, 60)
            hbars = None
            if checked % 3 == 0:
                hbars = tuple(hbar(m, h, k) + rng.randint(-3, 3) * (k // gcd0(m, k))
                              for m in spec.m)
                overridden += hbars != tuple(hbar(m, h, k) for m in spec.m)
            try:
                expected = fraction_arc_datum(spec, h, k, hbars)
            except AssertionError:
                with pytest.raises(AssertionError):
                    arc_datum(spec, h, k, hbars)
                continue
            datum = arc_datum(spec, h, k, hbars)
            assert (datum.lambdas, datum.lambda_stars, datum.hbars,
                    datum.phase, datum.pi_exponents) == expected
            _, num, pi = _arc_kernel(spec, k, (h,))[0]
            assert Fraction(num, 3 * spec.L * k) == expected[3]
            assert tuple((Fraction(x, den), d) for x, den, d in pi) == expected[4]
            # the same arc inside the kernel of a member that contains it
            ell = 1 + (h + k) % k
            member = {hh: (nn, pp) for hh, nn, pp in member_kernel(spec, h % ell, ell, k)}
            assert member[h] == (num, pi)
            checked += 1
        assert overridden > 100

    def test_member_kernel_matches_fraction_oracle(self):
        # members with k up to 200 of random specs, and every TG member
        # (J = 3, the modulus 10 twice) with k <= 200
        rng = random.Random(17)
        cases = []
        while len(cases) < 60:
            spec = random_spec(rng, max_j=4, max_m=12)
            k = rng.randint(1, 200)
            ell = rng.randint(1, 2 * spec.L)
            cases.append((spec, rng.randrange(ell), ell, k))
        cases += [(TG, kappa, ell, k) for kappa, ell in TG_POSITIVE
                  for k in range(ell, 201, TG.L)]
        arcs = 0
        for spec, kappa, ell, k in cases:
            hs = list(coprime_residues(k, kappa, ell))
            try:
                expected = [fraction_arc_datum(spec, h, k) for h in hs]
            except AssertionError:
                with pytest.raises(AssertionError):
                    member_kernel(spec, kappa, ell, k)
                continue
            kernel = member_kernel(spec, kappa, ell, k)
            assert [h for h, _, _ in kernel] == hs
            for (h, num, pi), exp in zip(kernel, expected):
                assert 0 <= num < 6 * spec.L * k
                assert Fraction(num, 3 * spec.L * k) == exp[3]
                assert tuple((Fraction(x, den), d) for x, den, d in pi) == exp[4]
            arcs += len(kernel)
        assert arcs > 2000

    def test_member_without_admissible_h(self):
        # gcd(kappa, ell, k) > 1 divides every h = kappa (mod ell) and k:
        # the level pass walks the member's cell and gives it no sum
        for kappa, ell, k in ((0, 4, 4), (2, 6, 6), (3, 9, 9), (0, 10, 10)):
            assert list(coprime_residues(k, kappa, ell)) == []
            assert member_kernel(TG, kappa, ell, k) == []
            terms = _level_terms(TG, k, [kappa])
            assert kappa not in _class_sums(TG, 0, k, terms)

    def test_h_sum_builds_no_fraction(self, monkeypatch):
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        members = [(kappa, ell, k) for kappa, ell in TG_POSITIVE
                   for k in range(ell, 61, TG.L)]
        monkeypatch.setattr(Fraction, "__new__", counting)
        sums = [_class_sums(TG, 1468, k, _level_terms(TG, k, kappas))
                for k, kappas in _by_level(members).items()]
        monkeypatch.undo()
        assert made == []
        assert sum(v for level in sums for v in level.values()) != 0


def _by_level(members):
    """{k: [kappa]} of the (kappa, ell, k) `members`, in order; each has
    ell = (k - 1) mod L + 1."""
    levels = {}
    for kappa, _, k in members:
        levels.setdefault(k, []).append(kappa)
    return levels


def _level_pass(spec, n, members):
    """{member: h-sum} of the level pass over `members`."""
    sums = {k: _class_sums(spec, n, k, _level_terms(spec, k, kappas))
            for k, kappas in _by_level(members).items()}
    return {(kappa, ell, k): sums[k].get(kappa)
            for kappa, ell, k in members}


def _main_sum_members(spec, k_max):
    """Every (kappa, ell, k) with k <= k_max and ell = (k - 1) mod L + 1
    whose divisor cell has positive Delta: the members of the main sum."""
    table = _arc_table(spec)
    L = spec.L
    out = []
    for k in range(1, k_max + 1):
        ell = (k - 1) % L + 1
        D = math.gcd(ell, L)
        out += [(kappa, ell, k) for kappa in range(ell) if table[D][kappa % D][0] > 0]
    return out


class TestLevelPass:
    """The per-level h-sums equal the per-member oracle bit for bit."""

    @staticmethod
    def _check(spec, n, members):
        try:
            got = _level_pass(spec, n, members)
        except AssertionError:
            # an integer Pi exponent: the oracle refuses the spec too
            with pytest.raises(AssertionError):
                for kappa, ell, k in members:
                    h_sum(spec, n, kappa, ell, k)
            return 0
        compared = 0
        for kappa, ell, k in members:
            oracle = h_sum(spec, n, kappa, ell, k)
            value = got[kappa, ell, k]
            if value is None:
                # no admissible h: the oracle adds nothing
                assert member_kernel(spec, kappa, ell, k) == []
                assert oracle == 0
                continue
            assert value == oracle
            assert repr(value) == repr(oracle)
            compared += 1
        return compared

    @pytest.mark.parametrize("spec", [TG, ProductSpec((60,), (5,), (-1,))], ids=str)
    def test_main_sum_members(self, spec):
        members = _main_sum_members(spec, 200)
        assert self._check(spec, 1468, members) > len(members) // 2

    def test_random_specs(self):
        # every class of every level k <= 200 (positive or not), at a random n
        rng = random.Random(61)
        compared = 0
        for _ in range(12):
            spec = random_spec(rng, max_j=3, max_m=12)
            members = [(kappa, (k - 1) % spec.L + 1, k) for k in range(1, 201)
                       for kappa in range((k - 1) % spec.L + 1)]
            compared += self._check(spec, rng.randint(1, 5000), members)
        assert compared > 5000

    def test_explicit_subset_and_duplicates(self):
        # a part of a level's classes, a class listed twice, and classes
        # at levels k > L, whose ell is (k - 1) mod L + 1, not k
        members = [(2, 5, 5), (3, 5, 5), (2, 5, 5), (1, 2, 17), (0, 4, 9)]
        assert self._check(RR, 321, members) == len(members)


# the asym specs of the oneshot benchmark and the centres of their n pools
ONESHOT_ASYM = {"5:1:-1": 0.5, "5:1:1 5:2:-1": 0.5, "5:2:-2 10:2:1 10:4:2": 0.5,
                "12:5:-1": 0.5, "30:2:-1": 0.5, "60:5:-1": 1.25}


def _oneshot_pool(centre):
    return sorted({round(10 ** (3 + (centre + j / 100) / 3)) for j in range(-3, 4)})


def _kernel_specs():
    rng = random.Random(83)
    return ([parse_spec(text.split()) for text in ONESHOT_ASYM]
            + [random_spec(rng, max_j=4, max_m=12) for _ in range(20)])


class TestKernelInvariants:
    """Integer facts about `_arc_kernel` over every h coprime to k < 60, on
    the oneshot specs and 20 random ones; a k-free bound on |Pi| and an
    h -> k - h symmetry of the level pass rest on them."""

    K_MAX = 60

    @pytest.mark.parametrize("spec", _kernel_specs(), ids=str)
    def test_pi_numerators_are_nonzero_multiples_of_k(self, spec):
        # so each factor is 1 - e^{2 pi i t/m_j} with 0 < t < m_j, and
        # |Pi| <= prod_{delta>0} 2^delta prod_{delta<0} (2 sin(pi/m_j))^delta
        checked = 0
        for k in range(1, self.K_MAX):
            for _, _, pi in _arc_kernel(spec, k, coprime_residues(k)):
                for x, den, _ in pi:
                    assert den % k == 0 and den // k in spec.m
                    assert 0 < x < den and x % k == 0
                    checked += 1
        assert checked          # every factor has one at k = 1

    @pytest.mark.parametrize("spec", _kernel_specs(), ids=str)
    def test_reflection_h_to_k_minus_h(self, spec, k_max=K_MAX):
        # Pi(k - h) = Pi(h), and num(k - h) = C_k - num(h) mod 6 L k with
        # one constant C_k per level
        for k in range(2, k_max):
            arcs = {h: (num, pi) for h, num, pi in _arc_kernel(spec, k, coprime_residues(k))}
            constants = set()
            for h, (num, pi) in arcs.items():
                num2, pi2 = arcs[k - h]
                assert pi2 == pi
                constants.add((num + num2) % (6 * spec.L * k))
            assert len(constants) == 1

    @pytest.mark.parametrize("spec", [random_spec(random.Random(84 + i), max_j=4, max_m=30)
                                      for i in range(8)], ids=str)
    def test_reflection_to_k_200(self, spec):
        # moduli up to 30 and levels up to 200, which the level pass relies on
        self.test_reflection_h_to_k_minus_h(spec, 200)

    @pytest.mark.parametrize("spec", _kernel_specs()[:8], ids=str)
    def test_level_pass_evaluates_one_h_per_pair(self, spec, monkeypatch):
        # a level whose cells are closed under c -> -c (mod D), D | k, runs
        # the kernel on at most |hs|/2 + 2 of its h, with the direct arcs
        evaluated = []
        real = asymptotics._arc_kernel

        def counted(spec, k, hs, hbars=None):
            hs = list(hs)
            evaluated.extend(hs)
            return real(spec, k, hs, hbars)

        monkeypatch.setattr(asymptotics, "_arc_kernel", counted)
        L = spec.L
        for k in range(1, 3 * self.K_MAX):
            ell = (k - 1) % L + 1
            arcs = _level_arcs(spec, k, range(ell))
            D = math.gcd(ell, L)
            hs = [h for c in range(D) for h in range(c, k, D) if math.gcd(h, k) == 1]
            assert len(evaluated) <= (len(hs) if k <= 2 else len(hs) // 2 + 2)
            evaluated.clear()
            assert arcs == real(spec, k, hs)

    def test_level_pass_without_reflection(self):
        # TG (L = 10): at (1, 5, 15) the cell {1} of D = 5 is not closed
        # under c -> -c; at (0, 4, 4) the cell {0} of D = 2 has no h
        for kappa, ell, k in ((1, 5, 15), (0, 4, 4)):
            arcs = _level_arcs(TG, k, [kappa])
            assert [a for a in arcs if a[0] % ell == kappa] == member_kernel(TG, kappa, ell, k)

    def test_one_pi_value_per_factor_tuple_and_level(self, monkeypatch):
        # 60:5:-1 at n = 2610: 2,843 arcs in 64 levels take 44 distinct
        # factor tuples; only () (Pi = 1) recurs across levels
        spec = ProductSpec((60,), (5,), (-1,))
        levels, arcs, calls = [], [], []
        real_arcs, real_pi = asymptotics._level_arcs, asymptotics._pi_value

        def recorded_arcs(spec, k, kappas):
            levels.append(k)
            arcs.append(real_arcs(spec, k, kappas))
            return arcs[-1]

        def recorded_pi(factors):
            calls.append((levels[-1], factors))
            return real_pi(factors)

        monkeypatch.setattr(asymptotics, "_level_arcs", recorded_arcs)
        monkeypatch.setattr(asymptotics, "_pi_value", recorded_pi)
        asymptotics.g_asymptotic(spec, 2610)
        monkeypatch.undo()
        assert len(levels) == len(set(levels)) == 64
        assert sum(map(len, arcs)) == 2843
        assert len(calls) == len(set(calls)) == 64
        assert set(calls) == {(level, factors) for level, level_arcs in zip(levels, arcs)
                              for _, _, factors in level_arcs}
        tuples = [factors for _, factors in calls]
        assert len(set(tuples)) == 44
        assert {f for f in tuples if tuples.count(f) > 1} == {()}


def _live_specs():
    """The named specs of the tests, all with L <= 60 (one without an
    admissible h, two without a positive class, one failing the
    hypothesis), and 30 distinct seeded random specs with L <= 60 that
    pass the hypothesis."""
    # the oneshot specs hold P5, RR and TG
    named = [*(parse_spec(text.split()) for text in ONESHOT_ASYM),
             ProductSpec((5,), (4,), (2,)), ProductSpec((4, 2), (1, 1), (2, -1)),
             ProductSpec((2, 2), (1, 1), (1, -1)), ProductSpec((3, 3), (1, 1), (1, -1)),
             ProductSpec((3, 6), (1, 3), (1, -2))]
    rng = random.Random(2503)
    drawn = []
    while len(drawn) < 30:
        spec = random_spec(rng, max_j=3, max_m=12)
        if spec.L <= 60 and spec not in drawn and check_assumption(spec)[0]:
            drawn.append(spec)
    return named + drawn


class TestLiveCells:
    """The live cells of `spec.arcs` against the full enumeration: the
    classes of `_classes` with an admissible h, found by walking the h of
    `coprime_residues` at every level."""

    @staticmethod
    def _admissible(spec, k):
        """The major-arc classes kappa of level k with an admissible h."""
        ell = (k - 1) % spec.L + 1
        return {kappa for kappa, el, dn in _classes(spec) if el == ell and dn > 0
                and next(coprime_residues(k, kappa, ell), None) is not None}

    @pytest.mark.parametrize("spec", _live_specs(), ids=str)
    def test_matches_enumeration(self, spec):
        L = spec.L
        first = next((k for k in range(1, 2 * L + 1) if self._admissible(spec, k)), None)
        if first is None:
            error = (NoMajorArcsError if all(dn <= 0 for *_, dn in _classes(spec))
                     else HypothesisError)
            with pytest.raises(error) as exc:
                _live_cells(spec)
            assert type(exc.value) is error
            return
        live = _live_cells(spec)
        assert min(live) == first
        # the least level of each Delta, as the tail bound reads it
        least = {}
        for k in range(1, L + 1):
            for kappa in sorted(self._admissible(spec, k)):
                least.setdefault(delta_arc(spec, kappa, k), k)
        assert {Fraction(dv).limit_denominator(L): D
                for dv, D in _tail_groups(spec, live)} == least
        for k in range(1, 3 * L + 1):
            ell = (k - 1) % L + 1
            cells = live.get(math.gcd(k, L), {})
            sums = _class_sums(spec, 1, k, _level_terms(spec, k, cells))
            assert set(sums) == self._admissible(spec, k)
        if check_assumption(spec)[0] and first > 1:
            with pytest.raises(ValueError, match=f"its first term is at level k = {first}$"):
                g_asymptotic(spec, 100, first - 1)

    @pytest.mark.parametrize("spec", _live_specs(), ids=str)
    def test_default_walk_takes_the_paired_route(self, spec):
        # L * Delta depends on c only through a (a - g), a = -r_j c mod g,
        # which c -> -c leaves as it is (a -> g - a, or 0 -> 0), and
        # gcd(-c, D) = gcd(c, D); so the live cells of each D are closed
        # under c -> -c (mod D), D divides every default level k of D, and
        # each such level with k > 2 runs one kernel evaluation per pair
        # {h, k - h}
        try:
            live = _live_cells(spec)
        except (NoMajorArcsError, HypothesisError):
            return      # no positive cell, or none with an admissible h
        for D, cells in live.items():
            assert {-c % D for c in cells} == set(cells)

    def test_main_sum_reads_no_class_list(self, monkeypatch):
        # the main sum and the level ranking take their classes from the
        # divisor cells, never from the class list of `_classes`
        def refuse(*args):
            raise AssertionError("a class list was built")

        big = ProductSpec((840,), (420,), (-1,))
        want = [_bits(g_asymptotic(spec, 1000, K)) for spec in (P5, RR, TG)
                for K in (None, 17)]
        levels = [analysis.dominant_levels(spec, 3) for spec in (P5, RR, TG, big)]
        profiles = [analysis.leading_profile(spec) for spec in (P5, RR, TG, big)]
        monkeypatch.setattr(asymptotics, "_classes", refuse)
        assert [_bits(g_asymptotic(spec, 1000, K)) for spec in (P5, RR, TG)
                for K in (None, 17)] == want
        fresh = [ProductSpec(s.m, s.r, s.delta) for s in (P5, RR, TG, big)]
        assert [analysis.dominant_levels(spec, 3) for spec in fresh] == levels
        assert [analysis.leading_profile(spec) for spec in fresh] == profiles
        for spec in (ProductSpec((4, 2), (1, 1), (2, -1)),
                     ProductSpec((3, 3), (1, 1), (1, -1))):
            with pytest.raises(HypothesisError, match="^no major-arc class"):
                g_asymptotic(spec, 50)
            with pytest.raises(HypothesisError, match="^no major-arc class"):
                analysis.leading_profile(spec)


class TestFloatMainSum:
    """g_asymptotic equals the LogComplex accumulation over every member of
    the positive cells (dead classes included), float for float."""

    @staticmethod
    def _check(spec, n, K=None):
        got = g_asymptotic(spec, n, K)
        members = _main_sum_members(spec, default_K(spec, n) if K is None else K)
        want = logcomplex_main_sum(spec, n, members)
        assert (got.log_mag, got.arg) == (want.log_mag, want.arg)

    @pytest.mark.parametrize("text", list(ONESHOT_ASYM))
    def test_oneshot_pools(self, text):
        spec = parse_spec(text.split())
        for n in _oneshot_pool(ONESHOT_ASYM[text]):
            for K in (None, 1, 5, 17):
                if text == "5:1:1 5:2:-1" and K == 1:
                    # RR has no major class at k = 1: the truncated sum is empty
                    with pytest.raises(ValueError, match=r"K = 1: its first term is at level k = 5$"):
                        g_asymptotic(spec, n, K)
                    continue
                self._check(spec, n, K)

    def test_random_specs(self):
        rng = random.Random(71)
        checked = 0
        while checked < 20:
            spec = random_spec(rng, max_j=3, max_m=12)
            if not check_assumption(spec)[0]:
                continue
            self._check(spec, rng.randint(50, 2000))
            checked += 1

    def test_one_logcomplex_per_bessel_factor(self, monkeypatch):
        # at 60:5:-1, n = 2610 the LogComplex form built 2,769 objects and
        # listed 882 members without an admissible h; the default path
        # lists only the live cells c < D, gcd(c, D) = 1 and Delta > 0
        spec = ProductSpec((60,), (5,), (-1,))
        made, listed = [], []
        init = LogComplex.__init__

        def counted_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        level_terms = asymptotics._level_terms

        def recorded(spec, k, kappas):
            kappas = list(kappas)
            listed.extend((kappa, (k - 1) % spec.L + 1, k) for kappa in kappas)
            return level_terms(spec, k, kappas)

        monkeypatch.setattr(LogComplex, "__init__", counted_init)
        monkeypatch.setattr(asymptotics, "_level_terms", recorded)
        asymptotics.g_asymptotic(spec, 2610)
        monkeypatch.undo()
        assert listed
        for c, ell, k in listed:
            D = math.gcd(ell, spec.L)
            assert c < D and math.gcd(c, D) == 1 and delta_arc(spec, c, ell) > 0
        factors = {(delta_arc(spec, kappa, ell), k) for kappa, ell, k in listed}
        assert len(made) <= len(factors) + 4


class TestMainSumsOverN:
    """`_main_sums` at a list of n, the one entry of the main sum: each n
    gets the value of g_asymptotic at that n alone, bit for bit, and only
    one block of n holds its terms at a time."""

    @staticmethod
    def _check(spec, ns, K):
        try:
            want = [g_asymptotic(spec, n, K) for n in ns]
        except ValueError as exc:
            # an empty sum at some n fails the list with the same message
            with pytest.raises(type(exc)) as got:
                asymptotics._main_sums(spec, ns, K)
            assert str(got.value) == str(exc)
            return 0
        got = asymptotics._main_sums(spec, ns, K)
        assert [(v.log_mag, v.arg) for v in got] == [(v.log_mag, v.arg) for v in want]
        return len(ns)

    @pytest.mark.parametrize("text", list(ONESHOT_ASYM))
    def test_oneshot_pools(self, text):
        spec = parse_spec(text.split())
        # the default K differs between the pool and the small n
        ns = _oneshot_pool(ONESHOT_ASYM[text])[::-1] + [60, 30]
        assert self._check(spec, ns, None) == len(ns)
        assert self._check(spec, ns, 17) == len(ns)

    def test_random_specs(self):
        rng = random.Random(29)
        checked = compared = 0
        while checked < 20:
            spec = random_spec(rng, max_j=3, max_m=12)
            if not check_assumption(spec)[0]:
                continue
            ns = [n for n in (rng.randint(-5, 2000) for _ in range(4))
                  if Fraction(n) > -spec.omega / 24]
            compared += self._check(spec, ns, None) + self._check(spec, ns, rng.randint(1, 40))
            checked += 1
        assert compared >= 80

    def test_memory_stops_growing_past_one_block(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_BLOCK", 8)

        def peak(ns):
            gc.collect()
            tracemalloc.start()
            try:
                asymptotics._main_sums(P5, ns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(range(500, 502))              # lazy module state, outside the trace
        one, four = peak(range(500, 508)), peak(range(500, 532))
        # here each n holds about 13 KB of terms while its block is summed,
        # and keeps a value of about 0.1 KB
        assert four - one < 24 * 2000


def _budget_cases():
    """(spec, n): the oneshot asym specs at their n pools, P5/RR/TG at
    n = 10^4 and 10^5, and 20 seeded random specs that satisfy the
    hypothesis."""
    cases = [(parse_spec(text.split()), n) for text, centre in ONESHOT_ASYM.items()
             for n in _oneshot_pool(centre)]
    cases += [(spec, n) for spec in (P5, RR, TG) for n in (10 ** 4, 10 ** 5)]
    rng = random.Random(97)
    drawn = 0
    while drawn < 20:
        spec = random_spec(rng, max_j=3, max_m=12)
        if check_assumption(spec)[0]:
            cases.append((spec, rng.randint(2000, 20000)))
            drawn += 1
    return cases


def _bits(value):
    return value.log_mag, value.arg


class TestErrorBudget:
    """The default k-sum stops where a bound on every omitted level is
    below 2^-60 of its largest term; an explicit K sums every level."""

    def test_omitted_levels_within_the_bound(self, monkeypatch):
        checks = []
        real = asymptotics._tail_bound

        def recorded(groups, log_b, w, k, K):
            checks.append((k, real(groups, log_b, w, k, K)))
            return checks[-1][1]

        monkeypatch.setattr(asymptotics, "_tail_bound", recorded)
        stopped = {}
        for spec, n in _budget_cases():
            checks.clear()
            early = g_asymptotic(spec, n)
            K = default_K(spec, n)
            full = g_asymptotic(spec, n, K)
            assert all(k < K for k, _ in checks)
            if not checks or _bits(early) != _bits(g_asymptotic(spec, n, checks[-1][0])):
                assert _bits(early) == _bits(full)
                continue
            # stopped after level k: the LogComplex oracle over the
            # omitted members is within the bound the rule used
            k, bound = checks[-1]
            omitted = logcomplex_main_sum(spec, n, [m for m in _main_sum_members(spec, K)
                                                    if m[2] > k])
            assert omitted.log_mag <= bound
            diff = abs(cmath.rect(math.exp(early.log_mag - full.log_mag), early.arg)
                       - cmath.rect(1.0, full.arg))
            assert diff <= (math.exp(bound - full.log_mag)
                            + 16 * math.ulp(abs(full.log_mag) + math.pi))
            stopped[repr(spec), n] = k
        # P5 at the pools and at large n stops within a few levels; the
        # dead class (0, 5) of P5 (Delta = 10) would hold it at the top
        assert all(stopped.get((repr(P5), n), 99) <= 4 for n in _oneshot_pool(0.5))
        assert all(stopped.get((repr(spec), n), 99) <= 16
                   for spec in (P5, RR, TG) for n in (10 ** 4, 10 ** 5))
        assert len(stopped) >= 20, stopped

    def test_h_sum_bound(self):
        # |h-sum| <= ceil(k/ell) B for every class of every level k <= 200
        rng = random.Random(98)
        specs = _kernel_specs()[:6] + [random_spec(rng, max_j=3, max_m=12) for _ in range(6)]
        compared = 0
        for spec in specs:
            B = math.exp(asymptotics._pi_log_bound(spec))
            members = [(kappa, (k - 1) % spec.L + 1, k) for k in range(1, 201)
                       for kappa in range((k - 1) % spec.L + 1)]
            for (kappa, ell, k), value in _level_pass(spec, rng.randint(1, 5000),
                                                      members).items():
                if value is not None:
                    assert abs(value) <= -(-k // ell) * B * (1 + 1e-12)
                    compared += 1
        assert compared > 5000

    def test_explicit_K_sums_every_level(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an explicit K stopped early")

        monkeypatch.setattr(asymptotics, "_tail_bound", refuse)
        for spec, n in ((P5, 1434), (P5, 20000), (TG, 10 ** 4)):
            K = default_K(spec, n)
            got = g_asymptotic(spec, n, K)
            want = logcomplex_main_sum(spec, n, _main_sum_members(spec, K))
            assert _bits(got) == _bits(want)
            members = _main_sum_members(spec, 8)
            assert (_bits(g_asymptotic_members(spec, n, members))
                    == _bits(logcomplex_main_sum(spec, n, members)))


class TestLogComplex:
    def test_roundtrip(self):
        z = 3.5 - 1.25j
        lc = LogComplex.from_complex(z)
        assert abs(_rect(lc) - z) < 1e-14

    def test_zero(self):
        # log |0| = -inf, with argument 0
        assert LogComplex.from_complex(0j) == LogComplex(float("-inf"), 0.0)

    def test_product(self):
        a = LogComplex.from_complex(2 + 1j)
        b = LogComplex.from_complex(-1 + 3j)
        assert abs(_rect(a * b) - (2 + 1j) * (-1 + 3j)) < 1e-13

    def test_sum_with_cancellation(self):
        terms = [LogComplex.from_complex(1e8 + 1j),
                 LogComplex.from_complex(-1e8)]
        s = _rect(logc_sum([(t.log_mag, t.arg) for t in terms]))
        assert abs(s - 1j) < 1e-7

    def test_real_sign(self):
        assert LogComplex.from_complex(-2.0).real_sign == -1
        assert LogComplex.from_complex(5.0).real_sign == 1
        assert logc_sum([]).real_sign == 0


class TestBessel:
    def test_small_argument(self):
        got = math.exp(bessel_I_minus1(0.1).log_mag)
        assert abs(got - 0.05006252) < 1e-8

    def test_matches_mpmath(self):
        for x in (0.5, 2.0, 10.0, 24.9, 25.1, 40.0, 300.0):
            got = bessel_I_minus1(x).log_mag
            expected = float(mpmath.log(mpmath.besseli(-1, x)))
            assert abs(got - expected) < 1e-11 * max(1.0, abs(expected))

    def test_branch_agreement_on_overlap(self):
        # ascending series and scaled asymptotic expansion agree on [20, 30]
        for i in range(101):
            x = 20.0 + 0.1 * i
            series = float(_bessel_i1_series_log(x))
            asym = float(_bessel_i1_asym_log(x))
            assert abs(series - asym) < 1e-11 * abs(series)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel_I_minus1(0.0)
        with pytest.raises(ValueError):
            bessel_I_minus1(-3.0)


class TestDefaultK:
    def test_values_grow_like_sqrt(self):
        k500 = default_K(P5, 500)
        assert k500 == math.floor(math.sqrt(2 * math.pi * (500 - Fraction(1, 60))))
        assert default_K(P5, 2000) > k500


class TestGAsymptotic:
    def test_matches_exact_at_desk_scale(self):
        for spec in (P5, RR):
            series = expand_spec(spec, 500)
            exact = series[500]
            approx = g_asymptotic(spec, 500)
            rel = (approx.real_sign * math.copysign(1, exact)
                   * math.exp(approx.log_abs_real() - math.log(abs(exact))) - 1)
            assert abs(rel) < 1e-6

    def test_single_term_closed_form(self):
        # K = 1 leaves only the (0,1,1) term
        #   pi csc(pi/5)/(2 sqrt(15)) (n - 1/60)^{-1/2} I_{-1}(2 pi sqrt((n-1/60)/15))
        n = 500
        w = n - 1 / 60
        approx = g_asymptotic(P5, n, K=1)
        closed = (math.log(math.pi / math.sin(math.pi / 5) / (2 * math.sqrt(15)))
                  - 0.5 * math.log(w)
                  + bessel_I_minus1(2 * math.pi * math.sqrt(w / 15)).log_mag)
        assert approx.real_sign == 1
        assert abs(approx.log_abs_real() - closed) < 1e-12

    def test_imaginary_part_is_noise(self):
        # (TG coefficients with n = 1 mod 5 vanish exactly, so the value
        # there is pure cancellation noise; use a nonvanishing residue)
        for spec, n in ((P5, 300), (RR, 300), (TG, 302)):
            approx = g_asymptotic(spec, n)
            assert approx.imag_over_real() < 1e-8

    def test_members_restriction(self):
        # restricting to all major-arc (kappa, ell, k) with k <= K equals
        # the plain truncated sum
        K = 11
        members = []
        for k in range(1, K + 1):
            ell = (k - 1) % RR.L + 1
            for kappa, lc in ((c.kappa, c.ell) for c in classify_arcs(RR)[0]
                              if c.ell == ell):
                members.append((kappa, ell, k))
        a = g_asymptotic(RR, 250, K=K)
        b = g_asymptotic_members(RR, 250, members)
        assert abs(a.log_abs_real() - b.log_abs_real()) < 1e-12

    def test_hypothesis_errors(self):
        with pytest.raises(HypothesisError):
            g_asymptotic(P5, 0)                       # n <= -Omega/24
        with pytest.raises(HypothesisError):
            g_asymptotic(ProductSpec((2,), (1,), (-13,)), 100)

    def test_hypotheses_checked_once(self, monkeypatch):
        # one divisor-cell table per spec, read by the check and the level
        # pass of every call; no full classification
        calls = {"table": 0, "cells": 0, "classify": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(asymptotics, "_arc_table",
                            counted("table", asymptotics._arc_table))
        monkeypatch.setattr(asymptotics, "_failing_cells",
                            counted("cells", asymptotics._failing_cells))
        monkeypatch.setattr(asymptotics, "classify_arcs",
                            counted("classify", asymptotics.classify_arcs))
        spec = ProductSpec(TG.m, TG.r, TG.delta)      # no table built yet
        asymptotics.g_asymptotic(spec, 400)
        asymptotics.g_asymptotic(spec, 401)
        assert calls == {"table": 1, "cells": 2, "classify": 0}
        asymptotics.check_assumption(spec)
        asymptotics.classify_arcs(spec)
        analysis.leading_profile(spec)
        analysis.compare(spec, [200, 300, 400])
        assert calls["table"] == 1

    def test_retains_no_arc_data(self):
        # the per-member kernels live only inside the call
        assert not any(hasattr(v, "cache_clear") for v in vars(asymptotics).values())
        g_asymptotic(P5, 200)              # lazy module state, outside the trace
        tracemalloc.start()
        try:
            g_asymptotic(P5, 20000)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000
        # the level pass holds one level's arcs at a time (about 0.5 MB
        # here; all 354 levels at once take 4 MB)
        assert peak < 1_500_000

    @pytest.mark.parametrize("K", [0, -3])
    def test_rejects_nonpositive_K(self, K):
        with pytest.raises(ValueError) as exc:
            g_asymptotic(P5, 100, K=K)
        assert not isinstance(exc.value, HypothesisError)

    @pytest.mark.parametrize("spec, n, K", [
        (ProductSpec((5,), (4,), (2,)), 0, None),       # default K = 1
        (ProductSpec((5,), (4,), (2,)), 0, 4),
        (RR, 1434, 1),
    ], ids=["5:4:2 default K", "5:4:2 K=4", "RR K=1"])
    def test_empty_sum_is_an_error(self, spec, n, K):
        # no major class has a member at any level k <= K
        with pytest.raises(ValueError, match=r"K = \d+: its first term is at level k = 5$") as exc:
            g_asymptotic(spec, n, K)
        assert not isinstance(exc.value, HypothesisError)
        assert g_asymptotic(spec, n, 5).real_sign != 0
        # an explicit empty member list still sums to nothing
        assert g_asymptotic_members(spec, n, []).log_mag == float("-inf")

    def test_no_term_at_any_level(self):
        # the identity product has no major-arc class at all
        with pytest.raises(HypothesisError, match="no major-arc class"):
            g_asymptotic(ProductSpec((2, 2), (1, 1), (1, -1)), 10, 100)

    def test_non_major_member_rejected(self):
        with pytest.raises(ValueError):
            g_asymptotic_members(RR, 100, [(0, 1, 1)])

    @pytest.mark.parametrize("member", [
        (0, 5, 7),      # level 7 belongs to ell = 2
        (0, 1, 0), (0, 1, -4), (-1, 5, 5),
        (7, 5, 5),      # kappa >= ell
    ])
    def test_member_outside_its_level_rejected(self, member):
        with pytest.raises(ValueError, match=rf"member \({member[0]}, {member[1]}, "
                           rf"{member[2]}\) needs 0 <= kappa < ell <= L = 5, k >= 1 "
                           r"and k = ell \(mod L\)$"):
            g_asymptotic_members(P5, 100, [member])

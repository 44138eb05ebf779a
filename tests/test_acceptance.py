"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them live).
Tolerances and runtime budgets are asserted, not just reported.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from qprodasym import (arc_datum, bessel_I_minus1, check_assumption,
                       check_main_transform, classify_arcs, compare,
                       dominant_levels, expand_spec, g_asymptotic,
                       g_asymptotic_members, leading_profile,
                       oracle_expand, sign_check)
from qprodasym.arith import dedekind_sum_fast, gcd0
from qprodasym.asymptotics import _bessel_i1_asym_log, _bessel_i1_series_log
from qprodasym.transform import default_terms, eval_zh_point

from conftest import P5, RR, TG, delta_hk, random_farey, random_spec
from oracles import (ModularMatrix, chi, dedekind_sum, delta_arc, eval_eta,
                     eval_theta)

BENCHMARKS = (P5, RR, TG)


def _report(num: int, description: str, ok: bool) -> None:
    print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}]: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_constants():
    t0 = time.perf_counter()
    ok = True
    expected = {
        P5: (Fraction(-2, 5), 5,
             [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4),
              (2, 4), (3, 4), (0, 5), (1, 5), (4, 5)]),
        RR: (Fraction(24, 5), 5, [(2, 5), (3, 5)]),
        TG: (Fraction(-8), 10,
             [(0, 1), (0, 3), (1, 3), (2, 3), (0, 5), (2, 5), (3, 5),
              (0, 7), (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7),
              (0, 9), (1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9),
              (7, 9), (8, 9), (1, 10), (2, 10), (3, 10), (4, 10), (6, 10),
              (7, 10), (8, 10), (9, 10)]),
    }
    for spec, (omega, L, positive) in expected.items():
        ok &= spec.omega == omega
        ok &= spec.L == L
        got = sorted((c.kappa, c.ell) for c in classify_arcs(spec)[0])
        ok &= got == sorted(positive)
        ok &= check_assumption(spec) == (True, [])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, f"growth constants, class lists, assumption "
               f"({elapsed:.2f}s < 1s)", ok)


def test_criterion_2_expansion_cross_validation():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(20240823)
    for _ in range(100):
        spec = random_spec(rng)
        n = rng.randint(0, 200)
        ok &= expand_spec(spec, n).coeffs == oracle_expand(spec, n).coeffs
    for spec in BENCHMARKS:
        ok &= expand_spec(spec, 2000).coeffs == oracle_expand(spec, 2000).coeffs
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(2, f"expander = oracle on 100 random specs (N<=200) and 3 "
               f"benchmarks to N=2000 ({elapsed:.1f}s < 60s)", ok)


def _random_gamma(rng, tau, c_max):
    c = rng.randint(1, c_max)
    center = -round(c * tau.real)
    d = next(d for off in range(2 * c + 2)
             for d in (center + off, center - off) if math.gcd(c, d) == 1)
    a = pow(d, -1, c) if c > 1 else 1
    b = (a * d - 1) // c
    return ModularMatrix(a, b, c, d)


def test_criterion_3_transformation_formulas():
    ok = True
    rng = random.Random(31)

    # main transformation on a randomized corpus, k <= 20
    worst_main = 0.0
    for _ in range(150):
        spec = random_spec(rng, max_j=3, max_m=10, max_delta=2)
        h, k = random_farey(rng, 20)
        z = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2))
        worst_main = max(worst_main, check_main_transform(spec, h, k, z))
    ok &= worst_main < 1e-9

    # eta transformation, 50 samples
    worst_eta = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3))
        gamma = _random_gamma(rng, tau, 20)
        terms = default_terms(min(tau.imag, gamma.mobius(tau).imag))
        lhs = eval_eta(gamma.mobius(tau), terms)
        rhs = chi(gamma) * cmath.sqrt(gamma.c * tau + gamma.d) * eval_eta(tau, terms)
        worst_eta = max(worst_eta, abs(lhs - rhs) / abs(lhs))
    ok &= worst_eta < 1e-10

    # theta modular transformation, 50 samples
    worst_t1 = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.5))
        gamma = _random_gamma(rng, tau, 12)
        s = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
        terms = default_terms(min(tau.imag, gamma.mobius(tau).imag))
        lhs = eval_theta(s * gamma.mobius_star(tau), gamma.mobius(tau), terms)
        cd = gamma.c * tau + gamma.d
        rhs = (chi(gamma) ** 3 * cmath.sqrt(cd)
               * cmath.exp(1j * cmath.pi * gamma.c * s * s / cd)
               * eval_theta(s, tau, terms))
        worst_t1 = max(worst_t1, abs(lhs - rhs) / abs(lhs))
    ok &= worst_t1 < 1e-10

    # theta quasi-periodicity, 50 samples
    worst_t2 = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2))
        s = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.05, 0.05))
        alpha, beta = rng.randint(-2, 2), rng.randint(-2, 2)
        terms = default_terms(tau.imag) + 10
        lhs = eval_theta(s + alpha * tau + beta, tau, terms)
        rhs = ((-1) ** (alpha + beta)
               * cmath.exp(-1j * cmath.pi * alpha * alpha * tau)
               * cmath.exp(-2j * cmath.pi * alpha * s)
               * eval_theta(s, tau, terms))
        worst_t2 = max(worst_t2, abs(lhs - rhs) / abs(lhs))
    ok &= worst_t2 < 1e-10

    # Jacobi triple product, 50 samples
    worst_jtp = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 2))
        s = complex(rng.uniform(-0.2, 0.2), rng.uniform(0, 0.3) * tau.imag)
        terms = default_terms(tau.imag)
        q = cmath.exp(2j * cmath.pi * tau)
        zeta = cmath.exp(2j * cmath.pi * s)
        prod = eval_zh_point(s, tau, terms)
        for k in range(1, terms):
            prod *= 1 - q ** k
        rhs = -1j * q ** 0.125 * zeta ** -0.5 * prod
        lhs = eval_theta(s, tau, terms)
        worst_jtp = max(worst_jtp, abs(lhs - rhs) / abs(lhs))
    ok &= worst_jtp < 1e-10

    _report(3, f"arc transformation <1e-9 on 150 samples (worst "
               f"{worst_main:.1e}); eta/theta identities <1e-10 "
               f"(worst {max(worst_eta, worst_t1, worst_t2, worst_jtp):.1e})",
            ok)


def test_criterion_4_main_theorem_desk_scale():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for spec, name in ((P5, "p5"), (RR, "rr")):
        rows = compare(spec, [200, 500, 1000])
        rels = [abs(r.rel_error) for r in rows]
        ok &= all(r < 1e-6 for r in rels)
        ok &= rels[0] >= rels[1] >= rels[2]
        detail.append(f"{name}: {rels[0]:.1e}/{rels[1]:.1e}/{rels[2]:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(4, f"asymptotic/exact - 1 < 1e-6 at n=200,500,1000, decreasing "
               f"({'; '.join(detail)}; {elapsed:.1f}s < 30s)", ok)


def test_criterion_5_leading_term_closed_forms():
    ok = True

    # single-level term vs csc(pi/5)/(4 3^{1/4} 5^{1/4}) n'^{-3/4} e^{2 pi sqrt(n'/15)}
    n = 1000
    w = n - 1 / 60
    lead = g_asymptotic_members(P5, n, [(0, 1, 1), (0, 5, 5)])
    closed = (math.log(1 / math.sin(math.pi / 5) / (4 * 3 ** 0.25 * 5 ** 0.25))
              - 0.75 * math.log(w) + 2 * math.pi * math.sqrt(w / 15))
    ratio_p5 = lead.real_sign * math.exp(lead.log_abs_real() - closed)
    ok &= abs(ratio_p5 - 1) < 0.05

    # closed form 2^{1/2} 5^{-3/4} cos(4 pi (n + 3/20)/5) n'^{-3/4} e^{(4 pi/5) sqrt(n'/5)}
    # against the exact quotient coefficients: matching sign and magnitude
    series = expand_spec(RR, 1000)
    ratios = []
    for n in (500, 1000):
        c = math.cos(4 * math.pi / 5 * (n + 3 / 20))
        w = n + 1 / 5
        mag = (math.log(2 ** 0.5 / 5 ** 0.75 * abs(c))
               - 0.75 * math.log(w) + 4 * math.pi / 5 * math.sqrt(w / 5))
        exact = series[n]
        ok &= (c > 0) == (exact > 0)
        ratio = math.exp(mag - math.log(abs(exact)))
        ratios.append(ratio)
        ok &= abs(ratio - 1) < 0.05
    _report(5, f"closed-form leading terms: quotient ratios "
               f"{ratio_p5:.4f}, {ratios[0]:.4f}, {ratios[1]:.4f} within 5%",
            ok)


def test_criterion_6_dominant_level_members():
    ok = True
    ok &= dominant_levels(P5, 1)[0].members == ((0, 1, 1), (0, 5, 5))
    ok &= dominant_levels(RR, 1)[0].members == ((2, 5, 5), (3, 5, 5))
    ok &= dominant_levels(TG, 1)[0].members == ((0, 1, 1), (0, 5, 5),
                                                (2, 5, 5), (3, 5, 5))
    _report(6, "depth-1 dominant members match the two/two/four expected "
               "triples for all benchmarks", ok)


def test_criterion_7_congruence_phenomena():
    ok = True

    # exact vanishing: the third benchmark has g(5n+1) = 0 for all n <= 400
    series_tg = expand_spec(TG, 5 * 400 + 1)
    ok &= all(series_tg[5 * n + 1] == 0 for n in range(401))

    # strict sign patterns over 50 <= n <= 1000
    scans = {s.residue: s.verdict for s in sign_check(TG, 5, 50, 1000)}
    ok &= scans == {0: "all-positive", 1: "all-zero", 2: "all-positive",
                    3: "all-positive", 4: "all-negative"}
    scans = {s.residue: s.verdict for s in sign_check(RR, 5, 50, 1000)}
    ok &= scans == {0: "all-positive", 1: "all-negative", 2: "all-positive",
                    3: "all-negative", 4: "all-negative"}

    # the leading amplitude detects the vanishing class
    verdict = leading_profile(TG)
    ok &= verdict.modulus == 5
    ok &= verdict.signs == ("positive", "vanishing", "positive",
                            "positive", "negative")
    _report(7, "g(5n+1)=0 for n<=400, sign patterns mod 5 on [50,1000], "
               "vanishing residue detected", ok)


def test_criterion_8_invariant_suites():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(88)

    # modular-inverse shift independence of phase and Pi
    for _ in range(100):
        spec = random_spec(rng, max_j=3, max_m=10)
        h, k = random_farey(rng, 15)
        base = arc_datum(spec, h, k)
        shifts = tuple(hb + rng.randint(1, 4) * (k // gcd0(m, k))
                       for hb, m in zip(base.hbars, spec.m))
        shifted = arc_datum(spec, h, k, hbars=shifts)
        ok &= shifted.phase == base.phase
        ok &= shifted.pi_exponents == base.pi_exponents

    # Delta depends only on the residue class of (h, k)
    for _ in range(100):
        spec = random_spec(rng, max_j=3, max_m=10)
        h, k = random_farey(rng, 30)
        ell = (k - 1) % spec.L + 1
        ok &= delta_hk(spec, h, k) == delta_arc(spec, h % ell, ell)

    # Dedekind reciprocity and oddness for every c <= 200
    for c in range(1, 201):
        for d in range(1, c):
            if math.gcd(d, c) != 1:
                continue
            s_dc = dedekind_sum_fast(d, c)
            ok &= (s_dc + dedekind_sum_fast(c, d)
                   == Fraction(-1, 4) + Fraction(d * d + c * c + 1, 12 * c * d))
            ok &= dedekind_sum_fast(c - d, c) == -s_dc
    # spot-check the fast recursion against the direct sum
    for _ in range(50):
        c = rng.randint(1, 200)
        ds = [d for d in range(c) if math.gcd(d, c) == 1]
        d = rng.choice(ds)
        ok &= dedekind_sum_fast(d, c) == dedekind_sum(d, c)

    # the approximation is real up to rounding noise
    for spec, n in ((P5, 250), (P5, 800), (RR, 333), (TG, 500)):
        ok &= g_asymptotic(spec, n).imag_over_real() < 1e-8

    # both Bessel branches agree across the split point
    worst = 0.0
    for i in range(101):
        x = 20.0 + 0.1 * i
        series = float(_bessel_i1_series_log(x))
        asym = float(_bessel_i1_asym_log(x))
        worst = max(worst, abs(series - asym) / abs(series))
    ok &= worst < 1e-11

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(8, f"phase/Pi shift-invariance, Delta class-invariance, Dedekind "
               f"identities to c=200, Im/Re noise, Bessel branch overlap "
               f"{worst:.1e} ({elapsed:.1f}s < 30s)", ok)

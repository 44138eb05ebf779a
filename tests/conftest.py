"""Shared fixtures: the three benchmark product specifications, a
random-spec generator used by the cross-validation suites, the per-member
h-sum and LogComplex oracles of the main sum, and the Fraction forms of
the transformation data.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from qprodasym import ProductSpec
from qprodasym._backend import get_backend
from qprodasym.arith import coprime_residues, gcd0, hbar
from qprodasym.asymptotics import (LogComplex, _arc_kernel, _arc_table,
                                   _level_sums, _level_terms, _pi_value,
                                   _unit, bessel_I_minus1, lambda_int,
                                   lambda_star)

# 1/(q, q^4; q^5)_inf — partitions into parts = +-1 mod 5
P5 = ProductSpec((5,), (1,), (-1,))
# (q, q^4; q^5)_inf / (q^2, q^3; q^5)_inf — Rogers-Ramanujan quotient
RR = ProductSpec((5, 5), (1, 2), (1, -1))
# (q^2, q^8; q^10)_inf (q^4, q^6; q^10)_inf^2 / (q^2, q^3; q^5)_inf^2
TG = ProductSpec((5, 10, 10), (2, 2, 4), (-2, 1, 2))

BENCHMARKS = {"p5": P5, "rr": RR, "tg": TG}


@pytest.fixture
def p5():
    return P5


@pytest.fixture
def rr():
    return RR


@pytest.fixture
def tg():
    return TG


def random_spec(rng: random.Random, max_j: int = 4, max_m: int = 12,
                max_delta: int = 3) -> ProductSpec:
    """A random well-formed ProductSpec for cross-validation corpora."""
    j = rng.randint(1, max_j)
    ms, rs, ds = [], [], []
    for _ in range(j):
        m = rng.randint(2, max_m)
        ms.append(m)
        rs.append(rng.randint(1, m - 1))
        d = 0
        while d == 0:
            d = rng.randint(-max_delta, max_delta)
        ds.append(d)
    return ProductSpec(tuple(ms), tuple(rs), tuple(ds))


def random_farey(rng: random.Random, k_max: int = 20) -> tuple[int, int]:
    """A random reduced fraction 0 <= h < k with k <= k_max."""
    while True:
        k = rng.randint(1, k_max)
        hs = [h for h in range(k) if math.gcd(h, k) == 1]
        if hs:
            return rng.choice(hs), k


# -- the per-member oracle of the main sum ----------------------------------
# One (kappa, ell, k) member at a time, through the shared helpers _pi_value
# and _unit: the level pass of the package must give each member's h-sum
# bit for bit.

def member_kernel(spec, kappa, ell, k):
    """_arc_kernel over the admissible h of one member: h coprime to k with
    h = kappa (mod ell), increasing."""
    if math.gcd(kappa, ell, k) > 1:
        return []
    return _arc_kernel(spec, k, coprime_residues(k, kappa, ell))


def h_terms(spec, kappa, ell, k):
    """(h, phase numerator, Pi_{h,k}) over the admissible h of one member."""
    return [(h, num, _pi_value(pi))
            for h, num, pi in member_kernel(spec, kappa, ell, k)]


def sum_terms(terms, step, D):
    """Sum of _unit(num - step h, D) Pi over `terms`, in order."""
    total = 0j
    for h, num, pi in terms:
        total += _unit(num - step * h, D) * pi
    return total


def h_sum(spec, n, kappa, ell, k):
    """Sum over admissible h of e^{-2 pi i n h / k} phase_{h,k} Pi_{h,k}."""
    return sum_terms(h_terms(spec, kappa, ell, k),
                     6 * spec.L * n, 3 * spec.L * k)


# -- the LogComplex oracle of the main sum ----------------------------------
# The accumulation of g_asymptotic_members before its terms became float
# pairs: one LogComplex per member with a nonzero h-sum, summed as
# LogComplex objects.  The package must give the same floats.

def logcomplex_sum(terms):
    """Sum of LogComplex terms by max-factoring with compensated summation."""
    terms = [t for t in terms if t.log_mag != float("-inf")]
    if not terms:
        return LogComplex(float("-inf"), 0.0)
    top = max(t.log_mag for t in terms)
    re = math.fsum(math.exp(t.log_mag - top) * math.cos(t.arg) for t in terms)
    im = math.fsum(math.exp(t.log_mag - top) * math.sin(t.arg) for t in terms)
    s = complex(re, im)
    if s == 0:
        return LogComplex(float("-inf"), 0.0)
    return LogComplex(top + math.log(abs(s)), cmath.phase(s))


def logcomplex_main_sum(spec, n, members):
    """The main-term sum over explicit (kappa, ell, k) members, each term a
    LogComplex: pref * I_-1(x) per (Delta, k) times the member's h-sum."""
    table = _arc_table(spec)
    L = spec.L
    members = list(members)
    sums = {(k, ell): _level_sums(terms, 6 * L * n, 3 * L * k, ell)
            for (k, ell), terms in _level_terms(spec, members)}
    bessels = {}
    terms = []
    w = float(24 * n + spec.omega)
    for kappa, ell, k in members:
        hs = sums[k, ell].get(kappa, 0)
        if hs == 0:
            continue
        D = math.gcd(ell, L)
        dn = table[D][kappa % D][0]
        factor = bessels.get((dn, k))
        if factor is None:
            dv = dn / L
            x = math.pi * math.sqrt(dv * w) / (6 * k)
            pref = LogComplex(math.log(2 * math.pi / k) + 0.5 * math.log(dv / w), 0.0)
            factor = bessels[dn, k] = pref * bessel_I_minus1(x)
        terms.append(factor * LogComplex.from_complex(hs))
    front = _unit(sum(spec.delta), 2)
    return LogComplex.from_complex(front) * logcomplex_sum(terms)


# -- Fraction forms of the arc quantities -----------------------------------

def upsilon(x):
    """1 at 0, x on (0, 1/2], 1 - x on (1/2, 1): the hypothesis bound's
    weight of a fractional complement."""
    if not 0 <= x < 1:
        raise ValueError("need 0 <= x < 1")
    if x == 0:
        return Fraction(1)
    if x <= Fraction(1, 2):
        return x
    return 1 - x


def delta_hk(spec, h, k):
    """Delta evaluated at the Farey fraction h/k, term by term in Fraction."""
    total = Fraction(0)
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        g = gcd0(m, k)
        ls = lambda_star(m, r, h, k)
        total += d * (Fraction(2 * g * g, m)
                      + Fraction(12 * g * g, m) * (ls * ls - ls))
    return -total


def fraction_real(x, B):
    """The Fraction x as a backend real: one rounded quotient."""
    return B.ratio(x.numerator, x.denominator)


def fraction_transformed_arguments(spec, h, k, z, precision="double"):
    """transform.transformed_arguments with each coefficient a Fraction."""
    B = get_backend(precision)
    z = B.native(z)
    iz = 1j / z
    out = []
    for m, r in zip(spec.m, spec.r):
        d = gcd0(m, k)
        lam = lambda_int(m, r, h, k)
        ls = lambda_star(m, r, h, k)
        hb = hbar(m, h, k)
        tau_t = (fraction_real(Fraction(hb * d, k), B)
                 + fraction_real(Fraction(d * d, m * k), B) * iz)
        sigma_t = (fraction_real(Fraction(r * d, m * k) + lam * Fraction(hb * d, k), B)
                   + fraction_real(ls * Fraction(d * d, m * k), B) * iz)
        out.append((sigma_t, tau_t))
    return out

"""Shared fixtures: the three benchmark product specifications, a
random-spec generator used by the cross-validation suites, and the
per-member h-sum oracle of the main sum.
"""

import math
import random

import pytest

from qprodasym import ProductSpec
from qprodasym.arith import coprime_residues
from qprodasym.asymptotics import _arc_kernel, _pi_value, _unit

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


def h_terms(spec, kappa, ell, k, backend):
    """(h, phase numerator, Pi_{h,k}) over the admissible h of one member."""
    return [(h, num, _pi_value(pi, backend))
            for h, num, pi in member_kernel(spec, kappa, ell, k)]


def sum_terms(terms, step, D, backend):
    """Sum of _unit(num - step h, D) Pi over `terms`, in order."""
    total = backend.complex_(0)
    for h, num, pi in terms:
        total += _unit(num - step * h, D, backend) * pi
    return total


def h_sum(spec, n, kappa, ell, k, backend):
    """Sum over admissible h of e^{-2 pi i n h / k} phase_{h,k} Pi_{h,k}."""
    return sum_terms(h_terms(spec, kappa, ell, k, backend),
                     6 * spec.L * n, 3 * spec.L * k, backend)

"""Test oracles: reference forms that no command or package function runs.

Each is a direct, slow or classical form of something the package
computes another way, kept here so the tests can check the fast path
against it:

- :func:`sawtooth` and :func:`dedekind_sum`, the O(c) definition of the
  Dedekind sum that `arith.dedekind_sum_fast` and
  `arith.inverse_dedekind6` are checked against;
- :func:`delta_arc`, the arc exponent Delta(kappa, ell) as a ``Fraction``
  from the cell numerator of `asymptotics._cell_nums`;
- :func:`apply_factor`, one binomial (1 - q^t) at a time, the stride
  route the expander is checked against, and :func:`series_from_json`,
  the reader of the CLI's ``expand --format json`` output;
- :class:`ModularMatrix`, :func:`chi`, :func:`eval_eta` and
  :func:`eval_theta`, the eta and theta machinery of the classical
  transformation laws that criterion 3 checks beside the arc
  transformation of `transform.check_main_transform`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from qprodasym._backend import get_backend
from qprodasym.arith import inverse_dedekind6
from qprodasym.asymptotics import _cell_nums, _unit
from qprodasym.qseries import CoeffSeries, ProductSpec, _Record
from qprodasym.transform import _require_tail, _tail_start


# ---------------------------------------------------------------------------
# Dedekind sums
# ---------------------------------------------------------------------------

def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2 off the integers, 0 on them."""
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum(d: int, c: int) -> Fraction:
    """Dedekind sum s(d, c) by the direct O(c) sawtooth sum.

    Requires c >= 1 and gcd(d, c) = 1.
    """
    if c < 1:
        raise ValueError("c must be a positive integer")
    if math.gcd(d, c) != 1:
        raise ValueError("need gcd(d, c) = 1")
    total = Fraction(0)
    for n in range(1, c):
        total += sawtooth(Fraction(d * n, c)) * sawtooth(Fraction(n, c))
    return total


# ---------------------------------------------------------------------------
# arc exponent
# ---------------------------------------------------------------------------

def delta_arc(spec: ProductSpec, kappa: int, ell: int) -> Fraction:
    """Exact arc exponent Delta(kappa, ell); positive on major arcs.

    Delta = -sum_j delta_j (2 g^2 + 12 g^2 (lambda*^2 - lambda*)) / m_j with
    g = gcd(m_j, ell).  Since g lambda*_j = (-r_j kappa) mod g = a, each
    term is the integer 2 g^2 + 12 a (a - g) over m_j, a divisor of L.
    """
    if not 0 <= kappa < ell:
        raise ValueError("need 0 <= kappa < ell")
    return Fraction(_cell_nums(spec, kappa, ell)[0], spec.L)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def apply_factor(series: CoeffSeries, t: int, direction: str = "multiply") -> CoeffSeries:
    """Multiply or divide a series by (1 - q^t), truncation order unchanged."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    c = list(series.coeffs)
    if direction == "multiply":
        # c[n] -= c[n - t], top-down so c[n - t] is still the old value
        for n in range(len(c) - 1, t - 1, -1):
            c[n] -= c[n - t]
    elif direction == "divide":
        # prefix sum with stride t
        for n in range(t, len(c)):
            c[n] += c[n - t]
    else:
        raise ValueError("direction must be 'multiply' or 'divide'")
    return CoeffSeries(c)


def series_from_json(text: str) -> CoeffSeries:
    doc = json.loads(text)
    coeffs = [int(s) for s in doc["coefficients"]]
    if len(coeffs) != doc["truncation_order"] + 1:
        raise ValueError("inconsistent JSON series document")
    return CoeffSeries(coeffs)


# ---------------------------------------------------------------------------
# eta and theta
# ---------------------------------------------------------------------------

class ModularMatrix(_Record):
    """An SL2(Z) matrix (a, b; c, d); transformations assume c > 0."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def mobius(self, tau):
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def mobius_star(self, tau):
        return 1 / (self.c * tau + self.d)


def eval_eta(tau, terms: int, precision: str = "double"):
    """Dedekind eta: q^{1/24} prod_{k>=1} (1 - q^k), q = e^{2 pi i tau}.

    The product stops once the tail bound |q|^k / (1 - |q|) falls below
    the backend's eps; `terms` caps the factors, and a ValueError names
    the count needed when the cap is too small.
    """
    B = get_backend(precision)
    tau = B.native(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    q = B.exp(2j * B.pi * tau)
    value = B.exp(2j * B.pi * tau / 24)
    tail, absq = _tail_start(abs(q), q)
    qk = q
    for _ in range(terms):
        if tail < B.eps:
            return value
        value *= 1 - qk
        qk *= q
        tail *= absq
    _require_tail(tail, absq, terms, B)
    return value


def eval_theta(sigma, tau, terms: int, precision: str = "double"):
    """Half-integer-index theta sum over nu = +-1/2, +-3/2, ..., |nu| <= terms + 1/2."""
    B = get_backend(precision)
    sigma = B.native(sigma)
    tau = B.native(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    total = B.native(0)
    half = B.ratio(1, 2)
    for t in range(terms + 1):
        for nu in (t + half, -(t + half)):
            total += B.exp(2j * B.pi * nu * (sigma + half)
                           + 1j * B.pi * nu * nu * tau)
    return total


def chi(gamma: ModularMatrix, precision: str = "double"):
    """The eta multiplier e^{pi i ((a+d)/12c - s(d,c) - 1/4)} for c > 0.

    With S = 6c s(d, c) from the Euclid pass of
    :func:`arith.inverse_dedekind6`, the one the main sum uses, the
    exponent is the integer (a + d - 2S - 3c) over 12c, reduced mod 2
    before exponentiation.
    """
    if gamma.c <= 0:
        raise ValueError("need c > 0")
    S = inverse_dedekind6(gamma.d, gamma.c)[1]
    return _unit(gamma.a + gamma.d - 2 * S - 3 * gamma.c, 12 * gamma.c,
                 get_backend(precision))

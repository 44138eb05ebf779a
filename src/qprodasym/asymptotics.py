"""Machinery of the truncated Bessel-series approximation for g(n).

Covers the auxiliary arc quantities (ceiling offsets, fractional
complements, modular inverses, quadratic growth exponents), the residue
classification of Farey arcs, the hypothesis inequality, exact phase
assembly (integer numerators over one denominator per arc), modified
Bessel evaluation in log space, and the truncated main-term sum itself.

The main sum makes one kernel pass per Farey level k over its admissible
h, shared by every n of a query, and with the default truncation stops
once a bound on the levels it omits is below 2^-60 of its largest term.
Delta and the hypothesis bound come
from the divisor-cell table the spec builds once, as `spec.arcs`;
nothing else is cached across calls, so memory does not grow with n or
with the number of calls.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Iterator

from ._backend import DOUBLE
from .arith import gcd0, hbar, inverse_dedekind6
from .qseries import ProductSpec, _Record


class HypothesisError(ValueError):
    """Raised when a hypothesis of the asymptotic formula fails (the
    assumption inequality, n out of the admissible range, or no major arcs)."""


# ---------------------------------------------------------------------------
# auxiliary arc quantities
# ---------------------------------------------------------------------------

def lambda_int(m: int, r: int, h: int, k: int) -> int:
    """ceil(r*h / gcd(m, k))."""
    d = gcd0(m, k)
    return -((-r * h) // d)


def lambda_star(m: int, r: int, h: int, k: int) -> Fraction:
    """Fractional complement lambda - r*h/gcd(m, k), in [0, 1)."""
    d = gcd0(m, k)
    return lambda_int(m, r, h, k) - Fraction(r * h, d)


def _delta_num(spec: ProductSpec, kappa: int, ell: int) -> int:
    """L * Delta(kappa, ell), an integer; see :func:`delta_arc`."""
    L = spec.L
    num = 0
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        g = math.gcd(m, ell)
        a = -r * kappa % g
        num += d * (L // m) * (2 * g * g + 12 * a * (a - g))
    return -num


def delta_arc(spec: ProductSpec, kappa: int, ell: int) -> Fraction:
    """Exact arc exponent Delta(kappa, ell); positive on major arcs.

    Delta = -sum_j delta_j (2 g^2 + 12 g^2 (lambda*^2 - lambda*)) / m_j with
    g = gcd(m_j, ell).  Since g lambda*_j = (-r_j kappa) mod g = a, each
    term is the integer 2 g^2 + 12 a (a - g) over m_j, a divisor of L.
    """
    if not 0 <= kappa < ell:
        raise ValueError("need 0 <= kappa < ell")
    return Fraction(_delta_num(spec, kappa, ell), spec.L)


class ArcClass(_Record):
    """A residue class (kappa, ell) of Farey fractions, with its Delta."""

    kappa: int
    ell: int
    delta_value: Fraction


def _bound_num(spec: ProductSpec, kappa: int, ell: int) -> int:
    """L * min_j Upsilon(lambda*_j) * gcd(m_j, ell)^2 / m_j, an integer.

    With g = gcd(m_j, ell) and a = g lambda*_j, the j-th value is g^2 / m_j
    at a = 0 and g min(a, g - a) / m_j otherwise.
    """
    L = spec.L
    values = []
    for m, r in zip(spec.m, spec.r):
        g = math.gcd(m, ell)
        a = -r * kappa % g
        values.append((L // m) * g * (min(a, g - a) if a else g))
    return min(values)


# the most divisor cells sigma(L) a spec may have: building them takes
# about 1 s at this size (2-core host, Python 3.11)
_MAX_CELLS = 150_000


def _divisors(spec: ProductSpec) -> list[int]:
    """The divisors of L, increasing, from the prime powers of the m_j.

    ValueError if sigma(L) exceeds `_MAX_CELLS`.  sigma(L) is the product
    of (p^(e+1) - 1)/(p - 1) over the prime powers p^e of L, so it is
    known before any divisor is listed; a modulus m_j >= `_MAX_CELLS` is
    refused before it is factored, since sigma(L) > L >= m_j.
    """
    L = spec.L
    powers: dict[int, int] = {}
    for m in spec.m:
        if m >= _MAX_CELLS:
            raise ValueError(f"L = {L} has sigma(L) > L divisor cells, "
                             f"more than the limit of {_MAX_CELLS}")
        p = 2
        while p * p <= m:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                powers[p] = max(powers.get(p, 0), e)
            p += 1
        if m > 1:
            powers[m] = max(powers.get(m, 0), 1)
    sigma = math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in powers.items())
    if sigma > _MAX_CELLS:
        raise ValueError(f"L = {L} has sigma(L) = {sigma} divisor cells, "
                         f"more than the limit of {_MAX_CELLS}")
    divisors = [1]
    for p, e in powers.items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def _arc_table(spec: ProductSpec) -> dict[int, list[tuple[int, int]]]:
    """L * Delta and L * the hypothesis bound on the sigma(L) divisor cells of L.

    Both depend on a class (kappa, ell) only through D = gcd(ell, L) and
    kappa mod D: m_j | L gives gcd(m_j, ell) = gcd(m_j, D), and lambda*_j
    depends on kappa mod gcd(m_j, ell), a divisor of D.  So
    table[D][c] = (L Delta(c, D), L bound(c, D)), integers, for 0 <= c < D
    stands for every class with gcd(ell, L) = D and kappa = c (mod D).
    ValueError if sigma(L) exceeds `_MAX_CELLS` (see :func:`_divisors`).
    """
    return {D: [(_delta_num(spec, c, D), _bound_num(spec, c, D)) for c in range(D)]
            for D in _divisors(spec)}


def _major_classes(spec: ProductSpec, ell: int) -> list[tuple[int, int]]:
    """(kappa, L Delta) of the classes of level ell in the positive cells
    of `spec.arcs`, cell by cell."""
    D = math.gcd(ell, spec.L)
    return [(kappa, dn) for c, (dn, _) in enumerate(spec.arcs[D]) if dn > 0
            for kappa in range(c, ell, D)]


def _classes(spec: ProductSpec) -> Iterator[tuple[int, int, int]]:
    """Yield (kappa, ell, L Delta) for every class (kappa, ell),
    1 <= ell <= L and 0 <= kappa < ell, ordered by ell, then kappa."""
    L = spec.L
    for ell in range(1, L + 1):
        cells = spec.arcs[math.gcd(ell, L)]
        D = len(cells)
        for kappa in range(ell):
            yield kappa, ell, cells[kappa % D][0]


def classify_arcs(spec: ProductSpec) -> tuple[list[ArcClass], list[ArcClass]]:
    """Partition {(kappa, ell) : 1 <= ell <= L, 0 <= kappa < ell} by sign of Delta.

    Returns (positive, nonpositive), each ordered by ell, then kappa; ties
    Delta = 0 go to the nonpositive set.  Delta is read off the divisor
    cells of `spec.arcs`.
    """
    L = spec.L
    positive: list[ArcClass] = []
    nonpositive: list[ArcClass] = []
    deltas = {dn: Fraction(dn, L) for cells in spec.arcs.values() for dn, _ in cells}
    for kappa, ell, dn in _classes(spec):
        (positive if dn > 0 else nonpositive).append(ArcClass(kappa, ell, deltas[dn]))
    return positive, nonpositive


def _failing_cells(spec: ProductSpec) -> dict[int, list[int]]:
    """The cells c of `spec.arcs[D]` that fail the hypothesis inequality,
    for each divisor D of L that has one."""
    return {D: bad for D, cells in spec.arcs.items()
            if (bad := [c for c, (dn, bn) in enumerate(cells) if 24 * bn < dn])}


def _violations(spec: ProductSpec,
                failing: dict[int, list[int]]) -> Iterator[tuple[int, int]]:
    """Yield the classes (kappa, ell) of the `failing` cells by ell, then kappa."""
    L = spec.L
    for ell in range(1, L + 1):
        D = math.gcd(ell, L)
        cells = failing.get(D)
        if cells:
            # the classes kappa < ell in the cells c + D Z
            yield from ((j + c, ell) for j in range(0, ell, D) for c in cells)


def check_assumption(spec: ProductSpec) -> tuple[bool, list[tuple[int, int]]]:
    """Verify the hypothesis inequality on every residue class, exactly.

    For each (kappa, ell) the minimum over j of
    Upsilon(lambda*_j) * gcd(m_j, ell)^2 / m_j must be at least
    Delta(kappa, ell) / 24.  Returns (ok, violations), the violations
    ordered by ell, then kappa; each divisor cell of `spec.arcs` is
    checked once.
    """
    violations = list(_violations(spec, _failing_cells(spec)))
    return not violations, violations


# ---------------------------------------------------------------------------
# exact phases
# ---------------------------------------------------------------------------

def _unit(num: int, den: int, backend=DOUBLE):
    """e^{i pi num/den}; num/den is reduced to (-1, 1] before exponentiating
    to keep the argument small, and converted by one rounded division."""
    num %= 2 * den
    if num > den:
        num -= 2 * den
    return backend.exp(1j * backend.pi * backend.ratio(num, den))


def _pi_value(factors):
    """Pi_{h,k} from its (x numerator, x denominator, delta) factors 1 - e^{2 pi i x}."""
    value = complex(1)
    turn = 2j * math.pi
    for x, den, d in factors:
        f = 1 - cmath.exp(turn * (x / den))
        if f == 0:
            raise AssertionError("vanishing Pi factor; exponent should be a noninteger")
        value *= f ** d
    return value


class ArcDatum(_Record):
    """All exact per-arc data entering one term of the main sum."""

    h: int
    k: int
    lambdas: tuple[int, ...]
    lambda_stars: tuple[Fraction, ...]
    hbars: tuple[int, ...]
    phase: Fraction               # t in [0, 2): (-1)^{sum delta*lambda} omega^2 D = e^{i pi t}
    pi_exponents: tuple[tuple[Fraction, int], ...]  # (x mod 1, delta) factors of Pi

    def pi_value(self):
        """Pi_{h,k} as a complex number; each factor is 1 - e^{2 pi i x}."""
        return _pi_value(tuple((x.numerator, x.denominator, d)
                               for x, d in self.pi_exponents))


def _arc_kernel(spec: ProductSpec, k: int, hs: Iterable[int],
                hbars: tuple[int, ...] | None = None):
    """Integer form of the combined phase and the Pi factors of the arcs h/k.

    Returns [(h, num, pi)] for h in `hs`, in order.  The phase exponent is
    num / D (mod 2) with D = 3 L k and 0 <= num < 2D: the parity term
    sum_j delta_j lambda_j, twice the omega exponent and the D exponent
    are each an integer over D, because m_j | L and 6c s(d, c) is an
    integer.  `pi` lists each factor 1 - e^{2 pi i x} of Pi as
    (x numerator in (0, m_j k), m_j k, delta_j).  Every h must be coprime
    to k.  `hbars`, when given for a single h, replaces the canonical
    modular inverses and is validated.

    This is the one place the integer phase formula lives.  What depends
    on (j, k) only is computed once: g = gcd(m_j, k), k/g, m_j/g and the
    integer coefficients below.  hbar and S = 6 (k/g) s(m h/g, k/g) depend
    on m_j, not on r_j, so one Euclid pass per distinct modulus and h gives
    both (with `hbars`, each factor keeps its own pass).  Since
    gcd(h, g) = 1, lambda*_j = 0 (a Pi factor) exactly when g divides r_j,
    whatever h is.
    """
    L = spec.L
    D = 3 * L * k
    D2 = 2 * D
    # D times the exponent: per factor, lambda (the parity term), then the
    # D exponent r h/k - r g/(m k) + 2 r g lambda*/(m k)
    # + hbar g (lambda^2 - lambda)/k, then twice the omega exponent,
    # -2 s(m h/g, k/g) = -L g S / D
    index = {}                      # Euclid pass key -> position in groups
    groups = []                     # [m/g, k/g, L g sum(delta), hbar override]
    factors = []
    const = slope = 0               # the parts constant and linear in h
    for j, (m, r, d) in enumerate(zip(spec.m, spec.r, spec.delta)):
        g = math.gcd(m, k)
        key = m if hbars is None else j
        i = index.get(key)
        if i is None:
            i = index[key] = len(groups)
            groups.append([m // g, k // g, 0, None if hbars is None else hbars[j]])
        groups[i][2] += d * L * g
        a = 3 * L // m
        const -= d * a * r * g
        slope += d * 3 * L * r
        factors.append((i, r, g, d * D, 2 * d * a * r, d * 3 * L * g,
                        (r * g, r * m, m * k, d) if r % g == 0 else None))
    out = []
    for h in hs:
        num = const + slope * h
        hbs = []
        for mg, kp, cS, over in groups:
            inv, S = inverse_dedekind6(mg * h, kp)
            num -= cS * S
            if over is None:
                hbs.append(-inv % kp)
            elif (over * mg * h + 1) % kp == 0:
                hbs.append(over)
            else:
                raise ValueError(f"invalid hbar override for factor {len(hbs)}")
        pi = []
        for i, r, g, cl, cs, chb, pif in factors:
            hb = hbs[i]
            gls = -r * h % g                    # g * lambda*, in [0, g)
            lam = (r * h + gls) // g
            num += cl * lam + cs * gls + chb * hb * (lam * lam - lam)
            if pif is not None:
                rg, rm, mk, d = pif
                x = (rg + rm * hb * h) % mk
                if x == 0:
                    raise AssertionError("Pi exponent is an integer; contradicts arc preconditions")
                pi.append((x, mk, d))
        out.append((h, num % D2, tuple(pi)))
    return out


def _arc_phase(spec: ProductSpec, h: int, k: int,
               hbars: tuple[int, ...] | None = None):
    """(num, pi) of :func:`_arc_kernel` for the single arc h/k."""
    if k < 1 or not 0 <= h < k or math.gcd(h, k) != 1:
        raise ValueError("need 0 <= h < k with gcd(h, k) = 1")
    _, num, pi = _arc_kernel(spec, k, (h,), hbars)[0]
    return num, pi


def arc_datum(spec: ProductSpec, h: int, k: int,
              hbars: tuple[int, ...] | None = None) -> ArcDatum:
    """Assemble lambda/hbar data and the exact combined phase for one arc.

    The phase exponent combines, exactly and mod 2, the parity term
    sum_j delta_j lambda_j, twice the omega exponent, and the D exponent;
    Pi is kept as exact exponents of its 1 - e^{2 pi i x} factors.  Both
    are the rational forms of the integer data of the main sum.

    `hbars`, when given, overrides the canonical modular inverses; any
    valid choice (shifts by multiples of k/gcd(m_j, k)) leaves the phase
    and Pi unchanged.
    """
    # without an override the kernel takes its modulus-grouped path, the
    # one the main sum runs
    num, pi = _arc_phase(spec, h, k, hbars)
    if hbars is None:
        hbars = [hbar(m, h, k) for m in spec.m]
    return ArcDatum(h, k,
                    tuple(lambda_int(m, r, h, k) for m, r in zip(spec.m, spec.r)),
                    tuple(lambda_star(m, r, h, k) for m, r in zip(spec.m, spec.r)),
                    tuple(hbars),
                    Fraction(num, 3 * spec.L * k),
                    tuple((Fraction(x, den), d) for x, den, d in pi))


# ---------------------------------------------------------------------------
# log-space complex values and the Bessel factor
# ---------------------------------------------------------------------------

class LogComplex(_Record):
    """(log-magnitude, argument) pair; overflow-safe product/sum arithmetic."""

    log_mag: float
    arg: float

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        return cls(*_polar(complex(z)))

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        return LogComplex(*_times((self.log_mag, self.arg), (other.log_mag, other.arg)))

    def to_complex(self) -> complex:
        return cmath.rect(math.exp(self.log_mag), self.arg)

    @property
    def real_sign(self) -> int:
        c = math.cos(self.arg)
        if self.log_mag == float("-inf") or c == 0:
            return 0
        return 1 if c > 0 else -1

    def log_abs_real(self) -> float:
        """log |Re(value)|."""
        return self.log_mag + math.log(abs(math.cos(self.arg)))

    def imag_over_real(self) -> float:
        return abs(math.tan(self.arg))


def _polar(z: complex) -> tuple[float, float]:
    """(log |z|, arg z), with arg z in [-pi, pi]; (-inf, 0) at z = 0."""
    if z == 0:
        return float("-inf"), 0.0
    return math.log(abs(z)), cmath.phase(z)


def _times(a, b) -> tuple[float, float]:
    """Product of (log-magnitude, argument) pairs, argument in [-pi, pi]."""
    return a[0] + b[0], math.remainder(a[1] + b[1], 2 * math.pi)


def logc_sum(terms: Iterable[tuple[float, float]]) -> LogComplex:
    """Sum of (log-magnitude, argument) pairs by max-factoring with
    compensated summation."""
    terms = [t for t in terms if t[0] != float("-inf")]
    if not terms:
        return LogComplex(float("-inf"), 0.0)
    top = max(lm for lm, _ in terms)
    re, im = [], []
    for lm, arg in terms:
        a = math.exp(lm - top)
        re.append(a * math.cos(arg))
        im.append(a * math.sin(arg))
    lm, arg = _polar(complex(math.fsum(re), math.fsum(im)))
    return LogComplex(top + lm, arg)


_BESSEL_SPLIT = 25.0


def _bessel_i1_series_log(x):
    # ascending series: I_1(x) = sum_{t>=0} (x/2)^{2t+1} / (t! (t+1)!)
    half = x / 2
    term = half
    total = term
    t = 1
    while True:
        term = term * half * half / (t * (t + 1))
        total += term
        t += 1
        if term < total * 1e-18:
            break
    return math.log(total)


def _bessel_i1_asym_log(x):
    # exponentially scaled expansion around e^x / sqrt(2 pi x); the
    # correction terms use 4 s^2 = 4 for order s = -1 (equivalently 1).
    min_terms = 6
    term = 1.0
    total = term
    k = 1
    while True:
        factor = ((2 * k - 1) ** 2 - 4) / (8 * x * k)
        nxt = term * factor
        if k > min_terms and abs(nxt) >= abs(term):
            break  # past the optimal truncation point
        term = nxt
        total += term
        k += 1
        if abs(term) < 1e-18 * abs(total) and k > min_terms:
            break
    return x + math.log(total) - math.log(2 * math.pi * x) / 2


def bessel_I_minus1(x: float) -> LogComplex:
    """I_{-1}(x) = I_1(x) for x > 0, in log-magnitude form.

    Ascending series for x <= 25, exponentially scaled asymptotic
    expansion beyond; the two branches overlap consistently on [20, 30].
    """
    if x <= 0:
        raise ValueError("x must be positive")
    return LogComplex(_log_i1(float(x)), 0.0)


def _log_i1(x: float) -> float:
    """log I_1(x) for x > 0, by the branch :func:`bessel_I_minus1` names."""
    if x <= _BESSEL_SPLIT:
        return _bessel_i1_series_log(x)
    return _bessel_i1_asym_log(x)


# ---------------------------------------------------------------------------
# the truncated main-term sum
# ---------------------------------------------------------------------------

def default_K(spec: ProductSpec, n: int) -> int:
    """Truncation bound max(1, floor(sqrt(2 pi (n + Omega/24)))) for the k-sum."""
    return max(1, math.floor(math.sqrt(2 * math.pi * float(n + spec.omega / 24))))


def _paired_kernel(spec: ProductSpec, k: int, hs: list[int]) -> list:
    """:func:`_arc_kernel` over `hs`, a set closed under h -> k - h with
    k > 2, running the kernel on the h < k/2 and one partner only.

    Pi_{k-h,k} has the factors of Pi_{h,k}, and num(k - h) = C_k - num(h)
    (mod 6 L k) with one constant C_k per level, here read off the pair of
    the first h.  Both follow from the real coefficients of the product:
    the arc factor at -h/k is the complex conjugate of the one at h/k.
    Conjugation turns each Pi factor 1 - e^{2 pi i x} into 1 - e^{-2 pi i x},
    the factor of the arc -h/k, which is the arc (k - h)/k, and it negates
    the phase exponent; what the shift from -h to k - h adds to it depends
    on k only.
    """
    half = [h for h in hs if 2 * h < k]
    arcs = {h: (num, pi) for h, num, pi in _arc_kernel(spec, k, half + [k - half[0]])}
    C = arcs[half[0]][0] + arcs[k - half[0]][0]
    for h in half:
        arcs.setdefault(k - h, ((C - arcs[h][0]) % (6 * spec.L * k), arcs[h][1]))
    return [(h, *arcs[h]) for h in hs]


def _level_arcs(spec: ProductSpec, k: int, ell: int, kappas: Iterable[int]) -> list:
    """The exact arcs [(h, phase numerator, Pi factors)] of the classes
    (kappa, ell) of level k, for kappa in `kappas`.

    A class (kappa, ell) at k sums over the h coprime to k with
    h = kappa (mod ell); they lie in its divisor cell h = kappa (mod D),
    D = gcd(ell, L).  The level walks every h of the cells of `kappas`
    once, increasing within a cell, and runs one :func:`_arc_kernel` pass
    over them, so the output is integers only: num over 3 L k and the
    factor tuples of Pi.  When D divides k and the cells are closed under
    c -> -c (mod D), the h come in pairs {h, k - h}, and
    :func:`_paired_kernel` evaluates one of each.
    """
    D = math.gcd(ell, spec.L)
    cs = {kappa % D for kappa in kappas}
    hs = [h for c in sorted(cs) for h in range(c, k, D) if math.gcd(h, k) == 1]
    if hs and k > 2 and k % D == 0 and cs == {-c % D for c in cs}:
        return _paired_kernel(spec, k, hs)
    return _arc_kernel(spec, k, hs)


def _level_terms(spec: ProductSpec, k: int, ell: int, kappas: Iterable[int]) -> list:
    """:func:`_level_arcs` with Pi_{h,k} as a complex double.

    Pi does not depend on n, and it takes few values: m_j hbar h = -g
    (mod k) leaves at most g = gcd(m_j, k) exponents per factor and level.
    So each distinct factor tuple of the level is evaluated once by
    :func:`_pi_value`.
    """
    pis = {}
    terms = []
    for h, num, factors in _level_arcs(spec, k, ell, kappas):
        pi = pis.get(factors)
        if pi is None:
            pi = pis[factors] = _pi_value(factors)
        terms.append((h, num, pi))
    return terms


def _class_sums(spec: ProductSpec, n: int, k: int, ell: int, terms) -> dict:
    """Per class kappa = h mod ell, the sum of e^{-2 pi i n h / k}
    phase_{h,k} Pi_{h,k} over the :func:`_level_terms` `terms` of level
    (k, ell), in their order: the per-n stage of the main sum.

    -2 n h / k is -step h / D with step = 6 L n and D = 3 L k, so each
    exponent stays an integer over D, is reduced into (-D, D] and is
    converted by one rounded division, as in :func:`_unit`.  A class
    without admissible h has no entry.
    """
    exp = cmath.exp
    jpi = 1j * math.pi
    step = 6 * spec.L * n
    D = 3 * spec.L * k
    D2 = 2 * D
    sums = {}
    for h, num, pi in terms:
        t = (num - step * h) % D2
        if t > D:
            t -= D2
        kappa = h % ell
        sums[kappa] = sums.get(kappa, 0j) + exp(jpi * (t / D)) * pi
    return sums


def _require_range(spec: ProductSpec, n: int) -> None:
    if Fraction(n) <= -spec.omega / 24:
        raise HypothesisError(f"n = {n} violates n > -Omega/24 = {-spec.omega / 24}")


def _require_assumption(spec: ProductSpec) -> None:
    """Raise HypothesisError where the hypothesis inequality fails, naming
    the number of failing classes and the first ten of them."""
    failing = _failing_cells(spec)
    if failing:
        L = spec.L
        # cell c of D stands for ell/D = t classes at each ell = D t <= L
        # with gcd(ell, L) = D, that is gcd(t, L/D) = 1
        count = sum(len(bad) * sum(t for t in range(1, L // D + 1)
                                   if math.gcd(t, L // D) == 1)
                    for D, bad in failing.items())
        shown = list(islice(_violations(spec, failing), 10))
        first = f", the first {len(shown)}" if len(shown) < count else ""
        raise HypothesisError(f"hypothesis inequality fails at "
                              f"{count} classes{first}: {shown}")


# the n whose terms are held at once (about 43 KB each for TG at K = 158)
_BLOCK = 256
# log 2^60: the default k-sum at n stops once a bound on its omitted terms
# is below 2^-60 times its largest term, far under the rounding of the sum
_BUDGET = 60 * math.log(2)


def _pi_log_bound(spec: ProductSpec) -> float:
    """log B, B = prod_j max(1, 2^delta_j if delta_j > 0, else (2 sin(pi/m_j))^delta_j).

    Each Pi factor is 1 - e^{2 pi i t/m_j} with 0 < t < m_j (its numerator
    over m_j k is a nonzero multiple of k), of modulus between
    2 sin(pi/m_j) and 2, or absent.  So |Pi_{h,k}| <= B on every arc, and
    the h-sum of a class of level ell has modulus at most ceil(k/ell) B.
    """
    return sum(max(0.0, d * math.log(2 if d > 0 else 2 * math.sin(math.pi / m)))
               for m, d in zip(spec.m, spec.delta))


def _tail_groups(spec: ProductSpec) -> list[tuple[float, int]]:
    """(Delta, least D) per Delta of the live major-arc cells (D, c) of
    `spec.arcs`, those with gcd(c, D) = 1.

    In any other cell g = gcd(c, D) > 1 divides kappa, ell and L for each
    class, so it divides every level k = ell (mod L) and every
    h = kappa (mod ell): the class never has an admissible h.  A class of
    cell (D, c) has ell >= D, and so have its levels.
    """
    least: dict[int, int] = {}
    for D, cells in spec.arcs.items():         # D increasing
        for c, (dn, _) in enumerate(cells):
            if dn > 0 and math.gcd(c, D) == 1:
                least.setdefault(dn, D)
    return [(dn / spec.L, D) for dn, D in least.items()]


def _tail_bound(groups, log_b: float, w: float, k: int, K: int) -> float:
    """log of a bound on the sum of the terms of the levels k' with
    k < k' <= K, for the `groups` of :func:`_tail_groups` and
    log_b = :func:`_pi_log_bound`.

    Level k' has at most ell <= k' classes, each with at most
    ceil(k'/ell) <= k'/ell + 1 admissible h.  So the terms of one Delta
    at k' add up to at most (2 pi/k') sqrt(Delta/w) I_1(x/k') B (k' + ell)
    <= 4 pi sqrt(Delta/w) B I_1(x/k'), x = pi sqrt(Delta w)/6, and I_1
    increases, while k' >= max(k + 1, least D).  The bound is doubled to
    cover the rounding of its own evaluation.
    """
    logs = [math.log(8 * math.pi * (K - k) * math.sqrt(dv / w)) + log_b
            + _log_i1(math.pi * math.sqrt(dv * w) / (6 * max(k + 1, D)))
            for dv, D in groups]
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _main_sums(spec: ProductSpec, ns, K: int | None = None,
               members: list[tuple[int, int, int]] | None = None) -> list[LogComplex]:
    """The truncated main-term sum at each n of `ns`, in order.

    Without `members`, the sum at n runs over every major-arc class and
    every level k <= K(n) congruent to the class level mod L, with K(n)
    = K >= 1 or :func:`default_K`; with them, over those (kappa, ell, k)
    at every n.  Every n, the hypothesis inequality and then each member
    are checked before anything is summed.  Classes with
    gcd(kappa, ell, k) > 1 have no admissible h and are skipped.  If some
    K(n) stops below the first level with a member, the sum is empty and
    ValueError names that level.

    Both forms give the levels as ((k, ell), [(kappa, L Delta)]): without
    `members` they are generated one at a time, upward from the first,
    and every level is visited, with or without classes; with them, they
    are the members grouped by level.  With the default K(n), the sum at
    n stops at a checkpoint k = 2 first, 4 first, ... once
    :func:`_tail_bound` of the levels it has left is below 2^-60 times its
    largest term, so it differs from the sum up to K(n) by at most that
    bound.  An explicit K or `members` sums every level.

    Levels are the outer loop and n the inner one: per block of
    `_BLOCK` n, one :func:`_level_terms` call runs each level's kernel
    once, then :func:`_class_sums` and the factor pref * I_{-1}(x), which
    depends on Delta and k only, run once per (Delta, k) for each n whose
    K(n) reaches k.  Terms are float (log-magnitude, argument) pairs, and
    only one block's terms are held, so memory does not grow with `ns`.
    """
    if K is not None and K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    for n in ns:
        _require_range(spec, n)
    _require_assumption(spec)
    L = spec.L
    stops = K is None and members is None       # the error budget applies
    if members is None:
        Ks = [K or default_K(spec, n) for n in ns]
        positive: dict[int, list[tuple[int, int]]] = {}     # ell -> _major_classes

        def level(k):
            """((k, ell), the (kappa, L Delta) of the members at level k)."""
            ell = (k - 1) % L + 1
            classes = positive.get(ell)
            if classes is None:
                classes = positive[ell] = _major_classes(spec, ell)
            g = math.gcd(ell, k)
            return (k, ell), [(kappa, dn) for kappa, dn in classes if math.gcd(kappa, g) == 1]

        # a class with a member at k = ell + jL has one at k = ell + L,
        # since gcd(ell, L) divides gcd(ell, ell + jL): look up to 2L
        first = next((k for k in range(1, 2 * L + 1) if level(k)[1]), None)
        if first is None:
            raise HypothesisError("no major-arc class has an admissible h at any level k")
        short = next((Kn for Kn in Ks if Kn < first), None)
        if short is not None:
            raise ValueError(f"the main sum is empty for K = {short}: "
                             f"its first term is at level k = {first}")
        if stops:
            groups, log_b = _tail_groups(spec), _pi_log_bound(spec)
        levels = lambda: map(level, count(first))
    else:
        Ks = [math.inf] * len(ns)
        grouped: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for kappa, ell, k in members:
            if not (0 <= kappa < ell <= L and k >= 1 and (k - ell) % L == 0):
                raise ValueError(f"member {(kappa, ell, k)} needs 0 <= kappa < ell <= "
                                 f"L = {L}, k >= 1 and k = ell (mod L)")
            D = math.gcd(ell, L)
            dn = spec.arcs[D][kappa % D][0]
            if dn <= 0:
                raise ValueError(f"class ({kappa}, {ell}) is not a major-arc class")
            grouped.setdefault((k, ell), []).append((kappa, dn))
        levels = grouped.items
    front = LogComplex.from_complex(_unit(sum(spec.delta), 2))
    out = []
    for b in range(0, len(ns), _BLOCK):
        # rows [n, K(n), w, terms]; a checkpoint lowers the K(n) of each
        # row whose omitted levels are within budget
        block = [[n, Kn, float(24 * n + spec.omega), []]
                 for n, Kn in zip(ns[b:b + _BLOCK], Ks[b:b + _BLOCK])]
        check = 2 * first if stops else 0           # 0: no checkpoint
        for (k, ell), classes in levels():
            if all(row[1] < k for row in block):
                break
            if classes:
                arcs = _level_terms(spec, k, ell, [kappa for kappa, _ in classes])
                for n, Kn, w, terms in block:
                    if k > Kn:
                        continue
                    sums = _class_sums(spec, n, k, ell, arcs)
                    bessels: dict[int, tuple[float, float]] = {}
                    for kappa, dn in classes:
                        hs = sums.get(kappa, 0)
                        if hs == 0:
                            continue
                        factor = bessels.get(dn)
                        if factor is None:
                            dv = dn / L
                            x = math.pi * math.sqrt(dv * w) / (6 * k)
                            factor = bessels[dn] = (math.log(2 * math.pi / k)
                                                    + 0.5 * math.log(dv / w)
                                                    + bessel_I_minus1(x).log_mag, 0.0)
                        terms.append(_times(factor, _polar(hs)))
            if k == check:
                check *= 2
                for row in block:
                    _, Kn, w, terms = row
                    if (Kn > k and terms and _tail_bound(groups, log_b, w, k, Kn)
                            < max(lm for lm, _ in terms) - _BUDGET):
                        row[1] = k
        out += [front * logc_sum(terms) for *_, terms in block]
    return out


def g_asymptotic_members(spec: ProductSpec, n: int,
                         members: Iterable[tuple[int, int, int]]) -> LogComplex:
    """The main-term sum restricted to explicit (kappa, ell, k) triples.

    `members` is iterated once.  Each (kappa, ell, k) must have
    0 <= kappa < ell <= L, k >= 1 and k = ell (mod L), and (kappa, ell)
    must be a major-arc class; both are checked after both hypotheses.
    See :func:`_main_sums`.
    """
    return _main_sums(spec, [n], members=list(members))[0]


def g_asymptotic(spec: ProductSpec, n: int, K: int | None = None) -> LogComplex:
    """Truncated Bessel-series approximation of g(n).

    Sums over every major-arc class and every k <= K congruent to the
    class level mod L, with K >= 1 defaulting to :func:`default_K`.  The
    result is a LogComplex whose imaginary part is pure numerical noise.
    The hypothesis inequality is checked on `spec.arcs` before the
    members of each level k, the classes in its positive cells, are
    generated from it.  Classes with gcd(kappa, ell, k) > 1 have no
    admissible h and are skipped.  If no level k <= K has a member, the
    sum is empty and ValueError names the first k that has one.  With the
    default K, the levels whose terms are bounded by 2^-60 of the largest
    one are left out (see :func:`_main_sums`); an explicit K sums them all.
    """
    return _main_sums(spec, [n], K)[0]

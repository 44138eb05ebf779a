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


class NoMajorArcsError(HypothesisError):
    """The positive-Delta class set is empty; no dominant term exists."""


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


def _cell_nums(spec: ProductSpec, kappa: int, ell: int) -> tuple[int, int]:
    """(L Delta(kappa, ell), L bound(kappa, ell)), integers.

    With g = gcd(m_j, ell) and a = g lambda*_j = (-r_j kappa) mod g, the
    j-th term of the arc exponent Delta = -sum_j delta_j (2 g^2 + 12 g^2
    (lambda*_j^2 - lambda*_j)) / m_j is the integer 2 g^2 + 12 a (a - g)
    over m_j, and bound = min_j Upsilon(lambda*_j) g^2 / m_j, whose j-th
    value is g^2 / m_j at a = 0 and g min(a, g - a) / m_j otherwise.
    m_j divides L, so both times L are integers.
    """
    L = spec.L
    delta, bounds = 0, []
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        g = math.gcd(m, ell)
        a = -r * kappa % g
        q = L // m
        delta -= d * q * (2 * g * g + 12 * a * (a - g))
        bounds.append(q * g * (min(a, g - a) if a else g))
    return delta, min(bounds)


class ArcClass(_Record):
    """A residue class (kappa, ell) of Farey fractions, with its Delta."""

    kappa: int
    ell: int
    delta_value: Fraction


# the most divisor cells sigma(L) a spec may have: the 145,152 cells of
# L = 36,960 with five moduli take about 0.4 s to build (2-core host,
# Python 3.11)
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
    return {D: [_cell_nums(spec, c, D) for c in range(D)] for D in _divisors(spec)}


def _live_cells(spec: ProductSpec) -> dict[int, dict[int, int]]:
    """{D: {c: L Delta}} over the live major-arc cells (D, c) of
    `spec.arcs`, those with L Delta > 0 and gcd(c, D) = 1, D increasing.

    Every level k of a class of cell (D, c) has D | k, since D divides
    ell, L and k = ell (mod L).  So g = gcd(c, D) > 1 divides k and each
    h = c (mod D): no class of the cell has an admissible h.  A live cell
    has one at every level, as h -> h mod D maps the units mod k onto the
    units mod D; at k = D it is the least level, since ell >= D.
    Raises NoMajorArcsError if no cell is positive and HypothesisError if
    none is live: either way the main sum has no term.
    """
    live = {D: row for D, cells in spec.arcs.items()
            if (row := {c: dn for c, (dn, _) in enumerate(cells)
                        if dn > 0 and math.gcd(c, D) == 1})}
    if not live:
        if all(dn <= 0 for cells in spec.arcs.values() for dn, _ in cells):
            raise NoMajorArcsError("no major-arc class: every class has Delta <= 0")
        raise HypothesisError("no major-arc class has an admissible h at any level k")
    return live


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
    if k < 1 or not 0 <= h < k or math.gcd(h, k) != 1:
        raise ValueError("need 0 <= h < k with gcd(h, k) = 1")
    # without an override the kernel takes its modulus-grouped path, the
    # one the main sum runs
    _, num, pi = _arc_kernel(spec, k, (h,), hbars)[0]
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
        return LogComplex(self.log_mag + other.log_mag,
                          math.remainder(self.arg + other.arg, 2 * math.pi))

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
    # The terms shrink through k = 6 for x > 117/48 (callers pass x >= 20),
    # and a term below 1e-18 |total| is under half an ulp of the total, so
    # neither break needs a minimum number of terms.
    term = 1.0
    total = term
    k = 1
    while True:
        factor = ((2 * k - 1) ** 2 - 4) / (8 * x * k)
        nxt = term * factor
        if abs(nxt) >= abs(term):
            break  # past the optimal truncation point
        term = nxt
        total += term
        k += 1
        if abs(term) < 1e-18 * abs(total):
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


def _level_arcs(spec: ProductSpec, k: int, kappas: Iterable[int]) -> list:
    """The exact arcs [(h, phase numerator, Pi factors)] of the classes
    (kappa, ell) of level k, for kappa in `kappas`.

    A level fixes its classes' ell: a class enters only at the levels
    k = ell (mod L), so ell = (k - 1) mod L + 1, and D = gcd(ell, L)
    = gcd(k, L).  A class (kappa, ell) at k sums over the h coprime to k
    with h = kappa (mod ell); they lie in its divisor cell h = kappa
    (mod D).  So only the cells kappa mod D of `kappas` matter: the
    default main sum passes the residues c < D of its live cells (see
    :func:`_live_cells`), each a class of its own.  The level walks every
    h of those cells once, increasing within a cell, and runs one
    :func:`_arc_kernel` pass over them, so the output is integers only:
    num over 3 L k and the factor tuples of Pi.

    D = gcd(k, L) divides k, so when the cells are closed under c -> -c
    (mod D), the h come in pairs {h, k - h}; no test of D | k is needed,
    as only k is passed, never an ell of another level whose D might not
    divide k.  With k > 2 the kernel then runs on the
    h < k/2 and one partner only.  Pi_{k-h,k} has the factors of Pi_{h,k},
    and num(k - h) = C - num(h) (mod 6 L k) with one constant C per level,
    here read off the pair of the first h.  Both follow from the real
    coefficients of the product: the arc factor at -h/k is the complex
    conjugate of the one at h/k.  Conjugation turns each Pi factor
    1 - e^{2 pi i x} into 1 - e^{-2 pi i x}, the factor of the arc -h/k,
    which is the arc (k - h)/k, and it negates the phase exponent; what the
    shift from -h to k - h adds to it depends on k only.
    """
    D = math.gcd(k, spec.L)
    cs = {kappa % D for kappa in kappas}
    hs = [h for c in sorted(cs) for h in range(c, k, D) if math.gcd(h, k) == 1]
    if not (hs and k > 2 and cs == {-c % D for c in cs}):
        return _arc_kernel(spec, k, hs)
    half = [h for h in hs if 2 * h < k]
    arcs = {arc[0]: arc for arc in _arc_kernel(spec, k, half + [k - half[0]])}
    C = arcs[half[0]][1] + arcs[k - half[0]][1]
    for h in half[1:]:
        _, num, pi = arcs[h]
        arcs[k - h] = (k - h, (C - num) % (6 * spec.L * k), pi)
    return [arcs[h] for h in hs]


def _level_terms(spec: ProductSpec, k: int, kappas: Iterable[int]) -> list:
    """:func:`_level_arcs` with Pi_{h,k} as a complex double.

    Pi does not depend on n, and it takes few values: m_j hbar h = -g
    (mod k) leaves at most g = gcd(m_j, k) exponents per factor and level.
    So each distinct factor tuple of the level is evaluated once by
    :func:`_pi_value`, in one pass before the terms are built.
    """
    arcs = _level_arcs(spec, k, kappas)
    pis = {f: _pi_value(f) for f in {f for _, _, f in arcs}}
    return [(h, num, pis[f]) for h, num, f in arcs]


def _class_sums(spec: ProductSpec, n: int, k: int, terms) -> dict:
    """Per class kappa = h mod ell, the sum of e^{-2 pi i n h / k}
    phase_{h,k} Pi_{h,k} over the :func:`_level_terms` `terms` of level
    k, in their order: the per-n stage of the main sum.  The level fixes
    ell = (k - 1) mod L + 1, as in :func:`_level_arcs`.

    -2 n h / k is -step h / D with step = 6 L n and D = 3 L k, so each
    exponent stays an integer over D, is reduced into (-D, D] and is
    converted by one rounded division, as in :func:`_unit`.  A class
    without admissible h has no entry.
    """
    exp = cmath.exp
    jpi = 1j * math.pi
    ell = (k - 1) % spec.L + 1
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


def _tail_groups(spec: ProductSpec, live: dict[int, dict[int, int]]) -> list[tuple[float, int]]:
    """(Delta, least D) per Delta of the :func:`_live_cells` `live`; the
    other cells never have an admissible h.  A class of cell (D, c) has
    ell >= D, and so have its levels."""
    least: dict[int, int] = {}
    for D, cells in live.items():              # D increasing
        for dn in cells.values():
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
    at every n.  Every n, the hypothesis inequality, the live cells
    (:func:`_live_cells`, which raises when there are none) and then each
    member are checked before anything is summed.  If some K(n) stops
    below the first level with a term, the sum is empty and ValueError
    names that level.

    Both forms give the levels as (k, kappas), with ell = (k - 1) mod L + 1
    and D = gcd(k, L) = gcd(ell, L).  Without `members` they are generated
    one at a time, upward from the first, the least D with a live cell,
    and every level is visited, with or without classes; `kappas` are the
    residues c < D of the live cells of D, and every class the level pass
    finds in them is summed.  With them, they are the members grouped by
    level, and only the members are summed, each as often as listed.  Each
    class takes its L Delta from its live cell.  With the default K(n),
    the sum at n stops at a checkpoint k = 2 first, 4 first, ... once
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
    bound = -spec.omega / 24
    for n in ns:
        if n <= bound:
            raise HypothesisError(f"n = {n} violates n > -Omega/24 = {bound}")
    _require_assumption(spec)
    live = _live_cells(spec)
    L = spec.L
    if members is None:
        Ks = [K or default_K(spec, n) for n in ns]
        first = min(live)
        short = next((Kn for Kn in Ks if Kn < first), None)
        if short is not None:
            raise ValueError(f"the main sum is empty for K = {short}: "
                             f"its first term is at level k = {first}")
        groups, log_b = _tail_groups(spec, live), _pi_log_bound(spec)
        # gcd(ell, L) = gcd(k, L), as k = ell (mod L)
        levels = lambda: ((k, live.get(math.gcd(k, L))) for k in count(first))
    else:
        Ks = [math.inf] * len(ns)
        grouped: dict[int, list[int]] = {}              # k -> kappas
        for kappa, ell, k in members:
            if not (0 <= kappa < ell <= L and k >= 1 and (k - ell) % L == 0):
                raise ValueError(f"member {(kappa, ell, k)} needs 0 <= kappa < ell <= "
                                 f"L = {L}, k >= 1 and k = ell (mod L)")
            D = math.gcd(ell, L)
            if spec.arcs[D][kappa % D][0] <= 0:
                raise ValueError(f"class ({kappa}, {ell}) is not a major-arc class")
            grouped.setdefault(k, []).append(kappa)
        levels = grouped.items
    front = LogComplex.from_complex(_unit(sum(spec.delta), 2))
    out = []
    for b in range(0, len(ns), _BLOCK):
        # rows [n, K(n), w, terms]; a checkpoint lowers the K(n) of each
        # row whose omitted levels are within budget
        block = [[n, Kn, float(24 * n + spec.omega), []]
                 for n, Kn in zip(ns[b:b + _BLOCK], Ks[b:b + _BLOCK])]
        # checkpoints for the error budget, default K only; 0: none
        check = 2 * first if K is None and members is None else 0
        for k, kappas in levels():
            if all(row[1] < k for row in block):
                break
            if kappas:
                D = math.gcd(k, L)
                cells = live.get(D)
                arcs = _level_terms(spec, k, kappas)
                for n, Kn, w, terms in block:
                    if k > Kn:
                        continue
                    sums = _class_sums(spec, n, k, arcs)
                    bessels: dict[int, float] = {}
                    for kappa in sums if members is None else kappas:
                        hs = sums.get(kappa, 0)
                        if hs == 0:
                            continue
                        dn = cells[kappa % D]
                        factor = bessels.get(dn)
                        if factor is None:
                            dv = dn / L
                            x = math.pi * math.sqrt(dv * w) / (6 * k)
                            factor = bessels[dn] = (math.log(2 * math.pi / k)
                                                    + 0.5 * math.log(dv / w)
                                                    + bessel_I_minus1(x).log_mag)
                        terms.append((factor + math.log(abs(hs)), cmath.phase(hs)))
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
    must be a major-arc class; both are checked after both hypotheses and
    after the check that some class has an admissible h.
    See :func:`_main_sums`.
    """
    return _main_sums(spec, [n], members=list(members))[0]


def g_asymptotic(spec: ProductSpec, n: int, K: int | None = None) -> LogComplex:
    """Truncated Bessel-series approximation of g(n).

    Sums over every major-arc class and every k <= K congruent to the
    class level mod L, with K >= 1 defaulting to :func:`default_K`.  The
    result is a LogComplex whose imaginary part is pure numerical noise.
    The hypothesis inequality is checked on `spec.arcs` before each level
    k sums the classes found in its live cells (:func:`_live_cells`); the
    other classes have no admissible h.  If no level k <= K has a term,
    the sum is empty and ValueError names the first k that has one.  With the
    default K, the levels whose terms are bounded by 2^-60 of the largest
    one are left out (see :func:`_main_sums`); an explicit K sums them all.
    """
    return _main_sums(spec, [n], K)[0]

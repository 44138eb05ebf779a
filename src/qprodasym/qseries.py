"""Exact truncated power-series expansion of the product

    prod_j (q^{r_j}, q^{m_j - r_j}; q^{m_j})_inf ^ {delta_j}

with arbitrary-precision integer coefficients, plus an independent
expansion oracle computed by a structurally different route.

The expander uses the Jacobi triple product: each factor
(q^r, q^{m-r}; q^m)_inf is the theta series T_{m,r} over Euler's
pentagonal series E_m = (q^m; q^m)_inf.  Both have t = O(sqrt(N/m))
terms up to q^N.  Positive powers are multiplied out first on one packed
integer (Kronecker substitution): slot n of B bits holds the coefficient
of q^n, so each unit of power costs t shift-and-adds of one (N+1)B-bit
integer.  The slot width B is 2 bits more than a bound on the final
coefficients, rounded up to whole bytes.  Negative powers then divide the
unpacked coefficient list, still O(N sqrt(N/m)) per unit, but as C-level
`zip`, `sum` and `list.extend` over one iterator per exponent that reads
the quotient as `extend` writes it.  Both replace O(N^2/m) per unit for
applying every binomial (1 - q^e) in turn, the route the tests keep as a
second oracle.
"""

from __future__ import annotations

import functools
import math
from itertools import islice, repeat
from operator import attrgetter, mul, sub
from typing import Sequence


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields as class annotations, in order; a class
    attribute of the same name is that field's default.  Instances take
    the fields positionally or by keyword, then run `__post_init__`; they
    refuse assignment and deletion, compare equal only to an instance of
    the same class with equal fields, hash as the tuple of their fields
    and print as ``Name(f=v, ...)``.  Set-up code may still write through
    ``object.__setattr__``, and `functools.cached_property` caches in the
    instance ``__dict__``.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        get = attrgetter(*fields)  # a bare value, not a tuple, for one field
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for f, v in kwargs.items():
            if f not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {f!r}")
            if f in values:
                raise TypeError(f"{name}() got multiple values for argument {f!r}")
            values[f] = v
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values.get(f, cls._defaults.get(f)) for f in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self._values(self))) + ")"


class ProductSpec(_Record):
    """The triple (m, r, delta) defining the infinite product.

    Invariants: the three tuples share length J >= 1, 1 <= r_j < m_j and
    delta_j != 0 for every j.
    """

    m: tuple[int, ...]
    r: tuple[int, ...]
    delta: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", tuple(self.m))
        object.__setattr__(self, "r", tuple(self.r))
        object.__setattr__(self, "delta", tuple(self.delta))
        if not (len(self.m) == len(self.r) == len(self.delta)):
            raise ValueError("m, r, delta must have equal length")
        if len(self.m) == 0:
            raise ValueError("need at least one factor")
        for j, (m, r, d) in enumerate(zip(self.m, self.r, self.delta)):
            if m < 2 or not 1 <= r < m:
                raise ValueError(f"factor {j}: need 1 <= r < m, got r={r}, m={m}")
            if d == 0:
                raise ValueError(f"factor {j}: delta must be nonzero")

    @property
    def J(self) -> int:
        return len(self.m)

    @functools.cached_property
    def L(self) -> int:
        """lcm of all moduli m_j (each at least 2, checked on construction)."""
        return math.lcm(*self.m)

    @functools.cached_property
    def arcs(self) -> dict[int, list[tuple[int, int]]]:
        """L * Delta and L * the hypothesis bound per divisor cell of L
        (:func:`asymptotics._arc_table`), built on first use."""
        from . import asymptotics  # asymptotics imports this module
        return asymptotics._arc_table(self)

    @functools.cached_property
    def omega(self) -> Fraction:
        """Exact growth exponent Omega = sum_j delta_j (2 m_j - 12 r_j + 12 r_j^2 / m_j)."""
        from fractions import Fraction  # not needed to expand
        return sum((d * (2 * m - 12 * r + Fraction(12 * r * r, m))
                    for m, r, d in zip(self.m, self.r, self.delta)), Fraction(0))

    def negated(self) -> "ProductSpec":
        """The reciprocal product (all exponents negated)."""
        return ProductSpec(self.m, self.r, tuple(-d for d in self.delta))


class CoeffSeries(_Record):
    """Truncated Taylor coefficients g(0..N) as exact integers."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("series must contain at least the constant term")

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


def _theta_terms(m: int, r: int, N: int) -> list[tuple[int, int]]:
    """Nonconstant terms (e, t), e <= N ascending, of the triple product

        T_{m,r} = sum_{n in Z} (-1)^n q^{m n(n-1)/2 + r n}
                = (q^r, q^{m-r}, q^m; q^m)_inf.

    The exponents at n and -n coincide exactly when 2r = m; those terms
    merge into one with coefficient 2(-1)^n.  Euler's pentagonal series
    (q^m; q^m)_inf is T_{3m,m}.
    """
    terms: dict[int, int] = {}
    n = 1
    while True:
        t = -1 if n % 2 else 1
        e_pos = m * n * (n - 1) // 2 + r * n   # exponent at n
        e_neg = m * n * (n + 1) // 2 - r * n   # exponent at -n
        if min(e_pos, e_neg) > N:
            return sorted(terms.items())
        for e in (e_pos, e_neg):
            if e <= N:
                terms[e] = terms.get(e, 0) + t
        n += 1


def _coeff_bits(factors: list[tuple[list[tuple[int, int]], int]], N: int) -> int:
    """Bits of a bound on |c_n|, n <= N, for prod (1 + sum t q^e)^d.

    For 0 < x <= 1, |c_n| <= M(x) / x^N with M(x) = prod (1 + sum |t| x^e)^d,
    the l1 norm at x = 1.  f(u) = log(M(e^u) / e^{Nu}) is convex and at
    least -Nu, so bisection on the sign of f' over [-f(0) / N, 0], in
    floats, keeps hi at or right of the minimum (f(hi) <= f(0)) until
    f(hi) - min f <= f'(hi) (hi - lo) is at most one nat.
    """
    series = [(abs(terms[0][1]), [e for e, _ in terms], d) for terms, d in factors]

    def f(u: float) -> tuple[float, float]:
        x = math.exp(u)
        value, slope = -N * u, -N
        for s, es, d in series:
            w = list(map(x.__pow__, es))
            total = 1 + s * sum(w)
            value += d * math.log(total)
            slope += d * s * sum(map(mul, es, w)) / total
        return value, slope

    value, slope = f(0.0)
    lo, hi = -value / max(N, 1), 0.0
    while slope * (hi - lo) > 1:
        u = (lo + hi) / 2
        v, dv = f(u)
        if dv > 0:
            hi, value, slope = u, v, dv
        else:
            lo = u
    return math.ceil(value / math.log(2))


def _mul_packed(c: list[int], factors: list[tuple[list[tuple[int, int]], int]]) -> None:
    """Overwrite c with the coefficients 0..N = len(c) - 1 of
    prod (1 + sum t q^e)^d over the (terms, d > 0) of `factors`, by
    Kronecker substitution.

    The polynomial sum c_n q^n is the integer sum c_n 2^{nB}, reduced mod
    2^{(N+1)B} (that is, mod q^{N+1}) after every unit of power; a term
    t q^e is a shift by eB bits, plus one when |t| = 2.  That map is a
    ring homomorphism mod q^{N+1}, so only the final coefficients need
    |c_n| < 2^{B-1}, which B = :func:`_coeff_bits` + 2, rounded up to
    whole bytes, ensures.  Adding 2^{B-1} to each slot makes all of them
    nonnegative, so the slots unpack byte-aligned.
    """
    N = len(c) - 1
    width = (_coeff_bits(factors, N) + 2 + 7) // 8     # bytes per slot
    B = 8 * width
    mask = (1 << (N + 1) * B) - 1
    x = 1
    for terms, d in factors:
        s = abs(terms[0][1])    # 1, or 2 when 2r = m
        plus = [e * B + s - 1 for e, t in terms if t > 0]
        minus = [e * B + s - 1 for e, t in terms if t < 0]
        for _ in range(d):
            acc = x
            for shift in plus:
                acc += x << shift
            for shift in minus:
                acc -= x << shift
            x = acc & mask
    half = 1 << (B - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * (N + 1), "little")
    raw = ((x + bias) & mask).to_bytes((N + 1) * width, "little")
    c[:] = [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, len(raw), width)]


def _div_sparse(c: list[int], terms: list[tuple[int, int]]) -> list[int]:
    """c / (1 + sum t q^e) to the order N = len(c) - 1, every |t| = s.

    Bottom-up, out[n] = c[n] - s (sum_{t > 0} out[n - e] - sum_{t < 0}
    out[n - e]).  When len(out) = e, one iterator over out joins its sign
    group; `extend` appends one item at a time, so the iterator reads
    out[n - e] after it is written.  Between exponents the stretch runs in C.
    """
    N = len(c) - 1
    s = abs(terms[0][1])    # 1, or 2 when 2r = m
    a = iter(c)
    out = list(islice(a, terms[0][0]))
    groups: tuple[list, list] = ([], [])    # iterators for t > 0, t < 0
    for (e, t), hi in zip(terms, [e for e, _ in terms[1:]] + [N + 1]):
        groups[t < 0].append(iter(out))
        d = map(sub, *(map(sum, zip(*g)) if g else repeat(0) for g in groups))
        out.extend(map(sub, islice(a, hi - e), map(mul, repeat(s), d) if s == 2 else d))
    if len(out) != N + 1:   # an iterator ran dry: extend appended in bulk
        raise RuntimeError("list.extend must append one item at a time")
    return out


def expand_spec(spec: ProductSpec, N: int) -> CoeffSeries:
    """Exact coefficients g(0..N) as a product of sparse series.

    By the Jacobi triple product each factor (q^r, q^{m-r}; q^m)_inf is
    T_{m,r} / E_m, with T_{m,r} the theta series of :func:`_theta_terms`
    and E_m = (q^m; q^m)_inf = T_{3m,m} Euler's pentagonal series.  Both
    have O(sqrt(N/m)) terms up to q^N.  The powers are netted per distinct
    series first (T_{m,r} = T_{m,m-r}; E_m gets -sum_{m_j = m} delta_j),
    so powers that cancel, such as the two E_5 of the Rogers-Ramanujan
    quotient, cost nothing.  The positive powers are multiplied out on one
    packed integer (:func:`_mul_packed`); the negative ones then divide
    the coefficient list, each unit in O(N sqrt(N/m)) run at C speed by
    :func:`_div_sparse`.  Truncation at q^{N+1} commutes with both, so the
    order does not change the result.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    # allocated first: an order past the index range fails here, before
    # any term is built
    c = [0] * (N + 1)
    powers: dict[tuple[int, int], int] = {}
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        for key, p in (((m, min(r, m - r)), d), ((3 * m, m), -d)):
            powers[key] = powers.get(key, 0) + p
    factors = [(_theta_terms(m, r, N), d) for (m, r), d in powers.items() if d]
    _mul_packed(c, [(terms, d) for terms, d in factors if terms and d > 0])
    for terms, d in factors:
        if terms and d < 0:
            for _ in range(-d):
                c = _div_sparse(c, terms)
    return CoeffSeries(c)


def _poly_mul(a: Sequence[int], b: Sequence[int], N: int) -> list[int]:
    """Dense convolution of two integer polynomials, truncated at order N."""
    out = [0] * (N + 1)
    for i, ai in enumerate(a):
        if i > N:
            break
        if not ai:
            continue
        top = N - i
        for j, bj in enumerate(b[: top + 1]):
            if bj:
                out[i + j] += ai * bj
    return out


def _pochhammer_poly(a: int, m: int, N: int) -> list[int]:
    """(q^a; q^m)_inf truncated at order N, by successive binomial factors."""
    c = [0] * (N + 1)
    c[0] = 1
    for e in range(a, N + 1, m):
        for n in range(N, e - 1, -1):
            c[n] -= c[n - e]
    return c


def _newton_inverse(a: Sequence[int], N: int) -> list[int]:
    """Series inverse of a (with a[0] = 1) mod q^(N+1), by Newton doubling."""
    if a[0] != 1:
        raise ValueError("series inversion requires constant term 1")
    b = [1]
    prec = 1
    while prec <= N:
        prec = min(2 * prec, N + 1)
        ab = _poly_mul(a[:prec], b, prec - 1)
        corr = [-x for x in ab]
        corr[0] += 2
        b = _poly_mul(b, corr, prec - 1)
    return b


def oracle_expand(spec: ProductSpec, N: int) -> CoeffSeries:
    """Same coefficients as :func:`expand_spec` by an independent route.

    Each factor pair (q^r, q^{m-r}; q^m)_inf is expanded as a dense
    polynomial, raised to |delta| by convolution, inverted by Newton
    iteration when delta < 0, and all factors are convolved together.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    result = [0] * (N + 1)
    result[0] = 1
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        base = _poly_mul(_pochhammer_poly(r, m, N), _pochhammer_poly(m - r, m, N), N)
        power = base
        for _ in range(abs(d) - 1):
            power = _poly_mul(power, base, N)
        if d < 0:
            power = _newton_inverse(power, N)
        result = _poly_mul(result, power, N)
    return CoeffSeries(result)

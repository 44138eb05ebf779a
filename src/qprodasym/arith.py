"""Exact integer and rational number-theoretic primitives.

Everything here is computed in exact arithmetic (Python integers and
``fractions.Fraction``); no floating point enters this module.  The
phase bookkeeping of the main sum needs a modular inverse and the integer
6c s(d, c) per arc factor; :func:`inverse_dedekind6` gives both from one
Euclid pass, so no ``Fraction`` is built.  :func:`dedekind_sum_fast` has
no caller in the package: it stays as public API and as the middle of the
oracle chain from the direct O(c) sawtooth sum of the tests to
:func:`inverse_dedekind6`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator


def gcd0(a: int, b: int) -> int:
    """Greatest common divisor with the convention gcd0(0, n) = n.

    Requires a >= 0 and b >= 1.
    """
    if b < 1:
        raise ValueError("b must be a positive integer")
    if a < 0:
        raise ValueError("a must be nonnegative")
    return math.gcd(a, b)


def hbar(m: int, h: int, k: int) -> int:
    """Solve t * (m*h/d) = -1 (mod k/d) for t, where d = gcd(m, k).

    Returns the least nonnegative solution; when the modulus k/d is 1 the
    congruence is vacuous and 0 is returned.  A solution always exists
    because gcd(h, k) = 1 forces gcd(m*h/d, k/d) = 1.
    """
    if k < 1 or h < 0 or h >= k or math.gcd(h, k) != 1:
        raise ValueError("need 0 <= h < k with gcd(h, k) = 1")
    d = gcd0(m, k)
    kp = k // d
    if kp == 1:
        return 0
    a = (m // d) * h % kp
    return (-pow(a, -1, kp)) % kp


def dedekind_sum_fast(d: int, c: int) -> Fraction:
    """Dedekind sum s(d, c) via the reciprocity recursion, O(log c).

    Agrees exactly with the direct O(c) sawtooth sum; uses
    s(d, c) + s(c, d) = -1/4 + (d^2 + c^2 + 1)/(12 c d)
    together with periodicity s(d + c, c) = s(d, c).
    """
    if c < 1:
        raise ValueError("c must be a positive integer")
    if math.gcd(d, c) != 1:
        raise ValueError("need gcd(d, c) = 1")
    d %= c
    result = Fraction(0)
    sign = 1
    while d:
        result += sign * (
            Fraction(d * d + c * c + 1, 12 * c * d) - Fraction(1, 4)
        )
        sign = -sign
        c, d = d, c % d
    return result


def inverse_dedekind6(d: int, c: int) -> tuple[int, int]:
    """(d^-1 mod c, 6c * s(d, c)) from one forward Euclid pass.

    With c/d = [a_1; a_2, ..., a_t] (d reduced mod c) the continued-fraction
    form of the Dedekind sum (Hickerson 1977; Knuth 1977) reads
    12 s(d, c) = sum_i (-1)^{i+1} a_i + (d + d*)/c - 3 [t odd],
    where d* is the Bezout coefficient of d that the same pass carries:
    d^-1 mod c when t is odd, d^-1 mod c - c when t is even.  Agrees with
    ``(pow(d, -1, c), 6 * c * dedekind_sum_fast(d, c))``; c = 1 gives (0, 0).
    """
    if c < 1:
        raise ValueError("c must be a positive integer")
    d %= c
    r, s = c, d
    x, y = 0, 1
    alt = 0                 # a_t - a_{t-1} + ... +- a_1
    odd = False
    while s:
        a = r // s
        r, s = s, r - a * s
        x, y = y, x - a * y
        alt = a - alt
        odd = not odd
    if r != 1:
        raise ValueError("need gcd(d, c) = 1")
    if odd:
        return x % c, (c * (alt - 3) + d + x) // 2
    return x % c, (d + x - c * alt) // 2


def coprime_residues(k: int, kappa: int | None = None,
                     ell: int | None = None) -> Iterator[int]:
    """Yield h in [0, k) with gcd(h, k) = 1, optionally with h = kappa (mod ell).

    Note gcd(0, 1) = 1, so h = 0 is admissible exactly when k = 1.  With
    a residue filter, 0 <= kappa < ell, only the h = kappa (mod ell) are
    visited, in increasing order.
    """
    for h in range(k) if kappa is None else range(kappa, k, ell):
        if math.gcd(h, k) == 1:
            yield h

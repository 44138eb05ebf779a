"""Floating backends: IEEE double (cmath) and extended precision (mpmath).

The evaluators in :mod:`transform` are written against this small
interface so that ``transform-test --precision`` can swap the arithmetic
underneath without duplicating the formulas.  The main sum of
:mod:`asymptotics` is plain double arithmetic; only its shared unit-root
formula ``_unit`` takes a backend, for :mod:`transform`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


class DoubleBackend:
    pi = math.pi
    j = 1j
    # relative tail target used when sizing adaptive series
    eps = 1e-18

    @staticmethod
    def exp(z):
        return cmath.exp(z) if isinstance(z, complex) else math.exp(z)

    @staticmethod
    def real(x):
        """Convert an exact number (int/Fraction) to the backend real type."""
        return float(x)

    @staticmethod
    def ratio(num: int, den: int):
        """num/den as a backend real; int/int division rounds correctly."""
        return num / den

    @staticmethod
    def complex_(re, im=0.0):
        return complex(re, im)

    @staticmethod
    def native(z):
        """Adopt a Python complex as a backend value."""
        return complex(z)

    @staticmethod
    def abs(z):
        return abs(z)


class ExtendedBackend:
    def __init__(self):
        import mpmath

        # a private context: the process-global mpmath.mp keeps its precision
        self.mp = mpmath.MPContext()
        self.mp.dps = 40
        self.pi = self.mp.pi
        self.j = self.mp.mpc(0, 1)
        self.eps = self.mp.mpf(10) ** (-self.mp.dps - 5)
        self.exp = self.mp.exp

    def real(self, x):
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        return self.mp.mpf(x)

    def ratio(self, num: int, den: int):
        return self.mp.mpf(num) / den

    def complex_(self, re, im=0):
        return self.mp.mpc(re, im)

    def native(self, z):
        return self.mp.mpc(z)

    def abs(self, z):
        return self.mp.fabs(z)


DOUBLE = DoubleBackend()
_EXTENDED: ExtendedBackend | None = None


def get_backend(precision: str = "double"):
    global _EXTENDED
    if precision == "double":
        return DOUBLE
    if precision == "extended":
        if _EXTENDED is None:
            _EXTENDED = ExtendedBackend()
        return _EXTENDED
    raise ValueError(f"unknown precision {precision!r} (use 'double' or 'extended')")

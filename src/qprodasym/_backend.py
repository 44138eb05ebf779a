"""Floating backends: IEEE double (cmath) and extended precision (mpmath).

The evaluators in :mod:`transform` are written against this interface so
that ``transform-test --precision`` can swap the arithmetic underneath
without duplicating the formulas; the main sum of :mod:`asymptotics` is
plain double arithmetic.  Each backend has five members, and everything
else is a Python operator (``abs``, ``1j``, ``*``) on its numbers:

- ``pi``: pi at the backend's precision;
- ``eps``: the relative tail target at which a product stops;
- ``exp``: the complex exponential;
- ``ratio(num, den)``: an exact integer quotient, rounded once;
- ``native(z)``: a Python number as a backend value.

:class:`ExtendedBackend` also keeps ``mp``, its private mpmath context.
"""

from __future__ import annotations

import cmath
import math


class DoubleBackend:
    pi = math.pi
    eps = 1e-18
    exp = staticmethod(cmath.exp)

    @staticmethod
    def ratio(num: int, den: int):
        """num/den as a backend real; int/int division rounds correctly."""
        return num / den

    native = staticmethod(complex)


class ExtendedBackend:
    def __init__(self):
        import mpmath

        # a private context: the process-global mpmath.mp keeps its precision
        self.mp = mpmath.MPContext()
        self.mp.dps = 40
        self.pi = self.mp.pi
        self.eps = self.mp.mpf(10) ** (-self.mp.dps - 5)
        self.exp = self.mp.exp
        self.native = self.mp.mpc

    def ratio(self, num: int, den: int):
        return self.mp.mpf(num) / den


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

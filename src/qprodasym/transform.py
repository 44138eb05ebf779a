"""Numeric evaluation of the shifted Pochhammer quotient and the check of
the arc transformation formula on it.

The identities checked here are exact; any test tolerance exists only to
absorb truncation and rounding of the evaluations themselves.
"""

from __future__ import annotations

import math

from ._backend import get_backend
from .arith import gcd0, hbar
from .asymptotics import lambda_int, _arc_kernel, _cell_nums, _unit
from .qseries import ProductSpec

_MAX_TERMS = 200_000


def default_terms(min_im: float) -> int:
    """Cap on the factors of a product with Im(tau) >= min_im.

    At Im(tau) = min_im the cap leaves |q|^terms = e^{-120 pi}, about
    1e-164, and it never exceeds 200,000.  It is only a cap: each product
    stops once its own tail bound is below the backend's eps.
    """
    return min(_MAX_TERMS, math.ceil(60.0 / min_im))


def _tail_start(c, q):
    """(c / (1 - |q|), |q|): after k factors, c |q|^k / (1 - |q|) bounds
    the log of the factors not yet taken."""
    absq = abs(q)
    if not absq < 1:
        raise ValueError("Im(tau) is too small to evaluate the product")
    return c / (1 - absq), absq


def _require_tail(tail, absq, terms: int, B) -> None:
    """Raise unless the tail bound left after `terms` factors is below eps."""
    if tail < B.eps:
        return
    more = math.ceil(math.log(float(B.eps / tail)) / math.log1p(-float(1 - absq)))
    raise ValueError(f"the product needs {terms + more} factors for a tail below "
                     f"{float(B.eps):.0e}, more than the cap of {terms}")


def eval_zh_point(sigma, tau, terms: int, precision: str = "double"):
    """(zeta, zeta^{-1} q; q)_inf with zeta = e^{2 pi i sigma}, q = e^{2 pi i tau}.

    Converges for 0 <= Im(sigma) < Im(tau).  The product stops once the
    bound (|zeta| + |zeta^{-1} q|) |q|^k / (1 - |q|) on the remaining
    factors falls below the backend's eps; `terms` caps the factors of
    each product, and a ValueError names the count needed when the cap
    is too small.
    """
    B = get_backend(precision)
    sigma = B.native(sigma)
    tau = B.native(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    q = B.exp(2j * B.pi * tau)
    zeta = B.exp(2j * B.pi * sigma)
    zinv = 1 / zeta
    tail, absq = _tail_start(abs(zeta) + abs(zinv * q), q)
    eps, one = B.eps, B.native(1)
    value = qk = one
    for _ in range(terms):
        if tail < eps:
            return value
        value *= (one - zeta * qk) * (one - zinv * qk * q)
        qk *= q
        tail *= absq
    _require_tail(tail, absq, terms, B)
    return value


def eval_Zh(r: int, m: int, tau, terms: int, precision: str = "double"):
    """(q^r, q^{m-r}; q^m)_inf evaluated directly, q = e^{2 pi i tau}."""
    if not 1 <= r < m:
        raise ValueError("need 1 <= r < m")
    return eval_zh_point(r * tau, m * tau, terms, precision)


def transformed_arguments(spec: ProductSpec, h: int, k: int, z, precision: str = "double"):
    """Per-factor straightened arguments (sigma_j, tau_j) on the arc at h/k.

    With z = k(rho - i phi) the straightened half-period is
    hbar d / k + i d^2/(m k z) and the elliptic argument picks up the
    fractional shift lambda* d^2/(m k z).  Each coefficient is one rounded
    integer quotient.
    """
    B = get_backend(precision)
    z = B.native(z)
    iz = 1j / z
    out = []
    for m, r in zip(spec.m, spec.r):
        d = gcd0(m, k)
        lam = lambda_int(m, r, h, k)
        hb = hbar(m, h, k)
        mk = m * k
        # d lambda* = d lambda - r h
        tau_t = B.ratio(hb * d, k) + B.ratio(d * d, mk) * iz
        sigma_t = (B.ratio(r * d + lam * hb * d * m, mk)
                   + B.ratio((lam * d - r * h) * d, mk) * iz)
        out.append((sigma_t, tau_t))
    return out


def check_main_transform(spec: ProductSpec, h: int, k: int, z,
                         precision: str = "double") -> float:
    """Relative discrepancy between both sides of the arc transformation.

    The left side evaluates the product G(e^{2 pi i tau}) directly at
    tau = (h + i z)/k; the right side assembles the exact phase, the
    exponential growth factor and the straightened Pochhammer quotients.
    Each product stops at its own tail bound, capped by
    :func:`default_terms` at the smallest Im(tau) among them.  A product
    whose tail cannot be met within the cap, or a value outside the double
    range (an overflow, or an underflow to 0), raises ValueError.
    """
    if k < 1 or not 0 <= h < k or math.gcd(h, k) != 1:
        raise ValueError("need a reduced fraction 0 <= h < k")
    B = get_backend(precision)
    z = B.native(z)
    if not z.real > 0:
        raise ValueError("need Re(z) > 0")
    tau = (h + 1j * z) / k
    args = transformed_arguments(spec, h, k, z, precision)
    ims = [float(t.imag) for _, t in args] + [float(tau.imag)]
    terms = default_terms(min(ims))

    # the arc phase num / D and the front factor e^{pi i sum(delta)/2}, over 2D
    _, num, _ = _arc_kernel(spec, k, (h,))[0]
    D = 3 * spec.L * k
    rhs = _unit(2 * num + sum(spec.delta) * D, 2 * D, B)
    # Delta at h/k is its class value, L Delta an integer
    dv = B.ratio(_cell_nums(spec, h, k)[0], spec.L)
    lhs = B.native(1)
    try:
        for m, r, d in zip(spec.m, spec.r, spec.delta):
            lhs *= eval_Zh(r, m, tau, terms, precision) ** d
        rhs *= B.exp(B.pi / (12 * k)
                     * (B.ratio(spec.omega.numerator, spec.omega.denominator) * z + dv / z))
        for (sigma_t, tau_t), d in zip(args, spec.delta):
            rhs *= eval_zh_point(sigma_t, tau_t, terms, precision) ** d
        return float(abs(lhs - rhs) / abs(lhs))
    except (OverflowError, ZeroDivisionError):
        # overflow, or underflow to 0 that a negative power or the
        # relative error then divides by
        raise ValueError("a value of the transformation exceeds the double "
                         "range; precision 'extended' evaluates it") from None

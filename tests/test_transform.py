"""Numeric verification of the classical eta/theta machinery and the arc
transformation formula.  All identities are exact; tolerances only absorb
series truncation and floating-point rounding.
"""

import cmath
import math
import random
import re

import pytest

from fractions import Fraction

from qprodasym import ProductSpec, check_main_transform
from qprodasym._backend import get_backend
from qprodasym.asymptotics import _cell_nums
from qprodasym.transform import (default_terms, eval_Zh, eval_zh_point,
                                 transformed_arguments)

from conftest import (P5, RR, TG, delta_hk, fraction_real,
                      fraction_transformed_arguments, random_farey, random_spec)
from oracles import ModularMatrix, chi, eval_eta, eval_theta


def _rel(a, b):
    return abs(a - b) / abs(a)


def _random_gamma(rng: random.Random, tau: complex, c_max: int) -> ModularMatrix:
    """A random SL2(Z) matrix with 0 < c <= c_max whose bottom row keeps
    |c tau + d| small, so both tau and gamma(tau) stay evaluable."""
    c = rng.randint(1, c_max)
    center = -round(c * tau.real)
    d = next(d for off in range(2 * c + 2)
             for d in (center + off, center - off) if math.gcd(c, d) == 1)
    a = pow(d, -1, c) if c > 1 else 1
    b = (a * d - 1) // c
    return ModularMatrix(a, b, c, d)


class TestModularMatrix:
    def test_determinant_check(self):
        with pytest.raises(ValueError):
            ModularMatrix(1, 1, 1, 1)

    def test_mobius(self):
        s = ModularMatrix(0, -1, 1, 0)
        assert s.mobius(2j) == (-1) / (2j)
        assert s.mobius_star(2j) == 1 / (2j)


class TestEta:
    def test_value_at_i(self):
        # eta(i) = Gamma(1/4) / (2 pi^{3/4})
        expected = math.gamma(0.25) / (2 * math.pi ** 0.75)
        got = eval_eta(1j, default_terms(1.0))
        assert _rel(got, expected) < 1e-12

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eval_eta(-1j, 100)

    def test_transformation_at_inversion(self):
        # eta(-1/tau) = chi(gamma) (c tau + d)^{1/2} eta(tau), gamma = (0,-1;1,0)
        gamma = ModularMatrix(0, -1, 1, 0)
        tau = 2j
        terms = default_terms(0.5)
        lhs = eval_eta(gamma.mobius(tau), terms)
        rhs = chi(gamma) * cmath.sqrt(tau) * eval_eta(tau, terms)
        assert _rel(lhs, rhs) < 1e-10

    def test_transformation_random(self):
        rng = random.Random(5)
        for _ in range(50):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3))
            gamma = _random_gamma(rng, tau, 20)
            terms = default_terms(min(tau.imag, (gamma.mobius(tau)).imag))
            lhs = eval_eta(gamma.mobius(tau), terms)
            rhs = chi(gamma) * cmath.sqrt(gamma.c * tau + gamma.d) * eval_eta(tau, terms)
            assert _rel(lhs, rhs) < 1e-10


    def test_tail_bound_matches_long_product(self):
        rng = random.Random(11)
        for _ in range(40):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.05, 2))
            q = cmath.exp(2j * cmath.pi * tau)
            full = cmath.exp(2j * cmath.pi * tau / 24)
            for k in range(1, 3001):
                full *= 1 - q ** k
            assert _rel(eval_eta(tau, 3000), full) < 1e-15

    def test_cap_too_small_names_count(self):
        with pytest.raises(ValueError) as exc:
            eval_eta(0.01j, 100)
        needed = int(re.search(r"needs (\d+) factors", str(exc.value)).group(1))
        assert needed > 100
        eval_eta(0.01j, needed)


class TestTheta:
    def test_zero_at_origin(self):
        assert abs(eval_theta(0, 1j, 30)) < 1e-15

    def test_oddness(self):
        s, tau = 0.3 + 0.1j, 2j
        assert abs(eval_theta(s, tau, 40) + eval_theta(-s, tau, 40)) < 1e-14

    def test_jacobi_triple_product(self):
        # theta(s; tau) = -i q^{1/8} zeta^{-1/2} (zeta, zeta^{-1} q, q; q)_inf
        s, tau = 0.2j, 1j
        terms = default_terms(tau.imag)
        q = cmath.exp(2j * cmath.pi * tau)
        zeta = cmath.exp(2j * cmath.pi * s)
        prod = eval_zh_point(s, tau, terms)
        for k in range(1, terms):
            prod *= 1 - q ** k
        expected = -1j * q ** 0.125 * zeta ** -0.5 * prod
        assert _rel(eval_theta(s, tau, terms), expected) < 1e-10

    def test_modular_transformation(self):
        # theta(s gamma*(tau); gamma(tau))
        #   = chi^3 (c tau + d)^{1/2} e^{pi i c s^2/(c tau + d)} theta(s; tau)
        rng = random.Random(6)
        for _ in range(50):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.5))
            gamma = _random_gamma(rng, tau, 12)
            s = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
            terms = default_terms(min(tau.imag, gamma.mobius(tau).imag))
            lhs = eval_theta(s * gamma.mobius_star(tau), gamma.mobius(tau), terms)
            cd = gamma.c * tau + gamma.d
            rhs = (chi(gamma) ** 3 * cmath.sqrt(cd)
                   * cmath.exp(1j * cmath.pi * gamma.c * s * s / cd)
                   * eval_theta(s, tau, terms))
            assert _rel(lhs, rhs) < 1e-10

    def test_quasi_periodicity(self):
        # theta(s + a tau + b; tau)
        #   = (-1)^{a+b} e^{-pi i a^2 tau} e^{-2 pi i a s} theta(s; tau)
        tau = 0.1 + 1.2j
        s = 0.23 + 0.05j
        terms = default_terms(tau.imag) + 10
        base = eval_theta(s, tau, terms)
        for alpha in range(-2, 3):
            for beta in range(-2, 3):
                lhs = eval_theta(s + alpha * tau + beta, tau, terms)
                rhs = ((-1) ** (alpha + beta)
                       * cmath.exp(-1j * cmath.pi * alpha * alpha * tau)
                       * cmath.exp(-2j * cmath.pi * alpha * s) * base)
                assert _rel(lhs, rhs) < 1e-10


class TestZh:
    def test_direct_vs_theta_quotient(self):
        # (zeta, zeta^{-1} q; q)_inf = i e^{-pi i tau/6} e^{pi i s} theta/eta
        for (r, m, tau) in ((1, 5, 2j), (2, 5, 1j), (3, 7, 0.2 + 1.5j)):
            terms = default_terms((m * tau).imag if (m * tau).imag < tau.imag
                                  else tau.imag)
            lhs = eval_Zh(r, m, tau, terms)
            s, mt = r * tau, m * tau
            rhs = (1j * cmath.exp(-1j * cmath.pi * mt / 6)
                   * cmath.exp(1j * cmath.pi * s)
                   * eval_theta(s, mt, terms) / eval_eta(mt, terms))
            assert _rel(lhs, rhs) < 1e-10

    def test_large_imaginary_part_tends_to_one(self):
        assert _rel(eval_Zh(1, 5, 8j, 50), 1.0) < 1e-10

    def test_tail_bound_matches_long_product(self):
        rng = random.Random(12)
        for _ in range(40):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.05, 2))
            sigma = complex(rng.uniform(-1, 1), rng.uniform(0, 0.9) * tau.imag)
            q = cmath.exp(2j * cmath.pi * tau)
            zeta = cmath.exp(2j * cmath.pi * sigma)
            full = 1
            for k in range(3000):
                full *= (1 - zeta * q ** k) * (1 - q ** (k + 1) / zeta)
            assert _rel(eval_zh_point(sigma, tau, 3000), full) < 1e-15

    def test_cap_too_small_names_count(self):
        with pytest.raises(ValueError) as exc:
            eval_zh_point(0.001j, 0.01j, 100)
        needed = int(re.search(r"needs (\d+) factors", str(exc.value)).group(1))
        assert needed > 100
        eval_zh_point(0.001j, 0.01j, needed)

    def test_rejects_tau_off_upper_half_plane(self):
        with pytest.raises(ValueError, match="^tau must lie in the upper half plane$"):
            eval_zh_point(0.1, 0j, 10)

    def test_rejects_tau_whose_q_rounds_to_one(self):
        # |q| = e^{-2 pi 1e-18} is 1.0 in double, so no tail bound exists
        assert abs(cmath.exp(2j * cmath.pi * 1e-18j)) == 1.0
        with pytest.raises(ValueError,
                           match="^Im\\(tau\\) is too small to evaluate the product$"):
            eval_zh_point(0.1, 1e-18j, 10)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            eval_Zh(0, 5, 1j, 10)
        with pytest.raises(ValueError):
            eval_Zh(5, 5, 1j, 10)


class TestChi:
    def test_inversion_matrix(self):
        gamma = ModularMatrix(0, -1, 1, 0)
        assert abs(chi(gamma) - cmath.exp(-1j * cmath.pi / 4)) < 1e-15

    def test_unit_modulus(self):
        rng = random.Random(8)
        for _ in range(30):
            c = rng.randint(1, 50)
            ds = [d for d in range(1, 2 * c + 1) if math.gcd(c, d) == 1]
            d = rng.choice(ds)
            a = pow(d, -1, c) if c > 1 else 1
            b = (a * d - 1) // c
            assert abs(abs(chi(ModularMatrix(a, b, c, d))) - 1) < 1e-15

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            chi(ModularMatrix(1, 0, 0, 1))


class TestMainTransform:
    def test_benchmark_points(self):
        assert check_main_transform(P5, 0, 1, 1.0) < 1e-9
        assert check_main_transform(RR, 1, 2, 0.7 + 0.1j) < 1e-9
        assert check_main_transform(TG, 3, 10, 0.5) < 1e-9

    def test_transformed_arguments_in_fundamental_strip(self):
        # 0 <= Im(sigma~) < Im(tau~) for every straightened argument
        rng = random.Random(9)
        for _ in range(40):
            spec = random_spec(rng, max_j=3, max_m=10)
            h, k = random_farey(rng, 12)
            z = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
            for sigma_t, tau_t in transformed_arguments(spec, h, k, z):
                assert 0 <= sigma_t.imag < tau_t.imag

    def test_random_corpus(self):
        rng = random.Random(10)
        for _ in range(30):
            spec = random_spec(rng, max_j=3, max_m=10, max_delta=2)
            h, k = random_farey(rng, 12)
            z = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2))
            assert check_main_transform(spec, h, k, z) < 1e-9

    def test_unmet_tail_raises(self):
        # at k = 19 the straightened product has Im(tau) = 1/190000; its
        # tail needs about a million factors, above the 200,000 cap
        with pytest.raises(ValueError, match=r"needs \d+ factors"):
            check_main_transform(ProductSpec((10000,), (1,), (1,)), 1, 19, 1.0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            check_main_transform(P5, 0, 1, -1.0)
        with pytest.raises(ValueError):
            check_main_transform(P5, 2, 4, 1.0)


def _integer_data_specs():
    rng = random.Random(12)
    return [TG, ProductSpec((60,), (5,), (-1,))] + [
        random_spec(rng, max_j=3, max_m=12) for _ in range(6)]


class TestIntegerTransformData:
    """The straightened arguments and Delta from integer numerators equal
    their Fraction forms: each is one correctly rounded quotient."""

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("spec", _integer_data_specs(), ids=str)
    def test_matches_fraction_forms(self, spec, precision):
        B = get_backend(precision)
        rng = random.Random(str(spec))
        for k in range(1, 41):
            z = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2))
            for h in range(k):
                if math.gcd(h, k) != 1:
                    continue
                assert (transformed_arguments(spec, h, k, z, precision)
                        == fraction_transformed_arguments(spec, h, k, z, precision))
                dn = _cell_nums(spec, h, k)[0]
                assert Fraction(dn, spec.L) == delta_hk(spec, h, k)
                assert B.ratio(dn, spec.L) == fraction_real(delta_hk(spec, h, k), B)


class TestBackend:
    def test_unknown_precision_refused(self):
        with pytest.raises(ValueError, match="^unknown precision 'quad' "
                           "\\(use 'double' or 'extended'\\)$"):
            get_backend("quad")

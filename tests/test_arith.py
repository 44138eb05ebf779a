"""Exact number-theoretic primitives: gcd conventions, modular inverses,
Dedekind sums and their classical identities.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qprodasym.arith import (coprime_residues, dedekind_sum_fast, gcd0, hbar,
                             inverse_dedekind6)

from oracles import dedekind_sum, sawtooth


class TestGcd0:
    def test_zero_convention(self):
        assert gcd0(0, 7) == 7
        assert gcd0(0, 1) == 1

    def test_ordinary_values(self):
        assert gcd0(6, 10) == 2
        assert gcd0(1, 9) == 1
        assert gcd0(12, 12) == 12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gcd0(3, 0)
        with pytest.raises(ValueError):
            gcd0(-1, 5)


class TestHbar:
    def test_trivial_modulus(self):
        # k/gcd(m, k) = 1 makes the congruence vacuous
        assert hbar(5, 0, 1) == 0
        assert hbar(10, 3, 5) == 0
        assert hbar(12, 1, 4) == 0

    def test_defining_congruence(self):
        for m in (2, 3, 5, 7, 10, 12):
            for k in range(1, 25):
                for h in coprime_residues(k):
                    d = math.gcd(m, k)
                    t = hbar(m, h, k)
                    kp = k // d
                    assert 0 <= t < max(kp, 1)
                    assert (t * (m // d) * h + 1) % kp == 0

    def test_rejects_non_reduced(self):
        with pytest.raises(ValueError):
            hbar(5, 2, 4)
        with pytest.raises(ValueError):
            hbar(5, 7, 5)


class TestSawtooth:
    def test_integers_map_to_zero(self):
        assert sawtooth(Fraction(0)) == 0
        assert sawtooth(Fraction(-3)) == 0

    def test_fractional_values(self):
        assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
        assert sawtooth(Fraction(7, 4)) == Fraction(1, 4)
        assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)


class TestDedekindSum:
    def test_known_values(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum(2, 5) == 0
        assert dedekind_sum(1, 5) == Fraction(1, 5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dedekind_sum(2, 4)
        with pytest.raises(ValueError):
            dedekind_sum(1, 0)
        with pytest.raises(ValueError):
            dedekind_sum_fast(2, 4)

    def test_fast_agrees_with_direct(self):
        rng = random.Random(7)
        for _ in range(200):
            c = rng.randint(1, 200)
            ds = [d for d in range(c) if math.gcd(d, c) == 1]
            d = rng.choice(ds)
            assert dedekind_sum_fast(d, c) == dedekind_sum(d, c)

    def test_periodicity(self):
        for c in (5, 7, 12):
            for d in range(1, c):
                if math.gcd(d, c) == 1:
                    assert dedekind_sum_fast(d + c, c) == dedekind_sum_fast(d, c)

    def test_oddness(self):
        # s(-d, c) = -s(d, c)
        for c in range(1, 60):
            for d in range(1, c):
                if math.gcd(d, c) == 1:
                    assert dedekind_sum_fast(c - d, c) == -dedekind_sum_fast(d, c)

    def test_reciprocity(self):
        # s(d, c) + s(c, d) = -1/4 + (d^2 + c^2 + 1)/(12 c d)
        rng = random.Random(11)
        for _ in range(100):
            c = rng.randint(2, 200)
            ds = [d for d in range(1, c) if math.gcd(d, c) == 1]
            if not ds:
                continue
            d = rng.choice(ds)
            lhs = dedekind_sum_fast(d, c) + dedekind_sum_fast(c, d)
            rhs = Fraction(-1, 4) + Fraction(d * d + c * c + 1, 12 * c * d)
            assert lhs == rhs

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=400))
    def test_fast_matches_direct_property(self, c, seed):
        ds = [d for d in range(c) if math.gcd(d, c) == 1]
        d = ds[seed % len(ds)]
        assert dedekind_sum_fast(d, c) == dedekind_sum(d, c)


class TestDedekindSum6:
    """The integer 6c s(d, c) that the main sum takes from inverse_dedekind6."""

    def test_matches_direct_sum(self):
        # every coprime pair with c <= 60 against the rational direct sum
        for c in range(1, 61):
            for d in range(c):
                if math.gcd(d, c) == 1:
                    assert inverse_dedekind6(d, c)[1] == 6 * c * dedekind_sum(d, c)

    def test_matches_integer_sawtooth_sum(self):
        # every coprime pair with c <= 200: 4c^2 s(d, c) is the integer
        # sum over 0 < n < c of (2 (dn mod c) - c)(2n - c), so
        # 2c * (6c s) = 3 * that sum
        for c in range(1, 201):
            for d in range(c):
                if math.gcd(d, c) != 1:
                    continue
                direct = sum((2 * (d * n % c) - c) * (2 * n - c) for n in range(1, c))
                assert 2 * c * inverse_dedekind6(d, c)[1] == 3 * direct


class TestInverseDedekind6:
    def test_matches_separate_oracles(self):
        # every coprime pair with c <= 400 against the reciprocity chain
        # and the built-in modular inverse
        for c in range(2, 401):
            for d in range(c):
                if math.gcd(d, c) == 1:
                    assert inverse_dedekind6(d, c) == (
                        pow(d, -1, c), 6 * c * dedekind_sum_fast(d, c))

    def test_trivial_modulus(self):
        assert inverse_dedekind6(0, 1) == (0, 0)
        assert inverse_dedekind6(5, 1) == (0, 0)

    def test_any_representative(self):
        for c in (7, 12, 60):
            for d in range(-2 * c, 2 * c):
                if math.gcd(d, c) == 1:
                    assert inverse_dedekind6(d, c) == inverse_dedekind6(d % c, c)

    def test_gives_hbar(self):
        # hbar(m, h, k) is minus the inverse of (m/g) h modulo k/g
        for k in range(1, 60):
            for m in (2, 5, 6, 10, 12):
                g = math.gcd(m, k)
                for h in coprime_residues(k):
                    inv, _ = inverse_dedekind6(m // g * h, k // g)
                    assert -inv % (k // g) == hbar(m, h, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            inverse_dedekind6(2, 4)
        with pytest.raises(ValueError):
            inverse_dedekind6(1, 0)


class TestCoprimeResidues:
    def test_unrestricted(self):
        assert list(coprime_residues(1)) == [0]
        assert list(coprime_residues(6)) == [1, 5]
        assert list(coprime_residues(7)) == [1, 2, 3, 4, 5, 6]

    def test_residue_filter(self):
        assert list(coprime_residues(10, 1, 5)) == [1]
        assert list(coprime_residues(10, 2, 5)) == [7]
        # h = 0 (mod 5) never coprime to 5 for k = 5
        assert list(coprime_residues(5, 0, 5)) == []
        assert list(coprime_residues(1, 0, 1)) == [0]

    def test_matches_filter_form(self):
        # striding over kappa, kappa + ell, ... visits exactly the h that
        # the scan of all of range(k) keeps, in the same order
        for k in range(1, 201):
            coprime = [h for h in range(k) if math.gcd(h, k) == 1]
            for ell in range(1, k + 2):
                expected = {kappa: [] for kappa in range(ell)}
                for h in coprime:
                    expected[h % ell].append(h)
                for kappa in range(ell):
                    assert list(coprime_residues(k, kappa, ell)) == expected[kappa]

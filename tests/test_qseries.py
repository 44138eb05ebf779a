"""Exact expansion engine: factor application, the sparse triple-product
kernels, the expander against the independent convolution/Newton oracle
and the stride route, and round-trips of the `expand` command's output.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qprodasym import CoeffSeries, ProductSpec, expand_spec, oracle_expand
from qprodasym.cli import main
from qprodasym.qseries import _pochhammer_poly, _poly_mul, _theta_terms

from conftest import P5, RR, TG, random_spec
from oracles import apply_factor, series_from_json


def _dense(terms, N):
    """1 + sum t q^e as a dense coefficient list of length N + 1."""
    c = [1] + [0] * N
    for e, t in terms:
        c[e] += t
    return c


def _division_edges():
    """(spec, N) at the run edges of the division, where an iterator over
    the quotient joins its sign group: N at the first exponent of the
    divisor and one either side, and at each of the next three exponents
    and one below each.  (m, r, -d) divides by T_{m,r}^d after multiplying
    by E_m^d; T_{6,3} and T_{12,6} have terms +-2 q^e, and T_{15,5} = E_5.
    """
    cases = []
    for m, r in ((5, 1), (7, 3), (6, 3), (12, 6), (15, 5)):
        exps = [e for e, _ in _theta_terms(m, r, 10 * m)]
        orders = {exps[0] - 1, exps[0], exps[0] + 1}
        orders |= {e - k for e in exps[1:4] for k in (0, 1)}
        cases += [(ProductSpec((m,), (r,), (-d,)), N)
                  for d in (1, 2, 3) for N in sorted(orders)]
    return cases


def _stride_expand(spec, N):
    """The product as binomials (1 - q^e), each applied |delta| times."""
    s = CoeffSeries((1,) + (0,) * N)
    for m, r, d in zip(spec.m, spec.r, spec.delta):
        direction = "multiply" if d > 0 else "divide"
        for a in (r, m - r):
            for e in range(a, N + 1, m):
                for _ in range(abs(d)):
                    s = apply_factor(s, e, direction)
    return s


class TestProductSpec:
    def test_properties(self):
        assert P5.L == 5 and RR.L == 5 and TG.L == 10

    def test_arcs_built_once_outside_equality(self):
        a = ProductSpec(TG.m, TG.r, TG.delta)
        b = ProductSpec(TG.m, TG.r, TG.delta)
        assert a == b and hash(a) == hash(b)
        table = a.arcs
        assert a.arcs is table
        assert a == b and hash(a) == hash(b)
        assert b.arcs == table and b.arcs is not table
        assert {a: 1}[b] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductSpec((5,), (0,), (1,))
        with pytest.raises(ValueError):
            ProductSpec((5,), (5,), (1,))
        with pytest.raises(ValueError):
            ProductSpec((5,), (1,), (0,))
        with pytest.raises(ValueError):
            ProductSpec((5, 5), (1,), (1,))
        with pytest.raises(ValueError):
            ProductSpec((), (), ())


class TestCoeffSeries:
    def test_indexing(self):
        s = CoeffSeries((1, -1, 0, 2))
        assert s.truncation_order == 3
        assert len(s) == 4
        assert s[2] == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoeffSeries(())


class TestApplyFactor:
    def test_multiply(self):
        one = CoeffSeries((1, 0, 0, 0))
        assert apply_factor(one, 2).coeffs == (1, 0, -1, 0)

    def test_divide_is_geometric(self):
        one = CoeffSeries((1, 0, 0, 0, 0, 0))
        geo = apply_factor(one, 2, "divide")
        assert geo.coeffs == (1, 0, 1, 0, 1, 0)

    def test_roundtrip(self):
        rng = random.Random(3)
        s = CoeffSeries(tuple(rng.randint(-9, 9) for _ in range(40)))
        for t in (1, 3, 7):
            assert apply_factor(apply_factor(s, t), t, "divide").coeffs == s.coeffs
            assert apply_factor(apply_factor(s, t, "divide"), t).coeffs == s.coeffs

    def test_validation(self):
        s = CoeffSeries((1,))
        with pytest.raises(ValueError):
            apply_factor(s, 0)
        with pytest.raises(ValueError):
            apply_factor(s, 1, "conjugate")


class TestSparseSeries:
    N = 300

    def test_euler_is_pochhammer(self):
        for m in range(1, 13):
            euler = _dense(_theta_terms(3 * m, m, self.N), self.N)
            assert euler == _pochhammer_poly(m, m, self.N)

    def test_triple_product(self):
        for m in range(2, 13):
            euler = _pochhammer_poly(m, m, self.N)
            for r in range(1, m):
                pair = _poly_mul(_pochhammer_poly(r, m, self.N),
                                 _pochhammer_poly(m - r, m, self.N), self.N)
                theta = _dense(_theta_terms(m, r, self.N), self.N)
                assert theta == _poly_mul(pair, euler, self.N), (m, r)

    def test_terms_sorted_and_merged_when_2r_equals_m(self):
        for m, r in ((5, 1), (6, 3), (12, 6), (12, 5)):
            terms = _theta_terms(m, r, self.N)
            exps = [e for e, _ in terms]
            assert exps == sorted(set(exps)) and exps[-1] <= self.N
            merged = {abs(t) for _, t in terms}
            assert merged == ({2} if 2 * r == m else {1})

    def test_truncation_keeps_only_terms_up_to_n(self):
        assert _theta_terms(5, 1, 0) == []
        assert _theta_terms(5, 1, 3) == [(1, -1)]
        assert _theta_terms(50, 3, 60) == [(3, -1), (47, -1), (56, 1)]


class TestExpandSpec:
    def test_pure_product_small(self):
        # (q, q^4; q^5)_inf = 1 - q - q^4 + q^5 + ... to low order
        s = expand_spec(ProductSpec((5,), (1,), (1,)), 6)
        assert s.coeffs == (1, -1, 0, 0, -1, 1, -1)

    def test_partition_counts(self):
        # 1/(q, q^4; q^5)_inf counts partitions into parts = +-1 mod 5
        s = expand_spec(P5, 10)
        assert s.coeffs[:7] == (1, 1, 1, 1, 2, 2, 3)

    def test_product_times_inverse_is_one(self):
        for spec in (P5, RR, TG):
            combined = ProductSpec(spec.m + spec.m, spec.r + spec.r,
                                   spec.delta + tuple(-d for d in spec.delta))
            s = expand_spec(combined, 80)
            assert s.coeffs == (1,) + (0,) * 80

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            expand_spec(P5, -1)

    def test_matches_oracle_on_benchmarks(self):
        for spec in (P5, RR, TG):
            assert expand_spec(spec, 300).coeffs == oracle_expand(spec, 300).coeffs

    def test_matches_oracle_random_corpus(self):
        rng = random.Random(2024)
        for _ in range(25):
            spec = random_spec(rng)
            n = rng.randint(0, 120)
            assert expand_spec(spec, n).coeffs == oracle_expand(spec, n).coeffs

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_oracle_property(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        spec = random_spec(rng)
        n = data.draw(st.integers(0, 80))
        assert expand_spec(spec, n).coeffs == oracle_expand(spec, n).coeffs

    def test_matches_stride_route(self):
        rng = random.Random(1500)
        specs = [
            ProductSpec((6, 8), (3, 4), (-2, 1)),        # 2r = m
            ProductSpec((7, 7), (2, 3), (1, -1)),        # Euler powers cancel
            ProductSpec((15, 5), (5, 1), (1, 1)),        # T_{15,5} = E_5 cancels
            ProductSpec((7, 7, 9), (2, 5, 4), (2, -2, -1)),  # T_{7,2} = T_{7,5}
        ] + [random_spec(rng, max_j=3, max_delta=2) for _ in range(6)]
        cases = [(spec, rng.randint(1400, 1600)) for spec in specs] + [
            # positive powers with 2r = m series (terms +-2 q^e), packed in
            # slots of 1, 2, 5 and 6 bytes
            (ProductSpec((4,), (2,), (1,)), 500),
            (ProductSpec((8, 5), (4, 2), (2, -1)), 450),
            (ProductSpec((6, 10, 4), (3, 5, 1), (4, 3, -2)), 400),
            (ProductSpec((14, 9), (7, 4), (12, -3)), 480),
        ]
        for spec, N in cases:
            assert expand_spec(spec, N).coeffs == _stride_expand(spec, N).coeffs, spec

    @pytest.mark.parametrize("spec,N", [
        (TG, 0),                                          # N = 0
        (ProductSpec((20, 30), (7, 9), (2, -3)), 6),      # N < every r_j
        (ProductSpec((50, 9), (3, 4), (-2, 1)), 40),      # m_j > N
        (ProductSpec((40, 41), (20, 1), (-1, 2)), 30),    # 2r = m > N
    ] + _division_edges())
    def test_edge_orders(self, spec, N):
        s = expand_spec(spec, N)
        assert s.coeffs == oracle_expand(spec, N).coeffs
        assert s.coeffs == _stride_expand(spec, N).coeffs
        if N < min(spec.r):
            assert s.coeffs == (1,) + (0,) * N

    def test_narrow_slots_square(self):
        # 5:1:400 at N = 300 packs in slots of 552 bits, against 1,792
        # from the l1 norm
        half = expand_spec(ProductSpec((5,), (1,), (200,)), 300).coeffs
        full = expand_spec(ProductSpec((5,), (1,), (400,)), 300).coeffs
        assert list(full) == _poly_mul(half, half, 300)


def _expand(capsys, *argv):
    """The stdout of ``qprodasym expand *argv``, which must succeed."""
    assert main(["expand", *argv]) == 0
    return capsys.readouterr().out


class TestSerialization:
    def test_csv_layout(self, capsys):
        # a negative and a zero coefficient, as plain decimal integers
        out = _expand(capsys, "5:1:1", "5:2:-1", "--order", "3")
        assert out == "n,g\n0,1\n1,-1\n2,1\n3,0\n"

    def test_json_roundtrip(self, capsys):
        text = _expand(capsys, "5:2:-2", "10:2:1", "10:4:2", "--order", "60", "--format", "json")
        back = series_from_json(text)
        assert back == expand_spec(TG, 60)
        # the document is canonical: encoding the series read back gives its bytes
        doc = {"truncation_order": back.truncation_order,
               "coefficients": [str(g) for g in back.coeffs]}
        assert json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n" == text

    def test_json_uses_decimal_strings(self, capsys):
        # coefficients overflow 64 bits quickly; they must travel as strings
        text = _expand(capsys, "5:1:-1", "--order", "2000", "--format", "json")
        assert isinstance(json.loads(text)["coefficients"][2000], str)
        s = expand_spec(P5, 2000)
        assert abs(s[2000]) > 2**64
        assert series_from_json(text)[2000] == s[2000]

    def test_json_rejects_inconsistent_document(self, capsys):
        text = _expand(capsys, "5:1:-1", "--order", "1", "--format", "json")
        broken = text.replace('"truncation_order":1', '"truncation_order":5')
        assert broken != text
        with pytest.raises(ValueError):
            series_from_json(broken)

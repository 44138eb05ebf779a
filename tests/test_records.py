"""The nine public records, and the tests' ``ModularMatrix`` built on the
same base, behave as immutable value classes.

Each is built positionally and by keyword, refuses assignment and
deletion, compares and hashes as the tuple of its fields (and never
equals another class), survives ``copy`` and ``pickle``, and prints as
``Name(field=value, ...)``; pytest IDs and error messages are built from
these strings, so they are pinned literally.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qprodasym.analysis import CompareRow, DominantLevel, ResidueScan, ResidueVerdict
from qprodasym.asymptotics import ArcClass, ArcDatum, LogComplex
from qprodasym.qseries import CoeffSeries, ProductSpec

from oracles import ModularMatrix

LEVEL = DominantLevel(Fraction(24, 125), ((2, 5, 5), (3, 5, 5)))

# (class, field values in order, literal repr)
CASES = [
    (ProductSpec, ((5, 10, 10), (2, 2, 4), (-2, 1, 2)),
     "ProductSpec(m=(5, 10, 10), r=(2, 2, 4), delta=(-2, 1, 2))"),
    (CoeffSeries, ((1, 0, -1),), "CoeffSeries(coeffs=(1, 0, -1))"),
    (ArcClass, (2, 5, Fraction(24, 125)),
     "ArcClass(kappa=2, ell=5, delta_value=Fraction(24, 125))"),
    (ArcDatum, (1, 5, (1, 1), (Fraction(4, 5), Fraction(3, 5)), (4, 4), Fraction(7, 15),
                ((Fraction(1, 5), 1), (Fraction(2, 5), -1))),
     "ArcDatum(h=1, k=5, lambdas=(1, 1), lambda_stars=(Fraction(4, 5), Fraction(3, 5)), "
     "hbars=(4, 4), phase=Fraction(7, 15), "
     "pi_exponents=((Fraction(1, 5), 1), (Fraction(2, 5), -1)))"),
    (LogComplex, (0.5, -3.0), "LogComplex(log_mag=0.5, arg=-3.0)"),
    (DominantLevel, (Fraction(24, 125), ((2, 5, 5), (3, 5, 5))),
     "DominantLevel(ratio_squared=Fraction(24, 125), members=((2, 5, 5), (3, 5, 5)))"),
    (ResidueVerdict, (5, ("positive", "vanishing"), (1.5, 0.0), 0, True, (LEVEL,)),
     "ResidueVerdict(modulus=5, signs=('positive', 'vanishing'), amplitudes=(1.5, 0.0), "
     "level_index=0, inconclusive=True, levels=(DominantLevel(ratio_squared="
     "Fraction(24, 125), members=((2, 5, 5), (3, 5, 5))),))"),
    (CompareRow, (200, 3988, 8.29, 8.3, -0.25),
     "CompareRow(n=200, exact=3988, log_abs_exact=8.29, log_abs_asym=8.3, rel_error=-0.25)"),
    (ResidueScan, (3, "mixed", None),
     "ResidueScan(residue=3, verdict='mixed', first_counterexample=None)"),
    (ModularMatrix, (2, 1, 1, 1), "ModularMatrix(a=2, b=1, c=1, d=1)"),
]

FIELDS = {
    ProductSpec: ("m", "r", "delta"),
    CoeffSeries: ("coeffs",),
    ArcClass: ("kappa", "ell", "delta_value"),
    ArcDatum: ("h", "k", "lambdas", "lambda_stars", "hbars", "phase", "pi_exponents"),
    LogComplex: ("log_mag", "arg"),
    DominantLevel: ("ratio_squared", "members"),
    ResidueVerdict: ("modulus", "signs", "amplitudes", "level_index", "inconclusive",
                     "levels"),
    CompareRow: ("n", "exact", "log_abs_exact", "log_abs_asym", "rel_error"),
    ResidueScan: ("residue", "verdict", "first_counterexample"),
    ModularMatrix: ("a", "b", "c", "d"),
}

ids = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, values, text", CASES, ids=ids)
class TestRecord:
    def test_positional_and_keyword(self, cls, values, text):
        names = FIELDS[cls]
        rec = cls(*values)
        assert tuple(getattr(rec, f) for f in names) == values
        assert cls(**dict(zip(names, values))) == rec
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == rec

    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_frozen(self, cls, values, text):
        rec = cls(*values)
        for name in (*FIELDS[cls], "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert tuple(getattr(rec, f) for f in FIELDS[cls]) == values

    def test_equality_and_hash(self, cls, values, text):
        rec = cls(*values)
        assert rec == cls(*values) and not rec != cls(*values)
        assert hash(rec) == hash(values)
        assert rec != values
        others = [c(*v) for c, v, _ in CASES if c is not cls]
        assert all(rec != other and other != rec for other in others)

    def test_copy_and_pickle(self, cls, values, text):
        rec = cls(*values)
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls
            assert twin == rec and hash(twin) == hash(rec)
            assert repr(twin) == text

    def test_argument_errors(self, cls, values, text):
        names = FIELDS[cls]
        with pytest.raises(TypeError):
            cls(*values, 0)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[-1]: values[-1], "no_such_field": 0})
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})
        if cls is not ResidueVerdict:
            with pytest.raises(TypeError):
                cls(*values[:-1])


def test_defaults():
    verdict = ResidueVerdict(1, ("vanishing",), (0.0,), 3)
    assert (verdict.inconclusive, verdict.levels) == (False, ())
    assert verdict == ResidueVerdict(1, ("vanishing",), (0.0,), 3, False, ())
    assert ResidueVerdict(1, ("vanishing",), (0.0,), 3, levels=(LEVEL,)).inconclusive is False
    with pytest.raises(TypeError):
        ResidueVerdict(1, ("vanishing",), (0.0,))


def test_post_init_normalises_and_validates():
    spec = ProductSpec([5, 5], [1, 2], [1, -1])
    assert (spec.m, spec.r, spec.delta) == ((5, 5), (1, 2), (1, -1))
    assert spec == ProductSpec((5, 5), (1, 2), (1, -1))
    assert CoeffSeries([1, 2]).coeffs == (1, 2)
    for args, message in [
        (((5,), (1, 2), (1,)), "m, r, delta must have equal length"),
        (((), (), ()), "need at least one factor"),
        (((5,), (5,), (1,)), "factor 0: need 1 <= r < m, got r=5, m=5"),
        (((1,), (1,), (1,)), "factor 0: need 1 <= r < m, got r=1, m=1"),
        (((5, 5), (1, 2), (1, 0)), "factor 1: delta must be nonzero"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProductSpec(*args)
    with pytest.raises(ValueError, match="^series must contain at least the constant term$"):
        CoeffSeries(())
    with pytest.raises(ValueError, match="^determinant must be 1$"):
        ModularMatrix(1, 1, 1, 1)
    with pytest.raises(ValueError, match="^determinant must be 1$"):
        ModularMatrix(a=2, b=1, c=1, d=2)


def test_cached_properties_cache_outside_equality():
    spec, fresh = ProductSpec((5,), (1,), (-1,)), ProductSpec((5,), (1,), (-1,))
    arcs, omega, L = spec.arcs, spec.omega, spec.L
    assert spec.arcs is arcs and spec.omega is omega
    assert {f: spec.__dict__[f] for f in ("L", "arcs", "omega")} == {
        "L": 5, "arcs": arcs, "omega": omega}
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh) == "ProductSpec(m=(5,), r=(1,), delta=(-1,))"
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec == fresh and hash(twin) == hash(fresh)
        assert repr(twin) == repr(fresh)
        assert twin.arcs == arcs and twin.omega == omega and twin.L == L
    assert fresh.omega == omega and fresh.arcs == arcs and fresh.L == L


def test_methods_and_properties_still_work():
    spec = ProductSpec((5, 5), (1, 2), (1, -1))
    assert spec.negated() == ProductSpec((5, 5), (1, 2), (-1, 1))
    assert (spec.J, spec.L) == (2, 5)
    series = CoeffSeries((1, -1, 0))
    assert (series[1], len(series), series.truncation_order) == (-1, 3, 2)
    assert LogComplex.from_complex(-2.0) == LogComplex(0.6931471805599453, 3.141592653589793)
    assert (LogComplex(0.0, 1.0) * LogComplex(1.0, 2.0)) == LogComplex(1.0, 3.0)
    assert DominantLevel(Fraction(4, 25), ()).value == 0.4
    matrix = ModularMatrix(2, 1, 1, 1)
    assert (matrix.mobius(1.0), matrix.mobius_star(1.0)) == (1.5, 0.5)

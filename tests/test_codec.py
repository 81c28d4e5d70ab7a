"""The one JSON coefficient codec, through every type that writes it, and
the one text rule: a value is exact iff its text is an exact literal."""
import json
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from voxfact.expressions import Expression
from voxfact.functionals import CircleMoment, DeltaJet
from voxfact.geometry import Annulus, Disc, OpenSet, UnionSet
from voxfact.graded import GradedVector
from voxfact.scalars import (QQi, coeff_from_obj, coeff_to_obj,
                             point_from_text, real_from_text)

PAYLOADS = Path(__file__).resolve().parent / "data" / "parent_payloads.json"

_rat = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
_exact = st.builds(QQi, _rat, _rat)
_float = st.floats(allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _float, _float)
_KINDS = {"exact": _exact, "complex": _complex,
          "mixed": st.one_of(_exact, _complex)}
_MONOS = [(), (("a", 1),), (("a", 2),), (("a", 2), ("a", 1)), (("a", 3),)]


def _same(got, want):
    assert type(got) is type(want), (got, want)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_KINDS)), st.data())
def test_round_trip_through_every_json_type(kind, data):
    coeffs = data.draw(st.lists(_KINDS[kind].filter(bool), min_size=3,
                                max_size=5))
    v = GradedVector(dict(zip(_MONOS, coeffs)))
    back = GradedVector.from_json(v.to_json())
    assert back.terms.keys() == v.terms.keys()
    for mono, c in v.terms.items():
        _same(back.terms[mono], c)

    # distinct delta points keep the terms apart under normalization
    carrier = Disc(QQi(0), Fraction(8))
    e = Expression(carrier, [
        Expression.single(carrier, [DeltaJet(QQi(i), 0)], [v],
                          coeff=c).terms[0]
        for i, c in enumerate(coeffs)])
    eb = Expression.from_obj(json.loads(json.dumps(e.to_obj())))
    assert eb.to_obj() == e.to_obj()
    for tb, t in zip(eb.terms, e.terms):
        _same(tb.coeff, t.coeff)


def test_reads_payloads_written_before_the_shared_codec():
    """The fixture was written by GradedVector, Functional and Expression
    before they shared one codec; the two that remain read back to the
    same values."""
    saved = json.loads(PAYLOADS.read_text())
    exact = GradedVector({(): QQi(Fraction(-3, 7), 2), (("a", 1),): QQi(5),
                          (("a", 2), ("a", 1)): QQi(0, Fraction(1, 3))})
    cplx = GradedVector({(): 0.25 - 1.5j, (("a", 1),): complex(3.0, 0.0),
                         (("a", 2),): complex(1e-20, 2.5e30)})
    mixed = GradedVector({(): QQi(Fraction(1, 2), -1),
                          (("a", 1),): -0.125 + 0j})
    for obj, want in zip(saved["graded"], (exact, cplx, mixed)):
        got = GradedVector.from_obj(obj)
        assert got.terms.keys() == want.terms.keys()
        for mono, c in want.terms.items():
            _same(got.terms[mono], c)
        assert got.to_obj() == obj

    expr = Expression.from_obj(saved["expression"])
    assert [t.coeff for t in expr.terms] == [-0.75j, QQi(-2, Fraction(1, 9))]
    assert expr.to_obj() == saved["expression"]


def test_json_numbers_are_read_by_the_string_rule():
    _same(coeff_from_obj({"re": 1, "im": 0}), QQi(1))
    _same(coeff_from_obj({"re": 0.5, "im": -2}), complex(0.5, -2.0))
    _same(coeff_from_obj({"re": "1e-20", "im": "0"}), complex(1e-20, 0.0))
    _same(coeff_from_obj({"re": "1/2", "im": "-3"}), QQi(Fraction(1, 2), -3))
    v = GradedVector.from_obj({"terms": [{"mono": ["a(-1)"], "re": 2,
                                          "im": 0}]})
    _same(v.terms[(("a", 1),)], QQi(2))
    _same(coeff_from_obj(coeff_to_obj(Fraction(3, 4))), QQi(Fraction(3, 4)))


def test_negative_zero_part_survives_the_round_trip():
    v = GradedVector({(): complex(1.0, -0.0), (("a", 1),): complex(-0.0, 2.0)})
    assert GradedVector.from_obj(v.to_obj()).to_obj() == v.to_obj()


def test_non_finite_coefficients_read_back():
    inf, nan = math.inf, math.nan
    v = GradedVector({(): complex(inf, inf), (("a", 1),): complex(nan, nan),
                      (("a", 2),): complex(-inf, 0.0)})
    back = GradedVector.from_json(v.to_json())
    assert back.to_obj() == v.to_obj()
    assert back.terms[()] == complex(inf, inf)
    assert back.terms[(("a", 2),)] == complex(-inf, 0.0)
    assert all(map(math.isnan, (back.terms[(("a", 1),)].real,
                                back.terms[(("a", 1),)].imag)))


def test_float_points_and_radii_stay_floats():
    carrier = UnionSet((Disc(0.3 + 0.1j, 0.5),
                        Annulus(QQi(4), Fraction(1, 2), 1.25)))
    factors = [DeltaJet(0.3 + 0.1j, 1), CircleMoment(QQi(4), 0.75, -2),
               DeltaJet(QQi(Fraction(1, 2), -1), 0),
               CircleMoment(1j, Fraction(1, 3), 0)]
    e = Expression.single(Disc(QQi(0), Fraction(8)), factors,
                          [GradedVector.vacuum()] * 4)
    eb = Expression.from_obj(json.loads(json.dumps(e.to_obj())))
    # repr tells a float from the Fraction or QQi of the same value
    assert sorted(map(repr, eb.terms[0].factors)) == \
        sorted(map(repr, factors))
    cb = OpenSet.from_obj(json.loads(json.dumps(carrier.to_obj())))
    assert repr(cb) == repr(carrier)


def test_text_rule():
    for text, want in [("1/2", Fraction(1, 2)), ("-3", Fraction(-3)),
                       (" 7 ", Fraction(7)), (2, Fraction(2)),
                       ("0.5", 0.5), ("1e-20", 1e-20), ("inf", math.inf),
                       ("-0.0", -0.0), (0.25, 0.25)]:
        _same(real_from_text(text), want)
    for text, want in [("1/2-i", QQi(Fraction(1, 2), -1)), ("i", QQi(0, 1)),
                       ("3", QQi(3)), ("(0.3+0.1j)", 0.3 + 0.1j),
                       ("1j", 1j), ("0.5", 0.5 + 0j), ("(nan+0j)", None)]:
        got = point_from_text(text)
        if want is None:
            assert type(got) is complex and math.isnan(got.real)
        else:
            _same(got, want)

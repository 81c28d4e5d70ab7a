"""The slotted value classes: equality, hash, repr and immutability read
off the fields, and `copy`/`pickle` rebuild an equal value."""
import copy
import pickle
from fractions import Fraction

import pytest

from voxfact.expressions import Expression, Term
from voxfact.functionals import CircleMoment, DeltaJet
from voxfact.geometry import AllPlane, Annulus, Disc, UnionSet
from voxfact.graded import GradedVector, ProductVector
from voxfact.presets import VAPreset
from voxfact.report import CheckReport
from voxfact.scalars import DegreeWindow, QQi
from voxfact.suite import SuiteConfig

_JET = DeltaJet(QQi(1, 2), 1)
FROZEN = [
    DegreeWindow(0, 3), _JET, DeltaJet(0.5j), CircleMoment(QQi(0), 0.5, -1),
    AllPlane(), Disc(QQi(0), Fraction(1)),
    Annulus(QQi(1), Fraction(1, 3), 2.5),
    UnionSet((Disc(QQi(0), 1), Disc(QQi(5), 1))),
    Term(QQi(1), (), ()),
    VAPreset("virasoro", Fraction(1, 2)),
]
MUTABLE = [ProductVector(DegreeWindow(0, 2)),
           CheckReport("x", True, witness={"a": 1}), SuiteConfig()]


@pytest.mark.parametrize("obj", FROZEN + MUTABLE,
                         ids=lambda o: type(o).__name__)
def test_copies_are_equal(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                 copy.deepcopy(obj)):
        assert type(twin) is type(obj) and twin == obj


@pytest.mark.parametrize("obj", FROZEN, ids=lambda o: type(o).__name__)
def test_frozen_records_hash_their_fields_and_refuse_assignment(obj):
    values = tuple(getattr(obj, n) for n in obj._fields)
    assert hash(obj) == hash(values)
    assert obj == copy.copy(obj) and not obj != copy.copy(obj)
    name = obj._fields[0] if obj._fields else "anything"
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(obj, name, 1)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(obj, name)


def test_mutable_records_are_unhashable_and_assignable():
    report = CheckReport("x", True)
    with pytest.raises(TypeError):
        hash(report)
    report.passed = False
    assert report != CheckReport("x", True)
    assert report == CheckReport("x", False)


def test_repr_and_equality_as_the_fields_read():
    assert repr(DegreeWindow(0, 3)) == "DegreeWindow(lo=0, hi=3)"
    assert repr(AllPlane()) == "AllPlane()"
    assert repr(VAPreset("heisenberg")) == \
        "VAPreset(kind='heisenberg', c=Fraction(0, 1), level=Fraction(0, 1))"
    assert repr(CheckReport("x", True)) == (
        "CheckReport(axiom='x', passed=True, max_err=0.0, tol=0.0, "
        "witness={}, truncation={})")
    # equal fields of different classes are not equal values
    assert Disc(QQi(0), 1) != Annulus(QQi(0), 0, 1)
    assert AllPlane() == AllPlane()
    assert VAPreset("virasoro", 1) == VAPreset("virasoro", Fraction(1))
    assert DegreeWindow(0, 1) != (0, 1)


def test_states_and_their_holders_copy_and_pickle():
    """A GradedVector refuses assignment, so it rebuilds through its
    constructor; it, and every value that holds states, copies and
    pickles to an equal value."""
    a = (GradedVector.vacuum().scale(QQi(Fraction(1, 2), 3))
         + GradedVector.basis((("a", 1),), 0.5j))
    term = Term(QQi(3), (_JET,), (a,))
    expr = Expression.single(Disc(QQi(0), 4), [_JET], [a])
    for obj in (GradedVector.vacuum(), a,
                ProductVector.from_vector(a, DegreeWindow(0, 2)), term, expr):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                     copy.deepcopy(obj)):
            assert type(twin) is type(obj)
            if isinstance(obj, Expression):
                assert (twin.carrier, twin.terms) == (obj.carrier, obj.terms)
            else:
                assert twin == obj

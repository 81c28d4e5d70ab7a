"""Exact plane geometry: membership, circle containment, subset, disjointness."""
import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfact import geometry
from voxfact.errors import ExpansionDomainMismatch
from voxfact.functionals import CircleMoment, DeltaJet, factor_from_obj
from voxfact.geometry import (AllPlane, Annulus, Disc, OpenSet, UnionSet,
                              circle_vs_circle, is_disjoint, is_subset,
                              point_in_circle, union_of)
from voxfact.residues import Pairing
from voxfact.scalars import QQi, exact_value

rat = st.fractions(min_value=-6, max_value=6, max_denominator=8)
pts = st.builds(QQi, rat, rat)
radii = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)
discs = st.builds(Disc, pts, radii)


def test_point_membership_exact():
    d = Disc(QQi(0), Fraction(1))
    assert d.contains_point(QQi(Fraction(3, 5), Fraction(4, 5) - Fraction(1, 100)))
    assert not d.contains_point(QQi(Fraction(3, 5), Fraction(4, 5)))  # boundary is out
    a = Annulus(QQi(0), Fraction(1), Fraction(2))
    assert a.contains_point(QQi(Fraction(3, 2)))
    assert not a.contains_point(QQi(1))
    assert not a.contains_point(QQi(0))


def test_circle_containment():
    a = Annulus(QQi(0), Fraction(1), Fraction(2))
    # concentric circle strictly between the radii
    assert a.contains_circle(QQi(0), Fraction(3, 2))
    assert not a.contains_circle(QQi(0), Fraction(1, 2))
    assert not a.contains_circle(QQi(0), Fraction(2))
    # small circle inside the band
    assert a.contains_circle(QQi(Fraction(3, 2)), Fraction(1, 4))
    # circle crossing the hole
    assert not a.contains_circle(QQi(Fraction(3, 2)), Fraction(1))
    d = Disc(QQi(1), Fraction(2))
    assert d.contains_circle(QQi(1), Fraction(3, 2))
    assert not d.contains_circle(QQi(1), Fraction(2))


def test_subset_cases():
    big = Disc(QQi(0), Fraction(4))
    assert is_subset(Disc(QQi(1), Fraction(1)), big)
    assert not is_subset(big, Disc(QQi(1), Fraction(1)))
    assert is_subset(Annulus(QQi(0), Fraction(1), Fraction(2)), big)
    assert is_subset(big, AllPlane())
    assert is_subset(UnionSet((Disc(QQi(-2), Fraction(1)),
                               Disc(QQi(2), Fraction(1)))), big)
    assert is_subset(Disc(QQi(0), Fraction(1)),
                     UnionSet((Disc(QQi(0), Fraction(2)),
                               Disc(QQi(5), Fraction(1)))))


def test_disjoint_cases():
    assert is_disjoint(Disc(QQi(-2), Fraction(1)), Disc(QQi(2), Fraction(1)))
    assert not is_disjoint(Disc(QQi(0), Fraction(2)), Disc(QQi(1), Fraction(1)))
    # touching open discs are disjoint
    assert is_disjoint(Disc(QQi(-1), Fraction(1)), Disc(QQi(1), Fraction(1)))
    assert is_disjoint(Disc(QQi(0), Fraction(1)),
                       Annulus(QQi(0), Fraction(1), Fraction(2)))
    assert not is_disjoint(AllPlane(), Disc(QQi(0), Fraction(1)))


def test_union_validation():
    from voxfact.errors import NotDisjoint
    with pytest.raises(NotDisjoint):
        union_of(Disc(QQi(0), Fraction(2)), Disc(QQi(1), Fraction(2)))
    u = union_of(Disc(QQi(-2), Fraction(1)), Disc(QQi(2), Fraction(1)))
    assert isinstance(u, UnionSet)


def test_annulus_validation():
    with pytest.raises(ValueError):
        Annulus(QQi(0), Fraction(2), Fraction(1))


def test_from_obj_roundtrip():
    objs = [
        {"disc": {"center": "1/2+i", "radius": "3/4"}},
        {"annulus": {"center": "0", "inner": "1", "outer": "2"}},
        {"all": True},
        {"union": [{"disc": {"center": "-2", "radius": "1"}},
                   {"disc": {"center": "2", "radius": "1"}}]},
    ]
    for obj in objs:
        s = OpenSet.from_obj(obj)
        assert OpenSet.from_obj(s.to_obj()).to_obj() == s.to_obj()


@given(discs, discs)
def test_subset_implies_membership(d1, d2):
    # conservative subset: a yes answer must be honest on the center
    if is_subset(d1, d2):
        assert d2.contains_point(d1.center)


@given(discs, discs)
def test_disjoint_symmetric_and_honest(d1, d2):
    assert is_disjoint(d1, d2) == is_disjoint(d2, d1)
    if is_disjoint(d1, d2):
        assert not d2.contains_point(d1.center)


def test_exact_real_point_stays_exact():
    """An int or Fraction point is compared exactly, as its QQi is."""
    d = Disc(QQi(0), Fraction(1))
    near = Fraction(10 ** 20 - 1, 10 ** 20)
    assert d.contains_point(near) and d.contains_point(QQi(near))
    assert not d.contains_point(1)
    a = Annulus(QQi(0), Fraction(1), Fraction(2))
    assert a.contains_point(Fraction(10 ** 20 + 1, 10 ** 20))
    assert not a.contains_point(Fraction(2))


annuli = st.builds(lambda c, r, w: Annulus(c, r, r + w),
                   pts, st.one_of(st.just(Fraction(0)), radii), radii)
shapes = st.one_of(discs, annuli)
# large shapes, so that a fair share of pairs are subsets
wide = st.fractions(min_value=4, max_value=16, max_denominator=4)
targets = st.one_of(shapes, st.builds(Disc, pts, wide),
                    st.builds(lambda c, r, w: Annulus(c, r, r + w),
                              pts, radii, wide))
unit = st.fractions(min_value=0, max_value=1, max_denominator=16)
slopes = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def shape_and_point(draw):
    """A disc or annulus and an exact point in it: the centre plus a
    radius strictly inside the shape times a rational unit vector."""
    u = draw(shapes)
    t = draw(unit.filter(lambda x: 0 < x < 1))
    s = draw(slopes)
    direction = QQi((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))
    if draw(st.booleans()):
        direction = -direction
    if isinstance(u, Disc):
        rho = u.radius * t
    else:
        rho = u.inner + (u.outer - u.inner) * t
    return u, u.center + direction * rho


@given(shape_and_point(), targets)
def test_subset_and_disjoint_sound_on_points(up, v):
    u, p = up
    assert u.contains_point(p)
    if is_subset(u, v):
        assert v.contains_point(p)
    if is_disjoint(u, v):
        assert not v.contains_point(p)


# |p|^2 - 1 is -6.6e-17 exactly, though |p| rounds to 1.0
NEAR_UNIT = 0.6643029539301958 + 0.7474634341555553j


def test_float_point_counts_at_its_binary_value():
    assert Disc(0, 1).contains_point(NEAR_UNIT)
    assert not Annulus(QQi(0), Fraction(1), Fraction(2)).contains_point(
        NEAR_UNIT)
    assert circle_vs_circle(NEAR_UNIT / 2, 1 / 2, 0, 1) is True
    assert Disc(0, 1).contains_circle(NEAR_UNIT / 2, 0.5)
    # a float radius counts at its binary value too, not as 0.1 ** 2
    assert point_in_circle(0.1, 0, 0.1) == 0
    assert not Disc(0, 0.1).contains_point(0.1j)


def _predicates(p, c, r, s, half_r, twice_r, rs, half_s, r2s):
    """Every position decision about the point p and circles centred at
    p, against circles centred at c.  The radii are r >= s > 0, r/2, 2r,
    r + s, s/2 and r + 2s, so that each pair of circles is tangent when
    |p - c| = r."""
    def residue(center, radius):
        try:
            return Pairing([CircleMoment(center, radius, 0), DeltaJet(p)])(
                (((0, 1), -1),), 0)
        except ExpansionDomainMismatch:
            return "on the contour"

    return [
        point_in_circle(p, c, r), Disc(c, r).contains_point(p),
        Annulus(c, half_r, r).contains_point(p),
        Annulus(c, r, twice_r).contains_point(p), residue(c, r),
        circle_vs_circle(p, s, c, rs), circle_vs_circle(c, rs, p, s),
        circle_vs_circle(p, rs, c, s), circle_vs_circle(c, s, p, rs),
        Disc(c, rs).contains_circle(p, s),
        Annulus(c, half_s, rs).contains_circle(p, s),
        is_subset(Disc(p, s), Disc(c, rs)),
        is_subset(Disc(c, s), Annulus(p, rs, r2s)),
        is_disjoint(Disc(p, s), Disc(c, rs)),
        is_disjoint(Disc(p, rs), Annulus(c, s, r2s)),
    ]


@settings(max_examples=300, deadline=None)
@given(pts, radii, radii, st.floats(min_value=0, max_value=2 * math.pi))
def test_float_data_decided_as_its_exact_value(c, r, s, t):
    """Float points drawn on circles, c + r e^{it} rounded to a complex:
    rounding puts them on either side, and every predicate decides them,
    against float radii, as it decides their exact binary values."""
    r, s = float(max(r, s)), float(min(r, s))
    p = complex(c) + r * cmath.exp(1j * t)
    radii = (r, s, r / 2, 2 * r, r + s, s / 2, r + 2 * s)
    assert _predicates(p, c, *radii) == _predicates(
        exact_value(p), c, *map(Fraction, radii))


def test_nan_point_raises():
    nan = complex(math.nan, 0.0)
    for decide in (lambda: Disc(0, 1).contains_point(nan),
                   lambda: point_in_circle(nan, 0, 1),
                   lambda: circle_vs_circle(nan, 1, 0, 4),
                   lambda: is_disjoint(Disc(nan, 1), Disc(0, 1))):
        with pytest.raises(ValueError):
            decide()


_NON_FINITE = (math.nan, math.inf, -math.inf)


def test_non_finite_radii_rejected_when_built():
    """A NaN or infinite radius fails in the constructor, not at the first
    position decision; the same holds for the JSON texts 'nan' and 'inf'."""
    for r in _NON_FINITE:
        for build in (lambda: Disc(0, r), lambda: Annulus(0, 1, r),
                      lambda: Annulus(0, r, 2), lambda: CircleMoment(0, r, 0),
                      lambda: CircleMoment(QQi(1), r, -2)):
            with pytest.raises(ValueError):
                build()
    for text in ("nan", "inf", "-inf", "NaN", "Infinity"):
        for obj in ({"disc": {"center": "0", "radius": text}},
                    {"annulus": {"center": "0", "inner": "1", "outer": text}},
                    {"annulus": {"center": "0", "inner": text, "outer": "2"}},
                    {"union": [{"disc": {"center": "0", "radius": text}}]}):
            with pytest.raises(ValueError):
                OpenSet.from_obj(obj)
        with pytest.raises(ValueError):
            factor_from_obj({"moment": {"c": "0", "r": text, "n": 0}})
    # the largest finite float is still a radius
    big = Disc(0, 1.7976931348623157e308)
    assert big.contains_point(QQi(10 ** 300))
    assert CircleMoment(0, 1e300, 0).radius == 1e300
    assert Annulus(0, 0, 1e300).contains_point(1)


# The Fraction formulas the integer comparators replaced, kept as the
# reference: sqrt(A) + sqrt(B) <> C by squaring twice.
def _ref_cmp(a, b):
    return (a > b) - (a < b)


def _ref_cmp_sqrt_sum(A, B, C):
    if C < 0:
        return 1
    D = C * C - (A + B)
    if D < 0:
        return 1
    return _ref_cmp(4 * A * B, D * D)


def _ref_cmp_sqrt(A, C):
    if C < 0:
        return 1
    return _ref_cmp(A, C * C)


def _ref_circle_vs_circle(A, r1, r2):
    if _ref_cmp_sqrt_sum(A, r1 * r1, r2) < 0:
        return True
    if _ref_cmp_sqrt(A, r1 + r2) > 0 or _ref_cmp_sqrt_sum(A, r2 * r2, r1) < 0:
        return False
    return None


radii_or_floats = st.one_of(
    radii, st.floats(min_value=1 / 64, max_value=8, allow_nan=False,
                     allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(pts, slopes, st.booleans(), radii_or_floats, radii_or_floats,
       st.sampled_from(["apart", "inside", "free"]), unit)
def test_integer_comparators_match_the_fraction_formulas(
        c1, s, flip, r1, r2, how, t):
    """|c1 - c2| is r1 + r2 (tangent apart), |r1 - r2| (tangent inside)
    or t (r1 + r2), along a rational Pythagorean direction, so that the
    tangent comparisons come out 0; radii are Fractions or floats."""
    R1, R2 = Fraction(r1), Fraction(r2)
    dist = {"apart": R1 + R2, "inside": abs(R1 - R2),
            "free": t * (R1 + R2)}[how]
    direction = QQi((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))
    c2 = c1 + (-direction if flip else direction) * dist
    A = geometry._dist2(c1, c2)
    FA = (exact_value(c1) - exact_value(c2)).abs2()
    assert Fraction(*A) == FA == dist * dist
    for C in (R1, R2, R1 + R2, R1 - R2, R2 - R1, -R1, Fraction(0)):
        assert geometry.cmp_sqrt(A, C.as_integer_ratio()) \
            == _ref_cmp_sqrt(FA, C)
    # sqrt(A) + b <> C is sqrt(A) <> C - b, one squaring for two
    for b, C in ((R1, R2), (R2, R1), (R1, R1 + R2), (R2, Fraction(0))):
        assert geometry.cmp_sqrt(A, (C - b).as_integer_ratio()) \
            == _ref_cmp_sqrt_sum(FA, b * b, C)
    assert circle_vs_circle(c1, r1, c2, r2) \
        == _ref_circle_vs_circle(FA, R1, R2)
    if how != "free":  # the contours touch
        assert geometry.cmp_sqrt(A, dist.as_integer_ratio()) == 0
        assert circle_vs_circle(c1, r1, c2, r2) is None
        if dist:
            assert point_in_circle(c2, c1, dist) == 0

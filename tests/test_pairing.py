"""The compiled residue pairing against closed forms of the multi-point map.

On random exact data, one- and two-point functionals evaluate exactly to
values the mode engine gives directly: a jet of order d at p on a is
mu(T^d a / d!, p), a jet beside a delta is the two-point map, a lone
moment reads one Laurent coefficient of the flow, and a moment around a
delta is mu(a_(n) b, q).  Arity-three terms agree with nested trapezoid
quadrature.
"""
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import voxfact.residues
from voxfact.expressions import Expression, evaluate_expression
from voxfact.functionals import CircleMoment, DeltaJet
from voxfact.geometry import AllPlane
from voxfact.graded import GradedVector, ProductVector
from voxfact.mu import mu_one_point, two_point_value
from voxfact.presets import (basis_upto, preset_from_name, state_mode,
                             translate_power)
from voxfact.scalars import DegreeWindow, QQi, exact_value

PRESETS = {name: preset_from_name(name)
           for name in ("heisenberg", "virasoro", "affine_sl2")}
WINDOW = DegreeWindow(0, 3)
VAC = GradedVector.vacuum()

presets = st.sampled_from(sorted(PRESETS))
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=6)
points = st.builds(QQi, rationals, rationals)
coeffs = st.builds(QQi, rationals, rationals).filter(bool)


@st.composite
def states(draw, preset):
    """A nonzero combination of one or two basis states of degree <= 2."""
    basis = basis_upto(PRESETS[preset], 2)
    monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=2,
                          unique=True))
    return GradedVector({m: draw(coeffs) for m in monos})


def _eval(preset, factors, vectors):
    expr = Expression.single(AllPlane(), factors, vectors)
    return evaluate_expression(expr, PRESETS[preset], WINDOW)


def _taylor(preset, a, d):
    """T^d a / d!."""
    return translate_power(PRESETS[preset], a, d).scale(
        QQi(Fraction(1, math.factorial(d))))


def _same(got: ProductVector, want: ProductVector):
    assert got.components == want.components
    assert all(v.is_exact() for v in got.components.values())


@settings(max_examples=12, deadline=None)
@given(st.data(), presets, points, st.integers(0, 2))
def test_jet_is_the_flow_of_its_taylor_state(data, preset, p, d):
    a = data.draw(states(preset))
    _same(_eval(preset, [DeltaJet(p, d)], [a]),
          mu_one_point(PRESETS[preset], _taylor(preset, a, d), p, WINDOW))


@settings(max_examples=12, deadline=None)
@given(st.data(), presets, points, points, st.integers(0, 2))
def test_jet_beside_a_delta_is_the_two_point_map(data, preset, p, q, d):
    if p == q:
        q = p + 1
    a, b = data.draw(states(preset)), data.draw(states(preset))
    _same(_eval(preset, [DeltaJet(p, d), DeltaJet(q, 0)], [a, b]),
          two_point_value(PRESETS[preset], _taylor(preset, a, d), b, p, q,
                          WINDOW))


@settings(max_examples=12, deadline=None)
@given(st.data(), presets, points, st.integers(1, 4), st.integers(-4, 2))
def test_lone_moment_reads_one_laurent_coefficient(data, preset, c, r, n):
    a = data.draw(states(preset))
    got = _eval(preset, [CircleMoment(c, Fraction(r, 2), n)], [a])
    if n >= 0:
        assert not got.components
    else:
        _same(got, mu_one_point(PRESETS[preset], _taylor(preset, a, -n - 1),
                                c, WINDOW))


@settings(max_examples=12, deadline=None)
@given(st.data(), presets, points, st.integers(1, 4), st.integers(-3, 2))
def test_moment_around_a_delta_is_a_mode(data, preset, q, r, n):
    a, b = data.draw(states(preset)), data.draw(states(preset))
    _same(_eval(preset, [CircleMoment(q, Fraction(r, 2), n), DeltaJet(q, 0)],
                [a, b]),
          mu_one_point(PRESETS[preset],
                       state_mode(PRESETS[preset], a, n, b), q, WINDOW))


# the arity-three contours, |z| = 1 for a jet and a delta, or |z| = 2
# around |z - 1/2| = 1/4, with every point at least a factor 8/3 away from
# each contour on either side, so that 32 trapezoid nodes resolve every
# pole to far below 1e-9
small = st.fractions(-Fraction(1, 6), Fraction(1, 6), max_denominator=6)
tiny = st.fractions(-Fraction(1, 24), Fraction(1, 24), max_denominator=24)
NEAR = st.builds(QQi, small, small)
FAR = st.builds(QQi, st.sampled_from([-5, -4, 4, 5]),
                st.fractions(-1, 1, max_denominator=4))
INNER, BETWEEN = (st.builds(lambda x, y: QQi(x, y) + c, tiny, tiny)
                  for c in (QQi(Fraction(1, 2)), QQi(Fraction(-1, 2))))
OUTSIDE = st.builds(QQi, st.sampled_from([-9, -8, 8, 9]),
                    st.fractions(-1, 1, max_denominator=4))


def _one_of(*strategies):
    return st.sampled_from(strategies).flatmap(lambda s: s)


@settings(max_examples=8, deadline=None)
@given(st.data(), presets, st.booleans(), st.integers(0, 1),
       st.integers(-3, 1), st.integers(-3, 1))
def test_arity_three_matches_quadrature(data, preset, nested, d, n, m):
    """A jet, a delta and a moment, or a delta and two nested moments (the
    inner one integrated first, with the outer variable free)."""
    gen = GradedVector.basis(basis_upto(PRESETS[preset], 2)[1])
    if nested:
        p = data.draw(_one_of(INNER, BETWEEN, OUTSIDE))
        factors = [DeltaJet(p, 0), CircleMoment(QQi(0), Fraction(2), n),
                   CircleMoment(QQi(Fraction(1, 2)), Fraction(1, 4), m)]
    else:
        p, q = data.draw(_one_of(NEAR, FAR)), data.draw(_one_of(NEAR, FAR))
        if p == q:
            q = -p if p else QQi(Fraction(1, 6))
        factors = [DeltaJet(p, d), DeltaJet(q, 0),
                   CircleMoment(QQi(0), Fraction(1), n)]
    expr = Expression.single(AllPlane(), factors,
                             [data.draw(states(preset)), gen, gen])
    got = evaluate_expression(expr, PRESETS[preset], WINDOW)
    ref = evaluate_expression(expr, PRESETS[preset], WINDOW,
                              force_numeric=True, quad_n=32)
    assert all(v.is_exact() for v in got.components.values())
    for k in WINDOW.degrees():
        scale = max(got.component(k).norm_inf(), 1.0)
        assert ref.component(k).distance(
            got.component(k).to_complex()) / scale < 1e-9, k


def test_jet_at_a_moment_centre_matches_quadrature():
    """A jet at a moment's centre: the quadrature circle of the jet is
    sized by the delta beside it and by the contour, not by the centre,
    which is no singularity."""
    p = PRESETS["affine_sl2"]
    e, f = (GradedVector.basis(((g, 1),)) for g in ("e", "f"))
    expr = Expression.single(
        AllPlane(), [DeltaJet(QQi(0), 1), DeltaJet(QQi(Fraction(1, 8)), 0),
                     CircleMoment(QQi(0), Fraction(1), 0)],
        [f.scale(QQi(0, 1)), e, e])
    got = evaluate_expression(expr, p, WINDOW)
    ref = evaluate_expression(expr, p, WINDOW, force_numeric=True)
    assert got.component(1) == e.scale(QQi(0, -128))
    for k in WINDOW.degrees():
        assert ref.component(k).distance(got.component(k).to_complex()) \
            < 1e-9, k


def test_each_power_is_raised_once(monkeypatch):
    """The virasoro arity-three term of close points, at the exact values
    of its float data: one evaluation raises each point difference to each
    exponent at most once."""
    preset = PRESETS["virasoro"]
    low = basis_upto(preset, 2)
    gen = GradedVector.basis(low[1])
    mixed = (VAC.scale(QQi(Fraction(-2, 3), 1)) + gen.scale(QQi(0, 3))
             + GradedVector.basis(low[-1]).scale(QQi(Fraction(5, 4))))
    factors = [DeltaJet(exact_value(0.3 + 0.1j), 1),
               DeltaJet(exact_value(0.05 - 0.02j), 0),
               CircleMoment(exact_value(0.01j), Fraction(0.9), -2)]
    expr = Expression.single(AllPlane(), factors, [gen, mixed, gen])
    calls = []
    power = voxfact.residues.scalar_pow

    def counted(base, e):
        calls.append((base, e))
        return power(base, e)

    monkeypatch.setattr(voxfact.residues, "scalar_pow", counted)
    got = evaluate_expression(expr, preset, DegreeWindow(0, 4))
    assert got.components
    assert calls and len(set(calls)) == len(calls)

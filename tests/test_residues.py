"""Jets and circle moments of products of linear-factor powers, paired by
the compiled iterated residue `residues.Pairing`.

A factor (z - b)^t with a point b is written as a delta at b on a further
coordinate, z_k = b, with the exponent t on the difference z_0 - z_k.
Frozen oracle values were computed independently with sympy
(derivatives for jets, residues for moments) and are hard-coded here.
"""
from fractions import Fraction

import pytest

from voxfact.errors import ExpansionDomainMismatch
from voxfact.functionals import (CircleMoment, DeltaJet, circle_nodes,
                                 quadrature_moment)
from voxfact.geometry import point_in_circle
from voxfact.residues import Pairing
from voxfact.scalars import QQi


def _value(first, factors: dict):
    """The functional ``first`` on z_0 applied to prod (z_0 - b)^t over
    ``factors`` {b: t}, each b a delta on its own coordinate."""
    deltas = [DeltaJet(b, 0) for b in factors]
    exps = tuple(((0, k), t) for k, t in enumerate(factors.values(), 1))
    return Pairing([first] + deltas)(exps, 0)


def test_jet_oracle_values():
    # f(z) = (z-1)^-2 (z-3) (z+2)^2 at z = 1/2; sympy Taylor coefficients
    # d^j f / j! -- a jet gives Taylor coefficients, not raw derivatives
    factors = {QQi(1): -2, QQi(3): 1, QQi(-2): 2}
    expect = [Fraction(-125, 2), Fraction(-275), Fraction(-840),
              Fraction(-2256)]
    for j, val in enumerate(expect):
        assert _value(DeltaJet(QQi(Fraction(1, 2)), j), factors) == QQi(val)


def test_moment_oracle_values():
    # (1/2 pi i) contour integral over |z| = 2 of z^n (z-1)^-2 (z-3)^-1 (z+5)
    factors = {QQi(1): -2, QQi(3): -1, QQi(-5): 1}
    expect = {0: -2, 1: -5, 2: -8, 3: -11}
    for n, val in expect.items():
        assert _value(CircleMoment(QQi(0), Fraction(2), n),
                      factors) == QQi(val)


def test_moment_center_pole():
    # negative exponent puts a pole at the center: residues at 0 of
    # z^n (z-3)^-1 are -1/3 and -1/9
    factors = {QQi(3): -1}
    assert _value(CircleMoment(QQi(0), Fraction(2), -1), factors) == \
        QQi(Fraction(-1, 3))
    assert _value(CircleMoment(QQi(0), Fraction(2), -2), factors) == \
        QQi(Fraction(-1, 9))


def test_moment_matches_quadrature():
    # cross-check the residue route against dense numeric quadrature
    factors = {QQi(1): -2, QQi(3): -1, QQi(-5): 1}
    exact = complex(_value(CircleMoment(QQi(0), Fraction(2), 2), factors))

    def fn(z):
        return (z - 1) ** -2 * (z - 3) ** -1 * (z + 5)

    approx = quadrature_moment(fn, 0j, 2.0, 2, 4096)
    assert abs(approx - exact) < 1e-9


def test_moment_analytic_inside_is_zero():
    assert _value(CircleMoment(QQi(0), Fraction(2), 3),
                  {QQi(3): -1, QQi(-4): 2}) == 0


def test_pole_on_contour_rejected():
    with pytest.raises(ExpansionDomainMismatch):
        _value(CircleMoment(QQi(0), Fraction(2), 0), {QQi(2): -1})


def test_free_variable_moments():
    # (1/2 pi i) contour integral of z^2 / (z - z_1) over |z| = 2: z_1^2
    # when z_1 is a point inside, 0 when it is outside
    moment = CircleMoment(QQi(0), Fraction(2), 2)
    z1 = QQi(1, 1)
    assert _value(moment, {z1: -1}) == z1 * z1
    assert _value(moment, {QQi(3): -1}) == 0
    # z_1 left free on the encircling contour |z_1| = 3 lies outside, and
    # so does its pole: the inner integral, and the whole pairing, is 0
    outer = CircleMoment(QQi(0), Fraction(3), -1)
    assert Pairing([moment, outer])((((0, 1), -1),), 0) == 0


def test_free_variable_undeclared_rejected():
    # a free variable on a contour that meets this one has no side
    with pytest.raises(ExpansionDomainMismatch):
        Pairing([CircleMoment(QQi(0), Fraction(2), 0),
                 CircleMoment(QQi(1), Fraction(2), 0)])


def test_point_in_circle():
    assert point_in_circle(QQi(1), QQi(0), Fraction(2)) == -1
    assert point_in_circle(QQi(3), QQi(0), Fraction(2)) == 1
    assert point_in_circle(QQi(2), QQi(0), Fraction(2)) == 0
    # irrational modulus decided exactly via squares
    assert point_in_circle(QQi(1, 1), QQi(0), Fraction(3, 2)) == -1


def test_jet_with_free_variable():
    # the delta at 2 of (z - z_1)^-1 leaves z_1 free: 1/(2 - z_1), which
    # z_1 = q turns into 1/(2 - q), and the moment of z_1^-1 over
    # |z_1| = 1 into its residue at 0, 1/2
    q = QQi(Fraction(1, 2), 1)
    assert _value(DeltaJet(QQi(2), 0), {q: -1}) == 1 / (QQi(2) - q)
    pairing = Pairing([DeltaJet(QQi(2), 0),
                       CircleMoment(QQi(0), Fraction(1), -1)])
    assert pairing((((0, 1), -1),), 0) == QQi(Fraction(1, 2))


def test_circle_nodes_on_circle():
    nodes = circle_nodes(1j, 2.0, 8)
    assert len(nodes) == 8
    assert all(abs(abs(z - 1j) - 2.0) < 1e-12 for z in nodes)


def test_float_pole_inside_the_contour():
    """A float pole counts at its binary value: this one lies 6.6e-17 in
    squared modulus inside the unit circle, though |p| rounds to 1.0."""
    p = 0.6643029539301958 + 0.7474634341555553j
    assert abs(p) == 1.0
    assert _value(CircleMoment(QQi(0), Fraction(1), 0), {p: -1}) == QQi(1)
    assert point_in_circle(p, QQi(0), Fraction(1)) == -1

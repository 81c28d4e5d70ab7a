"""Symbolic jets and circle moments of products of linear-factor powers.

Frozen oracle values were computed independently with sympy
(derivatives for jets, residues for moments) and are hard-coded here.
"""
from fractions import Fraction

import pytest

from voxfact.errors import ExpansionDomainMismatch
from voxfact.functionals import circle_nodes, quadrature_moment
from voxfact.residues import Var, moment_sym, point_in_circle, sym_jet
from voxfact.scalars import QQi


def _const(terms):
    # collapse a [(coeff, var_factors)] answer with no free variable
    assert all(not fs for _, fs in terms)
    total = QQi(0)
    for c, _ in terms:
        total = total + c
    return total


def test_jet_oracle_values():
    # f(z) = (z-1)^-2 (z-3) (z+2)^2 at z = 1/2; sympy Taylor coefficients
    # d^j f / j! -- sym_jet returns Taylor coefficients, not raw derivatives
    factors = {QQi(1): -2, QQi(3): 1, QQi(-2): 2}
    expect = [Fraction(-125, 2), Fraction(-275), Fraction(-840),
              Fraction(-2256)]
    for j, val in enumerate(expect):
        assert _const(sym_jet(factors, QQi(Fraction(1, 2)), j)) == QQi(val)


def test_moment_oracle_values():
    # (1/2 pi i) contour integral over |z| = 2 of z^n (z-1)^-2 (z-3)^-1 (z+5)
    factors = {QQi(1): -2, QQi(3): -1, QQi(-5): 1}
    expect = {0: -2, 1: -5, 2: -8, 3: -11}
    for n, val in expect.items():
        assert _const(moment_sym(factors, QQi(0), Fraction(2), n)) == QQi(val)


def test_moment_center_pole():
    # negative exponent puts a pole at the center: residues at 0 of
    # z^n (z-3)^-1 are -1/3 and -1/9
    factors = {QQi(3): -1}
    assert _const(moment_sym(factors, QQi(0), Fraction(2), -1)) == \
        QQi(Fraction(-1, 3))
    assert _const(moment_sym(factors, QQi(0), Fraction(2), -2)) == \
        QQi(Fraction(-1, 9))


def test_moment_matches_quadrature():
    # cross-check the residue route against dense numeric quadrature
    factors = {QQi(1): -2, QQi(3): -1, QQi(-5): 1}
    exact = complex(_const(moment_sym(factors, QQi(0), Fraction(2), 2)))

    def fn(z):
        return (z - 1) ** -2 * (z - 3) ** -1 * (z + 5)

    approx = quadrature_moment(fn, 0j, 2.0, 2, 4096)
    assert abs(approx - exact) < 1e-9


def test_moment_analytic_inside_is_zero():
    assert moment_sym({QQi(3): -1, QQi(-4): 2}, QQi(0), Fraction(2), 3) == []


def test_pole_on_contour_rejected():
    with pytest.raises(ExpansionDomainMismatch):
        moment_sym({QQi(2): -1}, QQi(0), Fraction(2), 0)


def test_free_variable_moments():
    # (1/2 pi i) contour integral of z^2 / (z - z_1): z_1^2 if the free
    # point is declared inside, 0 if outside
    z1 = Var(1)
    inside = moment_sym({z1: -1}, QQi(0), Fraction(2), 2, inside={z1: True})
    assert inside == [(QQi(1), {(z1, QQi(0)): 2})]
    assert moment_sym({z1: -1}, QQi(0), Fraction(2), 2,
                      inside={z1: False}) == []


def test_free_variable_undeclared_rejected():
    with pytest.raises(ExpansionDomainMismatch):
        moment_sym({Var(1): -1}, QQi(0), Fraction(2), 0, inside=None)


def test_point_in_circle():
    assert point_in_circle(QQi(1), QQi(0), Fraction(2)) == -1
    assert point_in_circle(QQi(3), QQi(0), Fraction(2)) == 1
    assert point_in_circle(QQi(2), QQi(0), Fraction(2)) == 0
    # irrational modulus decided exactly via squares
    assert point_in_circle(QQi(1, 1), QQi(0), Fraction(3, 2)) == -1


def test_jet_with_free_variable():
    # jet at p of (z - z_1)^-1 keeps z_1 symbolic: value 1/(p - z_1) shows
    # up as a factor with negative power
    out = sym_jet({Var(1): -1}, QQi(2), 0)
    assert len(out) == 1
    coeff, fs = out[0]
    assert fs == {(Var(1), QQi(2)): -1}


def test_circle_nodes_on_circle():
    nodes = circle_nodes(1j, 2.0, 8)
    assert len(nodes) == 8
    assert all(abs(abs(z - 1j) - 2.0) < 1e-12 for z in nodes)


def test_float_pole_inside_the_contour():
    """A float pole counts at its binary value: this one lies 6.6e-17 in
    squared modulus inside the unit circle, though |p| rounds to 1.0."""
    p = 0.6643029539301958 + 0.7474634341555553j
    assert abs(p) == 1.0
    assert _const(moment_sym({p: -1}, QQi(0), Fraction(1), 0)) == QQi(1)
    assert point_in_circle(p, QQi(0), Fraction(1)) == -1

"""One-, two- and multi-point multiplication maps.

Closed-form oracle for the free-boson generator pair, derived directly from
the mode sum mu(a, z, a, 0) = sum_n a_(n) a z^(-n-1):

    p_0 = z^(-2) |0>,  p_2 = a(-1)a(-1),  p_{m+1} = z^(m-1) a(-m)a(-1)  (m >= 2).
"""
import math
from fractions import Fraction

import pytest

from voxfact.errors import DomainViolation, EqualModuli, NonConvergent
from voxfact.graded import GradedVector
from voxfact.mu import (check_associativity, check_equivariance_exact,
                        check_equivariance_numeric, check_insertion_at_zero,
                        check_meromorphicity, check_permutation,
                        check_skew_transport, mu_numeric, mu_one_point,
                        two_point_value)
from voxfact.presets import basis_upto, preset_from_name
from voxfact.scalars import DegreeWindow, QQi


def B(*tokens):
    from voxfact.graded import parse_token
    return GradedVector.basis(tuple(parse_token(t) for t in tokens))


def test_one_point_at_zero_is_identity(boson, gen_a, window6):
    pv = mu_one_point(boson, gen_a, QQi(0), window6)
    assert pv.flatten() == gen_a


def test_one_point_is_translation_flow(boson, gen_a):
    z = QQi(Fraction(1, 2))
    pv = mu_one_point(boson, gen_a, z, DegreeWindow(0, 3))
    assert pv.component(1) == gen_a
    assert pv.component(2) == B("a(-2)").scale(z)
    assert pv.component(3) == B("a(-3)").scale(QQi(Fraction(1, 4)))


def test_two_point_boson_closed_form(boson, gen_a, window6):
    z = QQi(Fraction(5, 2))
    pv = two_point_value(boson, gen_a, gen_a, z, QQi(0), window6)
    assert pv.component(0) == GradedVector.vacuum().scale(QQi(Fraction(4, 25)))
    assert not pv.component(1)
    assert pv.component(2) == B("a(-1)", "a(-1)")
    for m in range(2, 6):
        assert pv.component(m + 1) == \
            B(f"a(-{m})", "a(-1)").scale(z ** (m - 1)), m


def test_two_point_coincident_points_rejected(boson, gen_a, window6):
    with pytest.raises(DomainViolation):
        two_point_value(boson, gen_a, gen_a, QQi(1), QQi(1), window6)


def test_two_point_second_point_general(boson, gen_a, window6):
    # translation covariance: value at (z+c, c) is the flow of the value at (z, 0)
    z, c = QQi(3), QQi(1)
    moved = two_point_value(boson, gen_a, gen_a, z + c, c, window6)
    base = two_point_value(boson, gen_a, gen_a, z, QQi(0),
                           DegreeWindow(0, window6.hi))
    from voxfact.presets import translate_power
    for k in window6.degrees():
        expect = GradedVector.zero()
        for j in range(k + 1):
            expect = expect + translate_power(
                boson, base.component(k - j), j).scale(
                    (c ** j) * QQi(Fraction(1, math.factorial(j))))
        assert moved.component(k) == expect


def test_numeric_matches_exact_two_point(boson, gen_a):
    w = DegreeWindow(0, 5)
    exact = two_point_value(boson, gen_a, gen_a, QQi(Fraction(5, 2)), QQi(0), w)
    approx = mu_numeric(boson, [gen_a, gen_a], [2.5, 0.0], w, tol=1e-12)
    for k in w.degrees():
        assert approx.component(k).distance(
            exact.component(k).to_complex()) < 1e-10


def test_numeric_equal_moduli_rejected(boson, gen_a):
    with pytest.raises(EqualModuli):
        mu_numeric(boson, [gen_a, gen_a], [1.0, 1.0j], DegreeWindow(0, 2))


def test_numeric_unreachable_tolerance(boson, gen_a):
    with pytest.raises(NonConvergent):
        mu_numeric(boson, [gen_a, gen_a, gen_a], [1.001, 1.0005, 1.0],
                   DegreeWindow(0, 2), tol=1e-12, d_max=8)


def test_numeric_empty_input(boson):
    pv = mu_numeric(boson, [], [], DegreeWindow(0, 2))
    assert pv.component(0) == GradedVector.vacuum()


def test_numeric_high_degree_state_not_dropped(boson):
    # a state far above the window must still contribute through annihilation
    deep = B("a(-4)")
    w = DegreeWindow(0, 2)
    pv = mu_numeric(boson, [deep, deep], [3.0, 1.0], w, tol=1e-9, d_max=90)
    exact = two_point_value(boson, deep, deep, QQi(3), QQi(1), w)
    assert pv.component(0).norm_inf() > 0
    for k in w.degrees():
        assert pv.component(k).distance(
            exact.component(k).to_complex()) < 1e-7


def test_insertion_at_zero_check(boson):
    rep = check_insertion_at_zero(boson, 4)
    assert rep.passed and rep.max_err == 0.0


def test_equivariance_exact_check(boson, vir):
    q = QQi(Fraction(2, 3), Fraction(1, 2))
    a, w = B("a(-1)"), B("L(-2)")
    rep = check_equivariance_exact(boson, [(a, a, QQi(3), q)],
                                   DegreeWindow(0, 5))
    assert rep.passed
    rep = check_equivariance_exact(vir, [(w, w, QQi(4), q)],
                                   DegreeWindow(0, 5))
    assert rep.passed


def test_equivariance_numeric_check(boson, gen_a):
    rep = check_equivariance_numeric(
        boson, [([gen_a, gen_a, gen_a], [4.0, 1.0 + 0.2j, 0.25j],
                 0.7 + 0.1j)], DegreeWindow(0, 4), tol=1e-8)
    assert rep.passed, rep.max_err


def test_permutation_check(boson, gen_a):
    rep = check_permutation(boson, [gen_a, B("a(-2)")], [3.0, 0.5 - 0.2j],
                            DegreeWindow(0, 4), tol=1e-9)
    assert rep.passed, rep.max_err


def test_skew_transport_check(boson, vir, gen_a):
    rep = check_skew_transport(boson, [(gen_a, B("a(-2)"))],
                               QQi(Fraction(5, 2)), DegreeWindow(0, 5))
    assert rep.passed
    w = B("L(-2)")
    rep = check_skew_transport(vir, [(w, w)], QQi(2), DegreeWindow(0, 6))
    assert rep.passed


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_two_point_locality(name):
    """mu(a, z, b, w) == mu(b, w, a, z) exactly, with w != 0, for every pair
    of basis states of degree <= 2 (check_skew_transport covers w = 0)."""
    preset = preset_from_name(name)
    z, w = QQi(Fraction(5, 2), 1), QQi(Fraction(-1, 3), Fraction(1, 2))
    window = DegreeWindow(0, 4)
    states = [GradedVector.basis(m) for m in basis_upto(preset, 2)]
    for a in states:
        for b in states:
            ab = two_point_value(preset, a, b, z, w, window)
            ba = two_point_value(preset, b, a, w, z, window)
            for k in window.degrees():
                assert ab.component(k) == ba.component(k), (a, b, k)


def test_associativity_check(boson, gen_a):
    rep = check_associativity(boson, [(gen_a, 4.0)],
                              [(gen_a, 0.3), (gen_a, -0.3)], 1.0,
                              DegreeWindow(0, 4), tol=1e-8)
    assert rep.passed, rep.max_err
    assert rep.truncation["curve"][-1] <= 1e-8


def test_associativity_domain_guard(boson, gen_a):
    with pytest.raises(DomainViolation):
        check_associativity(boson, [(gen_a, 1.2)],
                            [(gen_a, 1.5), (gen_a, -0.3)], 1.0,
                            DegreeWindow(0, 3))


def test_meromorphicity_check(boson, vir, sl2):
    for preset in (boson, vir, sl2):
        assert check_meromorphicity(preset, 3).passed

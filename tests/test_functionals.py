"""Analytic functionals: jets, moments, pushforwards, quadrature."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from voxfact.functionals import (CircleMoment, DeltaJet, apply_factor_numeric,
                                 factor_from_obj, pushforward_factor,
                                 quadrature_moment)
from voxfact.scalars import QQi

rat = st.fractions(min_value=-4, max_value=4, max_denominator=6)
pts = st.builds(QQi, rat, rat)


def test_factor_obj_roundtrip():
    for f in (DeltaJet(QQi(Fraction(1, 2)), 3),
              CircleMoment(QQi(1, 1), Fraction(3, 4), -2)):
        assert factor_from_obj(f.to_obj()) == f


# pushforward defining identity: (g_* alpha)(f) = alpha(f o g) for affine
# g(z) = lam z + b, checked numerically on polynomial test functions

def _poly(z):
    return 3.0 + 2.0 * z + 0.5 * z ** 3


@given(st.sampled_from([0, 1, 2, 3]), pts)
def test_jet_pushforward_identity(order, p):
    lam, b = QQi(Fraction(3, 2), Fraction(1, 3)), QQi(Fraction(-1, 2))
    jet = DeltaJet(p, order)
    scale, pushed = pushforward_factor(jet, lam, b)
    assert isinstance(pushed, DeltaJet)
    assert pushed.point == lam * p + b
    assert scale == lam ** order

    # alpha(f o g) where alpha is the original jet
    lam_c, b_c = complex(lam), complex(b)
    direct = apply_factor_numeric(jet, lambda z: _poly(lam_c * z + b_c), 256)
    moved = scale * apply_factor_numeric(pushed, _poly, 256)
    assert abs(complex(moved) - direct) < 1e-8 * max(1.0, abs(direct))


@given(st.sampled_from([-2, -1, 0, 1, 2]), pts)
def test_moment_pushforward_identity(exponent, c):
    lam, b = QQi(Fraction(3, 2)), QQi(Fraction(1, 4), Fraction(1, 2))
    mom = CircleMoment(c, Fraction(1, 2), exponent)
    scale, pushed = pushforward_factor(mom, lam, b)
    assert isinstance(pushed, CircleMoment)
    assert pushed.center == lam * c + b
    assert pushed.radius == Fraction(3, 4)
    assert scale == QQi(1) / lam ** (exponent + 1)

    lam_c, b_c = complex(lam), complex(b)
    direct = apply_factor_numeric(mom, lambda z: _poly(lam_c * z + b_c), 256)
    moved = scale * apply_factor_numeric(pushed, _poly, 256)
    assert abs(complex(moved) - complex(direct)) < 1e-8


def test_moment_pushforward_irrational_scale():
    # |lam| irrational: the pushed radius drops to a float
    lam = QQi(1, 1)
    mom = CircleMoment(QQi(0), Fraction(2), 0)
    _, pushed = pushforward_factor(mom, lam, QQi(0))
    assert isinstance(pushed.radius, float)
    assert abs(pushed.radius - 2 * 2 ** 0.5) < 1e-12


def test_quadrature_moment_poly_exact():
    # (1/2 pi i) contour integral of z^n z^3: nonzero exactly at n = -4
    val = quadrature_moment(lambda z: z ** 3, 0j, 1.0, -4, 32)
    assert abs(val - 1.0) < 1e-12
    val = quadrature_moment(lambda z: z ** 3, 0j, 1.0, -3, 32)
    assert abs(val) < 1e-12


def test_jet_validation():
    with pytest.raises(ValueError):
        DeltaJet(QQi(0), -1)
    with pytest.raises(ValueError):
        CircleMoment(QQi(0), Fraction(-1), 0)

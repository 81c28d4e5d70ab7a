"""Finite-rank analytic functionals: point jets and circle moments.

A functional on m-variable functions is a tuple of factors, one per
coordinate, each factor either

* ``DeltaJet(p, d)``: f |-> f^(d)(p) / d!, or
* ``CircleMoment(c, r, n)``: f |-> (1/2 pi i) contour integral of (z-c)^n f over |z-c|=r,

applied iteratively from the first coordinate outward.  It is held as the
factors of an `expressions.Term`, whose coefficient makes linear
combinations, and `expressions.multiply` / `expressions.affine_act` are its
product and pushforward.  Pushforward along an affine map z -> lam z + w
follows from substitution in the defining pairing and forces the scale
factors lam^d (jets) and lam^(-n-1) (moments).
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import UsageError
from .records import FrozenRecord
from .scalars import (exact_value, is_exact, point_from_text, real_from_text,
                      scalar_pow)


class DeltaJet(FrozenRecord):
    __slots__ = ("point",  # QQi or complex
                 "order")

    def __init__(self, point, order: int = 0):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "order", order)

    def to_obj(self):
        return {"delta": {"p": _pt_str(self.point), "d": self.order}}


class CircleMoment(FrozenRecord):
    __slots__ = ("center",  # QQi or complex
                 "radius",  # Fraction or float, finite and > 0
                 "exponent")

    def __init__(self, center, radius, exponent: int = 0):
        if not 0 < radius < math.inf:
            raise ValueError(f"moment radius must be positive and finite, "
                             f"not {radius!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "exponent", exponent)

    def to_obj(self):
        return {"moment": {"c": _pt_str(self.center), "r": _rad_str(self.radius),
                           "n": self.exponent}}


def _pt_str(p):
    return str(exact_value(p)) if is_exact(p) else repr(complex(p))


def _rad_str(r):
    return str(r) if is_exact(r) else repr(float(r))


def factor_from_obj(obj):
    """Inverse of the factors' `to_obj`; points and radii are exact iff
    their text is an exact literal (`scalars.point_from_text`,
    `scalars.real_from_text`)."""
    if "delta" in obj:
        d = obj["delta"]
        return DeltaJet(point_from_text(d["p"]), _integer(d, "d"))
    if "moment" in obj:
        d = obj["moment"]
        return CircleMoment(point_from_text(d["c"]), real_from_text(d["r"]),
                            _integer(d, "n"))
    raise UsageError(f"bad functional factor {obj!r}")


def _integer(d, key) -> int:
    """d[key] (0 if absent), a JSON integer or its text, never a float."""
    v = d.get(key, 0)
    if type(v) is not int and not isinstance(v, str):
        raise UsageError(f"bad functional factor: {key} {v!r} is no integer")
    return int(v)


# ---------------------------------------------------------------------------
# pushforward


def sqrt_of_modulus(lam):
    """|lam| as a Fraction when that is exact, else a float."""
    if is_exact(lam):
        a2 = exact_value(lam).abs2()
        num, den = a2.numerator, a2.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return math.sqrt(float(a2))
    return abs(complex(lam))


def pushforward_factor(factor, lam, shift):
    """Pushforward along g(z) = lam z + shift; returns (scale, factor)."""
    if isinstance(factor, DeltaJet):
        newp = lam * factor.point + shift
        return scalar_pow(lam, factor.order), DeltaJet(newp, factor.order)
    newc = lam * factor.center + shift
    newr = factor.radius * sqrt_of_modulus(lam)
    return scalar_pow(lam, -factor.exponent - 1), CircleMoment(newc, newr,
                                                               factor.exponent)


# ---------------------------------------------------------------------------
# numeric quadrature


def circle_nodes(center, radius, n: int):
    """n equally spaced trapezoid nodes on |z - center| = radius."""
    c = complex(center)
    r = float(radius)
    return [c + r * cmath.exp(2j * cmath.pi * s / n) for s in range(n)]


def quadrature_moment(fn, center, radius, exponent: int, n: int):
    """Trapezoid-rule contour integral (1/2 pi i normalized) of (z-c)^exponent fn(z) on n nodes.

    Exact for Laurent polynomials of bandwidth below n (aliasing identity).
    """
    c = complex(center)
    acc = None
    for z in circle_nodes(center, radius, n):
        val = fn(z)
        w = (z - c) ** (exponent + 1)
        term = val * w if not hasattr(val, "scale") else val.scale(w)
        acc = term if acc is None else acc + term
    if hasattr(acc, "scale"):
        return acc.scale(1.0 / n)
    return acc / n


def apply_factor_numeric(factor, fn, quad_n: int, jet_radius=None):
    """Apply one analytic factor to a numeric callable of one variable."""
    if isinstance(factor, DeltaJet):
        if factor.order == 0:
            return fn(complex(factor.point))
        r = jet_radius if jet_radius is not None else 0.25
        return quadrature_moment(fn, factor.point, r, -factor.order - 1, quad_n)
    return quadrature_moment(fn, factor.center, factor.radius,
                             factor.exponent, quad_n)

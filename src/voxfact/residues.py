"""Exact jet and contour-moment calculus on products of power factors.

Functions of one variable are handled as linear combinations of

    prod_i (z - b_i)^{t_i},        t_i integer, b_i pairwise distinct,

represented by factor maps {b_i: t_i}.  Jets (scaled Taylor coefficients)
follow from the Leibniz rule, circle moments from the residue theorem with
square-free inside/outside decisions.  A distinguished base `VAR` stands for
a not-yet-bound outer variable, so the same code computes inner integrals
symbolically: evaluating a factor (w - VAR)^t at a concrete point q leaves
the outer-variable factor (VAR - q)^t behind (up to sign).

All formulas are exact over Gaussian rationals and remain valid verbatim
with complex floating data.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ExpansionDomainMismatch
from .scalars import (QQi, binom, same_point, scalar_key, scalar_pow,
                      scalar_zero)

VAR = object()  # sentinel base for the unbound outer variable


def merge_factor(factors: dict, base, exp: int) -> dict:
    if exp == 0:
        return dict(factors)
    out = dict(factors)
    key = _find_base(out, base)
    if key is None:
        out[base] = exp
    else:
        t = out[key] + exp
        if t == 0:
            del out[key]
        else:
            out[key] = t
    return out


def _find_base(factors: dict, base):
    if base is VAR:
        return VAR if VAR in factors else None
    for k in factors:
        if k is VAR:
            continue
        if same_point(k, base):
            return k
    return None


def _power_at(p, b, e: int):
    """(p - b)**e where p, b are concrete points; 0**0 == 1."""
    d = p - b if isinstance(p, QQi) and isinstance(b, QQi) else complex(p) - complex(b)
    if scalar_zero(d):
        if e > 0:
            return QQi(0) if isinstance(d, QQi) else 0j
        if e == 0:
            return QQi(1) if isinstance(d, QQi) else complex(1)
        raise ExpansionDomainMismatch("jet taken at a pole")
    return scalar_pow(d, e)


def sym_jet(factors: dict, point, order: int):
    """Order-d jet (d-th derivative over d!) of prod (w-b)^t at w = point.

    ``point`` may be VAR (evaluation at the symbolic outer variable) and
    factor bases may include VAR.  Returns a list of (coeff, out_factors)
    where out_factors is a factor map in the outer variable; when neither
    point nor bases involve VAR the factor maps are empty and the result is
    a plain scalar decomposition.
    """
    items = sorted(factors.items(), key=lambda item: _base_key(item[0]))
    return _sym_jet_rec(items, point, order)


def _base_key(b):
    """Exact sort and merge key of a factor base; VAR sorts last."""
    return ("v",) if b is VAR else scalar_key(b)


def _sym_jet_rec(items, point, order):
    if not items:
        return [(QQi(1), {})] if order == 0 else []
    (b, t) = items[0]
    rest = items[1:]
    out = []
    for i in range(0, order + 1):
        cb = binom(t, i)
        if not cb:
            continue
        coeff, extra = _eval_power_factor(point, b, t - i)
        if coeff is None:
            continue
        for rc, rf in _sym_jet_rec(rest, point, order - i):
            c = rc * coeff * cb
            if scalar_zero(c):
                continue
            f = rf
            if extra is not None:
                f = merge_factor(rf, extra[0], extra[1])
            out.append((c, f))
    return _collect(out)


def _eval_power_factor(point, b, e: int):
    """Value of (w - b)^e at w = point; returns (scalar, residual factor)."""
    if e == 0:
        return QQi(1), None
    if point is VAR and b is VAR:
        raise ExpansionDomainMismatch("self-referential factor")
    if point is VAR:
        # (VAR - b)^e stays symbolic
        return QQi(1), (b, e)
    if b is VAR:
        # (point - VAR)^e = (-1)^e (VAR - point)^e
        return QQi((-1) ** e), (point, e)
    val = _power_at(point, b, e)
    if scalar_zero(val):
        return None, None
    return val, None


def _collect(pairs):
    acc = {}
    for c, f in pairs:
        key = tuple(sorted((_base_key(b), e) for b, e in f.items()))
        c0, f0 = acc.get(key, (0, f))
        acc[key] = (c0 + c, f0)
    return [(c, f) for c, f in acc.values() if not scalar_zero(c)]


def point_in_circle(b, center, radius) -> int:
    """-1 inside, 0 on the circle, +1 outside; exact for exact data."""
    if isinstance(b, QQi) and isinstance(center, QQi) and isinstance(radius, Fraction):
        d2 = (b - center).abs2()
        r2 = radius * radius
        return (d2 > r2) - (d2 < r2)
    d = abs(complex(b) - complex(center))
    r = float(radius)
    return (d > r) - (d < r)


def moment_sym(factors: dict, center, radius, exponent: int,
               var_inside: bool | None = None):
    """(1/2 pi i) contour integral of (w-center)^exponent * prod factors
    around the circle |w - center| = radius.

    Returns a list of (coeff, out_factors) in the outer variable.  VAR bases
    are poles whose inside/outside status is supplied by ``var_inside``.
    """
    merged = merge_factor(factors, center, exponent)
    out = []
    for b, t in list(merged.items()):
        if t >= 0:
            continue
        if b is VAR:
            if var_inside is None:
                raise ExpansionDomainMismatch(
                    "unbound-variable pole with undecided position")
            if not var_inside:
                continue
        else:
            side = point_in_circle(b, center, radius)
            if side == 0:
                raise ExpansionDomainMismatch("pole sits on the contour")
            if side > 0:
                continue
        others = {bb: tt for bb, tt in merged.items() if bb is not b}
        out.extend(sym_jet(others, b, -t - 1))
    return _collect(out)

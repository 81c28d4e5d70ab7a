"""Exact jets and contour moments of products of power factors.

Functions of the free variables z_0, z_1, ... are linear combinations of
products prod (z_i - b)^t, t integer, held as factor maps
{(Var(i), b): t}.  A base b is a point or another free variable, so
(z_i - z_k)^t is {(Var(i), Var(k)): t}.  `sym_jet` and `moment_sym` act on
one variable w, given by its own map {b: t} (`coordinate` splits it off):
jets by the Leibniz rule, moments by the residue theorem.  Both return
(coeff, factor map) pairs in the variables left free, so one coordinate
after another they compute the iterated residue that pairs a product
functional with the rational multi-point map.

The values are plain arithmetic on the points: exact over Gaussian
rationals, and the same formulas in complex arithmetic as soon as a point
is a float.  Whether a pole lies inside a contour is always decided
exactly, by `geometry.point_in_circle`, so a float pole counts at its
binary value.
"""
from __future__ import annotations

from .errors import ExpansionDomainMismatch
from .geometry import point_in_circle
from .records import FrozenRecord
from .scalars import QQi, binom, scalar_pow, scalar_zero


class Var(FrozenRecord):
    """The free variable z_index."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


def coordinate(factors: dict, var: Var):
    """Split a factor map into (sign, own, rest): own = {b: t} holds the
    factors (var - b)^t, rest the factors free of var, and
    sign * prod own * prod rest is the product of ``factors``.  A factor
    (z_k - var)^t moves to own as (var - z_k)^t with the sign (-1)^t."""
    sign, own, rest = 1, {}, {}
    for (v, b), t in factors.items():
        if v == var:
            own[b] = own.get(b, 0) + t
        elif b == var:
            sign *= -1 if t % 2 else 1
            own[v] = own.get(v, 0) + t
        else:
            rest[(v, b)] = t
    return sign, {b: t for b, t in own.items() if t}, rest


def merge(factors: dict, other: dict) -> dict:
    """The product of two factor maps."""
    out = dict(factors)
    for key, t in other.items():
        s = out.get(key, 0) + t
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _power_at(p, b, e: int):
    """(p - b)**e where p, b are concrete points; 0**0 == 1."""
    try:
        return scalar_pow(p - b, e)
    except ZeroDivisionError:
        raise ExpansionDomainMismatch("jet taken at a pole") from None


def sym_jet(factors: dict, point, order: int):
    """Order-d jet (d-th derivative over d!) of prod (w - b)^t at w = point.

    ``point`` and the bases b are points or free variables.  Returns a list
    of (coeff, factor map) in the free variables; when neither involves a
    free variable the factor maps are empty and the result is a plain
    scalar decomposition.
    """
    return _sym_jet_rec(list(factors.items()), point, order)


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
            out.append((c, merge(rf, extra) if extra else rf))
    return _collect(out)


def _eval_power_factor(point, b, e: int):
    """Value of (w - b)^e at w = point: (scalar, residual factor map or
    None), or (None, None) when the value is zero."""
    if e == 0:
        return QQi(1), None
    if isinstance(point, Var):
        # (z_k - b)^e stays a factor
        if point == b:
            raise ExpansionDomainMismatch("self-referential factor")
        return QQi(1), {(point, b): e}
    if isinstance(b, Var):
        # (point - z_k)^e = (-1)^e (z_k - point)^e
        return QQi(-1 if e % 2 else 1), {(b, point): e}
    val = _power_at(point, b, e)
    if scalar_zero(val):
        return None, None
    return val, None


def _collect(pairs):
    acc = {}
    for c, f in pairs:
        key = frozenset(f.items())
        c0, f0 = acc.get(key, (0, f))
        acc[key] = (c0 + c, f0)
    return [(c, f) for c, f in acc.values() if not scalar_zero(c)]


def moment_sym(factors: dict, center, radius, exponent: int,
               inside: dict | None = None):
    """(1/2 pi i) contour integral of (w-center)^exponent * prod factors
    around the circle |w - center| = radius.

    Returns a list of (coeff, factor map) in the free variables.  A pole at
    a free variable counts when ``inside`` maps that variable to True, and
    is skipped when it maps it to False; a pole at a variable it does not
    place is an error.
    """
    merged = merge(factors, {center: exponent})
    out = []
    for b, t in merged.items():
        if t >= 0:
            continue
        if isinstance(b, Var):
            if inside is None or b not in inside:
                raise ExpansionDomainMismatch(
                    "free-variable pole with undecided position")
            if not inside[b]:
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

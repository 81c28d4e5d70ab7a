"""Open subsets of the plane, and every position decision on it.

Supported shapes: open discs, open round annuli (disc minus a closed
concentric-or-not hole is *not* general here: an annulus is a genuine
{ri < |z - z0| < ro}), the whole plane, and finite unions.  Every
predicate here -- a point in a set or against a circle, a contour inside
another, sets nested or apart -- is exact on every input; a float counts
as its binary value.  Each is decided in integer arithmetic on pairs
(num, den), den > 0: squared distances are read off the
`scalars.exact_value` lifts of the points (`_dist2`), each radius (an
int, Fraction or float) is lifted once by `as_integer_ratio`, and a
decision sqrt(A) + r <> C, r a radius, is sqrt(A) <> C - r, which
`cmp_sqrt` settles by one cross-multiplication.  Subset tests on unions
are conservative: a positive answer is always correct, a negative answer
may reject a decomposable containment.
"""
from __future__ import annotations

import math

from .records import FrozenRecord
from .scalars import exact_value, point_from_text, real_from_text


def _dist2(p, q) -> tuple:
    """|p - q|^2 of the exact values of two points, as (num, den)."""
    p, q = exact_value(p), exact_value(q)
    x, y = p.a * q.d - q.a * p.d, p.b * q.d - q.b * p.d
    return x * x + y * y, (p.d * q.d) ** 2


def _plus(r, s, sign=1) -> tuple:
    """r + sign * s, on pairs (num, den)."""
    return r[0] * s[1] + sign * s[0] * r[1], r[1] * s[1]


def cmp_sqrt(A, C) -> int:
    """Compare sqrt(A) with C, both pairs (num, den); A >= 0."""
    (an, ad), (cn, cd) = A, C
    if cn < 0:
        return 1
    x, y = an * cd * cd, cn * cn * ad
    return (x > y) - (x < y)


def point_in_circle(p, center, radius) -> int:
    """-1 inside, 0 on the circle, +1 outside."""
    return cmp_sqrt(_dist2(p, center), radius.as_integer_ratio())


def circle_vs_circle(c1, r1, c2, r2):
    """Position of contour 1 relative to the open disc of contour 2:
    True if inside, False if outside, None if the contours meet."""
    A, r1, r2 = _dist2(c1, c2), r1.as_integer_ratio(), r2.as_integer_ratio()
    if cmp_sqrt(A, _plus(r2, r1, -1)) < 0:
        return True
    if cmp_sqrt(A, _plus(r1, r2)) > 0 or cmp_sqrt(A, _plus(r1, r2, -1)) < 0:
        return False  # apart, or contour 1 encircles contour 2
    return None


class OpenSet(FrozenRecord):
    __slots__ = ()

    def contains_point(self, p) -> bool:
        raise NotImplementedError

    def contains_circle(self, center, radius) -> bool:
        raise NotImplementedError

    def to_obj(self):
        raise NotImplementedError

    @staticmethod
    def from_obj(obj) -> "OpenSet":
        if obj.get("all"):
            return AllPlane()
        if "disc" in obj:
            d = obj["disc"]
            return Disc(point_from_text(d["center"]),
                        real_from_text(d["radius"]))
        if "annulus" in obj:
            d = obj["annulus"]
            return Annulus(point_from_text(d["center"]),
                           real_from_text(d["inner"]),
                           real_from_text(d["outer"]))
        if "union" in obj:
            return UnionSet(tuple(OpenSet.from_obj(o) for o in obj["union"]))
        raise ValueError(f"bad open-set object {obj!r}")


class AllPlane(OpenSet):
    __slots__ = ()

    def contains_point(self, p):
        return True

    def contains_circle(self, center, radius):
        return True

    def to_obj(self):
        return {"all": True}


class Disc(OpenSet):
    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        if not 0 < radius < math.inf:
            raise ValueError(f"disc radius must be positive and finite, "
                             f"not {radius!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    def contains_point(self, p):
        return point_in_circle(p, self.center, self.radius) < 0

    def contains_circle(self, center, radius):
        inside = circle_vs_circle(center, radius, self.center, self.radius)
        return inside is True

    def to_obj(self):
        return {"disc": {"center": str(self.center), "radius": str(self.radius)}}


class Annulus(OpenSet):
    __slots__ = ("center", "inner", "outer")

    def __init__(self, center, inner, outer):
        if not 0 <= inner < outer < math.inf:
            raise ValueError(f"need 0 <= inner < outer < inf, "
                             f"not {inner!r}, {outer!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)

    def contains_point(self, p):
        A, (ri, ro) = _dist2(p, self.center), _radii(self)
        return cmp_sqrt(A, ri) > 0 and cmp_sqrt(A, ro) < 0

    def contains_circle(self, center, radius):
        outer = circle_vs_circle(center, radius, self.center, self.outer)
        hole = circle_vs_circle(center, radius, self.center, self.inner)
        # inside the outer circle, and apart from the hole or around it
        return outer is True and hole is False

    def to_obj(self):
        return {"annulus": {"center": str(self.center),
                            "inner": str(self.inner),
                            "outer": str(self.outer)}}


class UnionSet(OpenSet):
    __slots__ = ("members",)

    def __init__(self, members: tuple):
        # members must be pairwise disjoint, checked exactly
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if not is_disjoint(u, v):
                    from .errors import NotDisjoint
                    raise NotDisjoint("union members overlap")
        object.__setattr__(self, "members", members)

    def contains_point(self, p):
        return any(m.contains_point(p) for m in self.members)

    def contains_circle(self, center, radius):
        return any(m.contains_circle(center, radius) for m in self.members)

    def to_obj(self):
        return {"union": [m.to_obj() for m in self.members]}


def union_of(u: OpenSet, v: OpenSet) -> OpenSet:
    mu = u.members if isinstance(u, UnionSet) else (u,)
    mv = v.members if isinstance(v, UnionSet) else (v,)
    return UnionSet(mu + mv)


def _radii(u):
    """(inner, outer) radii of a disc (inner None) or an annulus, lifted."""
    if isinstance(u, Disc):
        return None, u.radius.as_integer_ratio()
    return u.inner.as_integer_ratio(), u.outer.as_integer_ratio()


def is_subset(u: OpenSet, v: OpenSet) -> bool:
    """Conservative subset decision; True answers are always correct."""
    if isinstance(v, AllPlane):
        return True
    if isinstance(u, AllPlane):
        return False
    if isinstance(u, UnionSet):
        return all(is_subset(m, v) for m in u.members)
    if isinstance(v, UnionSet):
        return any(is_subset(u, m) for m in v.members)
    A = _dist2(u.center, v.center)
    (ui, uo), (vi, vo) = _radii(u), _radii(v)
    if cmp_sqrt(A, _plus(vo, uo, -1)) > 0:
        return False  # u reaches past the outer circle of v
    if vi is None:
        return True
    if ui is None:  # the disc u keeps clear of the hole
        return cmp_sqrt(A, _plus(vi, uo)) >= 0
    # every point of u keeps distance >= vi from the centre of v when the
    # hole of u shields it: ui - |centres| >= vi
    return cmp_sqrt(A, _plus(ui, vi, -1)) <= 0


def is_disjoint(u: OpenSet, v: OpenSet) -> bool:
    """Conservative disjointness decision; True answers are always correct."""
    if isinstance(u, UnionSet):
        return all(is_disjoint(m, v) for m in u.members)
    if isinstance(v, UnionSet):
        return all(is_disjoint(u, m) for m in v.members)
    if isinstance(u, AllPlane) or isinstance(v, AllPlane):
        return False
    A = _dist2(u.center, v.center)
    (ui, uo), (vi, vo) = _radii(u), _radii(v)
    # far apart, or one inside the hole of the other
    return (cmp_sqrt(A, _plus(uo, vo)) >= 0
            or (vi is not None and cmp_sqrt(A, _plus(vi, uo, -1)) <= 0)
            or (ui is not None and cmp_sqrt(A, _plus(ui, vo, -1)) <= 0))

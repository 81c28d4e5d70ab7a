"""Open subsets of the plane with exact containment and disjointness tests.

Supported shapes: open discs, open round annuli (disc minus a closed
concentric-or-not hole is *not* general here: an annulus is a genuine
{ri < |z - z0| < ro}), the whole plane, and finite unions.  All predicates
on Gaussian-rational data are decided exactly; comparisons of the form
sqrt(A) + sqrt(B) <> C are resolved by repeated squaring.  Subset tests on
unions are conservative: a positive answer is always correct, a negative
answer may reject a decomposable containment.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import QQi, parse_qqi


def _abs2(p) -> Fraction:
    if isinstance(p, QQi):
        return p.abs2()
    z = complex(p)
    return z.real * z.real + z.imag * z.imag  # float fallback


def _diff(p, q):
    ep, eq = QQi._lift(p), QQi._lift(q)
    if ep is not None and eq is not None:
        return ep - eq
    return complex(p) - complex(q)


def cmp_frac(a, b) -> int:
    return (a > b) - (a < b)


def cmp_sqrt_sum(A, B, C) -> int:
    """Compare sqrt(A) + sqrt(B) with C; A, B >= 0."""
    if C < 0:
        return 1
    S = A + B
    D = C * C - S
    if D < 0:
        return 1
    return cmp_frac(4 * A * B, D * D)


def cmp_sqrt(A, C) -> int:
    """Compare sqrt(A) with C; A >= 0."""
    if C < 0:
        return 1
    return cmp_frac(A, C * C)


class OpenSet:
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
            return Disc(parse_qqi(d["center"]), Fraction(d["radius"]))
        if "annulus" in obj:
            d = obj["annulus"]
            return Annulus(parse_qqi(d["center"]), Fraction(d["inner"]),
                           Fraction(d["outer"]))
        if "union" in obj:
            return UnionSet(tuple(OpenSet.from_obj(o) for o in obj["union"]))
        raise ValueError(f"bad open-set object {obj!r}")


@dataclass(frozen=True)
class AllPlane(OpenSet):
    def contains_point(self, p):
        return True

    def contains_circle(self, center, radius):
        return True

    def to_obj(self):
        return {"all": True}


@dataclass(frozen=True)
class Disc(OpenSet):
    center: QQi
    radius: Fraction

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")

    def contains_point(self, p):
        d2 = _abs2(_diff(p, self.center))
        return d2 < self.radius * self.radius

    def contains_circle(self, center, radius):
        A = _abs2(_diff(center, self.center))
        return cmp_sqrt_sum(A, radius * radius, self.radius) < 0

    def to_obj(self):
        return {"disc": {"center": str(self.center), "radius": str(self.radius)}}


@dataclass(frozen=True)
class Annulus(OpenSet):
    center: QQi
    inner: Fraction
    outer: Fraction

    def __post_init__(self):
        if not (0 <= self.inner < self.outer):
            raise ValueError("need 0 <= inner < outer")

    def contains_point(self, p):
        d2 = _abs2(_diff(p, self.center))
        return self.inner ** 2 < d2 < self.outer ** 2

    def contains_circle(self, center, radius):
        A = _abs2(_diff(center, self.center))
        out_ok = cmp_sqrt_sum(A, radius * radius, self.outer) < 0
        # min distance from the hole center to the circle is |sqrt(A) - r|
        in_ok = (cmp_sqrt(A, self.inner + radius) > 0
                 or (radius > self.inner
                     and cmp_sqrt(A, radius - self.inner) < 0))
        return out_ok and in_ok

    def to_obj(self):
        return {"annulus": {"center": str(self.center),
                            "inner": str(self.inner),
                            "outer": str(self.outer)}}


@dataclass(frozen=True)
class UnionSet(OpenSet):
    members: tuple

    def __post_init__(self):
        # members must be pairwise disjoint, checked exactly
        for i, u in enumerate(self.members):
            for v in self.members[i + 1:]:
                if not is_disjoint(u, v):
                    from .errors import NotDisjoint
                    raise NotDisjoint("union members overlap")

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
    if isinstance(u, Disc) and isinstance(v, Disc):
        A = _abs2(_diff(u.center, v.center))
        return cmp_sqrt_sum(A, u.radius ** 2, v.radius) <= 0
    if isinstance(u, Disc) and isinstance(v, Annulus):
        A = _abs2(_diff(u.center, v.center))
        return (cmp_sqrt_sum(A, u.radius ** 2, v.outer) <= 0
                and cmp_sqrt(A, v.inner + u.radius) >= 0)
    if isinstance(u, Annulus) and isinstance(v, Disc):
        A = _abs2(_diff(u.center, v.center))
        return cmp_sqrt_sum(A, u.outer ** 2, v.radius) <= 0
    if isinstance(u, Annulus) and isinstance(v, Annulus):
        A = _abs2(_diff(u.center, v.center))
        out_ok = cmp_sqrt_sum(A, u.outer ** 2, v.outer) <= 0
        # every point of u keeps distance >= v.inner from v.center when the
        # hole of u shields it: inner_u - |centers| >= inner_v
        in_ok = cmp_sqrt_sum(A, v.inner ** 2, u.inner) <= 0
        return out_ok and in_ok
    return False


def is_disjoint(u: OpenSet, v: OpenSet) -> bool:
    """Conservative disjointness decision; True answers are always correct."""
    if isinstance(u, UnionSet):
        return all(is_disjoint(m, v) for m in u.members)
    if isinstance(v, UnionSet):
        return all(is_disjoint(u, m) for m in v.members)
    if isinstance(u, AllPlane) or isinstance(v, AllPlane):
        return False
    if isinstance(u, Disc) and isinstance(v, Disc):
        A = _abs2(_diff(u.center, v.center))
        return cmp_sqrt(A, u.radius + v.radius) >= 0
    if isinstance(u, Annulus) and isinstance(v, Disc):
        u, v = v, u
    if isinstance(u, Disc) and isinstance(v, Annulus):
        A = _abs2(_diff(u.center, v.center))
        inside_hole = cmp_sqrt_sum(A, u.radius ** 2, v.inner) <= 0
        outside = cmp_sqrt(A, v.outer + u.radius) >= 0
        return inside_hole or outside
    if isinstance(u, Annulus) and isinstance(v, Annulus):
        A = _abs2(_diff(u.center, v.center))
        far = cmp_sqrt(A, u.outer + v.outer) >= 0
        u_in_hole = cmp_sqrt_sum(A, u.outer ** 2, v.inner) <= 0
        v_in_hole = cmp_sqrt_sum(A, v.outer ** 2, u.inner) <= 0
        return far or u_in_hole or v_in_hole
    return False

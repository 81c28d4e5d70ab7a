"""Expressions: analytic functionals tensored with states over an open set.

An expression on an open carrier U is a finite sum of terms

    coeff * (factor_1 x ... x factor_m) (x) (a_1 (x) ... (x) a_m),

one analytic factor and one state per coordinate, identified under
simultaneous permutation of coordinates (terms are kept in a canonical
sorted form).  Evaluation pairs the functional with the multi-point
multiplication map of the states.  Up to arity two the route is exact:
the residue calculus pairs each factor with the powers of the points in
the closed forms, and `mu.one_point_sum` and `mu.two_point_sum` sum the
paired terms.  Terms of arity three or more, and exact terms whose
expansion domain does not fit, go through nested trapezoid quadrature
(`functionals.apply_factor_numeric`) over `mu.mu_numeric`, the rational
multi-point map evaluated at the float nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ExpansionDomainMismatch, NotASubset, NotDisjoint,
                     VoxfactError)
from .functionals import (AtomicFunctional, CircleMoment, DeltaJet,
                          affine_point, apply_factor_numeric, factor_from_obj,
                          pushforward_factor, scale_radius, sqrt_of_modulus)
from .geometry import (AllPlane, Annulus, Disc, OpenSet, UnionSet,
                       cmp_sqrt, cmp_sqrt_sum, is_disjoint, is_subset,
                       union_of)
from .graded import GradedVector, ProductVector
from .mu import mu_numeric, one_point_sum, two_point_sum
from .presets import VAPreset
from .residues import VAR, moment_sym, point_in_circle, sym_jet
from .scalars import (DegreeWindow, QQi, coeff_from_obj, coeff_to_obj,
                      is_exact, same_point, scalar_key)


@dataclass(frozen=True)
class Term:
    coeff: object
    atom: AtomicFunctional
    states: tuple  # GradedVector per coordinate

    @property
    def arity(self):
        return len(self.states)


class Expression:
    """Symmetry-normalized sum of functional-state terms on a carrier."""

    def __init__(self, carrier: OpenSet, terms, validate: bool = True):
        self.carrier = carrier
        self.terms = _normalize(terms)
        if validate:
            for t in self.terms:
                _validate_term(carrier, t)

    @classmethod
    def single(cls, carrier, factors, states, coeff=None, validate=True):
        return cls(carrier,
                   [Term(QQi(1) if coeff is None else coeff,
                         AtomicFunctional(tuple(factors)), tuple(states))],
                   validate=validate)

    def scale(self, s):
        return Expression(self.carrier,
                          [Term(t.coeff * s, t.atom, t.states)
                           for t in self.terms], validate=False)

    def __add__(self, other):
        if self.carrier != other.carrier:
            raise VoxfactError("cannot add expressions on different carriers")
        return Expression(self.carrier, list(self.terms) + list(other.terms),
                          validate=False)

    def __sub__(self, other):
        return self + other.scale(-1)

    def is_exact(self) -> bool:
        return all(is_exact(t.coeff) and t.atom.is_exact()
                   and all(s.is_exact() for s in t.states)
                   for t in self.terms)

    def support_points(self):
        """All delta points and moment contours, flattened."""
        pts, circles = [], []
        for t in self.terms:
            for f in t.atom.factors:
                if isinstance(f, DeltaJet):
                    pts.append(f.point)
                else:
                    circles.append((f.center, f.radius))
        return pts, circles

    def to_obj(self):
        return {"carrier": self.carrier.to_obj(),
                "terms": [{"coeff": coeff_to_obj(t.coeff),
                           "factors": [f.to_obj() for f in t.atom.factors],
                           "states": [s.to_obj() for s in t.states]}
                          for t in self.terms]}

    @classmethod
    def from_obj(cls, obj):
        carrier = OpenSet.from_obj(obj["carrier"])
        terms = []
        for e in obj["terms"]:
            terms.append(Term(coeff_from_obj(e["coeff"]),
                              AtomicFunctional(tuple(factor_from_obj(f)
                                                     for f in e["factors"])),
                              tuple(GradedVector.from_obj(s)
                                    for s in e["states"])))
        return cls(carrier, terms)


def _factor_key(f):
    if isinstance(f, DeltaJet):
        return (0, scalar_key(f.point), f.order)
    return (1, scalar_key(f.center), f.exponent, scalar_key(f.radius))


def _state_key(s: GradedVector):
    return s.to_json()

def _normalize(terms):
    merged = {}
    for t in terms:
        if not t.coeff:
            continue
        order = sorted(range(t.arity),
                       key=lambda i: (_factor_key(t.atom.factors[i]),
                                      _state_key(t.states[i])))
        atom = AtomicFunctional(tuple(t.atom.factors[i] for i in order))
        states = tuple(t.states[i] for i in order)
        key = (tuple(_factor_key(f) for f in atom.factors),
               tuple(_state_key(s) for s in states))
        if key in merged:
            c0, _, _ = merged[key]
            merged[key] = (c0 + t.coeff, atom, states)
        else:
            merged[key] = (t.coeff, atom, states)
    out = [Term(c, a, s) for (c, a, s) in merged.values() if c]
    out.sort(key=lambda t: (t.arity,
                            tuple(_factor_key(f) for f in t.atom.factors),
                            tuple(_state_key(s) for s in t.states)))
    return tuple(out)


def _validate_term(carrier, t: Term):
    factors = t.atom.factors
    for f in factors:
        if isinstance(f, DeltaJet):
            if not carrier.contains_point(f.point):
                raise NotASubset("jet point outside the carrier")
        else:
            if not carrier.contains_circle(f.center, f.radius):
                raise NotASubset("moment contour outside the carrier")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if not _supports_separated(factors[i], factors[j]):
                raise NotDisjoint("coordinate supports touch")


def _supports_separated(f, g):
    if isinstance(f, DeltaJet) and isinstance(g, DeltaJet):
        return not same_point(f.point, g.point)
    if isinstance(f, DeltaJet) and isinstance(g, CircleMoment):
        return point_in_circle(f.point, g.center, g.radius) != 0
    if isinstance(f, CircleMoment) and isinstance(g, DeltaJet):
        return point_in_circle(g.point, f.center, f.radius) != 0
    return _circles_separated(f.center, f.radius, g.center, g.radius)


def _circles_separated(c1, r1, c2, r2):
    """Contours do not meet: one strictly inside the other, or far apart."""
    rel = circle_vs_circle(c1, r1, c2, r2)
    return rel is not None


def circle_vs_circle(c1, r1, c2, r2):
    """Position of contour 1 relative to the open disc of contour 2:
    True if inside, False if outside, None if the contours meet."""
    if isinstance(c1, QQi) and isinstance(c2, QQi) \
            and isinstance(r1, Fraction) and isinstance(r2, Fraction):
        A = (c1 - c2).abs2()
        if cmp_sqrt_sum(A, r1 * r1, r2) < 0:
            return True
        if cmp_sqrt(A, r1 + r2) > 0:
            return False
        if cmp_sqrt_sum(A, r2 * r2, r1) < 0:
            return False  # contour 1 encircles contour 2, points outside disc 2
        return None
    d = abs(complex(c1) - complex(c2))
    if d + float(r1) < float(r2):
        return True
    if d > float(r1) + float(r2) or d + float(r2) < float(r1):
        return False
    return None


# ---------------------------------------------------------------------------
# structural operations


def extend(expr: Expression, target: OpenSet) -> Expression:
    if not is_subset(expr.carrier, target):
        raise NotASubset("carrier does not sit inside the target set")
    return Expression(target, list(expr.terms), validate=False)


def multiply(x: Expression, y: Expression, target: OpenSet) -> Expression:
    if not is_disjoint(x.carrier, y.carrier):
        raise NotDisjoint("carriers overlap")
    both = union_of(x.carrier, y.carrier)
    if not is_subset(both, target):
        raise NotASubset("carrier union does not sit inside the target")
    terms = []
    for tx in x.terms:
        for ty in y.terms:
            terms.append(Term(tx.coeff * ty.coeff,
                              AtomicFunctional(tx.atom.factors + ty.atom.factors),
                              tx.states + ty.states))
    return Expression(target, terms)


def affine_act(lam, shift, expr: Expression) -> Expression:
    """The affine group action: pushforward on functionals, dilation on
    states (translations act trivially on states), image carrier."""
    terms = []
    for t in expr.terms:
        coeff = t.coeff
        factors = []
        for f in t.atom.factors:
            s, nf = pushforward_factor(f, lam, shift)
            coeff = coeff * s
            factors.append(nf)
        states = tuple(s.grading_act(lam) for s in t.states)
        terms.append(Term(coeff, AtomicFunctional(tuple(factors)), states))
    return Expression(_map_set(expr.carrier, lam, shift), terms, validate=False)


def _map_set(u: OpenSet, lam, shift):
    if isinstance(u, AllPlane):
        return u
    mod = sqrt_of_modulus(lam)
    if isinstance(u, Disc):
        return Disc(affine_point(lam, u.center, shift),
                    scale_radius(u.radius, mod))
    if isinstance(u, Annulus):
        return Annulus(affine_point(lam, u.center, shift),
                       scale_radius(u.inner, mod), scale_radius(u.outer, mod))
    return UnionSet(tuple(_map_set(m, lam, shift) for m in u.members))


# ---------------------------------------------------------------------------
# evaluation


def evaluate_expression(expr: Expression, preset: VAPreset,
                        window: DegreeWindow, quad_n: int | None = None,
                        force_numeric: bool = False) -> ProductVector:
    out = ProductVector(window)
    for t in expr.terms:
        if not force_numeric and t.arity <= 2:
            try:
                pv = _eval_term_exact(preset, t, window)
                out = out + pv.scale(t.coeff)
                continue
            except ExpansionDomainMismatch:
                pass
        pv = _eval_term_numeric(preset, t, window, quad_n)
        out = out + pv.scale(t.coeff)
    return out


def _eval_term_exact(preset, t: Term, window) -> ProductVector:
    if t.arity == 0:
        pv = ProductVector(window)
        if 0 in window:
            pv.set_component(0, GradedVector.vacuum())
        return pv
    if t.arity == 1:
        return _eval_arity1(preset, t.states[0], t.atom.factors[0], window)
    return _eval_arity2(preset, t.states, t.atom.factors, window)


def _eval_arity1(preset, a, factor, window) -> ProductVector:
    # the factor paired with z^j, the j-th term of the flow exp(zT) a
    return one_point_sum(preset, a, window,
                         lambda j: _apply_outer(factor, {QQi(0): j} if j else {}))


def _apply_outer(factor, z_factors):
    """Apply an analytic factor to a concrete product-of-powers function."""
    if isinstance(factor, DeltaJet):
        pieces = sym_jet(z_factors, factor.point, factor.order)
    else:
        pieces = moment_sym(z_factors, factor.center, factor.radius,
                            factor.exponent)
    total = QQi(0)
    for c, f in pieces:
        if f:
            raise ExpansionDomainMismatch("unresolved symbolic factor")
        total = total + c
    return total


def _eval_arity2(preset, states, factors, window) -> ProductVector:
    a, b = states
    f1, f2 = factors
    if isinstance(f1, DeltaJet) and isinstance(f2, CircleMoment) \
            and point_in_circle(f1.point, f2.center, f2.radius) < 0:
        # With the delta inside the moment's contour, the residue at w = z
        # puts the moment's pole at z; a delta at the centre would take its
        # jet there.  Pair the moment as the outer factor instead: the
        # states commute, all three presets being purely even.
        a, b, f1, f2 = b, a, f2, f1
    return two_point_sum(preset, a, b, window,
                         lambda j, e: _pair_bivariate(f1, f2, j, e))


def _pair_bivariate(f1, f2, j: int, e: int):
    """Pair f1 (outer variable z) and f2 (inner variable w) against
    w^j (z - w)^e; the 1/j! normalization lives in the state vector."""
    sign = QQi((-1) ** e)  # (z-w)^e = (-1)^e (w-z)^e
    w_factors = {}
    if j:
        w_factors[QQi(0)] = j
    if e:
        w_factors[VAR] = e
    if isinstance(f2, DeltaJet):
        pieces = sym_jet(w_factors, f2.point, f2.order)
    else:
        var_inside = _outer_inside(f1, f2)
        pieces = moment_sym(w_factors, f2.center, f2.radius, f2.exponent,
                            var_inside=var_inside)
    total = QQi(0)
    for c, z_factors in pieces:
        val = _apply_outer(f1, z_factors)
        if val:
            total = total + c * val
    return sign * total


def _outer_inside(f1, f2: CircleMoment):
    """Whether the outer coordinate support lies inside the contour of f2."""
    if isinstance(f1, DeltaJet):
        side = point_in_circle(f1.point, f2.center, f2.radius)
        if side == 0:
            raise ExpansionDomainMismatch("outer point on the inner contour")
        return side < 0
    rel = circle_vs_circle(f1.center, f1.radius, f2.center, f2.radius)
    if rel is None:
        raise ExpansionDomainMismatch("contours intersect")
    return rel


def _eval_term_numeric(preset, t: Term, window, quad_n) -> ProductVector:
    if quad_n is None:
        quad_n = 2 * window.hi + 16
    supports = []
    for f in t.atom.factors:
        supports.append(complex(f.point) if isinstance(f, DeltaJet)
                        else complex(f.center))

    def jet_radius(idx):
        p = supports[idx]
        dists = [abs(p - q) for i, q in enumerate(supports) if i != idx]
        for i, f in enumerate(t.atom.factors):
            if i != idx and isinstance(f, CircleMoment):
                dists.append(abs(abs(p - complex(f.center)) - float(f.radius)))
        base = min(dists) if dists else 1.0
        return min(0.25 * base, 0.5) if base > 0 else 0.25

    states = [s.to_complex() for s in t.states]

    def rec(idx, bound):
        if idx == len(t.atom.factors):
            return mu_numeric(preset, states, bound, window)
        return apply_factor_numeric(t.atom.factors[idx],
                                    lambda z: rec(idx + 1, bound + [z]),
                                    quad_n, jet_radius(idx))

    return rec(0, [])

"""Expressions: analytic functionals tensored with states over an open set.

An expression on an open carrier U is a finite sum of terms

    coeff * (factor_1 x ... x factor_m) (x) (a_1 (x) ... (x) a_m),

one analytic factor and one state per coordinate, identified under
simultaneous permutation of coordinates (terms are kept in a canonical
sorted form).  Evaluation pairs the functional with the multi-point
multiplication map of the states.  `mu.mode_box` writes that map as a
finite sum of state vectors times products of powers of the differences of
the points, and the pairing of each such scalar is an iterated residue:
`residues.Pairing` compiles a term's factors once, then pairs every
scalar of its box on integer exponent tuples, exact on exact data, the
same formulas in complex arithmetic on float data, at every arity.  Nested
trapezoid quadrature of the same scalars stays available under
``force_numeric``, as the checks' reference.
"""
from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .errors import NotASubset, NotDisjoint, VoxfactError
from .functionals import (CircleMoment, DeltaJet, apply_factor_numeric,
                          factor_from_obj, pushforward_factor, sqrt_of_modulus)
from .geometry import (AllPlane, Annulus, Disc, OpenSet, UnionSet,
                       circle_vs_circle, is_subset, point_in_circle, union_of)
from .graded import GradedVector, ProductVector
from .mu import box_terms, mode_box
from .presets import VAPreset
from .records import FrozenRecord
from .residues import Pairing
from .scalars import (DegreeWindow, QQi, coeff_from_obj, coeff_to_obj,
                      is_exact, same_point, scalar_key)


class Term(FrozenRecord):
    __slots__ = ("coeff",
                 "factors",  # DeltaJet or CircleMoment per coordinate
                 "states")   # GradedVector per coordinate

    def __init__(self, coeff, factors: tuple, states: tuple):
        if len(factors) != len(states):
            raise ValueError(f"a term has {len(factors)} factors but "
                             f"{len(states)} states")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "states", states)


class Expression:
    """Symmetry-normalized sum of functional-state terms on a carrier."""

    def __init__(self, carrier: OpenSet, terms, validate: bool = True):
        self.carrier = carrier
        self.terms = _normalize(terms)
        if validate:
            for t in self.terms:
                _validate_term(carrier, t)

    @classmethod
    def single(cls, carrier, factors, states, coeff=None):
        return cls(carrier, [Term(QQi(1) if coeff is None else coeff,
                                  tuple(factors), tuple(states))])

    def scale(self, s):
        return Expression(self.carrier,
                          [Term(t.coeff * s, t.factors, t.states)
                           for t in self.terms], validate=False)

    def __add__(self, other):
        if self.carrier != other.carrier:
            raise VoxfactError("cannot add expressions on different carriers")
        return Expression(self.carrier, list(self.terms) + list(other.terms),
                          validate=False)

    def __sub__(self, other):
        return self + other.scale(-1)

    def is_exact(self) -> bool:
        return all(is_exact(t.coeff)
                   and all(is_exact(f.point) if isinstance(f, DeltaJet)
                           else is_exact(f.center) and is_exact(f.radius)
                           for f in t.factors)
                   and all(s.is_exact() for s in t.states)
                   for t in self.terms)

    def support_points(self):
        """All delta points and moment contours, flattened."""
        pts, circles = [], []
        for t in self.terms:
            for f in t.factors:
                if isinstance(f, DeltaJet):
                    pts.append(f.point)
                else:
                    circles.append((f.center, f.radius))
        return pts, circles

    def to_obj(self):
        return {"carrier": self.carrier.to_obj(),
                "terms": [{"coeff": coeff_to_obj(t.coeff),
                           "factors": [f.to_obj() for f in t.factors],
                           "states": [s.to_obj() for s in t.states]}
                          for t in self.terms]}

    @classmethod
    def from_obj(cls, obj):
        carrier = OpenSet.from_obj(obj["carrier"])
        terms = []
        for e in obj["terms"]:
            terms.append(Term(coeff_from_obj(e["coeff"]),
                              tuple(factor_from_obj(f) for f in e["factors"]),
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
    """Sort each term's coordinates, merge equal terms and sort the terms,
    all by (factor keys, state keys).  A state's key, its JSON text, is
    computed only where factor keys tie: between coordinates of one term,
    or between terms with the same factor keys."""
    entries = []  # (factor keys, coeff, factors, states)
    for t in terms:
        if not t.coeff:
            continue
        coords = sorted(zip(map(_factor_key, t.factors), t.factors, t.states),
                        key=itemgetter(0))
        if any(e[0] == g[0] for e, g in zip(coords, coords[1:])):
            coords.sort(key=lambda e: (e[0], _state_key(e[2])))
        keys, factors, states = zip(*coords) if coords else ((), (), ())
        entries.append((keys, t.coeff, factors, states))
    # a stable sort keeps terms with equal factor keys in input order
    entries.sort(key=lambda e: (len(e[0]), e[0]))
    out = []
    for _, run in groupby(entries, key=itemgetter(0)):
        run = [e[1:] for e in run]
        if len(run) > 1:
            merged = {}
            for c, f, s in run:
                key = tuple(map(_state_key, s))
                old = merged.get(key)
                merged[key] = (c if old is None else old[0] + c, f, s)
            run = [merged[k] for k in sorted(merged) if merged[k][0]]
        out += [Term(*e) for e in run]
    return tuple(out)


def _validate_term(carrier, t: Term):
    factors = t.factors
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
    rel = circle_vs_circle(f.center, f.radius, g.center, g.radius)
    return rel is not None  # the contours do not meet


# ---------------------------------------------------------------------------
# structural operations


def extend(expr: Expression, target: OpenSet) -> Expression:
    if not is_subset(expr.carrier, target):
        raise NotASubset("carrier does not sit inside the target set")
    return Expression(target, list(expr.terms), validate=False)


def multiply(x: Expression, y: Expression, target: OpenSet) -> Expression:
    both = union_of(x.carrier, y.carrier)
    if not is_subset(both, target):
        raise NotASubset("carrier union does not sit inside the target")
    terms = []
    for tx in x.terms:
        for ty in y.terms:
            terms.append(Term(tx.coeff * ty.coeff, tx.factors + ty.factors,
                              tx.states + ty.states))
    return Expression(target, terms)


def affine_act(lam, shift, expr: Expression) -> Expression:
    """The affine group action: pushforward on functionals, dilation on
    states (translations act trivially on states), image carrier."""
    if lam == 0:
        raise ValueError("affine scale must be invertible")
    terms = []
    for t in expr.terms:
        coeff = t.coeff
        factors = []
        for f in t.factors:
            s, nf = pushforward_factor(f, lam, shift)
            coeff = coeff * s
            factors.append(nf)
        states = tuple(s.grading_act(lam) for s in t.states)
        terms.append(Term(coeff, tuple(factors), states))
    return Expression(_map_set(expr.carrier, lam, shift), terms, validate=False)


def _map_set(u: OpenSet, lam, shift):
    if isinstance(u, AllPlane):
        return u
    mod = sqrt_of_modulus(lam)
    if isinstance(u, Disc):
        return Disc(lam * u.center + shift, u.radius * mod)
    if isinstance(u, Annulus):
        return Annulus(lam * u.center + shift, u.inner * mod, u.outer * mod)
    return UnionSet(tuple(_map_set(m, lam, shift) for m in u.members))


# ---------------------------------------------------------------------------
# evaluation


def evaluate_expression(expr: Expression, preset: VAPreset,
                        window: DegreeWindow, quad_n: int | None = None,
                        force_numeric: bool = False) -> ProductVector:
    """ev(expr): each term's functional paired with the multi-point map of
    its states, one group per term of one `mu.mode_box`, in one flow.

    By default every scalar of the box is paired by iterated residues
    (`residues.Pairing`, compiled once per term and dropped with this
    call): exactly on exact data, in complex arithmetic on float data.
    With ``force_numeric`` the pairing is nested trapezoid quadrature on
    ``quad_n`` nodes per contour (`_quadrature`), the reference route of
    the checks.
    """
    if quad_n is None:
        quad_n = 2 * window.hi + 16
    return mode_box(preset, ((box_terms(preset, t.states, window),
                              _quadrature(t.factors, quad_n) if force_numeric
                              else Pairing(t.factors), t.coeff)
                             for t in expr.terms), window)


def _quadrature(factors, quad_n):
    """The scalar callback of `mode_box` that applies the factors to
    prod (z_i - z_k)^t z_m^j by nested trapezoid quadrature
    (`functionals.apply_factor_numeric`), in complex arithmetic.  It makes
    no use of the residue calculus, so it checks that route
    independently."""
    def jet_radius(idx):
        # the other jets' points and the moments' contours are the
        # singularities near a jet; a moment's centre is not one
        p = complex(factors[idx].point)
        dists = [abs(p - complex(f.point)) if isinstance(f, DeltaJet)
                 else abs(abs(p - complex(f.center)) - float(f.radius))
                 for i, f in enumerate(factors) if i != idx]
        base = min(dists) if dists else 1.0
        return min(0.25 * base, 0.5) if base > 0 else 0.25

    radii = [jet_radius(i) if isinstance(f, DeltaJet) else None
             for i, f in enumerate(factors)]

    def scalar(exps, j):
        def rec(idx, zs):
            if idx == len(factors):
                val = zs[-1] ** j if j else complex(1)
                for (i, k), t in exps:
                    val *= (zs[i] - zs[k]) ** t
                return val
            return apply_factor_numeric(factors[idx],
                                        lambda z: rec(idx + 1, zs + [z]),
                                        quad_n, radii[idx])
        return rec(0, [])

    return scalar

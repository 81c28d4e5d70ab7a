"""Relation kernels, weight projections, and model-level checks.

This module ties the functional calculus to the multiplication maps: exact
evaluation kernels over Gaussian rationals, weight components, the annulus
obstruction showing that evaluation kernels fail to form an ideal under
multiplication, and the finite-shadow checks for multiplicativity, covers,
and density of disc-supported relations along scaling orbits.

The weight-k component of an expression x is the q^k Fourier coefficient
of its dilation orbit q |-> ev(q . x).  Evaluation is dilation-equivariant,
ev(q . x)_d = q^d ev(x)_d, so `weight_project` reads it off one
evaluation, exactly on exact data.  The weight-projection checks keep the
orbit itself, sampled by the trapezoid rule, as an independent second
route.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import NotDisjoint, VoxfactError
from .expressions import (Expression, Term, _factor_key, _state_key,
                          affine_act, evaluate_expression, multiply)
from .functionals import CircleMoment, DeltaJet, quadrature_moment
from .geometry import Annulus, Disc, OpenSet
from .graded import GradedVector
from .linalg import nullspace
from .mu import check_identity_on_basis, compare_parts, mu_one_point
from .presets import VAPreset, heisenberg, pole_bound, state_mode
from .report import CheckReport
from .scalars import DegreeWindow, QQi, scalar_key


# ---------------------------------------------------------------------------
# relation kernels


def relation_kernel(preset: VAPreset, exprs, window: DegreeWindow):
    """Exact basis of the evaluation kernel of a family of expressions.

    The expressions must carry exact data; they may have any arity.
    Returns a list of QQi coefficient vectors c with
    sum_i c_i ev(expr_i) = 0 degreewise.
    """
    evs = []
    for e in exprs:
        if not e.is_exact():
            raise VoxfactError("relation kernels need exactly evaluable input")
        evs.append(evaluate_expression(e, preset, window))
    row_index = {}
    for pv in evs:
        for k in window.degrees():
            for mono in pv.component(k).terms:
                row_index.setdefault((k, mono), len(row_index))
    rows = [[QQi(0)] * len(exprs) for _ in range(len(row_index))]
    for col, pv in enumerate(evs):
        for k in window.degrees():
            for mono, coeff in pv.component(k).terms.items():
                rows[row_index[(k, mono)]][col] = coeff
    return nullspace(rows, len(exprs))


def kernel_combination(exprs, coeffs) -> Expression:
    out = None
    for e, c in zip(exprs, coeffs):
        piece = e.scale(c)
        out = piece if out is None else out + piece
    return out


# ---------------------------------------------------------------------------
# weight projections


def weight_project(expr: Expression, k: int, preset: VAPreset,
                   window: DegreeWindow):
    """Degree-k weight component l_k(expr) of an expression.

    Evaluation is equivariant under dilation, ev(q . x)_d = q^d ev(x)_d, so
    the q^k Fourier coefficient of the dilation orbit q |-> ev(q . x) is the
    degree-k part of one evaluation, which pairs every term by iterated
    residues at any arity; only degree k is evaluated, and a k outside
    ``window`` gives zero.  Returns (GradedVector, metadata) with metadata
    {"route": "exact"} when the expression is exact (the component then has
    QQi coefficients), {"route": "numeric"} when some term carries float
    data, even where the component comes out zero.
    """
    part = (evaluate_expression(expr, preset, DegreeWindow(k, k)).component(k)
            if k in window else GradedVector.zero())
    return part, {"route": "exact" if expr.is_exact() else "numeric"}


def _orbit_components(expr: Expression, ks, preset: VAPreset,
                      window: DegreeWindow):
    """{k: l_k(expr)} for each k in ks, the long way, as the reference for
    `weight_project`: sample q |-> ev(q . expr) on 2 window.hi + 16
    trapezoid nodes of a circle |q| = t, each node evaluated once, and
    extract each q^k Fourier coefficient, the moment of exponent -k-1.
    The rule is exact below the aliasing bandwidth, so with more nodes than
    the window is wide this agrees with `weight_project` up to rounding."""
    values = {}

    def ev(q):
        if q not in values:
            values[q] = evaluate_expression(affine_act(q, QQi(0), expr),
                                            preset, window).flatten()
        return values[q]

    r = _orbit_radius(expr)
    return {k: quadrature_moment(ev, 0, r, -k - 1,
                                 2 * window.hi + 16).project(k) for k in ks}


def _orbit_radius(expr: Expression) -> float:
    pts, circles = expr.support_points()
    r = 0.0
    for p in pts:
        r = max(r, abs(complex(p)))
    for c, rad in circles:
        r = max(r, abs(complex(c)) + float(rad))
    R = _outer_radius(expr.carrier)
    if R is None or R <= r:
        R = 2.0 * r + 1.0
    return 0.5 * (1.0 + r / R)


def _outer_radius(u: OpenSet):
    if isinstance(u, Disc) and not u.center:
        return float(u.radius)
    if isinstance(u, Annulus) and not u.center:
        return float(u.outer)
    return None


# ---------------------------------------------------------------------------
# the annulus obstruction


def lowest_state(preset: VAPreset, gen: str) -> GradedVector:
    """x_{-w}|0>, the lowest state of the generator x of weight w."""
    return GradedVector.basis(((gen, preset.weight(gen)),))


def run_counterexample(m: int = 1, preset: VAPreset | None = None,
                       window: DegreeWindow | None = None):
    """Evaluation kernels are not multiplicative ideals: an annulus moment
    expression with vanishing evaluation whose product with a disc
    expression evaluates to the mode a_(m) a, for the lowest state a with
    the highest pole against itself (h on affine_sl2, where e_(1) e = 0).

    Returns (report, data) with exact witness vectors.
    """
    if preset is None:
        preset = heisenberg()
    if window is None:
        window = DegreeWindow(0, 4)
    u1 = Annulus(QQi(0), Fraction(1), Fraction(2))
    u2 = Disc(QQi(0), Fraction(1))
    w = Disc(QQi(0), Fraction(2))
    a = max((lowest_state(preset, g) for g in preset.generators),
            key=lambda s: pole_bound(preset, s, s))
    x = Expression.single(u1, [CircleMoment(QQi(0), Fraction(3, 2), m)], [a])
    y = Expression.single(u2, [DeltaJet(QQi(0), 0)], [a])
    ev_x = evaluate_expression(x, preset, window)
    xy = multiply(x, y, w)
    ev_xy = evaluate_expression(xy, preset, window)
    expected = state_mode(preset, a, m, a)
    got = ev_xy.flatten()
    ok = (ev_x.flatten() == GradedVector.zero()) and (got == expected) \
        and bool(expected)
    report = CheckReport(
        "kernel_not_an_ideal", ok, 0.0, 0.0,
        {"m": m, "ev_x": ev_x.flatten().to_obj(),
         "ev_product": got.to_obj(), "expected": expected.to_obj()}, {})
    data = {"x": x, "y": y, "product": xy, "ev_x": ev_x, "ev_xy": ev_xy}
    return report, data


# ---------------------------------------------------------------------------
# multiplicativity by support partition


def expression_signature(e: Expression):
    return tuple((tuple(_factor_key(f) for f in t.factors),
                  tuple(_state_key(s) for s in t.states),
                  scalar_key(t.coeff)) for t in e.terms)


def support_partition(product: Expression, u: OpenSet, v: OpenSet):
    """Split each delta-supported term of a product by point membership.

    Returns a pair of expressions (on u and v) whose product reproduces the
    input; raises if some point is in neither or both carriers.
    """
    terms_u, terms_v = [], []
    for t in product.terms:
        fu, fv, su, sv = [], [], [], []
        for f, s in zip(t.factors, t.states):
            if not isinstance(f, DeltaJet):
                raise VoxfactError("support partition needs delta factors")
            in_u = u.contains_point(f.point)
            in_v = v.contains_point(f.point)
            if in_u == in_v:
                raise NotDisjoint("point fails to pick a unique carrier")
            (fu if in_u else fv).append(f)
            (su if in_u else sv).append(s)
        terms_u.append(Term(t.coeff, tuple(fu), tuple(su)))
        terms_v.append(Term(QQi(1), tuple(fv), tuple(sv)))
    return ([Expression(u, [tu], validate=False) for tu in terms_u],
            [Expression(v, [tv], validate=False) for tv in terms_v])


def multiplicativity_check(u: OpenSet, v: OpenSet, target: OpenSet,
                           exprs_u, exprs_v) -> CheckReport:
    """Pairwise products of delta families match the support-partition
    oracle exactly, and distinct pairs stay distinct."""
    ok = True
    witness = {}
    seen = {}
    for i, eu in enumerate(exprs_u):
        for j, ev_ in enumerate(exprs_v):
            prod = multiply(eu, ev_, target)
            sig = expression_signature(prod)
            if sig in seen and seen[sig] != (i, j):
                ok = False
                witness = {"collision": [seen[sig], [i, j]]}
            seen[sig] = (i, j)
            # factor back through point membership and compare
            parts_u, parts_v = support_partition(prod, u, v)
            rebuilt = None
            for tu, tv in zip(parts_u, parts_v):
                piece = multiply(tu, tv, target)
                rebuilt = piece if rebuilt is None else rebuilt + piece
            if expression_signature(rebuilt) != sig:
                ok = False
                witness = {"pair": [i, j]}
    return CheckReport("multiplicativity_support_partition", ok, 0.0, 0.0,
                       witness, {"pairs": len(exprs_u) * len(exprs_v)})


# ---------------------------------------------------------------------------
# scaling-orbit density of disc relations


def concentric_density_check(preset: VAPreset, expr: Expression, center,
                             qs, window: DegreeWindow) -> CheckReport:
    """A relation on a disc evaluates to zero along its whole dilation
    orbit about the disc center: exactly at exact scales, within a relative
    1e-9 at float ones; q = 1 is the relation itself."""
    def pairs():
        for q in (QQi(1), *qs):
            val = evaluate_expression(affine_act(q, (1 - q) * center, expr),
                                      preset, window)
            for k in window.degrees():
                yield ({"q": str(q), "degree": k}, val.component(k),
                       GradedVector.zero())
    return compare_parts("concentric_density", pairs(), 1e-9,
                         {"samples": len(qs)})


# ---------------------------------------------------------------------------
# cover checks


def find_cover_element(cover, expr: Expression):
    pts, circles = expr.support_points()
    for idx, elem in enumerate(cover):
        if all(elem.contains_point(p) for p in pts) and \
           all(elem.contains_circle(c, r) for c, r in circles):
            return idx
    return None


def weiss_cover_check(cover, exprs) -> CheckReport:
    """Every expression's finite support must land in a single cover
    element.

    Fails (reporting the witness support) when the cover misses some finite
    configuration, so non-Weiss covers are rejected on concrete data.
    """
    witness = {}
    lifted = 0
    for num, expr in enumerate(exprs):
        if find_cover_element(cover, expr) is None:
            pts, circles = expr.support_points()
            witness = {"expression": num,
                       "points": [str(complex(p)) for p in pts],
                       "circles": len(circles)}
        else:
            lifted += 1
    return CheckReport("weiss_cover", not witness, 0.0, 0.0, witness,
                       {"lifted": lifted, "total": len(exprs)})


# ---------------------------------------------------------------------------
# round trips between states and expressions


def state_embedding(carrier: OpenSet, a: GradedVector) -> Expression:
    """The comparison embedding a |-> [delta_0 (x) a]."""
    return Expression.single(carrier, [DeltaJet(QQi(0), 0)], [a])


def roundtrip_check(preset: VAPreset, max_degree: int) -> CheckReport:
    """ev(state_embedding(a)) == a exactly, degree by degree, for every
    basis state a of degree <= max_degree."""
    carrier = Disc(QQi(0), Fraction(1))
    return check_identity_on_basis(
        "embedding_roundtrip", preset, max_degree,
        lambda a, window: evaluate_expression(state_embedding(carrier, a),
                                              preset, window))


# ---------------------------------------------------------------------------
# weight projection identities


def check_weight_partition(preset: VAPreset, exprs,
                           window: DegreeWindow) -> CheckReport:
    """sum_k l_k, each read off the dilation orbit by the trapezoid rule,
    recovers the full evaluation within a relative 1e-9."""
    def pairs():
        for num, expr in enumerate(exprs):
            parts = _orbit_components(expr, window.degrees(), preset, window)
            total = sum(parts.values(), GradedVector.zero())
            yield ({"expression": num}, total,
                   evaluate_expression(expr, preset, window).flatten())
    return compare_parts("weight_projection_partition", pairs(), 1e-9,
                         {"count": len(exprs)})


def check_weight_idempotent(preset: VAPreset, exprs,
                            window: DegreeWindow) -> CheckReport:
    """l_k o l_k = l_k and l_j o l_k = 0 for j != k, within a relative
    1e-9, on embedded outputs: the inner l_k is `weight_project`, the outer
    ones are read off the dilation orbit by the trapezoid rule."""
    carrier = Disc(QQi(0), Fraction(1))

    def pairs():
        for num, expr in enumerate(exprs):
            for k in window.degrees():
                piece, _ = weight_project(expr, k, preset, window)
                if not piece:
                    continue
                j = k + 1 if k + 1 in window else k - 1
                orbit = _orbit_components(state_embedding(carrier, piece),
                                          [k, j] if j in window else [k],
                                          preset, window)
                witness = {"expression": num, "k": k}
                yield witness, orbit[k], piece
                if j in orbit:
                    yield witness, orbit[j], GradedVector.zero()
    return compare_parts("weight_projection_idempotent", pairs(), 1e-9,
                         {"count": len(exprs)})


def check_weight_quadrature(preset: VAPreset, samples,
                            window: DegreeWindow) -> CheckReport:
    """Weight components read off the dilation orbit by the trapezoid rule
    against the degree parts of the one-point map, within a relative 1e-9:
    the homomorphism square l_k [delta_z (x) a] = p_k mu(a, z); the latter
    are exact at exact sample points."""
    def pairs():
        for a, z, k in samples:
            big = Disc(QQi(0), Fraction(4 * (int(abs(complex(z))) + 1)))
            expr = Expression.single(big, [DeltaJet(z, 0)], [a])
            yield ({"z": str(z), "k": k},
                   _orbit_components(expr, [k], preset, window)[k],
                   mu_one_point(preset, a, z, window).component(k))
    return compare_parts("weight_projection_quadrature", pairs(), 1e-9,
                         {"samples": len(samples)})

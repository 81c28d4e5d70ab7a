"""Carrier-tagged expressions: validation, extension, products, evaluation."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfact.errors import NotASubset, NotDisjoint
from voxfact.expressions import (Expression, Term, _factor_key, _normalize,
                                 _quadrature, affine_act, evaluate_expression,
                                 extend, multiply)
from voxfact.functionals import CircleMoment, DeltaJet
from voxfact.geometry import Annulus, Disc
from voxfact.graded import GradedVector, ProductVector
from voxfact.mu import (box_terms, mode_box, mu_numeric, mu_one_point,
                        two_point_value)
from voxfact.presets import basis_upto, preset_from_name, state_mode
from voxfact.relations import weight_project
from voxfact.residues import Pairing
from voxfact.scalars import DegreeWindow, QQi, scalar_pow


def B(*tokens):
    from voxfact.graded import parse_token
    return GradedVector.basis(tuple(parse_token(t) for t in tokens))


D2 = Disc(QQi(0), Fraction(2))
D4 = Disc(QQi(0), Fraction(4))


def test_support_validation():
    a = B("a(-1)")
    with pytest.raises(NotASubset):
        Expression.single(Disc(QQi(0), Fraction(1)), [DeltaJet(QQi(3), 0)], [a])
    with pytest.raises(NotASubset):
        Expression.single(Disc(QQi(0), Fraction(1)),
                          [CircleMoment(QQi(0), Fraction(2), 0)], [a])
    with pytest.raises(NotDisjoint):
        Expression.single(D2, [DeltaJet(QQi(1), 0), DeltaJet(QQi(1), 0)],
                          [a, a])
    # a point on the moment contour collides with it
    with pytest.raises(NotDisjoint):
        Expression.single(D2, [CircleMoment(QQi(0), Fraction(1), 0),
                               DeltaJet(QQi(1), 0)], [a, a])
    # strictly inside or outside the contour is fine
    Expression.single(D2, [CircleMoment(QQi(0), Fraction(1), -1),
                           DeltaJet(QQi(Fraction(1, 2)), 0)], [a, a])
    Expression.single(D2, [CircleMoment(QQi(0), Fraction(1), -1),
                           DeltaJet(QQi(Fraction(3, 2)), 0)], [a, a])


def test_term_merge_is_order_free():
    a, b = B("a(-1)"), B("a(-2)")
    f1 = [DeltaJet(QQi(1), 0), DeltaJet(QQi(-1), 0)]
    e1 = Expression.single(D2, f1, [a, b])
    e2 = Expression.single(D2, list(reversed(f1)), [b, a])
    merged = e1 + e2
    assert len(merged.terms) == 1
    assert merged.terms[0].coeff == QQi(2)
    # same factors, different states: no merge
    e3 = Expression.single(D2, f1, [b, a])
    assert len((e1 + e3).terms) == 2


def test_scale_and_cancel():
    a = B("a(-1)")
    e = Expression.single(D2, [DeltaJet(QQi(0), 0)], [a])
    z = e + e.scale(QQi(-1))
    assert not z.terms


def test_extend_checks_subset():
    a = B("a(-1)")
    e = Expression.single(D2, [DeltaJet(QQi(1), 0)], [a])
    bigger = extend(e, D4)
    assert bigger.carrier == D4
    with pytest.raises(NotASubset):
        extend(bigger, D2.__class__(QQi(10), Fraction(1)))


def test_extend_preserves_evaluation(boson):
    a = B("a(-1)")
    w = DegreeWindow(0, 5)
    e = Expression.single(D2, [DeltaJet(QQi(1), 0)], [a])
    v1 = evaluate_expression(e, boson, w)
    v2 = evaluate_expression(extend(e, D4), boson, w)
    for k in w.degrees():
        assert v1.component(k) == v2.component(k)


def test_multiply_requires_disjoint_and_target(boson):
    a = B("a(-1)")
    u = Expression.single(Disc(QQi(-2), Fraction(1)), [DeltaJet(QQi(-2), 0)], [a])
    v = Expression.single(Disc(QQi(2), Fraction(1)), [DeltaJet(QQi(2), 0)], [a])
    prod = multiply(u, v, D4)
    assert prod.carrier == D4
    assert len(prod.terms) == 1 and len(prod.terms[0].states) == 2
    # the arities add and the coefficients multiply: arity 1 times arity 2
    w = Expression.single(Disc(QQi(2), Fraction(1)),
                          [DeltaJet(QQi(2), 0),
                           CircleMoment(QQi(2), Fraction(1, 2), 0)],
                          [a, a], coeff=QQi(2))
    (t,) = multiply(u, w, D4).terms
    assert len(t.factors) == len(t.states) == 3 and t.coeff == QQi(2)
    assert t.factors == u.terms[0].factors + w.terms[0].factors
    with pytest.raises(NotDisjoint):
        multiply(u, Expression.single(Disc(QQi(-2), Fraction(1)),
                                      [DeltaJet(QQi(Fraction(-3, 2)), 0)], [a]),
                 D4)
    with pytest.raises(NotASubset):
        multiply(u, v, Disc(QQi(0), Fraction(2)))


def _json_normalize(terms):
    """The normal form keyed by each state's JSON text, which `_normalize`
    replaced, kept as the reference."""
    merged = {}
    for t in terms:
        if not t.coeff:
            continue
        coords = sorted(((_factor_key(f), s.to_json(), f, s)
                         for f, s in zip(t.factors, t.states)),
                        key=lambda e: (e[0], e[1]))
        key = (tuple(e[0] for e in coords), tuple(e[1] for e in coords))
        old = merged.get(key)
        merged[key] = (t.coeff if old is None else old[0] + t.coeff,
                       tuple(e[2] for e in coords),
                       tuple(e[3] for e in coords))
    out = sorted((len(key[0]), key, Term(c, f, s))
                 for key, (c, f, s) in merged.items() if c)
    return tuple(e[2] for e in out)


def _shape(terms):
    """Each term's coefficient with its type and bits, and the very factor
    and state objects it keeps."""
    return [(type(t.coeff), repr(t.coeff), [id(f) for f in t.factors],
             [id(s) for s in t.states]) for t in terms]


_HALF = Fraction(1, 2)
# 0.5 and 0.5 + 0j share a factor key, the exact 1/2 has its own
_FACTORS = (DeltaJet(QQi(1), 0), DeltaJet(QQi(1), 1), DeltaJet(QQi(-1), 0),
            DeltaJet(0.5, 0), DeltaJet(0.5 + 0j, 0), DeltaJet(QQi(_HALF), 0),
            CircleMoment(QQi(0), _HALF, -1), CircleMoment(QQi(0), 0.5, -1),
            CircleMoment(0j, _HALF, 0))
_TWO = {(("a", 1),): QQi(1), (("a", 2),): QQi(2)}
# equal JSON texts on distinct objects, and one with its keys reversed
_STATES = (B("a(-1)"), B("a(-1)"), B("a(-2)"), B("a(-1)").scale(QQi(2)),
           B("a(-1)").scale(1.0), GradedVector(_TWO),
           GradedVector(dict(reversed(_TWO.items()))))
_COEFFS = (QQi(1), QQi(-1), QQi(2), QQi(0), 0.5, -0.5, 1j)


@st.composite
def _term_lists(draw):
    """Terms drawn from a few coordinate lists, each repeated in a
    permuted coordinate order with a coefficient that may cancel."""
    coord = st.tuples(st.sampled_from(_FACTORS), st.sampled_from(_STATES))
    bases = draw(st.lists(st.lists(coord, max_size=3), min_size=1,
                          max_size=4))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        coords = draw(st.permutations(draw(st.sampled_from(bases))))
        terms.append(Term(draw(st.sampled_from(_COEFFS)),
                          tuple(f for f, _ in coords),
                          tuple(s for _, s in coords)))
    return terms


@settings(max_examples=200, deadline=None)
@given(_term_lists())
def test_normal_form_matches_the_json_keyed_one(terms):
    assert _shape(_normalize(terms)) == _shape(_json_normalize(terms))


def test_normal_form_ties_and_cancellation():
    a, b = B("a(-1)"), B("a(-2)")
    p, q = DeltaJet(QQi(1), 0), DeltaJet(QQi(-1), 0)
    cases = [
        # the same factors with different states: two terms
        [Term(QQi(1), (p, q), (a, b)), Term(QQi(1), (p, q), (b, a))],
        # factor keys tied inside a term: the states order the coordinates
        [Term(QQi(1), (p, p), (a, b)), Term(QQi(1), (p, p), (b, a))],
        # equal terms that cancel
        [Term(QQi(1), (p, q), (a, b)), Term(QQi(-1), (q, p), (b, a))],
    ]
    got = [_normalize(terms) for terms in cases]
    assert [_shape(g) for g in got] == \
        [_shape(_json_normalize(terms)) for terms in cases]
    assert [len(g) for g in got] == [2, 1, 0]
    assert got[1][0].coeff == QQi(2) and got[1][0].states == (a, b)


def _moment_around(c, r, state):
    return Expression.single(Annulus(c, r / 2, 2 * r),
                             [CircleMoment(c, r, -1)], [state])


def test_multiply_raises_where_the_geometry_says():
    """Tangent carriers are disjoint and a tangent target contains them;
    one overlap or one point past the target raises, on exact and on float
    radii."""
    a = B("a(-1)")

    def jet(c, r, p=None):
        return Expression.single(Disc(c, r), [DeltaJet(c if p is None
                                                       else p, 0)], [a])

    one, half = Fraction(1), _HALF
    cases = [
        (jet(QQi(-1), one), jet(QQi(1), one), Disc(QQi(0), 2), None),
        (jet(QQi(-1), one), jet(QQi(1), one),
         Disc(QQi(0), 2 - Fraction(1, 10 ** 20)), NotASubset),
        (jet(QQi(-1), one), jet(QQi(1) - Fraction(1, 10 ** 20), one),
         Disc(QQi(0), 4), NotDisjoint),
        (jet(-0.1, 0.1), jet(0.1, 0.1), Disc(0, 0.2), None),
        (jet(-0.1, 0.1), jet(0.1, 0.1), Disc(0, 0.19999999999999998),
         NotASubset),
        # a disc in the hole of an annulus, touching its inner circle
        (_moment_around(QQi(0), one, a), jet(QQi(0), half),
         Disc(QQi(0), 2), None),
        (_moment_around(QQi(0), one, a), jet(QQi(0), half + half / 8),
         Disc(QQi(0), 2), NotDisjoint),
        (_moment_around(QQi(0), one, a), jet(QQi(0), half),
         Annulus(QQi(0), Fraction(1, 8), 2), NotASubset),
        # members tangent to the hole and to the outer circle of the target
        (jet(QQi(2), one), jet(QQi(-3), one), Annulus(QQi(0), one, 4), None),
        (jet(QQi(Fraction(3, 2)), one), jet(QQi(-3), one),
         Annulus(QQi(0), one, 4), NotASubset),
    ]
    for x, y, target, raises in cases:
        if raises is None:
            prod = multiply(x, y, target)
            assert prod.carrier == target and len(prod.terms) == 1
        else:
            with pytest.raises(raises):
                multiply(x, y, target)


PRESETS = ("heisenberg", "virasoro", "affine_sl2")
WINDOWS = (DegreeWindow(0, 4), DegreeWindow(2, 5))
VAC = GradedVector.vacuum()


def _states(preset):
    """A generator and an inhomogeneous state with non-real coefficients."""
    low = basis_upto(preset, 2)
    gen = GradedVector.basis(low[1])
    mixed = (VAC.scale(QQi(Fraction(-2, 3), 1)) + gen.scale(QQi(0, 3))
             + GradedVector.basis(low[-1]).scale(QQi(Fraction(5, 4))))
    return gen, mixed


def _flow(preset, a, z, window):
    """exp(zT) a as sum_j z^j a_(-j-1)|0>, from the mode engine alone."""
    out = ProductVector(window)
    for j in range(window.hi + 1):
        piece = state_mode(preset, a, -j - 1, VAC).scale(scalar_pow(z, j))
        out = out + ProductVector.from_vector(piece, window)
    return out


def _two_point(preset, a, b, z, w, window):
    """e^{wT} Y(a, z-w) b = sum_n (z-w)^(-n-1) exp(wT) a_(n) b."""
    out = ProductVector(window)
    # a_(n) b has degree deg a + deg b - n - 1, so n >= -window.hi - 1
    for n in range(-window.hi - 1, a.max_degree() + b.max_degree()):
        vec = state_mode(preset, a, n, b).scale(scalar_pow(z - w, -n - 1))
        out = out + _flow(preset, vec, w, window)
    return out


def _same_pv(got, want, label):
    assert got.components == want.components, label


def test_eval_single_jet_is_flow():
    """delta_p^(d) (x) a evaluates to exp(pT) a_(-d-1)|0>, and a moment of
    exponent n < 0 about c to exp(cT) a_(n)|0>, on every preset, for jet
    orders 0-2, a generator and an inhomogeneous state, two windows."""
    p, c = QQi(Fraction(1, 2), Fraction(-1, 3)), QQi(Fraction(1, 3), 1)
    for name in PRESETS:
        preset = preset_from_name(name)
        for a in _states(preset):
            cases = [(DeltaJet(p, d), -d - 1, p) for d in range(3)]
            cases.append((CircleMoment(c, Fraction(1, 2), -2), -2, c))
            for window in WINDOWS:
                for factor, n, point in cases:
                    e = Expression.single(D4, [factor], [a])
                    got = evaluate_expression(e, preset, window)
                    want = _flow(preset, state_mode(preset, a, n, VAC), point,
                                 window)
                    _same_pv(got, want, (name, factor, a))


def test_eval_jet_order_is_taylor_coefficient(boson, window6):
    a = B("a(-1)")
    e = Expression.single(D2, [DeltaJet(QQi(0), 2)], [a])
    got = evaluate_expression(e, boson, window6).flatten()
    assert got == B("a(-3)").scale(QQi(Fraction(1, 1)))


def test_eval_moment_picks_laurent_coefficient(boson, window6):
    a = B("a(-1)")
    # moment exponent n extracts the z^(-n-1) coefficient of the flow
    e = Expression.single(D2, [CircleMoment(QQi(0), Fraction(1), -3)], [a])
    got = evaluate_expression(e, boson, window6).flatten()
    assert got == B("a(-3)")


def test_eval_pair_exact_matches_two_point():
    """delta_z^(d) (x) a, delta_w (x) b evaluates to mu(a_(-d-1)|0>, z, b, w)
    and moment(w, r, n) (x) a, delta_w (x) b with n < 0 to exp(wT) a_(n) b,
    on every preset, for jet orders 0-2 and inhomogeneous states."""
    z, w = QQi(Fraction(5, 2), Fraction(1, 2)), QQi(Fraction(-1, 2), 1)
    for name in PRESETS:
        preset = preset_from_name(name)
        gen, mixed = _states(preset)
        for a, b in ((gen, mixed), (mixed, gen)):
            for window in WINDOWS:
                for d in range(3):
                    e = Expression.single(D4, [DeltaJet(z, d), DeltaJet(w, 0)],
                                          [a, b])
                    got = evaluate_expression(e, preset, window)
                    ad = state_mode(preset, a, -d - 1, VAC)
                    _same_pv(got, two_point_value(preset, ad, b, z, w, window),
                             (name, d))
                    _same_pv(got, _two_point(preset, ad, b, z, w, window),
                             (name, d))
                x = Expression.single(Annulus(w, Fraction(1, 4), 1),
                                      [CircleMoment(w, Fraction(1, 2), -2)], [a])
                y = Expression.single(Disc(w, Fraction(1, 4)),
                                      [DeltaJet(w, 0)], [b])
                got = evaluate_expression(multiply(x, y, D4), preset, window)
                want = _flow(preset, state_mode(preset, a, -2, b), w, window)
                _same_pv(got, want, (name, "moment"))


def test_eval_exact_vs_numeric_pair(boson, window6):
    a = B("a(-1)")
    e = Expression.single(
        D4, [CircleMoment(QQi(0), Fraction(2), -1), DeltaJet(QQi(1), 0)],
        [a, a])
    exact = evaluate_expression(e, boson, window6)
    approx = evaluate_expression(e, boson, window6, force_numeric=True,
                                 quad_n=96)
    for k in window6.degrees():
        scale = max(exact.component(k).norm_inf(), 1.0)
        assert approx.component(k).distance(
            exact.component(k).to_complex()) / scale < 1e-8, k


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_moment_around_delta_evaluates_exactly(name):
    """moment(q, r, n) (x) a times delta_q (x) b is mu(a_(n) b, q), also for
    a negative exponent, whose pole sits at the delta point."""
    preset = preset_from_name(name)
    window = DegreeWindow(0, 4)
    q, r = QQi(Fraction(1, 2), Fraction(-3, 4)), Fraction(3, 4)
    low = basis_upto(preset, 2)[1:]
    a = GradedVector.basis(low[0]).scale(QQi(2, -1))
    b = GradedVector.basis(low[-1]) + GradedVector.basis(low[0]).scale(
        QQi(Fraction(1, 3)))
    for n in range(-3, 2):
        x = Expression.single(Annulus(q, r / 2, 2 * r),
                              [CircleMoment(q, r, n)], [a])
        y = Expression.single(Disc(q, r / 2), [DeltaJet(q, 0)], [b])
        got = evaluate_expression(multiply(x, y, Disc(q, 2 * r)), preset,
                                  window)
        want = mu_one_point(preset, state_mode(preset, a, n, b), q, window)
        for k in window.degrees():
            assert got.component(k) == want.component(k), (n, k)
            assert got.component(k).is_exact(), (n, k)


def test_eval_annulus_moment_vanishing(boson, window6):
    # the obstruction vector: an annulus moment around the puncture kills
    # the regular flow
    a = B("a(-1)")
    carrier = Annulus(QQi(0), Fraction(1), Fraction(2))
    e = Expression.single(carrier,
                          [CircleMoment(QQi(0), Fraction(3, 2), 1)], [a])
    got = evaluate_expression(e, boson, window6)
    assert all(not got.component(k) for k in window6.degrees())


def test_affine_act_on_jet_expression(boson, window6):
    a = B("a(-1)")
    lam, shift = QQi(2), QQi(Fraction(1, 2))
    e = Expression.single(D2, [DeltaJet(QQi(Fraction(1, 2)), 0)], [a])
    moved = affine_act(lam, shift, e)
    got = evaluate_expression(moved, boson, window6)
    # pushing the point to lam*p + shift and grading-acting the state
    from voxfact.mu import mu_one_point
    want = mu_one_point(boson, a.grading_act(lam), QQi(Fraction(3, 2)),
                        window6)
    for k in window6.degrees():
        assert got.component(k) == want.component(k)
    # an order-d jet beside a moment of exponent n: the points move and
    # the coefficient picks up lam^d * lam^(-n-1)
    e = Expression.single(D2, [DeltaJet(QQi(1), 1),
                               CircleMoment(QQi(0), Fraction(1, 2), -2)],
                          [a, a])
    (t,) = affine_act(lam, QQi(1), e).terms
    jet, mom = t.factors
    assert jet == DeltaJet(QQi(3), 1)
    assert mom == CircleMoment(QQi(1), Fraction(1), -2)
    assert t.coeff == lam ** 1 * lam ** (-(-2) - 1)


def test_affine_act_refuses_a_zero_scale():
    # lam = 0 would move every jet onto the shift, coinciding supports
    a = B("a(-1)")
    e = Expression.single(D4, [DeltaJet(QQi(1), 0), DeltaJet(QQi(2), 0)],
                          [a, a])
    for lam in (0, QQi(0), 0j):
        with pytest.raises(ValueError, match="invertible"):
            affine_act(lam, QQi(0), e)


def test_three_point_numeric(boson):
    a = B("a(-1)")
    w = DegreeWindow(0, 3)
    e = Expression.single(
        D4, [DeltaJet(QQi(3), 0), DeltaJet(QQi(1), 0),
             DeltaJet(QQi(0), 0)], [a, a, a])
    got = evaluate_expression(e, boson, w, quad_n=64)
    from voxfact.mu import mu_numeric
    want = mu_numeric(boson, [a, a, a], [3.0, 1.0, 0.0], w, tol=1e-10)
    for k in w.degrees():
        scale = max(want.component(k).norm_inf(), 1.0)
        assert got.component(k).distance(want.component(k)) / scale < 1e-7, k


def test_points_a_float_would_merge_stay_apart(boson):
    """delta_{1/3} (x) a(-1) - delta_{1/3 + 10^-30} (x) a(-1): both terms
    are kept, and the degree-2 part is exactly -10^-30 a(-2)."""
    a = B("a(-1)")
    p = QQi(Fraction(1, 3))
    q = p + QQi(Fraction(1, 10 ** 30))
    e = Expression.single(D2, [DeltaJet(p, 0)], [a]) \
        - Expression.single(D2, [DeltaJet(q, 0)], [a])
    assert len(e.terms) == 2
    got = evaluate_expression(e, boson, DegreeWindow(0, 3))
    assert got.component(1) == GradedVector.zero()
    assert got.component(2) == B("a(-2)").scale(QQi(Fraction(-1, 10 ** 30)))


def test_expression_json_roundtrip():
    a = B("a(-1)")
    e = Expression.single(D2, [DeltaJet(QQi(1), 1),
                               CircleMoment(QQi(0), Fraction(1, 2), -1)],
                          [a, B("a(-2)")])
    back = Expression.from_obj(e.to_obj())
    assert back.to_obj() == e.to_obj()


@pytest.mark.parametrize("factors, states", [
    ([DeltaJet(QQi(Fraction(1, 2)), 0), DeltaJet(QQi(Fraction(-1, 2)), 0)],
     [B("a(-1)")]),
    ([DeltaJet(QQi(Fraction(1, 2)), 0)], [B("a(-1)"), B("a(-2)")]),
], ids=["two_factors_one_state", "one_factor_two_states"])
def test_term_refuses_unpaired_factors_and_states(factors, states):
    # each factor pairs with one state; a zip would drop the extra one
    msg = f"a term has {len(factors)} factors but {len(states)} states"
    with pytest.raises(ValueError, match=msg):
        Expression.single(D2, factors, states)
    obj = Expression.single(D2, factors[:1], states[:1]).to_obj()
    obj["terms"][0]["factors"] = [f.to_obj() for f in factors]
    obj["terms"][0]["states"] = [s.to_obj() for s in states]
    with pytest.raises(ValueError, match=msg):
        Expression.from_obj(obj)


# ---------------------------------------------------------------------------
# arity three and beyond: iterated residues over the mode box


def _three_point_terms(preset):
    """An order-1 jet, an order-0 delta and a moment of exponent -2, once
    with the contour around the delta (at its centre) and the jet, and once
    around the delta only; then a delta and two nested contours, the inner
    one on the later coordinate, so that it is integrated first."""
    gen, mixed = _states(preset)
    c, r = QQi(0), Fraction(1)
    jets = (QQi(Fraction(1, 4), Fraction(1, 8)),
            QQi(Fraction(5, 2), Fraction(1, 2)))
    out = [Expression.single(D4, [DeltaJet(p, 1), DeltaJet(c, 0),
                                  CircleMoment(c, r, -2)], [gen, mixed, gen])
           for p in jets]
    out.append(Expression.single(
        D4, [DeltaJet(c, 0), CircleMoment(c, Fraction(3), -1),
             CircleMoment(QQi(1), Fraction(1, 4), -2)],
        [gen, mixed, gen]))
    return out


@pytest.mark.parametrize("name", PRESETS)
def test_three_point_functional_exact(name):
    """Arity three with a jet, a delta and a moment evaluates exactly and
    agrees with nested trapezoid quadrature within 1e-9."""
    preset = preset_from_name(name)
    window = DegreeWindow(0, 4)
    for e in _three_point_terms(preset):
        got = evaluate_expression(e, preset, window)
        assert all(v.is_exact() for v in got.components.values())
        assert got.components
        ref = evaluate_expression(e, preset, window, force_numeric=True,
                                  quad_n=40)
        for k in window.degrees():
            scale = max(got.component(k).norm_inf(), 1.0)
            assert ref.component(k).distance(
                got.component(k).to_complex()) / scale < 1e-9, k


def test_three_point_jets_match_point_map(boson):
    """Order-0 deltas at arity three pair to the multi-point map at their
    points, and a jet to the map of T^d a / d!."""
    window = DegreeWindow(0, 4)
    gen, mixed = _states(boson)
    pts = [QQi(3), QQi(Fraction(1, 2), 1), QQi(Fraction(-1, 3))]
    for d in range(3):
        e = Expression.single(D4, [DeltaJet(pts[0], d), DeltaJet(pts[1], 0),
                                   DeltaJet(pts[2], 0)], [gen, mixed, gen])
        ad = state_mode(boson, gen, -d - 1, VAC)
        _same_pv(evaluate_expression(e, boson, window),
                 mu_numeric(boson, [ad, mixed, gen], pts, window), d)


def test_default_evaluation_runs_no_quadrature(boson, monkeypatch):
    """With the trapezoid rule disabled, expressions of arity one to three
    with jets and moments still evaluate."""
    import voxfact.expressions
    import voxfact.functionals

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(voxfact.functionals, "apply_factor_numeric", refuse)
    monkeypatch.setattr(voxfact.expressions, "apply_factor_numeric", refuse)
    a = B("a(-1)")
    e = (Expression.single(D4, [CircleMoment(QQi(0), Fraction(1), -2)], [a])
         + Expression.single(D4, [DeltaJet(QQi(2), 1), DeltaJet(QQi(0), 0)],
                             [a, a])
         + _three_point_terms(boson)[0])
    got = evaluate_expression(e, boson, DegreeWindow(0, 4))
    assert got.components
    assert all(v.is_exact() for v in got.components.values())


def test_float_three_point_matches_exact_lift(boson):
    """A float-data arity-three term agrees with exact evaluation at the
    Fraction(float) values of its data to relative 1e-12."""
    window = DegreeWindow(0, 4)
    gen, mixed = _states(boson)

    def lift(z):
        return QQi(Fraction(z.real), Fraction(z.imag))

    # the points lie at least 0.5 apart, so rounding is not amplified
    p, q, c, r = 0.6 + 0.7j, -0.45 - 0.3j, 0.1j, 1.7
    factors = [DeltaJet(p, 1), DeltaJet(q, 0), CircleMoment(c, r, -2)]
    exact = [DeltaJet(lift(p), 1), DeltaJet(lift(q), 0),
             CircleMoment(lift(c), Fraction(r), -2)]
    got = evaluate_expression(Expression.single(D4, factors,
                                                [gen, mixed, gen]),
                              boson, window)
    want = evaluate_expression(Expression.single(D4, exact,
                                                 [gen, mixed, gen]),
                               boson, window)
    assert not all(v.is_exact() for v in got.components.values())
    assert all(v.is_exact() for v in want.components.values())
    for k in window.degrees():
        scale = max(want.component(k).norm_inf(), 1.0)
        assert got.component(k).distance(
            want.component(k).to_complex()) / scale < 1e-12, k


# ---------------------------------------------------------------------------
# one mode box per expression against the per-term route


def _per_term_route(expr, preset, window, quad_n, force_numeric):
    """The evaluation that one `mode_box` per expression replaced, kept as
    a reference: each term's map in a `mode_box` of its own, scaled by the
    term's coefficient and added as a `ProductVector`."""
    out = ProductVector(window)
    for t in expr.terms:
        scalar = (_quadrature(t.factors, quad_n) if force_numeric
                  else Pairing(t.factors))
        group = (box_terms(preset, t.states, window), scalar, 1)
        out = out + mode_box(preset, [group], window).scale(t.coeff)
    return out


# jet points inside the contour |w| = 3 of the moment, all in D4
_EVAL_POINTS = (QQi(1), QQi(-1, 1), QQi(_HALF, -1), QQi(0))
_EVAL_COEFFS = (QQi(1), QQi(-1), QQi(2), QQi(-2), QQi(Fraction(-1, 3), 1))


@st.composite
def _evaluated(draw):
    """(preset, expression, window, exact): terms of arity 0-3 drawn from
    a few (factors, states) bases over two states, so that states repeat
    and a base drawn twice has coefficients that may cancel."""
    name = draw(st.sampled_from(PRESETS))
    preset = preset_from_name(name)
    exact = draw(st.booleans())
    lift = (lambda z: z) if exact else complex
    small = st.sampled_from((QQi(1), QQi(-2), QQi(1, 1), QQi(_HALF, -1)))
    states = [GradedVector({m: lift(draw(small)) for m in draw(st.lists(
        st.sampled_from(basis_upto(preset, 2)), min_size=1, max_size=2,
        unique=True))}) for _ in range(2)]
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(0, 3))
        points = draw(st.lists(st.sampled_from(_EVAL_POINTS), min_size=arity,
                               max_size=arity, unique=True))
        factors = [DeltaJet(lift(p), draw(st.integers(0, 1))) for p in points]
        if arity and draw(st.booleans()):
            radius = Fraction(3) if exact else 3.0
            factors[0] = CircleMoment(lift(QQi(0)), radius,
                                      draw(st.integers(-2, 1)))
        bases.append((tuple(factors), tuple(draw(st.sampled_from(states))
                                            for _ in range(arity))))
    terms = [Term(lift(draw(st.sampled_from(_EVAL_COEFFS))), *base)
             for base in draw(st.lists(st.sampled_from(bases), min_size=1,
                                       max_size=5))]
    lo = draw(st.integers(0, 1))
    window = DegreeWindow(lo, draw(st.integers(lo, 3)))
    return preset, Expression(D4, terms), window, exact


@settings(max_examples=150, deadline=None)
@given(_evaluated(), st.booleans())
def test_one_box_matches_the_per_term_route(case, force_numeric):
    # the same sum, grouped differently: exact results are equal, float
    # ones agree to 1e-12 relative per degree; the quadrature's few nodes
    # do not matter, as both routes use the same scalars
    preset, expr, window, exact = case
    got = evaluate_expression(expr, preset, window, quad_n=6,
                              force_numeric=force_numeric)
    want = _per_term_route(expr, preset, window, 6, force_numeric)
    assert set(got.components) <= set(window.degrees())
    for k in window.degrees():
        u, v = got.component(k), want.component(k)
        if exact and not force_numeric:
            assert u == v and u.is_exact(), k
        else:
            assert u.distance(v) <= 1e-12 * max(u.norm_inf(), v.norm_inf(),
                                                1.0), k
    # a weight projection is the degree-k part of the full evaluation,
    # and zero beyond the window
    full = evaluate_expression(expr, preset, window)
    for k in range(window.hi + 2):
        part, meta = weight_project(expr, k, preset, window)
        assert part == full.component(k), k
        assert meta == {"route": "exact" if expr.is_exact() else "numeric"}
    assert not part

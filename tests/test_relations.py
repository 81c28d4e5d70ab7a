"""Relation kernels, weight projections, covers, and the annulus obstruction."""
from fractions import Fraction

import pytest

from voxfact import expressions, functionals
from voxfact.errors import VoxfactError
from voxfact.expressions import Expression, evaluate_expression
from voxfact.functionals import CircleMoment, DeltaJet
from voxfact.geometry import Disc
from voxfact.graded import GradedVector
from voxfact.linalg import nullspace
from voxfact.presets import preset_from_name, translate
from voxfact.relations import (_orbit_components, check_weight_idempotent,
                               check_weight_partition,
                               check_weight_quadrature,
                               concentric_density_check, find_cover_element,
                               kernel_combination, multiplicativity_check,
                               relation_kernel, roundtrip_check,
                               run_counterexample, state_embedding,
                               weight_project, weiss_cover_check)
from voxfact.scalars import DegreeWindow, QQi


def B(*tokens):
    from voxfact.graded import parse_token
    return GradedVector.basis(tuple(parse_token(t) for t in tokens))


D1 = Disc(QQi(0), Fraction(1))
D4 = Disc(QQi(0), Fraction(4))


def test_nullspace_small():
    rows = [[QQi(1), QQi(2), QQi(3)], [QQi(2), QQi(4), QQi(6)]]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        s1 = vec[0] + vec[1] * QQi(2) + vec[2] * QQi(3)
        assert s1 == QQi(0)


def test_relation_kernel_scalar_multiple(boson, window6):
    a = B("a(-1)")
    e1 = state_embedding(D1, a)
    e2 = e1.scale(QQi(2))
    ker = relation_kernel(boson, [e1, e2], window6)
    assert ker == [[QQi(-2), QQi(1)]]
    combo = kernel_combination([e1, e2], ker[0])
    pv = evaluate_expression(combo, boson, window6)
    assert all(not pv.component(k) for k in window6.degrees())


def test_relation_kernel_independent_states(boson, window6):
    e1 = state_embedding(D1, B("a(-1)"))
    e2 = state_embedding(D1, B("a(-2)"))
    assert relation_kernel(boson, [e1, e2], window6) == []


def test_relation_kernel_finds_planted_three_point_relation(boson):
    """Three arity-3 expressions with jets, deltas and moments, and a
    planted combination of two of them: the kernel is exactly that
    combination."""
    window = DegreeWindow(0, 4)
    a, b = B("a(-1)"), B("a(-2)")
    moment = CircleMoment(QQi(0), Fraction(1), -2)
    exprs = [Expression.single(D4, [DeltaJet(QQi(Fraction(1, 2), 0), 1),
                                    DeltaJet(QQi(0), 0), moment], [a, a, b]),
             Expression.single(D4, [DeltaJet(QQi(2, 1), 0),
                                    DeltaJet(QQi(0), 0),
                                    CircleMoment(QQi(0), Fraction(1), -1)],
                               [a, b, a]),
             Expression.single(D4, [DeltaJet(QQi(Fraction(5, 2)), 2),
                                    DeltaJet(QQi(Fraction(-1, 2)), 0), moment],
                               [b, a, a])]
    c1, c3 = QQi(Fraction(2, 3)), QQi(-1, -1)
    exprs.append(exprs[0].scale(c1) + exprs[2].scale(c3))
    ker = relation_kernel(boson, exprs, window)
    assert len(ker) == 1
    vec = ker[0]
    assert vec[1] == 0
    assert [x / vec[3] for x in vec] == [-c1, QQi(0), -c3, QQi(1)]


def test_relation_kernel_requires_exact(boson, window6):
    e = Expression.single(D1, [DeltaJet(0.5 + 0.1j, 0)], [B("a(-1)")])
    with pytest.raises(VoxfactError):
        relation_kernel(boson, [e], window6)


def test_counterexample_exact(boson, window6):
    rep, data = run_counterexample(1, boson, window6)
    assert rep.passed
    flat_x = data["ev_x"].flatten()
    flat_xy = data["ev_xy"].flatten()
    assert not flat_x
    assert flat_xy == GradedVector.vacuum()


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_counterexample_on_every_preset(name):
    # the lowest state with the highest pole against itself: a_(1) a != 0
    # also where the first generator has e_(1) e = 0 (affine_sl2)
    preset = preset_from_name(name)
    rep, data = run_counterexample(1, preset, DegreeWindow(0, 4))
    assert rep.passed, rep.witness
    assert not data["ev_x"].flatten()
    assert data["ev_xy"].flatten()


def test_counterexample_higher_mode(boson, window6):
    # m = 2: a_(2) a = 0, so both evaluations vanish and the obstruction
    # needs m with a_(m) a != 0; the report must reflect that honestly
    rep, data = run_counterexample(2, boson, window6)
    assert not data["ev_x"].flatten()
    assert not rep.passed or data["ev_xy"].flatten()


def test_weight_project_delta(boson, window6):
    a = B("a(-1)")
    expr = Expression.single(D4, [DeltaJet(QQi(2), 0)], [a])
    direct = evaluate_expression(expr, boson, window6)
    for k in (0, 1, 2, 4):
        piece, meta = weight_project(expr, k, boson, window6)
        assert piece == direct.component(k), k
        assert meta == {"route": "exact"}


# two states of each preset, paired in the delta-pair expressions
STATES = {"boson": ("a(-1)", "a(-2)"), "vir": ("L(-2)", "L(-2)"),
          "sl2": ("e(-1)", "h(-1)")}


def _close_to_orbit(piece, expr, k, preset, window):
    ref = _orbit_components(expr, [k], preset, window)[k]
    return piece.distance(ref) <= 1e-9 * max(piece.norm_inf(), 1.0)


@pytest.mark.parametrize("name", sorted(STATES))
def test_weight_project_is_one_exact_evaluation(name, request):
    """On exact jets and delta pairs, l_k is the degree-k part of one exact
    evaluation, inside the window and above it, and the dilation orbit
    agrees with it."""
    preset = request.getfixturevalue(name)
    window = DegreeWindow(0, 4)
    a, b = (B(t) for t in STATES[name])
    p, q = QQi(Fraction(1, 2), Fraction(1, 3)), QQi(Fraction(-3, 2), 1)
    exprs = [Expression.single(D4, [DeltaJet(p, 1)], [a], coeff=QQi(2, -1)),
             Expression.single(D4, [DeltaJet(p, 0), DeltaJet(q, 0)], [a, b])]
    for expr in exprs:
        direct = evaluate_expression(expr, preset, window)
        nonzero = 0
        for k in (*window.degrees(), window.hi + 1):
            piece, meta = weight_project(expr, k, preset, window)
            assert meta == {"route": "exact"}
            assert piece == direct.component(k)
            assert all(type(c) is QQi for c in piece.terms.values())
            assert _close_to_orbit(piece, expr, k, preset, window), k
            nonzero += bool(piece)
        assert nonzero >= 2


def test_weight_project_numeric_routes(boson):
    """Float data gives the numeric route, and an exact term of arity
    three the exact one; both equal the orbit."""
    window = DegreeWindow(0, 3)
    a = B("a(-1)")
    exprs = [(Expression.single(D4, [DeltaJet(0.5 + 0.25j, 0)], [a]),
              "numeric"),
             (Expression.single(D4, [DeltaJet(QQi(3), 0), DeltaJet(QQi(1), 0),
                                     DeltaJet(QQi(0), 0)], [a, a, a]),
              "exact")]
    for expr, route in exprs:
        for k in window.degrees():
            piece, meta = weight_project(expr, k, boson, window)
            assert meta == {"route": route}
            assert _close_to_orbit(piece, expr, k, boson, window), k


def test_weight_project_route_of_a_zero_float_result(boson):
    """A moment of non-negative exponent kills the flow, so the result is
    zero; its float centre still makes the route numeric."""
    expr = Expression.single(Disc(QQi(0), 8),
                             [CircleMoment(0.3 + 0.1j, Fraction(1, 2), 1)],
                             [B("a(-1)")])
    assert not expr.is_exact()
    window = DegreeWindow(0, 3)
    for k in window.degrees():
        piece, meta = weight_project(expr, k, boson, window)
        assert not piece
        assert meta == {"route": "numeric"}


def test_weight_partition_and_idempotence(boson, window6):
    exprs = [Expression.single(D4, [DeltaJet(QQi(Fraction(3, 2)), 0)],
                               [B("a(-2)", "a(-1)")]),
             Expression.single(D4, [DeltaJet(QQi(-1, 1), 1)], [B("a(-1)")])]
    assert check_weight_partition(boson, exprs, window6).passed
    assert check_weight_idempotent(boson, exprs, DegreeWindow(0, 4)).passed


def test_weight_quadrature_check(boson, window6):
    samples = [(B("a(-2)"), QQi(Fraction(1, 2), Fraction(1, 3)), 3),
               (B("a(-1)", "a(-1)"), QQi(Fraction(-3, 4)), 2)]
    rep = check_weight_quadrature(boson, samples, window6)
    assert rep.passed and rep.max_err < 1e-9


def test_roundtrip(boson, window6):
    rep = roundtrip_check(boson, 4)
    assert rep.passed and rep.max_err == 0.0, rep.witness
    # the homomorphism square at an exact and a float point
    samples = [(B("a(-1)"), QQi(Fraction(1, 2)), 2),
               (B("a(-2)"), 0.3 + 0.4j, 3)]
    rep = check_weight_quadrature(boson, samples, window6)
    assert rep.passed, rep.max_err


def test_multiplicativity():
    a = B("a(-1)")
    u, v = Disc(QQi(-2), Fraction(1)), Disc(QQi(2), Fraction(1))
    fam_u = [Expression.single(u, [DeltaJet(QQi(-2), 0)], [a]),
             Expression.single(u, [DeltaJet(QQi(Fraction(-5, 2)), 0)], [a])]
    fam_v = [Expression.single(v, [DeltaJet(QQi(2), 0)], [a])]
    rep = multiplicativity_check(u, v, D4, fam_u, fam_v)
    assert rep.passed


def test_concentric_density(boson, window6, monkeypatch):
    # the translation relation delta_p^(1) (x) a - delta_p (x) T a: zero at
    # every exact scale, and within rounding at the float one
    a = B("a(-1)")
    relation = (Expression.single(D4, [DeltaJet(QQi(1), 1)], [a])
                + Expression.single(D4, [DeltaJet(QQi(1), 0)],
                                    [translate(boson, a)], coeff=QQi(-1)))
    assert len(relation.terms) == 2
    qs = [QQi(Fraction(1, 2)), QQi(Fraction(2, 3), Fraction(1, 4))]
    rep = concentric_density_check(boson, relation, QQi(0), qs, window6)
    assert rep.passed and rep.max_err == rep.tol == 0.0
    rep = concentric_density_check(boson, relation, QQi(0), qs + [0.9j],
                                   window6)
    assert rep.passed and rep.max_err < 1e-12

    # a jet pushed forward without its factor lambda^d breaks it
    def unscaled(factor, lam, shift):
        s, pushed = functionals.pushforward_factor(factor, lam, shift)
        return (1, pushed) if isinstance(factor, DeltaJet) else (s, pushed)

    monkeypatch.setattr(expressions, "pushforward_factor", unscaled)
    assert not concentric_density_check(boson, relation, QQi(0), qs,
                                        window6).passed


def test_find_cover_element():
    cover = [Disc(QQi(0), Fraction(1)), Disc(QQi(0), Fraction(2)),
             Disc(QQi(0), Fraction(3))]
    e = Expression.single(Disc(QQi(0), Fraction(3)),
                          [DeltaJet(QQi(Fraction(3, 2)), 0)], [B("a(-1)")])
    assert find_cover_element(cover, e) == 1
    far = Expression.single(Disc(QQi(0), Fraction(4)),
                            [DeltaJet(QQi(Fraction(7, 2)), 0)], [B("a(-1)")])
    assert find_cover_element(cover, far) is None


def test_weiss_cover_accept():
    ambient = Disc(QQi(0), Fraction(3))
    cover = [Disc(QQi(0), Fraction(1)), Disc(QQi(0), Fraction(2)),
             Disc(QQi(0), Fraction(3))]
    exprs = [Expression.single(ambient, [DeltaJet(QQi(Fraction(1, 2)), 0)],
                               [B("a(-1)")]),
             Expression.single(ambient,
                               [DeltaJet(QQi(Fraction(3, 2)), 0),
                                DeltaJet(QQi(Fraction(-1, 2)), 0)],
                               [B("a(-1)"), B("a(-2)")])]
    rep = weiss_cover_check(cover, exprs)
    assert rep.passed
    assert rep.truncation == {"lifted": len(exprs), "total": len(exprs)}


def test_weiss_cover_reject():
    # two separated discs miss configurations straddling both
    ambient = Disc(QQi(0), Fraction(3))
    cover = [Disc(QQi(-2), Fraction(1)), Disc(QQi(2), Fraction(1))]
    exprs = [Expression.single(ambient,
                               [DeltaJet(QQi(-2), 0), DeltaJet(QQi(2), 0)],
                               [B("a(-1)"), B("a(-1)")])]
    rep = weiss_cover_check(cover, exprs)
    assert not rep.passed
    assert rep.witness["expression"] == 0

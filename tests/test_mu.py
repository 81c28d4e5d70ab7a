"""One-, two- and multi-point multiplication maps.

Closed-form oracle for the free-boson generator pair, derived directly from
the mode sum mu(a, z, a, 0) = sum_n a_(n) a z^(-n-1):

    p_0 = z^(-2) |0>,  p_2 = a(-1)a(-1),  p_{m+1} = z^(m-1) a(-m)a(-1)  (m >= 2).
"""
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfact import mu
from voxfact.errors import DomainViolation
from voxfact.graded import GradedVector, ProductVector
from voxfact.mu import (check_associativity, check_equivariance,
                        check_insertion_at_zero, check_meromorphicity,
                        check_permutation, mu_numeric, mu_one_point,
                        two_point_value)
from voxfact.presets import basis_upto, preset_from_name
from voxfact.scalars import DegreeWindow, QQi


def B(*tokens):
    from voxfact.graded import parse_token
    return GradedVector.basis(tuple(parse_token(t) for t in tokens))


def test_one_point_at_zero_is_identity(boson, gen_a, window6):
    pv = mu_one_point(boson, gen_a, QQi(0), window6)
    assert pv.flatten() == gen_a


def test_one_point_at_float_zero_is_complex(boson, gen_a):
    # a value computed from a float point is complex, also at 0.0
    for z in (0.0, 1e-300):
        pv = mu_one_point(boson, gen_a, z, DegreeWindow(0, 3))
        assert pv.component(1).terms == {(("a", 1),): 1}
        assert all(type(c) is complex for v in pv.components.values()
                   for c in v.terms.values()), z


def test_one_point_is_translation_flow(boson, gen_a):
    z = QQi(Fraction(1, 2))
    pv = mu_one_point(boson, gen_a, z, DegreeWindow(0, 3))
    assert pv.component(1) == gen_a
    assert pv.component(2) == B("a(-2)").scale(z)
    assert pv.component(3) == B("a(-3)").scale(QQi(Fraction(1, 4)))


def test_two_point_boson_closed_form(boson, gen_a, window6):
    z = QQi(Fraction(5, 2))
    pv = two_point_value(boson, gen_a, gen_a, z, QQi(0), window6)
    assert pv.component(0) == GradedVector.vacuum().scale(QQi(Fraction(4, 25)))
    assert not pv.component(1)
    assert pv.component(2) == B("a(-1)", "a(-1)")
    for m in range(2, 6):
        assert pv.component(m + 1) == \
            B(f"a(-{m})", "a(-1)").scale(z ** (m - 1)), m


def test_two_point_coincident_points_rejected(boson, gen_a, window6):
    with pytest.raises(DomainViolation):
        two_point_value(boson, gen_a, gen_a, QQi(1), QQi(1), window6)


@pytest.mark.parametrize("points", [[complex("nan"), 0], [math.inf, 0],
                                    [float("1e400")]],
                         ids=["nan", "inf", "overflow"])
def test_non_finite_points_rejected(boson, gen_a, window6, points):
    with pytest.raises(ValueError, match="points must be finite"):
        mu_numeric(boson, [gen_a] * len(points), points, window6)


def test_two_point_second_point_general(boson, gen_a, window6):
    # translation covariance: value at (z+c, c) is the flow of the value at (z, 0)
    z, c = QQi(3), QQi(1)
    moved = two_point_value(boson, gen_a, gen_a, z + c, c, window6)
    base = two_point_value(boson, gen_a, gen_a, z, QQi(0),
                           DegreeWindow(0, window6.hi))
    from voxfact.presets import translate_power
    for k in window6.degrees():
        expect = GradedVector.zero()
        for j in range(k + 1):
            expect = expect + translate_power(
                boson, base.component(k - j), j).scale(
                    (c ** j) * QQi(Fraction(1, math.factorial(j))))
        assert moved.component(k) == expect


def test_numeric_matches_exact_two_point(boson, gen_a):
    w = DegreeWindow(0, 5)
    exact = two_point_value(boson, gen_a, gen_a, QQi(Fraction(5, 2)), QQi(0), w)
    approx = mu_numeric(boson, [gen_a, gen_a], [2.5, 0.0], w, tol=1e-12)
    for k in w.degrees():
        assert approx.component(k).distance(
            exact.component(k).to_complex()) < 1e-10


def test_numeric_equal_moduli_evaluates(boson, gen_a):
    """Points of equal modulus, 1 and i, evaluate and equal the two-point
    map, exactly at exact points."""
    w = DegreeWindow(0, 4)
    want = two_point_value(boson, gen_a, gen_a, QQi(1), QQi(0, 1), w)
    got = mu_numeric(boson, [gen_a, gen_a], [QQi(1), QQi(0, 1)], w)
    assert got.components == want.components
    approx = mu_numeric(boson, [gen_a, gen_a], [1.0, 1.0j], w)
    for k in w.degrees():
        assert approx.component(k).distance(
            want.component(k).to_complex()) < 1e-12


def test_float_points_match_exact_evaluation(boson, gen_a):
    """Three nearly coincident float points: the float evaluation agrees
    with the exact evaluation at the same (exactly represented) points to
    a relative 1e-12."""
    pts = [1.001, 1.0005, 1.0]
    w = DegreeWindow(0, 4)
    approx = mu_numeric(boson, [gen_a] * 3, pts, w)
    exact = mu_numeric(boson, [gen_a] * 3, [Fraction(p) for p in pts], w)
    assert any(exact.components.values())
    for k in w.degrees():
        want = exact.component(k)
        assert want.is_exact()
        scale = max(want.norm_inf(), 1e-300)
        assert approx.component(k).distance(want.to_complex()) \
            <= 1e-12 * scale, k


def test_numeric_empty_input(boson):
    pv = mu_numeric(boson, [], [], DegreeWindow(0, 2))
    assert pv.component(0) == GradedVector.vacuum()


def test_numeric_high_degree_state_not_dropped(boson):
    # a state far above the window must still contribute through annihilation
    deep = B("a(-4)")
    w = DegreeWindow(0, 2)
    pv = mu_numeric(boson, [deep, deep], [3.0, 1.0], w, tol=1e-9)
    exact = two_point_value(boson, deep, deep, QQi(3), QQi(1), w)
    assert pv.component(0).norm_inf() > 0
    for k in w.degrees():
        assert pv.component(k).distance(
            exact.component(k).to_complex()) < 1e-7


PRESETS = ["heisenberg", "virasoro", "affine_sl2"]
RADIAL = Path(__file__).resolve().parent / "data" / "radial_reference.json"


def _three_states(preset):
    """The first three basis states after the vacuum."""
    return [GradedVector.basis(m) for m in basis_upto(preset, 4)[1:4]]


def test_exact_inputs_give_exact_components(boson, gen_a):
    z, w = QQi(Fraction(5, 2), 1), QQi(Fraction(-1, 3))
    window = DegreeWindow(0, 5)
    one = mu_numeric(boson, [gen_a], [z], window)
    assert one.components == mu_one_point(boson, gen_a, z, window).components
    two = mu_numeric(boson, [gen_a, B("a(-2)")], [z, w], window)
    assert two.components == two_point_value(boson, gen_a, B("a(-2)"), z, w,
                                             window).components
    for pv in (one, two):
        assert pv.tail_estimate == 0.0
        assert all(isinstance(c, QQi) for v in pv.components.values()
                   for c in v.terms.values())


@pytest.mark.parametrize("name", PRESETS)
def test_three_point_orderings_agree_exactly(name):
    preset = preset_from_name(name)
    states = _three_states(preset)
    points = [QQi(Fraction(5, 2), 1), QQi(Fraction(-1, 3), Fraction(1, 2)),
              QQi(2, -1)]
    window = DegreeWindow(0, 4)
    values = []
    for order in itertools.permutations(range(3)):
        pv = mu_numeric(preset, [states[i] for i in order],
                        [points[i] for i in order], window)
        values.append([pv.component(k) for k in window.degrees()])
    assert any(values[0])
    assert all(v == values[0] for v in values[1:])
    assert all(c.is_exact() for c in values[0])


@pytest.mark.parametrize("name", PRESETS)
def test_vacuum_third_state_is_two_point(name):
    preset = preset_from_name(name)
    a, b, _ = _three_states(preset)
    z, w, u = QQi(3, 1), QQi(Fraction(1, 2), -1), QQi(-2)
    window = DegreeWindow(0, 4)
    want = two_point_value(preset, a, b, z, w, window)
    for states, points in (([a, b, GradedVector.vacuum()], [z, w, u]),
                           ([GradedVector.vacuum(), a, b], [u, z, w])):
        got = mu_numeric(preset, states, points, window)
        assert got.components == want.components


def test_four_point_matches_radial_reference():
    """The radial cap-doubling route, run once at tol 1e-12 before it was
    replaced, stays on record as an independent reference."""
    ref = json.loads(RADIAL.read_text())
    preset = preset_from_name(ref["preset"])
    states = [GradedVector.from_obj(s) for s in ref["states"]]
    points = [complex(float(re), float(im)) for re, im in ref["points"]]
    want = ProductVector.from_obj(ref["value"])
    got = mu_numeric(preset, states, points, DegreeWindow(*ref["window"]))
    assert want.components
    for k in want.window.degrees():
        scale = max(want.component(k).norm_inf(), 1.0)
        assert got.component(k).distance(want.component(k)) <= 1e-9 * scale


def test_insertion_at_zero_check(boson):
    rep = check_insertion_at_zero(boson, 4)
    assert rep.passed and rep.max_err == 0.0


def test_equivariance_exact_check(boson, vir):
    q = QQi(Fraction(2, 3), Fraction(1, 2))
    a, w = B("a(-1)"), B("L(-2)")
    rep = check_equivariance(boson, [([a, a], [QQi(3), QQi(0)], q)],
                             DegreeWindow(0, 5))
    assert rep.passed and rep.tol == 0.0
    rep = check_equivariance(vir, [([w, w], [QQi(4), QQi(0)], q)],
                             DegreeWindow(0, 5))
    assert rep.passed and rep.tol == 0.0


def test_equivariance_numeric_check(boson, gen_a):
    rep = check_equivariance(
        boson, [([gen_a, gen_a, gen_a], [4.0, 1.0 + 0.2j, 0.25j],
                 0.7 + 0.1j)], DegreeWindow(0, 4))
    assert rep.passed and rep.tol == 1e-8, rep.max_err


def test_permutation_check(boson, gen_a):
    rep = check_permutation(boson, [([gen_a, B("a(-2)")], [3.0, 0.5 - 0.2j])],
                            DegreeWindow(0, 4))
    assert rep.passed and rep.tol == 1e-9, rep.max_err


def test_skew_transport_check(boson, vir, gen_a):
    # skew-symmetry is order independence at the points (z, 0)
    rep = check_permutation(boson, [([gen_a, B("a(-2)")],
                                     [QQi(Fraction(5, 2)), QQi(0)])],
                            DegreeWindow(0, 5))
    assert rep.passed and rep.tol == 0.0
    w = B("L(-2)")
    rep = check_permutation(vir, [([w, w], [QQi(2), QQi(0)])],
                            DegreeWindow(0, 6))
    assert rep.passed and rep.tol == 0.0


TINY = QQi(Fraction(1, 10 ** 400))   # 0.0 as a float


def _plant(monkeypatch, off):
    """Patch `mode_box` so that its first result has its largest
    coefficient c replaced by off(c); later calls are left alone."""
    real, calls = mu.mode_box, []

    def planted(*args):
        pv = real(*args)
        calls.append(1)
        if len(calls) > 1:
            return pv
        k, mono, c = max(((k, m, c) for k, v in pv.components.items()
                          for m, c in v.terms.items()),
                         key=lambda kmc: abs(complex(kmc[2])))
        terms = dict(pv.component(k).terms)
        terms[mono] = off(c)
        out = ProductVector(pv.window, dict(pv.components))
        out.set_component(k, GradedVector(terms))
        return out

    monkeypatch.setattr(mu, "mode_box", planted)


EXACT_CASES = [
    (check_equivariance, [([B("a(-1)"), B("a(-2)")], [QQi(3), QQi(0)],
                           QQi(Fraction(2, 3), Fraction(1, 2)))]),
    (check_permutation, [([B("a(-1)"), B("a(-2)")],
                          [QQi(Fraction(5, 2)), QQi(0)])]),
]
FLOAT_CASES = [
    (check_equivariance, [([B("a(-1)")] * 3, [4.0, 1.0 + 0.2j, 0.25j],
                           0.7 + 0.1j)]),
    (check_permutation, [([B("a(-1)"), B("a(-2)")], [3.0, 0.5 - 0.2j])]),
]


@pytest.mark.parametrize("check, configs", EXACT_CASES,
                         ids=["equivariance", "permutation"])
def test_merged_check_fails_on_a_planted_exact_error(boson, monkeypatch,
                                                     check, configs):
    # an error of 1/10^400 reads 0.0 through float, so only an exact
    # comparison finds it, whatever the tolerance
    assert check(boson, configs, DegreeWindow(0, 4)).passed
    _plant(monkeypatch, lambda c: c + TINY)
    rep = check(boson, configs, DegreeWindow(0, 4))
    assert not rep.passed and rep.witness


@pytest.mark.parametrize("check, configs", FLOAT_CASES,
                         ids=["equivariance", "permutation"])
def test_merged_check_fails_on_a_planted_float_error(boson, monkeypatch,
                                                     check, configs):
    # within 1e-9 on both, tighter than equivariance's own 1e-8
    rep = check(boson, configs, DegreeWindow(0, 4))
    assert rep.passed and rep.max_err <= 1e-9
    _plant(monkeypatch, lambda c: c * (1 + 1e-6))
    rep = check(boson, configs, DegreeWindow(0, 4))
    assert not rep.passed and rep.max_err > 1e-9


def test_insertion_at_zero_fails_on_a_planted_exact_error(boson,
                                                          monkeypatch):
    _plant(monkeypatch, lambda c: c + TINY)
    rep = check_insertion_at_zero(boson, 2)
    assert not rep.passed
    assert rep.witness == {"state": GradedVector.vacuum().to_obj(),
                           "degree": 0}


def test_compare_parts_reports_the_last_failing_witness():
    # two exact pairs disagree, the first by more; a float pair after them
    # agrees within tol
    a, b = B("a(-1)"), B("a(-2)")
    rep = mu.compare_parts("synthetic", iter([
        ({"case": 1}, a, b),                  # error 1
        ({"case": 2}, b, b),
        ({"case": 3}, a, a.scale(2)),         # error 1/2
        ({"case": 4}, a.to_complex(), a.scale(1 + 1e-12)),
    ]), 1e-9)
    assert rep.axiom == "synthetic" and rep.tol == 1e-9
    assert not rep.passed
    assert rep.max_err == 1.0
    assert rep.witness == {"case": 3}
    assert rep.truncation == {}


def test_compare_parts_reports_tol_zero_on_exact_pairs():
    # no pair was compared against the tolerance, so none is reported
    a, b = B("a(-1)"), B("a(-2)")
    rep = mu.compare_parts("exact", iter([({"case": 1}, a, a),
                                          ({"case": 2}, a, b)]), 1e-9)
    assert (rep.passed, rep.max_err, rep.tol) == (False, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)],
                         ids=["nan", "inf", "complex_nan"])
def test_compare_parts_fails_a_non_finite_error(bad):
    # a NaN or infinite coefficient makes the error NaN, which no tolerance
    # admits; it is the reported max_err, also when it is not the first
    # coefficient and a finite error follows
    good = GradedVector({(("a", 1),): 1.0, (("a", 2),): 2.0})
    planted = GradedVector({(("a", 1),): 1.0, (("a", 2),): bad})
    for u, v in ((planted, good), (good, planted)):
        rep = mu.compare_parts("planted", iter([
            ({"case": 1}, u, v),
            ({"case": 2}, good, good.scale(1 + 1e-12)),
        ]), 1e-9)
        assert not rep.passed and rep.tol == 1e-9
        assert math.isnan(rep.max_err) and rep.witness == {"case": 1}


def test_non_finite_coefficients_make_the_norm_nan():
    v = GradedVector({(("a", 1),): 3.0, (("a", 2),): math.nan})
    assert math.isnan(v.norm_inf())
    assert math.isnan(ProductVector.from_vector(
        v + B("a(-3)").to_complex(), DegreeWindow(0, 3)).norm_inf())
    assert GradedVector({(("a", 1),): -math.inf}).norm_inf() == math.inf


def test_compare_parts_passes_an_empty_stream():
    rep = mu.compare_parts("empty", iter(()), 0.0)
    assert rep.passed and rep.max_err == 0.0
    assert rep.witness == {} and rep.truncation == {}


def test_identity_on_basis_reports_the_last_basis_state(boson):
    # a route that doubles its state fails every basis state at its degree
    rep = mu.check_identity_on_basis(
        "planted", boson, 3,
        lambda a, window: ProductVector.from_vector(a.scale(2), window))
    last = GradedVector.basis(basis_upto(boson, 3)[-1])
    assert not rep.passed and rep.max_err == 0.5
    assert rep.witness == {"state": last.to_obj(), "degree": 3}
    assert rep.truncation == {"max_degree": 3}


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_two_point_locality(name):
    """mu(a, z, b, w) == mu(b, w, a, z) exactly, with w != 0, for every pair
    of basis states of degree <= 2 (the suite's skew_transport row covers
    w = 0)."""
    preset = preset_from_name(name)
    z, w = QQi(Fraction(5, 2), 1), QQi(Fraction(-1, 3), Fraction(1, 2))
    window = DegreeWindow(0, 4)
    states = [GradedVector.basis(m) for m in basis_upto(preset, 2)]
    for a in states:
        for b in states:
            ab = two_point_value(preset, a, b, z, w, window)
            ba = two_point_value(preset, b, a, w, z, window)
            for k in window.degrees():
                assert ab.component(k) == ba.component(k), (a, b, k)


def test_associativity_check(boson, gen_a):
    # float points are read at their exact values, and the identity is exact
    rep = check_associativity(boson, [(gen_a, 4.0)],
                              [(gen_a, 0.3), (gen_a, -0.3)], 1.0,
                              DegreeWindow(0, 4))
    assert rep.passed, rep.witness
    assert (rep.max_err, rep.tol, rep.truncation) == (0.0, 0.0, {})


def test_associativity_on_inhomogeneous_inner_states(boson, vir, gen_a):
    # inner states with parts of several degrees give one box per tuple of
    # parts, each read at its own order in t
    for preset, a, b in ((boson, gen_a, B("a(-2)")), (vir, B("L(-2)"),
                                                    B("L(-3)"))):
        mixed = GradedVector.vacuum() + a.scale(QQi(2, -1)) + b
        rep = check_associativity(
            preset, [(a, QQi(4, Fraction(3, 10)))],
            [(mixed, QQi(Fraction(3, 10))), (a + b, QQi(Fraction(-1, 5), 1))],
            QQi(Fraction(1, 2)), DegreeWindow(0, 3))
        assert rep.passed, rep.witness


def test_associativity_reports_its_error(boson, gen_a, monkeypatch):
    # one mode_box scalar of the left side planted off by 1 fails the
    # check, and the report carries the distance it found
    real, calls = mu._t_coefficient, []

    def planted(*args):
        calls.append(args)
        return real(*args) + (1 if len(calls) == 1 else 0)

    monkeypatch.setattr(mu, "_t_coefficient", planted)
    rep = check_associativity(boson, [(gen_a, 4.0)],
                              [(gen_a, 0.3), (gen_a, -0.3)], 1.0,
                              DegreeWindow(0, 4))
    assert not rep.passed
    assert rep.max_err > 0, rep.witness


def test_associativity_domain_guard(boson, gen_a):
    # the identity in t is formal, so an inner point beyond the outer one
    # is no longer refused; coincident points still are
    assert check_associativity(boson, [(gen_a, 1.2)],
                               [(gen_a, 1.5), (gen_a, -0.3)], 1.0,
                               DegreeWindow(0, 3)).passed
    with pytest.raises(DomainViolation):  # an outer point at zc
        check_associativity(boson, [(gen_a, 1.0)],
                            [(gen_a, 1.5), (gen_a, -0.3)], 1.0,
                            DegreeWindow(0, 3))
    with pytest.raises(DomainViolation):  # two equal inner points
        check_associativity(boson, [(gen_a, 1.2)],
                            [(gen_a, 0.5), (gen_a, 0.5)], 1.0,
                            DegreeWindow(0, 3))


_GRID = st.builds(lambda re, im: QQi(Fraction(re, 2), Fraction(im, 2)),
                  st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(["heisenberg", "virasoro", "affine_sl2"]),
       st.integers(0, 2), st.integers(1, 2), _GRID, st.integers(1, 3))
def test_associativity_exact_on_random_configurations(data, name, n_outer,
                                                      n_inner, zc, top):
    preset = preset_from_name(name)
    states = [GradedVector.basis(m) for m in basis_upto(preset, 2)]
    outer_pts = data.draw(st.lists(_GRID.filter(lambda z: z != zc),
                                   min_size=n_outer, max_size=n_outer,
                                   unique=True))
    inner_pts = data.draw(st.lists(_GRID, min_size=n_inner,
                                   max_size=n_inner, unique=True))
    pick = lambda pts: [(data.draw(st.sampled_from(states)), z) for z in pts]
    rep = check_associativity(preset, pick(outer_pts), pick(inner_pts), zc,
                              DegreeWindow(0, top))
    assert rep.passed, rep.witness


def test_meromorphicity_reports_the_pole_order_apart_from_the_error(vir):
    # L_(3) L = c/2 |0> on L(-2)|0>: the highest pole through degree 2 is 4
    rep = check_meromorphicity(vir, 2)
    assert (rep.passed, rep.max_err, rep.tol) == (True, 0.0, 0.0)
    assert rep.truncation == {"max_degree": 2, "max_pole_order": 4}


def test_meromorphicity_check(boson, vir, sl2):
    for preset in (boson, vir, sl2):
        assert check_meromorphicity(preset, 3).passed


@pytest.mark.parametrize("shift", [-1, 1])
def test_meromorphicity_fails_on_a_wrong_pole_bound(vir, monkeypatch, shift):
    # N - 1 leaves a_(N-1) b != 0 at or above the bound; N + 1 claims
    # a_(N) b != 0, which the oracle refutes
    real = mu.pole_bound
    monkeypatch.setattr(mu, "pole_bound",
                        lambda p, a, b: real(p, a, b) + shift)
    rep = check_meromorphicity(vir, 2)
    assert not rep.passed and rep.witness


# ---------------------------------------------------------------------------
# the recursion against the grid scan of the pole-denominator box


def _times_difference(poly, i, j):
    """poly * (x_i - x_j), on {exponent tuple: coefficient}."""
    out = {}
    for e, c in poly.items():
        for k, s in ((i, c), (j, -c)):
            f = e[:k] + (e[k] + 1,) + e[k + 1:]
            out[f] = out.get(f, 0) + s
    return {f: c for f, c in out.items() if c}


def _grid_box_terms(preset, parts, top):
    """The terms of the box that `mu._box_terms` replaced, kept as a
    reference: with D = prod_{i<k} (x_i - x_k)^N_ik, N_ik the pole bounds,
    V_e = sum_f D_f a_1(f_1 - e_1 - 1) ... a_m over every e in
    range(top - low + 1)^(m-1), every term of D expanded afresh."""
    m = len(parts)
    orders = {ik: mu.pole_bound(preset, parts[ik[0]], parts[ik[1]])
              for ik in itertools.combinations(range(m), 2)}
    poly = {(0,) * m: 1}
    for (i, k), order in orders.items():
        for _ in range(order):
            poly = _times_difference(poly, i, k)
    poly = {f[:-1]: c for f, c in poly.items() if not f[-1]}
    low = sum(p.degree() for p in parts) - sum(orders.values())
    memo = {(): parts[-1]}

    def nested(n):
        if n not in memo:
            rest = nested(n[1:])
            memo[n] = rest and mu.state_mode(preset, parts[m - 1 - len(n)],
                                             n[0], rest)
        return memo[n]

    for e in itertools.product(range(top - low + 1), repeat=m - 1):
        d = low + sum(e)
        if not 0 <= d <= top:
            continue
        vec = GradedVector.zero()
        for f, c in poly.items():
            v = nested(tuple(fi - ei - 1 for fi, ei in zip(f, e)))
            if v:
                vec = vec + (v if c == 1 else v.scale(c))
        if vec:
            exps = {ik: -order for ik, order in orders.items()}
            for i, ei in enumerate(e):
                exps[(i, m - 1)] += ei
            yield tuple((ik, t) for ik, t in exps.items() if t), d, vec


def _grid_map(preset, states, points, window):
    """`mu_numeric` at exact points through the grid scan's terms."""
    terms = [term for parts in itertools.product(
                 *([s.project(d) for d in s.degrees()] for s in states))
             for term in _grid_box_terms(preset, parts, window.hi)]

    def scalar(exps, j):
        out = points[-1] ** j
        for (i, k), t in exps:
            out *= (points[i] - points[k]) ** t
        return out
    return mu.mode_box(preset, [(terms, scalar, 1)], window)


def _term_lists(terms):
    return [(exps, d, list(v.terms.items())) for exps, d, v in terms]


_SMALL_QQI = st.builds(lambda re, im: QQi(re, im), st.integers(-3, 3),
                       st.integers(-2, 2)).filter(bool)


def _exact_state(data, preset, max_degree):
    """A nonzero exact state, often with several homogeneous parts."""
    monos = data.draw(st.lists(st.sampled_from(basis_upto(preset,
                                                          max_degree)),
                               min_size=1, max_size=2, unique=True))
    return GradedVector({mono: data.draw(_SMALL_QQI) for mono in monos})


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRESETS), st.integers(1, 4))
def test_map_matches_the_grid_scan(data, name, arity):
    # the recursion and the grid scan are two sums for one rational
    # function: at exact points they agree exactly on every degree
    preset = preset_from_name(name)
    # a first state of degree 3 splits off derivatives x(-w-1) of every
    # preset's generators; at arity 4 it would make the grid slow, and so
    # would a top above 3 (0.6-1.0 s an example on two-monomial states)
    first = 3 if arity < 4 else 2
    top = data.draw(st.integers(0, 5 if arity < 4 else 3))
    states = [_exact_state(data, preset, first if i == 0 else 2)
              for i in range(arity)]
    points = data.draw(st.lists(_GRID, min_size=arity, max_size=arity,
                                unique=True))
    window = DegreeWindow(0, top)
    assert mu_numeric(preset, states, points, window).to_obj() == \
        _grid_map(preset, states, points, window).to_obj()


@pytest.mark.parametrize("name", PRESETS)
def test_one_and_two_point_terms_are_the_grid_scans(name):
    # the same (exps, d, V) in the same order, V's terms in the same key
    # order with equal values, so one- and two-point float results have
    # the bits of the grid scan's terms
    preset = preset_from_name(name)
    coeffs = (QQi(1), QQi(-2, 3), 0.5 - 0.25j)
    for top in range(6):
        for mono in basis_upto(preset, 4):
            for c in coeffs:
                parts = (GradedVector({mono: c}),)
                assert _term_lists(mu._box_terms(preset, parts, top)) == \
                    _term_lists(_grid_box_terms(preset, parts, top))
        for a, b in itertools.product(basis_upto(preset, 2), repeat=2):
            for c in coeffs:
                parts = (GradedVector({a: c}), GradedVector({b: c}))
                assert _term_lists(mu._box_terms(preset, parts, top)) == \
                    _term_lists(_grid_box_terms(preset, parts, top))
    # homogeneous parts of several monomials keep their key order
    monos = [m for m in basis_upto(preset, 3) if sum(k for _, k in m) == 3]
    part = GradedVector({m: QQi(i + 1) for i, m in enumerate(monos[::-1])})
    (term,) = mu._box_terms(preset, (part,), 3)
    assert term[:2] == ((), 3) and list(term[2].terms) == monos[::-1]
    for parts in ((part, part), (part.scale(0.5j), part)):
        assert _term_lists(mu._box_terms(preset, parts, 4)) == \
            _term_lists(_grid_box_terms(preset, parts, 4))


def _hafnian(points):
    """Wick's sum over perfect matchings of prod (z_i - z_j)^-2."""
    if not points:
        return QQi(1)
    z, rest = points[0], points[1:]
    return sum(((z - w) ** -2 * _hafnian(rest[:j] + rest[j + 1:])
                for j, w in enumerate(rest)), QQi(0))


_POINTS = [QQi(3, 1), QQi(Fraction(1, 2), -2), QQi(-1, Fraction(2, 3)),
           QQi(0), QQi(Fraction(5, 4), 3), QQi(-2, -1), QQi(4, -3),
           QQi(Fraction(-7, 2), 2)]


def _vacuum_part(preset, states, points):
    pv = mu_numeric(preset, states, points, DegreeWindow(0, 0))
    return pv.component(0)


@pytest.mark.parametrize("arity", [2, 4, 6, 8])
def test_heisenberg_vacuum_part_is_wicks_hafnian(boson, gen_a, arity):
    points = _POINTS[:arity]
    assert _vacuum_part(boson, [gen_a] * arity, points) == \
        GradedVector.vacuum().scale(_hafnian(points))


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(-22, 5)])
def test_virasoro_vacuum_parts_are_the_closed_forms(c):
    preset = preset_from_name("virasoro", c=c)
    L = B("L(-2)")
    z1, z2, z3 = _POINTS[:3]
    z12, z13, z23 = z1 - z2, z1 - z3, z2 - z3
    assert _vacuum_part(preset, [L, L], [z1, z2]) == \
        GradedVector.vacuum().scale(QQi(c / 2) / z12 ** 4)
    assert _vacuum_part(preset, [L, L, L], [z1, z2, z3]) == \
        GradedVector.vacuum().scale(QQi(c) / (z12 * z13 * z23) ** 2)


@pytest.mark.parametrize("level", [Fraction(1), Fraction(5, 3)])
def test_affine_vacuum_parts_are_the_closed_forms(level):
    preset = preset_from_name("affine_sl2", level=level)
    e, f, h = B("e(-1)"), B("f(-1)"), B("h(-1)")
    z1, z2, z3 = _POINTS[:3]
    z12, z13, z23 = z1 - z2, z1 - z3, z2 - z3
    assert _vacuum_part(preset, [e, f], [z1, z2]) == \
        GradedVector.vacuum().scale(QQi(level) / z12 ** 2)
    assert _vacuum_part(preset, [e, f, h], [z1, z2, z3]) == \
        GradedVector.vacuum().scale(QQi(2 * level) / (z12 * z13 * z23))


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("t", [1, 2])
def test_derivative_first_state_matches_the_grid_scan(name, t):
    # a first state x(-w-t), the t-th derivative of a generator, reads
    # every creation and annihilation binomial of its splitting
    preset = preset_from_name(name)
    (x, w), = basis_upto(preset, 2)[1]
    states = [B(f"{x}(-{w + t})")] + [GradedVector.basis(((x, w),))] * 2
    window = DegreeWindow(0, 5)
    assert mu_numeric(preset, states, _POINTS[:3], window).to_obj() == \
        _grid_map(preset, states, _POINTS[:3], window).to_obj()


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("points", [(QQi(1, 2), QQi(-1, 3)), (0.5, -0.25)])
def test_int_coefficients_map_like_their_qqi_values(name, points):
    # GradedVector keeps int coefficients as given; the map must read
    # them as the exact values they are, at exact and at float points
    preset = preset_from_name(name)
    a, b = basis_upto(preset, 3)[1:3]
    window = DegreeWindow(0, 4)
    for states in ([{a: 2}], [{a: 2, b: -1}, {b: 3}]):
        got = mu_numeric(preset, [GradedVector(s) for s in states],
                         points[:len(states)], window)
        want = mu_numeric(preset, [GradedVector({k: QQi(c) for k, c in
                                                 s.items()}) for s in states],
                          points[:len(states)], window)
        for d in window.degrees():
            u, v = got.component(d).terms, want.component(d).terms
            assert u == v
            assert [type(c) for c in u.values()] == \
                [type(c) for c in v.values()]



@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("points, floats", [
    ((0.5, QQi(0)), (0.5 + 0j, 0j)),
    ((QQi(Fraction(1, 2)), -0.25), (0.5 + 0j, -0.25 + 0j)),
    ((Fraction(1, 3), 2, 0.5j), (1 / 3 + 0j, 2 + 0j, 0.5j)),
])
def test_one_float_point_makes_every_point_complex(name, points, floats):
    # no degree stays exact beside a float one: the call equals the one
    # at the complex points in value and type at every degree
    preset = preset_from_name(name)
    low = basis_upto(preset, 2)[1:]
    states = [GradedVector.basis(low[i % len(low)]) for i in
              range(len(points))]
    window = DegreeWindow(0, 4)
    got = mu_numeric(preset, states, list(points), window)
    want = mu_numeric(preset, states, list(floats), window)
    for d in window.degrees():
        u, v = got.component(d).terms, want.component(d).terms
        assert [(m, type(c), c) for m, c in u.items()] == \
            [(m, type(c), c) for m, c in v.items()]
        assert all(type(c) is complex for c in u.values())


# ---------------------------------------------------------------------------
# the integer flow against the flow of reduced QQi sums


def _qqi_mode_box(preset, groups, window):
    """The `mode_box` that the integer flow replaced, kept as a reference:
    every product and sum of U_j a reduced QQi (or a complex), and T^j /
    j! applied by `state_mode`, one order at a time."""
    vacuum = GradedVector.vacuum()
    flow = [{} for _ in range(window.hi + 1)]
    for terms, scalar, coeff in groups:
        if terms is None:
            terms, scalar = (((), 0, vacuum),), lambda exps, j: 1
        scaled = coeff != 1
        for exps, d, vec in terms:
            for j in range(max(0, window.lo - d),
                           window.hi - d + 1 if d else 1):
                s = scalar(exps, j)
                if s:
                    acc, s = flow[j], s * coeff if scaled else s
                    for mono, c in vec.terms.items():
                        acc[mono] = acc.get(mono, 0) + c * s
    out = GradedVector.zero()
    for j, acc in enumerate(flow):
        out = out + mu.state_mode(preset, GradedVector(acc), -j - 1, vacuum)
    return ProductVector.from_vector(out, window)


# lambda = 1, 2 (c/2 = 1/4) and 3 (a level of denominator 3)
_FLOW_PRESETS = [("heisenberg", {}), ("virasoro", {}),
                 ("virasoro", {"c": Fraction(-22, 5)}),
                 ("affine_sl2", {"level": Fraction(5, 3)})]


def _flow_scalar(points, as_int):
    """The `mu_numeric` scalar at ``points``; with ``as_int`` an integer
    value is returned as an int, as `residues.Pairing` returns some."""
    def scalar(exps, j):
        s = points[-1] ** j
        for (i, k), t in exps:
            s *= (points[i] - points[k]) ** t
        if as_int and type(s) is QQi and s.d == 1 and not s.b:
            return s.a
        return s
    return scalar


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(_FLOW_PRESETS))
def test_integer_flow_matches_the_qqi_flow(data, spec):
    # exact boxes equal the reference coefficient by coefficient, each a
    # reduced nonzero QQi; float boxes have the reference's bits
    preset = preset_from_name(spec[0], **spec[1])
    hi = data.draw(st.integers(0, 4))
    window = DegreeWindow(data.draw(st.integers(0, hi)), hi)
    groups, floats = [], data.draw(st.sampled_from([0, 0, 1]))
    for _ in range(data.draw(st.integers(1, 3))):
        arity = data.draw(st.integers(0, 2))
        states = [_exact_state(data, preset, 2) for _ in range(arity)]
        points = data.draw(st.lists(_GRID, min_size=arity, max_size=arity,
                                    unique=True))
        if arity and floats and data.draw(st.booleans()):
            points[-1] = complex(points[-1])    # a float point
        coeff = data.draw(st.sampled_from(
            [1, QQi(Fraction(-3, 4), 2), QQi(Fraction(2, 9))]
            + [0.5 - 0.25j] * floats))
        terms = mu.box_terms(preset, states, window) if arity else None
        scalar = _flow_scalar(points, data.draw(st.booleans()))
        groups.append((terms, scalar, coeff))
        if data.draw(st.booleans()):            # a group that cancels it
            groups.append((terms, scalar, -coeff))
    got = mu.mode_box(preset, groups, window)
    want = _qqi_mode_box(preset, groups, window)
    assert sorted(got.components) == sorted(want.components)
    for d, v in want.components.items():
        u = got.components[d].terms
        if v.is_exact():
            assert u == v.terms
            assert all(type(c) is QQi and c and c.d > 0
                       and math.gcd(c.a, c.b, c.d) == 1 for c in u.values())
        else:
            assert {m: repr(c) for m, c in u.items()} == \
                {m: repr(c) for m, c in v.terms.items()}

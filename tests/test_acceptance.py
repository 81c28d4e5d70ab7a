"""End-to-end acceptance gate.

Ten criteria, each a separate test, covering: mode-oracle equivalence,
the annulus kernel obstruction, insertion at zero, dilation equivariance,
nested associativity, weight projections, embedding round trips,
multiplicativity over disjoint supports, cover behavior, and pole bounds.
Tolerances are part of the contract and are not to be loosened here.
"""
import random
import time
from fractions import Fraction

from voxfact.expressions import Expression, evaluate_expression, extend
from voxfact.functionals import DeltaJet
from voxfact.geometry import Disc
from voxfact.graded import GradedVector, mono_degree
from voxfact.mu import (check_associativity, check_equivariance,
                        check_insertion_at_zero, check_meromorphicity)
from voxfact.oracle import oracle_mode_mono
from voxfact.presets import (basis_upto, pole_bound, state_mode_mono,
                             translate)
from voxfact.relations import (check_weight_idempotent, check_weight_partition,
                               check_weight_quadrature,
                               concentric_density_check, kernel_combination,
                               relation_kernel, run_counterexample,
                               state_embedding, weiss_cover_check)
from voxfact.scalars import DegreeWindow, QQi
from voxfact.suite import _phase, _random_point, _random_state

WINDOW6 = DegreeWindow(0, 6)


# 1 -----------------------------------------------------------------------

def test_mode_oracle_equivalence_degree6(boson, vir, sl2):
    """state_mode agrees exactly with the independent field-splitting oracle.

    Full degree <= 6 cross product for the one-generator presets; for the
    three-generator preset the pair set is deg a + deg b <= 6 to stay inside
    the one-minute budget.
    """
    start = time.monotonic()
    for preset, combined in ((boson, False), (vir, False), (sl2, True)):
        states = basis_upto(preset, 6)
        for am in states:
            for bm in states:
                da, db = mono_degree(am), mono_degree(bm)
                if combined and da + db > 6:
                    continue
                for n in range(-2, da + db + 1):
                    assert state_mode_mono(preset, am, n, bm) == \
                        oracle_mode_mono(preset, am, n, bm), (am, n, bm)
    assert time.monotonic() - start < 60.0


# 2 -----------------------------------------------------------------------

def test_kernel_obstruction_exact(boson):
    start = time.monotonic()
    rep, data = run_counterexample(1, boson, DegreeWindow(0, 4))
    assert rep.passed
    assert not data["ev_x"].flatten()
    assert data["ev_xy"].flatten() == GradedVector.vacuum()
    assert time.monotonic() - start < 1.0


# 3 -----------------------------------------------------------------------

def test_insertion_at_zero_degree6(boson, vir, sl2):
    for preset in (boson, vir, sl2):
        rep = check_insertion_at_zero(preset, 6)
        assert rep.passed and rep.max_err == 0.0, preset.kind


# 4 -----------------------------------------------------------------------

def test_equivariance_exact_200(boson, vir, sl2):
    rng = random.Random(401)
    presets = (boson, vir, sl2)
    configs = {p.kind: [] for p in presets}
    for i in range(200):
        p = presets[i % 3]
        q = _random_point(rng)
        while not q:
            q = _random_point(rng)
        states = [_random_state(rng, p, 3), _random_state(rng, p, 3)]
        configs[p.kind].append((states, [_random_point(rng) + QQi(3), QQi(0)],
                                q))
    for p in presets:
        rep = check_equivariance(p, configs[p.kind], DegreeWindow(0, 5))
        assert rep.passed and rep.tol == 0.0, (p.kind, rep.witness)


def test_equivariance_numeric_50(boson):
    rng = random.Random(402)
    configs = []
    for _ in range(50):
        states = [_random_state(rng, boson, 2, terms=1) for _ in range(3)]
        pts = [m * _phase(rng) for m in (4.0, 1.0, 0.25)]
        configs.append((states, pts, 0.7 * _phase(rng)))
    rep = check_equivariance(boson, configs, DegreeWindow(0, 3))
    assert rep.passed, rep.max_err


# 5 -----------------------------------------------------------------------

def test_associativity_nested(boson, gen_a):
    rng = random.Random(405)
    z1 = Fraction(4) + Fraction(rng.randrange(-4, 5), 10)
    zc = Fraction(1) + Fraction(rng.randrange(-2, 3), 10)
    w1 = Fraction(3, 10)
    w2 = -Fraction(3, 10)
    # the identity holds exactly, in every inner degree, at the points as
    # exact values and as floats
    for lift in (QQi, float):
        rep = check_associativity(boson, [(gen_a, lift(z1))],
                                  [(gen_a, lift(w1)), (gen_a, lift(w2))],
                                  lift(zc), DegreeWindow(0, 4))
        assert rep.passed, rep.witness
        assert (rep.max_err, rep.tol) == (0.0, 0.0)


# 6 -----------------------------------------------------------------------

def test_weight_projection_quadrature(boson):
    rng = random.Random(406)
    samples = [(_random_state(rng, boson, 3), _random_point(rng),
                rng.randrange(0, 7)) for _ in range(12)]
    rep = check_weight_quadrature(boson, samples, WINDOW6)
    assert rep.passed, rep.max_err


def test_weight_projection_partition_100(boson):
    rng = random.Random(407)
    carrier = Disc(QQi(0), Fraction(4))
    exprs = [Expression.single(carrier,
                               [DeltaJet(_random_point(rng),
                                         rng.randrange(0, 2))],
                               [_random_state(rng, boson, 3)])
             for _ in range(100)]
    rep = check_weight_partition(boson, exprs, WINDOW6)
    assert rep.passed, rep.max_err


def test_weight_projection_idempotent(boson):
    rng = random.Random(408)
    carrier = Disc(QQi(0), Fraction(4))
    exprs = [Expression.single(carrier, [DeltaJet(_random_point(rng), 0)],
                               [_random_state(rng, boson, 3)])
             for _ in range(5)]
    rep = check_weight_idempotent(boson, exprs, DegreeWindow(0, 4))
    assert rep.passed, rep.max_err


# 7 -----------------------------------------------------------------------

def test_roundtrip_exact_degree6(boson, vir, sl2):
    carrier = Disc(QQi(0), Fraction(1))
    for preset in (boson, vir, sl2):
        for mono in basis_upto(preset, 6):
            a = GradedVector.basis(mono)
            got = evaluate_expression(
                state_embedding(carrier, a), preset,
                DegreeWindow(0, max(6, a.degree()))).flatten()
            assert got == a, (preset.kind, mono)


def test_roundtrip_homomorphism_square(boson):
    # l_k [delta_z (x) a], read off the dilation orbit, is p_k mu(a, z)
    rng = random.Random(477)
    samples = [(_random_state(rng, boson, 3), _random_point(rng),
                rng.randrange(0, 7)) for _ in range(20)]
    rep = check_weight_quadrature(boson, samples, WINDOW6)
    assert rep.passed, rep.max_err


# 8 -----------------------------------------------------------------------

def test_multiplicativity_support_partition():
    from voxfact.relations import multiplicativity_check
    u = Disc(QQi(-2), Fraction(1))
    v = Disc(QQi(2), Fraction(1))
    target = Disc(QQi(0), Fraction(4))
    s1 = GradedVector.basis((("a", 3),))
    s2 = GradedVector.basis((("a", 2), ("a", 1)))
    fam_u = [
        Expression.single(u, [DeltaJet(QQi(-2), 0)], [s1]),
        Expression.single(u, [DeltaJet(QQi(Fraction(-5, 2)), 0),
                              DeltaJet(QQi(Fraction(-3, 2)), 0)], [s1, s2]),
    ]
    fam_v = [
        Expression.single(v, [DeltaJet(QQi(2), 0)], [s2]),
        Expression.single(v, [DeltaJet(QQi(Fraction(3, 2)), 0),
                              DeltaJet(QQi(Fraction(5, 2)), 0)], [s2, s1]),
    ]
    rep = multiplicativity_check(u, v, target, fam_u, fam_v)
    assert rep.passed and rep.max_err == 0.0


# 9 -----------------------------------------------------------------------

def test_weiss_cover_accept_reject():
    ambient = Disc(QQi(0), Fraction(3))
    good = [Disc(QQi(0), Fraction(1)), Disc(QQi(0), Fraction(2)),
            Disc(QQi(0), Fraction(3))]
    bad = [Disc(QQi(-2), Fraction(1)), Disc(QQi(2), Fraction(1))]
    exprs = [Expression.single(ambient,
                               [DeltaJet(QQi(Fraction(-1, 2)), 0),
                                DeltaJet(QQi(Fraction(3, 2)), 0)],
                               [GradedVector.basis((("a", 1),))] * 2)]
    assert weiss_cover_check(good, exprs).passed
    straddle = [Expression.single(ambient,
                                  [DeltaJet(QQi(-2), 0), DeltaJet(QQi(2), 0)],
                                  [GradedVector.basis((("a", 1),))] * 2)]
    assert not weiss_cover_check(bad, straddle).passed


def test_extension_preserves_ev_100(boson):
    rng = random.Random(409)
    small = Disc(QQi(0), Fraction(2))
    big = Disc(QQi(0), Fraction(4))
    w = DegreeWindow(0, 5)
    for _ in range(100):
        z = _random_point(rng)
        while not small.contains_point(z):
            z = _random_point(rng)
        e = Expression.single(small, [DeltaJet(z, rng.randrange(0, 2))],
                              [_random_state(rng, boson, 3)])
        v1 = evaluate_expression(e, boson, w)
        v2 = evaluate_expression(extend(e, big), boson, w)
        for k in w.degrees():
            assert v1.component(k) == v2.component(k)


def test_concentric_density_20_kernel_vectors(boson):
    # the family [delta_z^(1) (x) a, delta_z (x) T a] has the translation
    # relation as its kernel vector: two distinct terms, which cancel along
    # the orbit only if a jet of order d is pushed forward with lambda^d
    rng = random.Random(410)
    carrier = Disc(QQi(0), Fraction(4))
    w = DegreeWindow(0, 5)
    qs = [QQi(Fraction(1, 2)), QQi(Fraction(2, 3), Fraction(1, 4)),
          QQi(Fraction(-3, 5), Fraction(1, 5))]
    for _ in range(20):
        z = _random_point(rng)
        a = _random_state(rng, boson, 3)
        _random_point(rng)  # unused draw: keeps every case's z and a
        family = [Expression.single(carrier, [DeltaJet(z, 1)], [a]),
                  Expression.single(carrier, [DeltaJet(z, 0)],
                                    [translate(boson, a)])]
        ker = relation_kernel(boson, family, w)
        assert len(ker) == 1, "the translation relation spans the kernel"
        combo = kernel_combination(family, ker[0])
        assert len(combo.terms) == 2
        rep = concentric_density_check(boson, combo, QQi(0), qs, w)
        assert rep.passed and rep.max_err == rep.tol == 0.0


# 10 ----------------------------------------------------------------------

def test_pole_bounds(boson, vir, sl2):
    for preset in (boson, vir, sl2):
        rep = check_meromorphicity(preset, 5)
        assert rep.passed, preset.kind
    a = GradedVector.basis((("a", 1),))
    assert pole_bound(boson, a, a) == 2
    w = GradedVector.basis((("L", 2),))
    assert pole_bound(vir, w, w) == 4

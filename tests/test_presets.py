"""Mode arithmetic on the three built-in presets.

Frozen expected values below come straight from the defining brackets:
free boson [a_m, a_n] = m delta_{m+n,0}; Virasoro
[L_m, L_n] = (m-n) L_{m+n} + (c/12)(m^3-m) delta_{m+n,0}; sl2 currents with
the level form. The normal-ordered-field route in voxfact.oracle is the
independent machine oracle for everything beyond these one-bracket cases.
"""
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfact import presets
from voxfact.graded import GradedVector, mono_degree, parse_token
from voxfact.oracle import oracle_mode_mono
from voxfact.presets import (VAPreset, affine_sl2, basis, basis_upto,
                             clear_caches, gen_mode_apply, gen_mode_mono,
                             pole_bound, preset_from_name, state_mode,
                             state_mode_mono, translate, translate_power,
                             virasoro)
from voxfact.scalars import QQi, exact_value

VAC = GradedVector.vacuum()


def B(*tokens):
    from voxfact.graded import parse_token
    return GradedVector.basis(tuple(parse_token(t) for t in tokens))


# --- frozen single values -------------------------------------------------

def test_boson_generator_pairing(boson):
    a = B("a(-1)")
    assert state_mode(boson, a, 1, a) == VAC
    assert state_mode(boson, a, 0, a) == GradedVector.zero()
    assert state_mode(boson, a, -1, a) == B("a(-1)", "a(-1)")
    assert state_mode(boson, a, -2, a) == B("a(-2)", "a(-1)")


def test_boson_grading_bound(boson):
    a = B("a(-1)")
    for n in range(2, 6):
        assert state_mode(boson, a, n, a) == GradedVector.zero()


def test_virasoro_conformal_vector(vir):
    w = B("L(-2)")
    assert state_mode(vir, w, 1, w) == w.scale(QQi(2))          # L_0 acts by degree
    assert state_mode(vir, w, 0, w) == B("L(-3)")               # L_{-1} = T
    assert state_mode(vir, w, 2, w) == GradedVector.zero()
    assert state_mode(vir, w, 3, w) == VAC.scale(QQi(Fraction(1, 4)))  # c/2, c=1/2


def test_virasoro_central_charge_dial():
    vir5 = preset_from_name("virasoro", c=Fraction(5))
    w = B("L(-2)")
    assert state_mode(vir5, w, 3, w) == VAC.scale(QQi(Fraction(5, 2)))


def test_sl2_level_pairings(sl2):
    e, h, f = B("e(-1)"), B("h(-1)"), B("f(-1)")
    # x_(0) y = [x, y](-1)|0>, x_(1) y = kappa(x, y)|0> at level 1
    assert state_mode(sl2, e, 0, f) == B("h(-1)")
    assert state_mode(sl2, h, 0, e) == B("e(-1)").scale(QQi(2))
    assert state_mode(sl2, h, 0, f) == B("f(-1)").scale(QQi(-2))
    assert state_mode(sl2, e, 1, f) == VAC
    assert state_mode(sl2, h, 1, h) == VAC.scale(QQi(2))
    assert state_mode(sl2, e, 1, e) == GradedVector.zero()


def test_translation_vacuum_and_leibniz(boson):
    assert translate(boson, VAC) == GradedVector.zero()
    # [T, a_(-m)] = m a_(-m-1) on a monomial
    assert translate(boson, B("a(-1)")) == B("a(-2)")
    assert translate(boson, B("a(-2)", "a(-1)")) == \
        B("a(-3)", "a(-1)").scale(QQi(2)) + B("a(-2)", "a(-2)")


def test_basis_counts(boson, vir, sl2):
    # free boson: partitions of d
    assert [len(basis(boson, d)) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    # virasoro floor 2: partitions into parts >= 2
    assert [len(basis(vir, d)) for d in range(7)] == [1, 0, 1, 1, 2, 2, 4]
    # sl2: partitions with 3 colors
    assert [len(basis(sl2, d)) for d in range(5)] == [1, 3, 9, 22, 51]


def test_basis_takes_each_generator_floor(monkeypatch):
    # a commutative algebra with generators of weights 1 and 2: L(-1) lies
    # below the creation floor of L, though a(-1) does not
    monkeypatch.setitem(presets._ALGEBRAS, "two_weights",
                        ({"a": 1, "L": 2}, {}, lambda c, level: {}))
    p = VAPreset("two_weights")
    assert sorted(basis(p, 2)) == sorted([(("a", 2),), (("a", 1), ("a", 1)),
                                          (("L", 2),)])


def test_basis_monomials_canonical(sl2):
    for mono in basis_upto(sl2, 4):
        modes = [m for _, m in mono]
        assert modes == sorted(modes, reverse=True)
        for (g1, m1), (g2, m2) in zip(mono, mono[1:]):
            if m1 == m2:
                assert sl2.gen_index(g1) <= sl2.gen_index(g2)


# --- structural laws over random basis pairs ------------------------------

def _pairs(preset, dmax):
    out = []
    for am in basis_upto(preset, dmax):
        for bm in basis_upto(preset, dmax):
            out.append((am, bm))
    return out


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_iterate_matches_field_oracle(name):
    preset = preset_from_name(name)
    for am, bm in _pairs(preset, 3):
        da, db = mono_degree(am), mono_degree(bm)
        for n in range(-2, da + db + 1):
            assert state_mode_mono(preset, am, n, bm) == \
                oracle_mode_mono(preset, am, n, bm), (am, n, bm)


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_degree_rule_and_grading_bound(name):
    preset = preset_from_name(name)
    for am, bm in _pairs(preset, 3):
        da, db = mono_degree(am), mono_degree(bm)
        for n in range(-3, da + db + 2):
            v = state_mode_mono(preset, am, n, bm)
            if n >= da + db:
                assert not v
            elif v:
                assert v.degree() == da + db - n - 1


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_vacuum_is_identity_like(name):
    preset = preset_from_name(name)
    for bm in basis_upto(preset, 4):
        b = GradedVector.basis(bm)
        assert state_mode_mono(preset, (), -1, bm) == b
        assert state_mode_mono(preset, (), 0, bm) == GradedVector.zero()
        assert state_mode(preset, b, -1, VAC) == b


def test_state_mode_bilinear(boson):
    a, b = B("a(-1)"), B("a(-2)")
    c = QQi(Fraction(2, 3), Fraction(1, 5))
    lhs = state_mode(boson, a.scale(c) + b, -1, a)
    rhs = state_mode(boson, a, -1, a).scale(c) + state_mode(boson, b, -1, a)
    assert lhs == rhs


def test_pole_bound_values(boson, vir):
    a, w = B("a(-1)"), B("L(-2)")
    assert pole_bound(boson, a, a) == 2
    assert pole_bound(vir, w, w) == 4


def test_gen_mode_annihilates_vacuum(boson):
    for n in range(0, 4):
        assert not gen_mode_apply(boson, "a", n, VAC)


def test_clear_caches_empties_every_table():
    # each cold benchmark op relies on this, so no op inherits a memo entry,
    # and the oracle's memo must not grow the process from one round to the
    # next
    made = [preset_from_name(n) for n in ("heisenberg", "virasoro",
                                          "affine_sl2")]
    for p in made:
        am, bm = basis(p, 2)[0], basis(p, 2)[-1]
        state_mode(p, GradedVector.basis(am), 0, GradedVector.basis(bm))
        translate(p, GradedVector.basis(bm))
        oracle_mode_mono(p, am, -1, bm)
        for name in ("gen", "sm", "deg", "basis", "oracle"):
            assert p._memos[name], (p.kind, name)
        assert set(p._memos) == {"gen", "sm", "deg", "basis",
                                 "oracle"}, p.kind
    clear_caches()
    for p in made:
        assert not any(p._memos.values()), p.kind


# --- the public boundary against the plain linear extension -----------------

_PRESETS = {n: preset_from_name(n) for n in ("heisenberg", "virasoro",
                                             "affine_sl2")}
# table coefficients with denominators 3 and 6 (c/12 (m^3 - m) = (m^3 - m)/36);
# the tables run in the basis 6L
_PRESETS["virasoro_c1/3"] = preset_from_name("virasoro", c=Fraction(1, 3))
# the three currents rescaled by 3, the other lambda that is not a power of 2
_PRESETS["affine_sl2_level2/3"] = preset_from_name("affine_sl2",
                                                   level=Fraction(2, 3))
_rat = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_nonzero = _rat.filter(bool)
_exact = st.builds(QQi, _rat, _nonzero) | st.builds(QQi, _nonzero)  # non-real, real
_numeric = st.builds(complex, st.integers(-4, 4),
                     st.floats(-4, 4, allow_nan=False)) | st.builds(
    complex, st.floats(-4, 4, allow_nan=False),
    st.floats(-4, 4, allow_nan=False))
_KINDS = {"exact": (_exact,), "complex": (_numeric,),
          "mixed": (_exact, _numeric)}


@st.composite
def _vectors(draw, preset, kind, first):
    # The vacuum and a generator x always take part, so that at n = -1 the
    # pairs (|0>, x) and (x, |0>) land on the same term.  A mixed vector
    # gives them coefficients of opposite kinds, the vacuum's chosen by
    # `first`; the other terms draw either kind.
    gen = draw(st.sampled_from(preset.generators))
    monos = [(), ((gen, preset.creation_floor(gen)),)] + draw(
        st.lists(st.sampled_from(basis_upto(preset, 3)), max_size=4))
    kinds = _KINDS[kind]
    return GradedVector({m: draw(kinds[(first + i) % len(kinds)]
                                 if i < 2 else st.one_of(*kinds))
                         for i, m in enumerate(dict.fromkeys(monos))})


def _extend(pieces):
    """The linear extension as a loop of GradedVector.scale and +."""
    out = GradedVector.zero()
    for vec, coeff in pieces:
        if vec:
            out = out + vec.scale(coeff)
    return out


def _same_terms(got, want):
    assert got.terms.keys() == want.terms.keys()
    for mono, c in want.terms.items():
        assert type(got.terms[mono]) is type(c), (mono, got.terms[mono], c)
        assert got.terms[mono] == c, (mono, got.terms[mono], c)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(sorted(_PRESETS)),
       st.sampled_from(sorted(_KINDS)), st.integers(-2, 1), st.booleans())
def test_boundary_matches_linear_extension(data, name, kind, n, first):
    # a mixed pair (a, b) has opposite kinds on its vacuum terms, so at
    # n = -1 the generator term of a_(n) b always sums an exact and a
    # complex contribution, in the order `first` picks
    p = _PRESETS[name]
    a = data.draw(_vectors(p, kind, first))
    b = data.draw(_vectors(p, kind, not first))
    am = data.draw(st.sampled_from(basis_upto(p, 3)))
    gen = data.draw(st.sampled_from(p.generators))
    for m in {n, -1}:
        _same_terms(state_mode(p, a, m, b),
                    _extend((state_mode_mono(p, x, m, y), ac * bc)
                            for x, ac in a.terms.items()
                            for y, bc in b.terms.items()))
    _same_terms(state_mode(p, GradedVector.basis(am), n, b),
                _extend((state_mode_mono(p, am, n, y), bc)
                        for y, bc in b.terms.items()))
    _same_terms(gen_mode_apply(p, gen, n, b),
                _extend((gen_mode_mono(p, gen, n, y), bc)
                        for y, bc in b.terms.items()))
    _same_terms(translate(p, b),
                _extend((translate(p, GradedVector.basis(y)), bc)
                        for y, bc in b.terms.items()))
    # at n = -1 the x x|0> terms of |0>_(-1) (x x) and x_(-1) (-x) cancel,
    # and the boundary drops the term as `+` does
    f = p.creation_floor(gen)
    x = GradedVector.basis(((gen, f),))
    xx = GradedVector.basis(((gen, f), (gen, f)))
    _same_terms(state_mode(p, VAC + x, -1, xx - x),
                _extend((state_mode_mono(p, s, -1, y), sc * yc)
                        for s, sc in (VAC + x).terms.items()
                        for y, yc in (xx - x).terms.items()))
    # translate_power feeds each lifted sum back into the boundary as the
    # next scalars; j such steps equal j public translations
    repeated = b
    for j in (1, 2, 3):
        repeated = translate(p, repeated)
        _same_terms(translate_power(p, b, j), repeated)


@pytest.mark.parametrize("first", [False, True])
def test_boundary_mixed_term_in_both_orders(boson, first):
    # the a(-1) term of a_(-1) b sums an exact non-real contribution and a
    # complex one; `first` picks which comes first
    x, z = QQi(Fraction(1, 3), 2), 0.25 - 1.5j
    ca, cb = (z, x) if first else (x, z)
    g = B("a(-1)")
    a, b = VAC.scale(ca) + g.scale(cb), VAC.scale(cb) + g.scale(ca)
    got = state_mode(boson, a, -1, b)
    _same_terms(got, _extend((state_mode_mono(boson, am, -1, bm), ac * bc)
                             for am, ac in a.terms.items()
                             for bm, bc in b.terms.items()))
    assert type(got.terms[((("a", 1),))]) is complex


_COEFFS = {"int": 2, "Fraction": Fraction(-2, 3),
           "QQi": QQi(Fraction(1, 2), -1), "float": 0.75,
           "complex": complex(0.5, -2)}


@pytest.mark.parametrize("kind", sorted(_COEFFS))
@pytest.mark.parametrize("name", ["heisenberg", "virasoro_c1/3"])
def test_boundary_returns_qqi_or_complex(name, kind):
    # an exact input coefficient comes back as a QQi and a float one as a
    # complex, the value of the same call on the lifted input; lambda = 1
    # and lambda = 6, where an entry at a monomial of fewer factors than
    # the inputs is divided by a power of lambda
    p = _PRESETS[name]
    c = _COEFFS[kind]
    want = QQi if kind in ("int", "Fraction", "QQi") else complex
    gen = p.generators[0]
    x = ((gen, p.creation_floor(gen)),)
    monos = ((), x, x + x)
    v = GradedVector({m: c for m in monos})
    lifted = GradedVector({m: exact_value(c) if want is QQi else complex(c)
                           for m in monos})
    calls = [lambda u: translate(p, u), lambda u: translate_power(p, u, 2)]
    calls += [lambda u, n=n: state_mode(p, u, n, u) for n in range(-2, 4)]
    calls += [lambda u, n=n: gen_mode_apply(p, gen, n, u)
              for n in range(-3, 3)]
    terms = 0
    for call in calls:
        got = call(v)
        terms += len(got.terms)
        assert all(type(c) is want for c in got.terms.values()), got
        _same_terms(got, call(lifted))
    assert terms >= 30


def test_boundary_pinned_values():
    x = QQi(Fraction(1, 2), -1)
    got = translate(preset_from_name("heisenberg"),
                    GradedVector({(("a", 1),): 2}))
    assert got.terms == {(("a", 2),): QQi(2)}
    assert type(got.terms[(("a", 2),)]) is QQi
    # L_(3) L = c/2 |0>, with c = 1/3 read in the basis 6L
    vir = _PRESETS["virasoro_c1/3"]
    got = state_mode(vir, B("L(-2)").scale(x), 3, B("L(-2)").scale(x))
    assert got.terms == {(): x * x / 6}
    assert type(got.terms[()]) is QQi
    got = state_mode(vir, GradedVector({(("L", 2),): 0.5}), 1, B("L(-2)"))
    assert got.terms == {(("L", 2),): complex(1.0)}
    assert type(got.terms[(("L", 2),)]) is complex


# --- the tables in the lambda*x basis ---------------------------------------

def test_tables_hold_integers_only():
    # lambda = 6 and 3: every structure constant is an integer only in the
    # rescaled basis, so no memo table may hold a Fraction
    for p in (preset_from_name("virasoro", c=Fraction(1, 3)),
              preset_from_name("affine_sl2", level=Fraction(2, 3))):
        states = basis_upto(p, 3)
        for am in states:
            for bm in states:
                for n in range(-2, mono_degree(am) + mono_degree(bm)):
                    state_mode_mono(p, am, n, bm)
                    oracle_mode_mono(p, am, n, bm)
            translate(p, GradedVector.basis(am))
        for name in ("gen", "sm", "oracle"):
            assert p._memos[name], (p.kind, name)
            # an sm entry is the field (hi, tables) of a pair (a, b)
            tables = ([t for _, field in p._memos[name].values()
                       for t in field] if name == "sm"
                      else p._memos[name].values())
            for table in tables:
                assert all(type(c) is int for c in table.values()), (
                    p.kind, name, table)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_PRESETS)))
def test_fields_fill_alike_in_any_order(data, name):
    # a field filled by requests in random order, each extending it down or
    # reading it, holds what each request reads first on a cleared cache
    p = _PRESETS[name]
    states = basis_upto(p, 4)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(states),
                                         st.sampled_from(states)),
                               min_size=1, max_size=3))
    requests = []
    for _ in range(data.draw(st.integers(1, 8))):
        am, bm = data.draw(st.sampled_from(pairs))
        n = data.draw(st.integers(-3, mono_degree(am) + mono_degree(bm) - 1))
        requests.append((am, n, bm))
    clear_caches()
    got = [state_mode_mono(p, *r) for r in requests]
    for r, vec in zip(requests, got):
        clear_caches()
        _same_terms(vec, state_mode_mono(p, *r))


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_translation_is_the_oracle_mode_minus_two_on_the_vacuum(name):
    # T b = b_(-2)|0> by the vacuum axiom; the oracle reaches b_(-2)|0>
    # through normal-ordered fields, without the iterate recursion
    p = _PRESETS[name]
    for bm in basis_upto(p, 5):
        assert translate(p, GradedVector.basis(bm)) == \
            oracle_mode_mono(p, bm, -2, ()), bm


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_translation_powers_are_the_oracle_modes_on_the_vacuum(name):
    # T^j b / j! = b_(-j-1)|0>; `translate` is a flow of two orders, so a
    # monomial of three or four factors needs a lift beyond them, and on
    # lambda = 3 and 6 a wrong lift shows
    p = _PRESETS[name]
    for bm in basis_upto(p, 4):
        b, fact = GradedVector.basis(bm), 1
        for j in range(1, 5):
            fact *= j
            _same_terms(translate_power(p, b, j),
                        oracle_mode_mono(p, bm, -j - 1, ()).scale(QQi(fact)))


def test_unread_parameters_are_stored_as_zero():
    # one algebra is one preset, with one memo store, whatever value is
    # passed for a parameter its OPE does not read
    assert VAPreset("virasoro", 1, 5) == VAPreset("virasoro", 1)
    assert VAPreset("virasoro", 1, 5)._memos is VAPreset("virasoro", 1)._memos
    assert VAPreset("heisenberg", Fraction(1, 2), 3) == \
        preset_from_name("heisenberg")
    assert repr(VAPreset("affine_sl2", 7, Fraction(2, 3))) == (
        "VAPreset(kind='affine_sl2', c=Fraction(0, 1), "
        "level=Fraction(2, 3))")


@pytest.mark.parametrize("build, text", [
    (lambda: virasoro("1/0"), "bad c '1/0'"),
    (lambda: affine_sl2("2/0"), "bad level '2/0'"),
    (lambda: virasoro(float("inf")), "bad c inf"),
    (lambda: virasoro("abc"), "bad c 'abc'"),
    # refused even where the OPE does not read it
    (lambda: VAPreset("heisenberg", c="1/0"), "bad c '1/0'"),
], ids=["zero_denominator", "level_zero_denominator", "infinite",
        "not_a_number", "unread"])
def test_unreadable_parameter_is_a_value_error(build, text):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == text


def test_direct_construction_takes_the_table_defaults():
    assert VAPreset("virasoro") == preset_from_name("virasoro")
    assert VAPreset("affine_sl2") == preset_from_name("affine_sl2")
    assert VAPreset("virasoro").c == Fraction(1, 2)


@pytest.mark.parametrize("a", [B("L(-1)"), B("X(-2)"), B("L(-2)", "L(-1)")],
                         ids=["below_floor", "unknown_generator", "mixed"])
def test_invalid_monomials_raise_value_error(vir, a):
    # below the creation floor, L(-1)|0> once answered 0 on some calls and
    # raised KeyError on others; an unknown generator raised KeyError
    with pytest.raises(ValueError, match=r"not a virasoro basis monomial"):
        state_mode(vir, a, -3, VAC)
    with pytest.raises(ValueError, match=r"not a virasoro basis monomial"):
        state_mode(vir, B("L(-2)"), 1, a)


@pytest.mark.parametrize("n", [-2, -1, 0])
def test_vacuum_acting_refuses_invalid_monomials(vir, n):
    # the vacuum is answered without a field; it once returned X(-2) and
    # L(-1) at n = -1, and 0 elsewhere, unchecked
    with pytest.raises(ValueError, match=r"X\(-2\) is not a virasoro"):
        state_mode(vir, VAC, n, B("X(-2)"))
    with pytest.raises(ValueError, match=r"L\(-1\) is not a virasoro"):
        state_mode_mono(vir, (), n, (("L", 1),))


@pytest.mark.parametrize("call, name", [
    (lambda p: gen_mode_mono(p, "X", -2, ()), "X"),
    (lambda p: gen_mode_mono(p, "L", -3, (("X", 2),)), r"X\(-2\)"),
    (lambda p: gen_mode_apply(p, "L", -2, B("L(-1)")), r"L\(-1\)")],
    ids=["unknown_generator", "unknown_factor", "below_floor"])
def test_oscillator_modes_refuse_invalid_input(vir, call, name):
    # once a bare KeyError, the vector L(-3)X(-2) and the vector L(-2)L(-1)
    with pytest.raises(ValueError, match=name):
        call(vir)


# --- the OPE tables, without the oracle --------------------------------------

def _bracket(p, x, m, combo):
    """[x_m, v] through `commutator`, for v a combination {(gen, mode): coeff}
    of generator modes and the central element ()."""
    out = {}
    for key, c in combo.items():
        if key:
            gens, central = p.commutator(x, m, *key)
            for z, k, s in gens:
                out[(z, k)] = out.get((z, k), 0) + c * s
            out[()] = out.get((), 0) + c * central
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_brackets_are_skew_and_satisfy_jacobi(name):
    # the oracle reads the same oscillator table, so a wrong OPE entry
    # would pass it; these two laws check the tables themselves
    p = _PRESETS[name]
    modes = [(g, m) for g in p.generators for m in range(-3, 4)]
    for x in modes:
        for y in modes:
            assert _bracket(p, *x, {y: 1}) == {
                key: -c for key, c in _bracket(p, *y, {x: 1}).items()}, (x, y)
            for z in modes:
                total = {}
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    for key, v in _bracket(p, *a,
                                           _bracket(p, *b, {c: 1})).items():
                        total[key] = total.get(key, 0) + v
                assert not any(total.values()), (x, y, z)


# The public outputs before the tables moved to the lambda*x basis, made by
# `scripts/mode_tables.py --json` (its docstring has the command).  The
# oracle shares the oscillator table and the lift, so a wrong power of
# lambda would pass it; this file does not.
_GOLDEN = Path(__file__).resolve().parent / "data" / "parent_mode_tables.json"


@cache
def _golden_tables():
    with _GOLDEN.open() as f:
        return {(t["preset"], t["c"], t["level"]): t for t in json.load(f)}


def _mono(tokens):
    return tuple(parse_token(t) for t in tokens)


def _keyed(entries, *fields):
    return {tuple(_mono(e[f]) if f in ("a", "b") else e[f] for f in fields):
            e["out"] for e in entries}


@pytest.mark.parametrize("kind, c, level", [
    ("heisenberg", 0, 0), ("virasoro", "1/2", 0), ("virasoro", "1/3", 0),
    ("virasoro", "5", 0), ("affine_sl2", 0, "1"), ("affine_sl2", 0, "1/2"),
    ("affine_sl2", 0, "2/3")])
def test_public_outputs_match_parent_tables(kind, c, level):
    p = preset_from_name(kind, c=Fraction(c), level=Fraction(level))
    t = _golden_tables()[(p.kind, str(p.c), str(p.level))]
    sm = _keyed(t["state_mode"], "a", "n", "b")
    gm = _keyed(t["gen_mode"], "gen", "n", "b")
    tr = _keyed(t["translate"], "b")
    seen = set()

    def same(got, key, table):
        # value and type, term by term; a triple the file lacks is zero
        seen.add(key)
        _same_terms(got, GradedVector.from_obj(table.get(key, {"terms": []})))

    for bm in basis_upto(p, t["max_degree"]):
        db = mono_degree(bm)
        for am in basis_upto(p, t["max_degree"]):
            for n in range(-1, mono_degree(am) + db):
                same(state_mode_mono(p, am, n, bm), (am, n, bm), sm)
        for gen in p.generators:
            for n in range(-3, db + 1):
                same(gen_mode_mono(p, gen, n, bm), (gen, n, bm), gm)
        same(translate(p, GradedVector.basis(bm)), (bm,), tr)
    assert seen >= set(sm) | set(gm) | set(tr)

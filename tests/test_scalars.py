"""Exact scalar arithmetic and the exact/approx coercion rule."""
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from voxfact.scalars import (_SMALL, DegreeWindow, QQi, _reduced, binom,
                             exact_value, format_qqi, is_exact, parse_qqi,
                             scale_int, scalar_key, scalar_pow)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
qqis = st.builds(QQi, rationals, rationals)


@given(qqis, qqis, qqis)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(qqis)
def test_additive_inverse(x):
    assert x + (-x) == QQi(0)


@given(qqis)
def test_multiplicative_inverse(x):
    if x:
        assert x * (QQi(1) / x) == QQi(1)
    else:
        with pytest.raises(ZeroDivisionError):
            QQi(1) / x


@given(qqis, qqis)
def test_exact_closed(x, y):
    # closure of the exact variant under ring ops
    assert is_exact(x + y) and is_exact(x * y) and is_exact(-x)
    if y:
        assert is_exact(x / y)


@given(qqis)
def test_exact_to_approx_coercion(x):
    mixed = x + 0.5j
    assert isinstance(mixed, complex)
    assert not is_exact(mixed)


@given(qqis)
def test_parse_format_roundtrip(x):
    assert parse_qqi(format_qqi(x)) == x


def test_parse_forms():
    assert parse_qqi("3/2") == QQi(Fraction(3, 2))
    assert parse_qqi("-i") == QQi(0, -1)
    assert parse_qqi("1/2-3/4i") == QQi(Fraction(1, 2), Fraction(-3, 4))
    assert parse_qqi("2i") == QQi(0, 2)
    assert parse_qqi("0") == QQi(0)
    with pytest.raises(ValueError):
        parse_qqi("3/2+1/2")


@given(qqis, st.integers(-10**6, 10**6) | st.integers(-600, 600),
       st.sampled_from([1, 2, 3, 6]), st.integers(0, 4))
@example(QQi(Fraction(1, 3), 2), 1, 1, 0)
@example(QQi(Fraction(1, 3), 2), 0, 6, 2)
@example(QQi(3), 171, 1, 0)
@example(QQi(-1), 513, 2, 0)
def test_scale_int_is_the_reduced_product(s, c, lam, k):
    # the lift's primitive: s * c / lam^k, as the operator route gives it
    got = scale_int(s, c, lam ** k)
    want = _reduced(c, 0, lam ** k) * s
    assert type(got) is QQi
    assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
    assert got.re == s.re * c / lam ** k and got.im == s.im * c / lam ** k
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1


@given(st.integers(-512, 512))
@example(1)
@example(-512)
@example(512)
def test_shared_small_integers(c):
    shared = scale_int(QQi(2), c, 2)
    assert shared is _SMALL[c + 512] and scale_int(shared, 1, 1) is shared
    assert shared == QQi(c) == c and hash(shared) == hash(QQi(c)) == hash(c)
    assert (shared.a, shared.b, shared.d) == (c, 0, 1)
    for name in ("a", "b", "d"):
        with pytest.raises(AttributeError):
            setattr(shared, name, 7)
    assert (shared.a, shared.b, shared.d) == (c, 0, 1)


def test_conjugate_abs2():
    x = QQi(Fraction(3, 5), Fraction(4, 5))
    assert x.abs2() == 1
    assert x * x.conjugate() == QQi(x.abs2())


@given(qqis, st.integers(min_value=-4, max_value=6))
def test_scalar_pow(x, e):
    if not x and e < 0:
        return
    expect = QQi(1)
    for _ in range(abs(e)):
        expect = expect * x
    if e < 0:
        expect = QQi(1) / expect
    assert scalar_pow(x, e) == expect


def test_pow_zero_conventions():
    assert scalar_pow(QQi(0), 0) == QQi(1)
    assert scalar_pow(0.0, 0) == 1.0
    with pytest.raises(ZeroDivisionError):
        scalar_pow(QQi(0), -1)


def test_binom_values():
    # C(t, i) for negative upper index: C(-1, i) = (-1)^i
    assert [binom(-1, i) for i in range(5)] == [1, -1, 1, -1, 1]
    assert binom(5, 2) == 10
    assert binom(-3, 2) == 6
    assert binom(2, 5) == 0
    assert binom(4, 0) == 1
    assert binom(3, -1) == 0 and binom(-3, -2) == 0
    # negative t against the falling factorial t (t-1) ... (t-i+1) / i!
    for t in range(-12, 0):
        for i in range(0, 12):
            falling = math.prod(t - l for l in range(i))
            assert binom(t, i) * math.factorial(i) == falling, (t, i)
            assert type(binom(t, i)) is int


def test_degree_window():
    w = DegreeWindow.parse("0:6")
    assert list(w.degrees()) == list(range(7))
    assert 6 in w and 7 not in w
    with pytest.raises(ValueError):
        DegreeWindow(3, 1)
    with pytest.raises(ValueError):
        DegreeWindow.parse("junk")


_exact_points = st.one_of(
    st.builds(QQi, st.fractions(), st.fractions()),
    st.fractions(), st.integers())


@given(_exact_points, _exact_points)
def test_scalar_key_injective_on_exact_values(x, y):
    """Equal keys exactly when the exact values are equal, also for values
    that round to the same float."""
    assert (scalar_key(x) == scalar_key(y)) == (QQi(0) + x == QQi(0) + y)
    assert scalar_key(x) != scalar_key(complex(x))


def test_scalar_key_keeps_values_a_float_merges():
    third = Fraction(1, 3)
    near = third + Fraction(1, 10 ** 30)
    assert complex(QQi(third)) == complex(QQi(near))
    assert scalar_key(third) != scalar_key(near)
    assert scalar_key(third) == scalar_key(QQi(third))
    assert sorted([scalar_key(near), scalar_key(third)])[0] == \
        scalar_key(third)


floats = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
# QQi with the exact values of floats as parts, so that equality comes up
exactish = st.one_of(qqis, st.builds(QQi, finite, finite))


@given(exactish, floats, floats)
def test_eq_against_float_is_exact(q, re, im):
    """q == f exactly when f's binary value is q, and equal values hash
    equal, for float and complex f."""
    for f in (re, complex(re, im), complex(q), complex(q).real):
        z = complex(f)
        same = all(math.isfinite(x) for x in (z.real, z.imag)) and \
            Fraction(z.real) == q.re and Fraction(z.imag) == q.im
        assert (q == f) is same
        assert (q != f) is not same
        if same:
            assert hash(q) == hash(f)


def test_eq_against_float_regressions():
    assert QQi(Fraction(1, 3)) != 1 / 3
    assert QQi(Fraction(1, 2), Fraction(1, 4)) == 0.5 + 0.25j
    assert QQi(1, 1) == 1 + 1j and hash(QQi(1, 1)) == hash(1 + 1j)
    assert len({QQi(1, 1), 1 + 1j, QQi(2), 2.0}) == 2


@given(exactish, floats, floats)
def test_exact_value_is_the_value_eq_compares(q, re, im):
    """A QQi passes through, int and Fraction lift, and a finite float or
    complex lifts to the QQi it compares equal to."""
    assert exact_value(q) is q
    for f in (re, complex(re, im), complex(q)):
        if all(math.isfinite(x) for x in (complex(f).real, complex(f).imag)):
            v = exact_value(f)
            assert type(v) is QQi and v == f
        else:
            with pytest.raises(ValueError):
                exact_value(f)
    assert exact_value(3) == QQi(3) and exact_value(Fraction(1, 3)) == \
        QQi(Fraction(1, 3))
    assert exact_value(1 / 3) != QQi(Fraction(1, 3))


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@given(_ANY_FLOAT, _ANY_FLOAT)
@example(-0.0, 0.0)
@example(5e-324, -2.2250738585072014e-308)
@example(1.7976931348623157e308, -1.5e-323)
@example(3.0, 2.0 ** -1074)
def test_exact_value_lift_is_the_fraction_lift(re, im):
    # the same reduced fields as the lift through two Fractions, on signed
    # zeros, subnormals and the largest exponents
    fields = lambda q: (type(q), q.a, q.b, q.d)
    assert fields(exact_value(complex(re, im))) == \
        fields(QQi(Fraction(re), Fraction(im)))
    assert fields(exact_value(re)) == fields(QQi(Fraction(re)))


@given(exactish, floats, floats)
@example(QQi(Fraction(1, 3), Fraction(-2, 7)), 1e308, -1e-308)
def test_qqi_times_float_is_its_complex_value_times_it(q, re, im):
    """q * s == complex(q) * s to the bit for a complex or float s: an
    exact value meets a float as its complex value, in either order."""
    bits = lambda z: struct.pack("<dd", z.real, z.imag)
    for s in (complex(re, im), re):
        assert type(q * s) is complex
        assert bits(q * s) == bits(complex(q) * s)
        assert bits(s * q) == bits(complex(q) * s)

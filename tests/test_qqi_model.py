"""`QQi` against a reference model: a Gaussian rational as a pair of
`Fraction`s, with the arithmetic, equality and hash that representation
had.  Every exact result must also be in lowest terms, (a + b*i)/d with
d > 0 and gcd(a, b, d) == 1, so that equal values have equal fields."""
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfact.scalars import QQi

_MODULUS = sys.hash_info.modulus
_MASK = (1 << sys.hash_info.width) - 1


class Ref:
    """re + im*i with `Fraction` parts; the operand rules of `QQi`: int and
    Fraction operands are exact, a float or complex one makes the result
    complex."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def lift(x):
        if isinstance(x, (QQi, Ref)):
            return Ref(x.re, x.im)
        if isinstance(x, (int, Fraction)):
            return Ref(x)
        return None

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def add(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def sub(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def mul(self, o):
        return Ref(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def div(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError
        return Ref((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)

    def pow(self, e):
        out = Ref(1)
        for _ in range(abs(e)):
            out = out.mul(self)
        return Ref(1).div(out) if e < 0 else out

    def eq(self, x):
        o = Ref.lift(x)
        if o is None:
            z = complex(x)
            return self.re == z.real and self.im == z.imag
        return self.re == o.re and self.im == o.im

    def hash(self):
        if self.im == 0:
            return hash(self.re)
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) & _MASK
        if h > _MASK >> 1:
            h -= _MASK + 1
        return -2 if h == -1 else h


def canonical(q) -> bool:
    return (type(q) is QQi and all(type(x) is int for x in (q.a, q.b, q.d))
            and q.d > 0 and math.gcd(q.a, q.b, q.d) == 1)


def agrees(got, want) -> bool:
    """An exact result equals the model's and is canonical; a numeric one
    is the same complex."""
    if isinstance(want, Ref):
        return canonical(got) and got.re == want.re and got.im == want.im
    return type(got) is complex and (got == want or (got != got
                                                     and want != want))


rationals = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=40),
    st.fractions(max_denominator=10 ** 12),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([2, 4, 6, 12])))
qqis = st.builds(QQi, rationals, rationals)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
operands = st.one_of(qqis, st.integers(-10 ** 6, 10 ** 6), rationals,
                     floats, st.builds(complex, floats, floats))

_OPS = {
    "+": (lambda x, y: x + y, Ref.add),
    "-": (lambda x, y: x - y, Ref.sub),
    "*": (lambda x, y: x * y, Ref.mul),
    "/": (lambda x, y: x / y, Ref.div),
}


def _expect(name, x, y):
    """The model's x <op> y; x or y may be non-exact."""
    rx, ry = Ref.lift(x), Ref.lift(y)
    if rx is None or ry is None:
        # the former representation computed in complex from here, and a
        # reflected subtraction as (-self) + other
        fx = complex(rx) if rx is not None else x
        fy = complex(ry) if ry is not None else y
        if name == "-" and rx is None:
            return complex(Ref(-ry.re, -ry.im)) + fx
        return _OPS[name][0](fx, fy)
    return _OPS[name][1](rx, ry)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(qqis, operands, st.sampled_from(sorted(_OPS)))
def test_binary_ops_match_the_model(q, other, name):
    op = _OPS[name][0]
    for x, y in ((q, other), (other, q)):
        got = _outcome(op, x, y)
        want = _outcome(_expect, name, x, y)
        if isinstance(want, type):
            assert got is want, (x, name, y)
        else:
            assert agrees(got, want), (x, name, y, got)


@settings(max_examples=300, deadline=None)
@given(qqis, st.integers(-12, 12))
def test_pow_matches_the_model(q, e):
    if not q and e < 0:
        with pytest.raises(ZeroDivisionError):
            q ** e
        return
    assert agrees(q ** e, Ref(q.re, q.im).pow(e))


@given(qqis, st.floats(min_value=-3, max_value=3))
def test_float_pow_is_complex(q, e):
    if not q:
        return
    assert q ** e == complex(q) ** e


@settings(max_examples=300, deadline=None)
@given(qqis, operands)
def test_eq_hash_bool_complex_match_the_model(q, other):
    ref = Ref(q.re, q.im)
    assert (q == other) is ref.eq(other)
    assert (other == q) is ref.eq(other)
    assert (q != other) is not ref.eq(other)
    assert hash(q) == ref.hash()
    assert bool(q) is bool(ref.re or ref.im)
    assert complex(q) == complex(ref)
    if q == other:
        assert hash(q) == hash(other)


@given(qqis, qqis)
def test_equal_values_have_equal_fields(x, y):
    s = (x + y) - y
    assert canonical(s) and (s.a, s.b, s.d) == (x.a, x.b, x.d)
    assert repr(s) == repr(x) == f"QQi({x.re!r}, {x.im!r})"


@given(rationals, rationals)
def test_constructor_is_canonical(re, im):
    q = QQi(re, im)
    assert canonical(q) and q.re == re and q.im == im
    assert type(q.re) is Fraction and type(q.im) is Fraction


def test_constructor_inputs():
    assert QQi() == 0 and canonical(QQi())
    assert QQi(0.5, "3/4") == QQi(Fraction(1, 2), Fraction(3, 4))
    assert QQi(True) == 1 and canonical(QQi(True))
    with pytest.raises((TypeError, ValueError)):
        QQi(1j)
    with pytest.raises(AttributeError):
        QQi(1).a = 2


def test_hash_with_denominator_a_multiple_of_the_modulus():
    """Past 2**61 - 1 the integers may share the prime modulus of the
    numeric hash while a reduced part does not."""
    p = _MODULUS
    for re, im in ((Fraction(1, p), 0), (1, Fraction(1, p)),
                   (Fraction(3, 2 * p), Fraction(-5, 7 * p)),
                   (Fraction(p, 3), Fraction(1, p * p))):
        q = QQi(re, im)
        assert canonical(q)
        assert hash(q) == Ref(re, im).hash()
    assert hash(QQi(Fraction(1, p))) == hash(Fraction(1, p)) == \
        sys.hash_info.inf

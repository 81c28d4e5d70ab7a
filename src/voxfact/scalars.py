"""Exact Gaussian-rational scalars, generalized binomials, degree windows.

Whether a value is exact is decided here and nowhere else.  A scalar is
exact (`QQi`, or a plain `int` or `Fraction`) or a float (`float` or
`complex`).  Python's numeric coercion keeps the two apart: arithmetic
among exact values stays exact, and one float operand makes the result
`complex`.

* `QQi` holds three integers (a + b*i)/d in lowest terms, d > 0 and
  gcd(a, b, d) == 1, so equal values have equal fields; its arithmetic
  takes at most one gcd per result, and a small integer result is shared.
  `QQi.re` and `QQi.im` read the parts as `Fraction`s, and equality and
  hashing agree with the equal `int`, `Fraction`, `float` or `complex`.
* `exact_value` is the one lift of a finite scalar to `QQi`; a float
  counts as its binary value, the value `QQi.__eq__` compares with.
* Text is read by one rule: a value is exact iff its text is an exact
  literal (`parse_qqi` form for a point, an integer or fraction for a real
  part or a radius), and a float otherwise (`point_from_text`,
  `real_from_text`, `coeff_from_obj`).
"""
from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction

from .records import FrozenRecord


_HASH_MODULUS = sys.hash_info.modulus
_HASH_IMAG = sys.hash_info.imag
_HASH_MASK = (1 << sys.hash_info.width) - 1


class QQi:
    """A Gaussian rational (a + b*i)/d with exact field arithmetic.

    The integers are kept in lowest terms: d > 0 and gcd(a, b, d) == 1, so
    two equal values have equal fields.  Each result costs at most one
    gcd, and none when its denominator is 1.  `re` and `im` read the parts
    as `Fraction`s."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_a(self, re)
            _set_b(self, im)
            _set_d(self, 1)
            return
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # over the lcm of two reduced denominators the three integers are
        # already coprime
        if q != s:
            d = math.lcm(q, s)
            p, r, q = p * (d // q), r * (d // s), d
        _set_a(self, p)
        _set_b(self, r)
        _set_d(self, q)

    # immutable
    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is QQi:
            return _sum(self.a, self.b, self.d, other.a, other.b, other.d)
        o = _parts(other)
        if o is None:
            return complex(self) + other
        return _sum(self.a, self.b, self.d, *o)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is QQi:
            return _sum(self.a, self.b, self.d, -other.a, -other.b, other.d)
        o = _parts(other)
        if o is None:
            return complex(self) - other
        return _sum(self.a, self.b, self.d, -o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return complex(-self) + other
        return _sum(-self.a, -self.b, self.d, *o)

    def __mul__(self, other):
        a, b, d = self.a, self.b, self.d
        if type(other) is QQi:
            x, y, e = other.a, other.b, other.d
        elif type(other) is int:
            if other == 1:
                return self
            return _reduced(a * other, b * other, d)
        else:
            o = _parts(other)
            if o is None:
                return complex(self) * other
            x, y, e = o
        return _reduced(a * x - b * y, a * y + b * x, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is QQi:
            return _quotient(self.a, self.b, self.d, other.a, other.b, other.d)
        o = _parts(other)
        if o is None:
            return complex(self) / other
        return _quotient(self.a, self.b, self.d, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return other / complex(self)
        return _quotient(*o, self.a, self.b, self.d)

    def __pow__(self, e):
        if not isinstance(e, int):
            return complex(self) ** e
        # ((x + iy) / den)^e in integers, reduced once at the end; for e < 0
        # the base is the reciprocal (a - ib) d / (a^2 + b^2), unreduced
        x, y, den = self.a, self.b, self.d
        if e < 0:
            n = x * x + y * y
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            x, y, den, e = x * den, -y * den, n, -e
        px, py = 1, 0
        for bit in bin(e)[2:]:
            px, py = px * px - py * py, 2 * px * py
            if bit == "1":
                px, py = px * x - py * y, px * y + py * x
        return _reduced(px, py, den ** e) if den != 1 else _make(px, py, 1)

    def conjugate(self):
        return _make(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """|self|^2, exact."""
        a, b, d = self.a, self.b, self.d
        return Fraction(a * a + b * b, d * d)

    def __abs__(self):
        return math.sqrt(float(self.abs2()))

    def __complex__(self):
        # int / int rounds the exact quotient once, as Fraction.__float__
        d = self.d
        return complex(self.a / d, self.b / d)

    def __eq__(self, other):
        if type(other) is QQi:
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        o = _parts(other)
        if o is None:
            if isinstance(other, (float, complex)):
                # exact, as Fraction compares with float: the float's
                # binary value, never a rounding of self
                z = complex(other)
                return (_equals_float(self.a, self.d, z.real)
                        and _equals_float(self.b, self.d, z.imag))
            return NotImplemented
        return self.a == o[0] and self.b == o[1] and self.d == o[2]

    def __hash__(self):
        # equal to hash(x) for every int, Fraction, float or complex x that
        # compares equal, following CPython's numeric hash for complex
        a, b, d = self.a, self.b, self.d
        if d == 1:
            if b == 0:
                return hash(a)
            hr, hi = hash(a), hash(b)
        else:
            hr = _hash_part(a, d)
            if b == 0:
                return hr
            hi = _hash_part(b, d)
        h = (hr + _HASH_IMAG * hi) & _HASH_MASK
        if h > _HASH_MASK >> 1:
            h -= _HASH_MASK + 1
        return -2 if h == -1 else h

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __reduce__(self):
        return QQi, (self.re, self.im)

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_qqi(self)


_set_a, _set_b, _set_d = QQi.a.__set__, QQi.b.__set__, QQi.d.__set__
_new = object.__new__


def _make(a, b, d) -> QQi:
    """The QQi (a + b*i)/d of three integers already in lowest terms."""
    q = _new(QQi)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


# -512..512, shared like small ints; dropping it won 22/90 mode_cold rounds
_SMALL = tuple(_make(v, 0, 1) for v in range(-512, 513))


def _reduced(a, b, d) -> QQi:
    """The QQi (a + b*i)/d, d > 0, brought to lowest terms with at most one
    gcd; a small integer is the shared one."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
        if d != 1:
            return _make(a, b, d)
    if not b and -512 <= a <= 512:
        return _SMALL[a + 512]
    return _make(a, b, 1)


def scale_int(s: QQi, c: int, den: int) -> QQi:
    """s * c / den in lowest terms, for integers c and den >= 1."""
    if c == 1 and den == 1:
        return s
    return _reduced(s.a * c, s.b * c, s.d * den)


def _parts(x):
    """(a, b, d) of an exact scalar, or None for any other value."""
    if isinstance(x, QQi):
        return x.a, x.b, x.d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _sum(a, b, d, x, y, e) -> QQi:
    """(a + b*i)/d + (x + y*i)/e."""
    if d == e:
        return _reduced(a + x, b + y, d)
    # a term over 1 keeps the other denominator coprime to the numerators
    if d == 1:
        return _make(a * e + x, b * e + y, e)
    if e == 1:
        return _make(a + x * d, b + y * d, d)
    return _reduced(a * e + x * d, b * e + y * d, d * e)


def _quotient(a, b, d, x, y, e) -> QQi:
    """((a + b*i)/d) / ((x + y*i)/e)."""
    n = x * x + y * y
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _reduced((a * x + b * y) * e, (b * x - a * y) * e, d * n)


def _equals_float(n, d, x: float) -> bool:
    """n/d == x exactly; never for a NaN or an infinity."""
    if not math.isfinite(x):
        return False
    p, q = x.as_integer_ratio()
    return n * q == p * d


def _hash_part(n, d) -> int:
    """hash(Fraction(n, d)) for d > 1, computed without reducing n/d."""
    if d % _HASH_MODULUS == 0:
        return hash(Fraction(n, d))
    # n/d and its reduced form agree modulo the prime while it misses d
    h = abs(n) % _HASH_MODULUS * pow(d, -1, _HASH_MODULUS) % _HASH_MODULUS
    if n < 0:
        h = -h
    return -2 if h == -1 else h


# a denominator has a nonzero digit, so '1/0' is no literal here or below
_QQI_RE = re.compile(
    r"""^\s*
    (?P<re>[+-]?\d+(?:/0*[1-9]\d*)?)?
    (?P<im>(?:(?<=\S)[+-]|^[+-]?)(?:\d+(?:/0*[1-9]\d*)?)?i)?
    \s*$""",
    re.VERBOSE,
)


def parse_qqi(s) -> QQi:
    """Parse strings like '3/2', '-1/2+3i', 'i', '2-i', '0' into QQi."""
    if isinstance(s, QQi):
        return s
    if isinstance(s, (int, Fraction)):
        return QQi(s)
    text = str(s).replace(" ", "")
    m = _QQI_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse Gaussian rational: {s!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_txt = m.group("im")
    if im_txt is None:
        im_part = Fraction(0)
    else:
        body = im_txt[:-1]
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(body)
    return QQi(re_part, im_part)


def format_qqi(x: QQi) -> str:
    if x.im == 0:
        return str(x.re)
    if x.re == 0:
        if x.im == 1:
            return "i"
        if x.im == -1:
            return "-i"
        return f"{x.im}i"
    sign = "+" if x.im > 0 else "-"
    mag = abs(x.im)
    imtxt = "i" if mag == 1 else f"{mag}i"
    return f"{x.re}{sign}{imtxt}"


def is_exact(x) -> bool:
    return isinstance(x, (QQi, int, Fraction))


def exact_value(x) -> QQi:
    """x as an exact Gaussian rational: a QQi unchanged, an int or Fraction
    lifted, a float or complex lifted to its binary value.  Raises
    ValueError on a non-finite value."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    z = complex(x)
    if not cmath.isfinite(z):
        raise ValueError(f"not a finite scalar: {x!r}")
    # two dyadic ratios in lowest terms, coprime over the larger denominator
    (p, q), (r, s) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(q, s)
    return _reduced(p * (d // q), r * (d // s), d)


def same_point(p, q) -> bool:
    """p == q: exactly when both are exact, else as complex numbers."""
    if is_exact(p) and is_exact(q):
        return p == q
    return complex(p) == complex(q)


def scalar_key(x) -> tuple:
    """Canonical key of a scalar, for merging, hashing and sorting:
    ("q", re, im) with Fraction parts for an exact value, ("f", re, im)
    with float parts for a numeric one.  Distinct exact values never share
    a key, and an exact value never shares one with a float."""
    if is_exact(x):
        q = exact_value(x)
        return ("q", q.re, q.im)
    z = complex(x)
    return ("f", z.real, z.imag)


def coeff_to_obj(c) -> dict:
    """JSON form of a coefficient: exact parts as fraction strings, numeric
    parts as float reprs."""
    if is_exact(c):
        q = exact_value(c)
        return {"re": str(q.re), "im": str(q.im)}
    z = complex(c)
    return {"re": repr(z.real), "im": repr(z.imag)}


def coeff_from_obj(obj):
    """Inverse of `coeff_to_obj`; also reads JSON numbers.  A coefficient is
    exact iff both of its parts are (`real_from_text`)."""
    re_, im_ = real_from_text(obj["re"]), real_from_text(obj["im"])
    if type(re_) is Fraction and type(im_) is Fraction:
        return QQi(re_, im_)
    return complex(re_, im_)


_RATIONAL_RE = re.compile(r"\s*[+-]?\d+(?:/0*[1-9]\d*)?\s*")


def real_from_text(s):
    """A real part or a radius from its text or JSON number: a Fraction iff
    the text is an integer or fraction literal, else a float ('0.5', '1e-20'
    and 'inf' are floats)."""
    text = str(s)
    return Fraction(text) if _RATIONAL_RE.fullmatch(text) else float(text)


def point_from_text(s):
    """A point from its text: a QQi iff the text is in `parse_qqi` form,
    else a complex ('(0.3+0.1j)', '0.5')."""
    try:
        return parse_qqi(s)
    except ValueError:
        return complex(s)


def scalar_pow(base, e: int):
    """base**e with the 0**0 == 1 convention, exact when base is exact."""
    if e == 0:
        return QQi(1) if is_exact(base) else complex(1)
    b = QQi(base) if isinstance(base, (int, Fraction)) else base
    if not b:
        if e > 0:
            return QQi(0) if is_exact(b) else complex(0)
        raise ZeroDivisionError("0 raised to a negative power")
    return b ** e


def binom(t: int, i: int) -> int:
    """Generalized binomial C(t, i) = t (t-1) ... (t-i+1) / i! for integer t
    (possibly negative); 0 for i < 0."""
    if i < 0:
        return 0
    if t >= 0:
        return math.comb(t, i)
    # upper negation: C(t, i) = (-1)^i C(i - t - 1, i)
    return math.comb(i - t - 1, i) * (-1 if i % 2 else 1)


class DegreeWindow(FrozenRecord):
    """Closed integer range [lo, hi] of retained degrees, lo >= 0."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo < 0 or hi < lo:
            raise ValueError(f"bad degree window {lo}:{hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __contains__(self, k):
        return self.lo <= k <= self.hi

    @classmethod
    def parse(cls, text: str) -> "DegreeWindow":
        try:
            lo, hi = text.split(":")
            return cls(int(lo), int(hi))
        except ValueError as exc:
            raise ValueError(f"bad window spec {text!r}, expected lo:hi") from exc

    def __str__(self):
        return f"{self.lo}:{self.hi}"

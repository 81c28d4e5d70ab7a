"""Exact Gaussian-rational scalars, generalized binomials, degree windows.

Whether a value is exact is decided here and nowhere else.  A scalar is
exact (`QQi`, a pair of `fractions.Fraction`, or a plain `int` or
`Fraction`) or a float (`float` or `complex`).  Python's numeric coercion
keeps the two apart: arithmetic among exact values stays exact, and one
float operand makes the result `complex`.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


_HASH_MASK = (1 << sys.hash_info.width) - 1


class QQi:
    """A Gaussian rational re + im*i with exact field arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re",
                           re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im",
                           im if type(im) is Fraction else Fraction(im))

    # immutable by convention
    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    @staticmethod
    def _lift(x):
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return QQi(x)
        return None

    def __add__(self, other):
        o = QQi._lift(other)
        if o is None:
            return complex(self) + other
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        o = QQi._lift(other)
        if o is None:
            return complex(self) - other
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            return QQi(self.re * other, self.im * other)
        o = QQi._lift(other)
        if o is None:
            return complex(self) * other
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QQi._lift(other)
        if o is None:
            return complex(self) / other
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = QQi._lift(other)
        if o is None:
            return other / complex(self)
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return complex(self) ** e
        if e < 0:
            return QQi(1) / (self ** (-e))
        # (x + iy)^e / den^e with x + iy = den * self, in integers: the
        # two Fractions at the end are the only reductions
        den = math.lcm(self.re.denominator, self.im.denominator)
        x = self.re.numerator * (den // self.re.denominator)
        y = self.im.numerator * (den // self.im.denominator)
        px, py = 1, 0
        for bit in bin(e)[2:]:
            px, py = px * px - py * py, 2 * px * py
            if bit == "1":
                px, py = px * x - py * y, px * y + py * x
        return QQi(Fraction(px, den ** e), Fraction(py, den ** e))

    def conjugate(self):
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|self|^2, exact."""
        return self.re * self.re + self.im * self.im

    def __abs__(self):
        return math.sqrt(float(self.abs2()))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        o = QQi._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                # exact, as Fraction compares with float: the float's
                # binary value, never a rounding of self
                z = complex(other)
                return self.re == z.real and self.im == z.imag
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to hash(x) for every int, Fraction, float or complex x that
        # compares equal, following CPython's numeric hash for complex
        if self.im == 0:
            return hash(self.re)
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) \
            & _HASH_MASK
        if h > _HASH_MASK >> 1:
            h -= _HASH_MASK + 1
        return -2 if h == -1 else h

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_qqi(self)


_QQI_RE = re.compile(
    r"""^\s*
    (?P<re>[+-]?\d+(?:/\d+)?)?
    (?P<im>(?:(?<=\S)[+-]|^[+-]?)(?:\d+(?:/\d+)?)?i)?
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
    return QQi(Fraction(z.real), Fraction(z.imag))


def scalar_zero(x) -> bool:
    if isinstance(x, QQi):
        return not x
    return x == 0


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


_RATIONAL_RE = re.compile(r"\s*[+-]?\d+(?:/\d+)?\s*")


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
    if scalar_zero(b):
        if e > 0:
            return QQi(0) if is_exact(b) else complex(0)
        raise ZeroDivisionError("0 raised to a negative power")
    return b ** e


@lru_cache(maxsize=None)
def binom(t: int, i: int) -> int:
    """Generalized binomial C(t, i) = t (t-1) ... (t-i+1) / i! for integer t
    (possibly negative); 0 for i < 0."""
    if i < 0:
        return 0
    if t >= 0:
        return math.comb(t, i)
    # upper negation: C(t, i) = (-1)^i C(i - t - 1, i)
    return math.comb(i - t - 1, i) * (-1 if i % 2 else 1)


@dataclass(frozen=True)
class DegreeWindow:
    """Closed integer range [lo, hi] of retained degrees, lo >= 0."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"bad degree window {self.lo}:{self.hi}")

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

"""Graded state vectors on a PBW basis and windowed product-space vectors.

A basis monomial is a tuple of (generator, m) pairs, m >= 1, read left to
right as the oscillator word x1_{-m1} ... xk_{-mk} applied to the vacuum.
Canonical order is weakly decreasing m, ties broken by generator order.
The empty tuple is the vacuum.  Degree of a monomial is the sum of the m's.
"""
from __future__ import annotations

import json
import re

from .records import Record
from .scalars import (DegreeWindow, QQi, coeff_from_obj, coeff_to_obj,
                      is_exact, scalar_pow)

Mono = tuple  # tuple[tuple[str, int], ...]

VACUUM: Mono = ()

_TOKEN_RE = re.compile(r"([A-Za-z]+)\(-(\d+)\)")


def mono_degree(mono: Mono) -> int:
    return sum(m for _, m in mono)


def mono_token(factor) -> str:
    gen, m = factor
    return f"{gen}(-{m})"


def parse_token(tok: str):
    m = _TOKEN_RE.fullmatch(tok)
    if not m:
        raise ValueError(f"bad generator token {tok!r}")
    return (m.group(1), int(m.group(2)))


def mono_text(mono: Mono) -> str:
    """The text of a monomial, 'a(-2)a(-1)', and '|0>' for the vacuum."""
    return "".join(map(mono_token, mono)) or "|0>"


def parse_mono(text: str) -> Mono:
    """Inverse of `mono_text`; also reads '' as the vacuum and allows
    spaces between factors.  ValueError on any other text."""
    if text == "|0>":
        return VACUUM
    factors = _TOKEN_RE.findall(text)
    if "".join(map(mono_token, factors)) != text.replace(" ", ""):
        raise ValueError(f"bad monomial {text!r}")
    return tuple((gen, int(m)) for gen, m in factors)


class GradedVector:
    """Finite linear combination of PBW monomials.

    Coefficients are QQi (exact path) or complex (numeric path); the two mix
    by coercion to complex.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if not coeff:
                    continue
                if mono in cleaned:
                    s = cleaned[mono] + coeff
                    if not s:
                        del cleaned[mono]
                    else:
                        cleaned[mono] = s
                else:
                    cleaned[mono] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("GradedVector is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return self.__class__, (self.terms,)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, mono: Mono, coeff=None):
        return cls({tuple(mono): QQi(1) if coeff is None else coeff})

    @classmethod
    def vacuum(cls):
        return cls.basis(VACUUM)

    @classmethod
    def from_nonzero(cls, terms: dict):
        """Wrap a dict whose coefficients are all nonzero, skipping the
        cleaning pass.  The dict is taken over, not copied."""
        v = _new(cls)
        _set_terms(v, terms)
        return v

    # -- linear structure ---------------------------------------------

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if not s:
                out.pop(mono, None)
            else:
                out[mono] = s
        return GradedVector.from_nonzero(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        if not s:
            return GradedVector()
        return GradedVector({m: c * s for m, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- grading ------------------------------------------------------

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous vector; vacuum and zero have degree 0."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("vector is not homogeneous")
        return degs[0]

    def max_degree(self) -> int:
        degs = self.degrees()
        return degs[-1] if degs else 0

    def project(self, k: int) -> "GradedVector":
        return GradedVector({m: c for m, c in self.terms.items()
                             if mono_degree(m) == k})

    def grading_act(self, q) -> "GradedVector":
        """Scale each homogeneous component of degree k by q**k."""
        return GradedVector({m: c * scalar_pow(q, mono_degree(m))
                             for m, c in self.terms.items()})

    # -- norms and comparison -----------------------------------------

    def norm_inf(self) -> float:
        return max((abs(complex(c)) for c in self.terms.values()), default=0.0)

    def distance(self, other) -> float:
        return (self - other).norm_inf()

    def to_complex(self) -> "GradedVector":
        return GradedVector({m: complex(c) for m, c in self.terms.items()})

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

    # -- serialization ------------------------------------------------

    def to_obj(self):
        out = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            out.append({"mono": [mono_token(f) for f in mono],
                        **coeff_to_obj(self.terms[mono])})
        return {"terms": out}

    @classmethod
    def from_obj(cls, obj) -> "GradedVector":
        terms = []
        for entry in obj["terms"]:
            terms.append((tuple(parse_token(t) for t in entry["mono"]),
                          coeff_from_obj(entry)))
        return cls(terms)

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, **kw)

    @classmethod
    def from_json(cls, text: str) -> "GradedVector":
        return cls.from_obj(json.loads(text))

    def __repr__(self):
        if not self.terms:
            return "GradedVector(0)"
        return " + ".join(f"({self.terms[mono]})*{mono_text(mono)}"
                          for mono in sorted(self.terms, key=_mono_sort_key))


_set_terms, _new = GradedVector.terms.__set__, object.__new__


def _mono_sort_key(mono: Mono):
    return (mono_degree(mono), mono)


class ProductVector(Record):
    """Element of the degreewise product space, truncated to a window."""

    __slots__ = ("window",
                 "components",  # degree -> GradedVector
                 "tail_estimate")

    def __init__(self, window: DegreeWindow, components=None,
                 tail_estimate: float = 0.0):
        self.window = window
        self.components = {} if components is None else components
        self.tail_estimate = tail_estimate

    def component(self, k: int) -> GradedVector:
        return self.components.get(k, GradedVector.zero())

    def set_component(self, k: int, v: GradedVector):
        if v:
            if not v.is_homogeneous() or v.degree() != k:
                raise ValueError(f"component at {k} must be homogeneous of degree {k}")
            self.components[k] = v
        else:
            self.components.pop(k, None)

    def __add__(self, other):
        if self.window != other.window:
            raise ValueError("window mismatch")
        out = ProductVector(self.window, dict(self.components),
                            max(self.tail_estimate, other.tail_estimate))
        for k, v in other.components.items():
            out.set_component(k, out.component(k) + v)
        return out

    def scale(self, s) -> "ProductVector":
        return ProductVector(self.window,
                             {k: v.scale(s) for k, v in self.components.items()},
                             self.tail_estimate * abs(complex(s)))

    def flatten(self) -> GradedVector:
        out = GradedVector.zero()
        for v in self.components.values():
            out = out + v
        return out

    def norm_inf(self) -> float:
        return max((v.norm_inf() for v in self.components.values()), default=0.0)

    def to_obj(self):
        return {"window": [self.window.lo, self.window.hi],
                "by_degree": {str(k): self.component(k).to_obj()
                              for k in sorted(self.components)},
                "tail_estimate": self.tail_estimate}

    @classmethod
    def from_obj(cls, obj) -> "ProductVector":
        lo, hi = obj["window"]
        pv = cls(DegreeWindow(lo, hi))
        for k, gv in obj["by_degree"].items():
            pv.set_component(int(k), GradedVector.from_obj(gv))
        pv.tail_estimate = obj.get("tail_estimate", 0.0)
        return pv

    @classmethod
    def from_vector(cls, v: GradedVector, window: DegreeWindow) -> "ProductVector":
        parts = {}
        for mono, c in v.terms.items():
            k = mono_degree(mono)
            if k in window:
                parts.setdefault(k, {})[mono] = c
        return cls(window, {k: GradedVector.from_nonzero(t)
                            for k, t in parts.items()})

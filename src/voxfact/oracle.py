"""Brute-force mode computation through normal-ordered field expansions.

This is a deliberately independent second route to a_(n) b, used to
cross-check `presets.state_mode`.  For a canonical monomial
a = x_{-m} a' the field of a is the normal-ordered product

    Y(a, z) = : (d^t X(z) / t!) Y(a', z) :        t = m - w,

with the two-sided splitting :A B: = A_- B + B A_+ by sign of the z power.
Extracting the coefficient of z^{-n-1} applied to b gives

    a_(n) b = sum_{s >= 0} A_s (a'_(n+s) b)
            + sum_{s <= -1} a'_(n+s) (A_s b),

where A_s = C(s+t, t) x_{-(s+w+t)} is the z^s coefficient of the derivative
field.  Both sums are finite by the grading bound on a' and the oscillator
annihilation bound on b.  No iterate/binomial-transposition identity is used.

The route runs on the same integer tables {mono: int} as `presets`, in the
same basis of rescaled generators lambda*x, sharing only the oscillator
table `presets._gen` and the merge `presets._acc` with the engine; it has
its own memo table (``oracle``) and never reads ``sm``.  lambda and `QQi`
enter only in `oracle_mode_mono`, through the lift `presets._add_lifted`.
"""
from __future__ import annotations

from .graded import GradedVector, Mono, mono_degree
from .presets import VAPreset, _acc, _add_lifted, _gen
from .scalars import binom


def oracle_mode_mono(preset: VAPreset, a: Mono, n: int, b: Mono) -> GradedVector:
    return GradedVector.from_nonzero(_add_lifted(
        {}, 1, _oracle(preset, a, n, b), preset._lam, len(a) + len(b)))


def _oracle(preset, a, n, b) -> dict:
    """The {mono: int} table of a_(n) b in the lambda*x basis, memoized per
    preset.  The vacuum field is the identity: no memo entry is stored for
    a = |0>."""
    if not a:
        return {b: 1} if n == -1 else {}
    memo = preset._memos["oracle"]
    key = (a, n, b)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _oracle_impl(preset, a, n, b)
    return out


def _oracle_impl(preset, a, n, b):
    x, m = a[0]
    rest = a[1:]
    w = preset.weight(x)
    t = m - w
    deg_rest = mono_degree(rest)
    deg_b = mono_degree(b)
    out = {}
    # creation part of the derivative field on the left
    for s in range(0, max(0, deg_rest + deg_b - n)):
        inner = _oracle(preset, rest, n + s, b)
        if inner:
            coeff = binom(s + t, t)
            if coeff:
                for mono, c in inner.items():
                    _acc(out, _gen(preset, x, -(s + w + t), mono), c * coeff)
    # annihilation part applied to b first
    for s in range(-1, -(w + t + deg_b) - 1, -1):
        coeff = binom(s + t, t)
        if not coeff:
            continue
        for mono, c in _gen(preset, x, -(s + w + t), b).items():
            table = _oracle(preset, rest, n + s, mono)
            if table:
                _acc(out, table, c * coeff)
    return out

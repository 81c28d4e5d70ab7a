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
"""
from __future__ import annotations

from .graded import GradedVector, Mono, mono_degree
from .presets import VAPreset, gen_mode_apply, gen_mode_mono
from .scalars import binom

def oracle_mode_mono(preset: VAPreset, a: Mono, n: int, b: Mono) -> GradedVector:
    memo = preset._memos["oracle"]
    key = (a, n, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = _oracle_impl(preset, a, n, b)
    memo[key] = out
    return out


def _oracle_impl(preset, a, n, b):
    if not a:
        return GradedVector.basis(b) if n == -1 else GradedVector.zero()
    x, m = a[0]
    rest = a[1:]
    w = preset.weight(x)
    t = m - w
    deg_rest = mono_degree(rest)
    deg_b = mono_degree(b)
    out = GradedVector.zero()
    # creation part of the derivative field on the left
    for s in range(0, max(0, deg_rest + deg_b - n)):
        inner = oracle_mode_mono(preset, rest, n + s, b)
        if inner:
            coeff = binom(s + t, t)
            if coeff:
                out = out + gen_mode_apply(preset, x, -(s + w + t),
                                           inner).scale(coeff)
    # annihilation part applied to b first
    for s in range(-1, -(w + t + deg_b) - 1, -1):
        coeff = binom(s + t, t)
        if not coeff:
            continue
        xb = gen_mode_mono(preset, x, -(s + w + t), b)
        if not xb:
            continue
        acc = GradedVector.zero()
        for mono, cf in xb.terms.items():
            acc = acc + oracle_mode_mono(preset, rest, n + s, mono).scale(cf)
        out = out + acc.scale(coeff)
    return out

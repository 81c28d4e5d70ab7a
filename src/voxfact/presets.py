"""Vertex algebra presets and exact mode arithmetic on the PBW basis.

A preset is data (`_ALGEBRAS`): a weight w_x per generator x, and the OPE
x_(j) y, j >= 0, of each ordered pair of generators as rational multiples
of generators z, of their derivatives T z and of the vacuum |0> (zero for
a pair the table leaves out).  Modes are graded by weight,
x_m = x_(m + w_x - 1), and one formula gives every bracket:

    [x_m, y_n] = sum_j C(m + w_x - 1, j) (x_(j) y)_{m+n},

with (T z)_k = -(k + w_z) z_k and |0>_k = delta_{k,0}.

States live on the PBW basis of `graded.GradedVector`.  The mode engine
runs in the basis of the rescaled generators lambda*x, an isomorphism of
the vertex algebra that multiplies each generator and T z coefficient of
the OPE by lambda and each vacuum coefficient by lambda^2.  A preset takes
the smallest lambda >= 1 that makes all of them integers, the lcm of their
denominators and of `_scale` over the vacuum terms, so `commutator`
returns integers.  The memo tables, per preset in `VAPreset._memos`, hold
dicts {mono: int} of nonzero coefficients in the lambda*x basis:

* ``gen``: (gen, n, mono) -> the oscillator mode gen_n applied to mono;
* ``sm``: (a, b) -> the field of a pair of basis monomials, a other than
  the vacuum: (hi, tables), tables[hi - 1 - n] the state mode a_(n) b for
  the contiguous range hi - len(tables) <= n < hi.  hi = deg a + deg b by
  the grading bound, and hi = 0 when b is the vacuum (a_(n)|0> = 0 for
  n >= 0).  A request below the range extends it downward.  The vacuum
  acts as the identity field, so |0>_(n) b is answered on the spot
  ({b: 1} at n = -1, else empty) and never stored.

These are the engine's two recursions, and every public function reads
one of them.  The translation operator has no table of its own: the
vacuum axiom Y(b, z)|0> = e^{zT} b gives T b = b_(-2)|0>, so `translate`
reads the field of (b, |0>) at n = -2.

Beside them ``deg`` holds the degree of each monomial the engine has met,
checked once by `_degree`; the vacuum, which stores no field, has the
state it acts on checked too.  The recursion fills these tables in place
on integers only, merging through `_acc` (`_extend` inline), and never
builds a `QQi` or a `GradedVector`.  `clear_caches` empties every table.

A table leaves the lambda*x basis only in `_add_lifted`, which every
public function (`gen_mode_mono`, `gen_mode_apply`, `translate`,
`translate_power`, `state_mode_mono`, `state_mode`, and
`oracle.oracle_mode_mono`) calls to build the `GradedVector` it returns,
and in `exact_flow`, the flow of `mu.mode_box` on exact data.  A
monomial of l PBW factors in the lambda*x basis is lambda^l times the
original one, so an entry c at a monomial of l_out factors, for inputs of
l_in factors in all (a and b of a state mode, the generator and b of an
oscillator mode, b of T), is c lambda^(l_out - l_in); a commutator only
removes factors, so the power goes into the denominator.  `_add_lifted`
reads its scalar once, as a `QQi` when exact and as a complex otherwise;
an exact term is scaled by `scalars.scale_int`, one gcd at most, and
fills an empty sum with no merge, and terms are merged with `+`, as in
`GradedVector`.  `exact_flow` sums integer numerators over one common
denominator and reduces each output coefficient once.

`state_mode` peels the leading PBW factor x(-m) of the acting state,
a = u_(p) v with u = x_{-w}|0> and p = w - 1 - m <= -1, through the
standard iterate expansion

    (u_(p) v)_(n) = sum_i (-1)^i C(p,i) (u_(p-i) v_(n+i)
                                         - (-1)^p v_(p+n-i) u_(i)),

with both sums truncated by the grading bound a_(n) b = 0 for
n >= deg a + deg b.  One extension of the field of (a, b) runs both sums
for all its new n at once: it reads the field of (v, b) once, and that of
(v, c) once per monomial c of u_(i) b, and merges their entries by list
index.  Each of those is asked for an upper range of its own pair, so no
entry is filled that the range of (a, b) does not read.  For a single
generator state a = x_{-m}|0> each sum keeps one term, and
a_(n) = c x_{n-m+1}, with c = C(m-w+i, i) at i = -1-n for n <= -1,
c = -(-1)^p (-1)^i C(p, i) at i = n-m+w for n >= m-w, and zero between.
An independent normal-ordered-field expansion lives in `oracle` and is
used to cross-check this recursion.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .graded import GradedVector, Mono, mono_degree, mono_text
from .records import FrozenRecord
from .scalars import QQi, _reduced, binom, exact_value, is_exact, scale_int

# name: (weight per generator, in generator order; the parameters the OPE
# reads, with their defaults; the OPE {(x, y): {j: {target: coeff}}} at c
# and level).  A target is a generator z, ("T", z) or the vacuum ().
_ALGEBRAS = {
    "heisenberg": ({"a": 1}, {}, lambda c, level: {
        ("a", "a"): {1: {(): 1}}}),
    "virasoro": ({"L": 2}, {"c": Fraction(1, 2)}, lambda c, level: {
        ("L", "L"): {0: {("T", "L"): 1}, 1: {"L": 2}, 3: {(): c / 2}}}),
    "affine_sl2": ({"e": 1, "h": 1, "f": 1}, {"level": Fraction(1)},
                   lambda c, level: {
        ("e", "f"): {0: {"h": 1}, 1: {(): level}},
        ("f", "e"): {0: {"h": -1}, 1: {(): level}},
        ("h", "h"): {1: {(): 2 * level}},
        ("h", "e"): {0: {"e": 2}}, ("e", "h"): {0: {"e": -2}},
        ("h", "f"): {0: {"f": -2}}, ("f", "h"): {0: {"f": 2}}}),
}


class VAPreset(FrozenRecord):
    """A choice of vacuum module together with its structure constants."""

    __slots__ = ("kind",
                 "c",       # virasoro central charge
                 "level",   # affine level
                 # per-instance memo tables shared by the mode engine (not
                 # a field, so equality and hashing still go through the
                 # structure constants)
                 "_memos",
                 # lambda, the generators and their weights, and the OPE in
                 # the lambda*x basis: _ope[x][y] = (w_x - 1, ((z, w_z, [(j,
                 # coeff of z, coeff of T z)]), ...), [(j, coeff of |0>)])
                 "_lam", "_gens", "_weights", "_ope")

    def __init__(self, kind: str, c=None, level=None):
        if kind not in _ALGEBRAS:
            raise ValueError(f"unknown preset {kind!r}")
        weights, params, ope = _ALGEBRAS[kind]
        # a parameter the OPE reads takes its table default when None; one
        # it does not read is stored as 0, so one algebra is one preset,
        # with one memo store
        object.__setattr__(self, "kind", kind)
        for name, value in (("c", c), ("level", level)):
            if name not in params:
                value = 0
            elif value is None:
                value = params[name]
            object.__setattr__(self, name, Fraction(value))
        object.__setattr__(self, "_memos", _shared_memos(self.key()))
        terms = [(pair, j, z, Fraction(v))
                 for pair, by_j in ope(self.c, self.level).items()
                 for j, out in by_j.items() for z, v in out.items() if v]
        lam = lcm(*(_scale(v) if z == () else v.denominator
                    for _, _, z, v in terms))
        grouped = {x: {y: ({}, []) for y in weights} for x in weights}
        for (x, y), j, z, v in terms:
            gens, vac = grouped[x][y]
            if z == ():
                vac.append((j, int(lam * lam * v)))
            elif type(z) is tuple:
                gens.setdefault(z[1], []).append((j, 0, int(lam * v)))
            else:
                gens.setdefault(z, []).append((j, int(lam * v), 0))
        object.__setattr__(self, "_lam", lam)
        object.__setattr__(self, "_gens", tuple(weights))
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_ope", {x: {
            y: (weights[x] - 1, tuple((z, weights[z], t)
                                      for z, t in gens.items()), vac)
            for y, (gens, vac) in row.items()} for x, row in grouped.items()})

    @property
    def generators(self):
        return self._gens

    def weight(self, gen: str) -> int:
        return self._weights[gen]

    def gen_index(self, gen: str) -> int:
        return self._gens.index(gen)

    def creation_floor(self, gen: str) -> int:
        """Smallest m with x_{-m}|0> nonzero."""
        return self._weights[gen]

    def commutator(self, x: str, nx: int, y: str, ny: int):
        """[x_nx, y_ny] of the rescaled generators lambda*x as (tuple of
        (gen, mode, int coeff), int central scalar), by the commutator
        formula of the module docstring."""
        shift, gens, vac = self._ope[x][y]
        p, k = nx + shift, nx + ny
        out = ()
        for z, wz, terms in gens:
            s, kw = 0, k + wz
            for j, a, b in terms:
                # C(p, 0) = 1 and C(p, 1) = p, the common terms, need no call
                c = a - kw * b
                s += c if not j else c * p if j == 1 else c * binom(p, j)
            if s:
                out += ((z, k, s),)
        if k:
            return out, 0
        central = 0
        for j, v in vac:
            central += binom(p, j) * v
        return out, central

    def key(self):
        return (self.kind, self.c, self.level)


def _scale(q: Fraction) -> int:
    """The smallest lambda >= 1 with lambda^2 q an integer: the product of
    p^ceil(e/2) over the prime powers p^e of q's denominator."""
    d, lam, p = q.denominator, 1, 2
    while p * p <= d:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        lam *= p ** ((e + 1) // 2)
        p += 1
    return lam * d


_memo_root: dict = {}


def _shared_memos(key):
    return _memo_root.setdefault(key, {t: {} for t in (
        "gen", "sm", "deg", "basis", "oracle")})


def preset_from_name(name: str, c=None, level=None) -> VAPreset:
    """The preset `name`; see `VAPreset` for the parameters."""
    return VAPreset(name, c, level)


def heisenberg() -> VAPreset:
    return preset_from_name("heisenberg")


def virasoro(c=None) -> VAPreset:
    return preset_from_name("virasoro", c=c)


def affine_sl2(level=None) -> VAPreset:
    return preset_from_name("affine_sl2", level=level)


# ---------------------------------------------------------------------------
# basis enumeration


def basis(preset: VAPreset, degree: int):
    """All canonical PBW monomials of the given degree."""
    memo = preset._memos["basis"]
    if degree in memo:
        return memo[degree]
    gens = preset.generators
    floors = [preset.creation_floor(g) for g in gens]

    out = []

    def rec(remaining, max_key, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        # factors in weakly decreasing (m, then generator-order) sequence,
        # each x(-m) at or above the creation floor of x
        for m in range(min(remaining, max_key[0]), min(floors) - 1, -1):
            start = max_key[1] if m == max_key[0] else 0
            for gi in range(start, len(gens)):
                if m < floors[gi]:
                    continue
                prefix.append((gens[gi], m))
                rec(remaining - m, (m, gi), prefix)
                prefix.pop()

    rec(degree, (degree, 0), [])
    memo[degree] = tuple(out)
    return memo[degree]


def basis_upto(preset: VAPreset, max_degree: int):
    out = []
    for d in range(max_degree + 1):
        out.extend(basis(preset, d))
    return out


# ---------------------------------------------------------------------------
# memo tables on integers


def _gen(preset, gen, n, mono) -> dict:
    memo = preset._memos["gen"]
    key = (gen, n, mono)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _gen_mode_mono_impl(preset, gen, n, mono)
    return out


def _acc(out: dict, table: dict, s: int) -> None:
    """out += s * table in place, for a nonzero integer s.  Zero sums are
    dropped."""
    for mono, c in table.items():
        out[mono] = v = out.get(mono, 0) + c * s
        if not v:
            del out[mono]


def _sm(preset, a, n, b) -> dict:
    """The table of a_(n) b, read from the field of (a, b).  The vacuum acts
    as the identity field, so for a = |0> this is {b: 1} at n = -1 and
    empty otherwise, and no field is stored for it; b is checked all the
    same."""
    if not a:
        _degree(preset, b)
        return {b: 1} if n == -1 else {}
    entry = preset._memos["sm"].get((a, b))
    if entry is None or entry[0] - len(entry[1]) > n:
        entry = _field(preset, a, _degree(preset, a), b, _degree(preset, b),
                       n)
    hi, tables = entry
    return tables[hi - 1 - n] if n < hi else {}


def _field(preset, a, da, b, db, lo):
    """The field of (a, b) for a nonempty a of degree da and b of degree db,
    filled down to n = lo: the pair (hi, tables), tables[hi - 1 - n] the
    table of a_(n) b for hi - len(tables) <= n < hi."""
    smemo = preset._memos["sm"]
    entry = smemo.get((a, b))
    if entry is None:
        entry = smemo[(a, b)] = (da + db if b else 0, [])
    hi, tables = entry
    if hi - len(tables) > lo:
        _extend(preset, a, da, b, db, hi, tables, lo)
    return entry


def _degree(preset, mono) -> int:
    """The degree of a monomial, checked once and kept in the `deg` table;
    ValueError naming it on an unknown generator or a factor x(-m) below
    the creation floor of x."""
    degs = preset._memos["deg"]
    d = degs.get(mono)
    if d is None:
        weights = preset._weights
        for x, m in mono:
            if x not in weights or m < weights[x]:
                raise ValueError(f"{mono_text(mono)} is not "
                                 f"a {preset.kind} basis monomial")
        d = degs[mono] = mono_degree(mono)
    return d


# cached: 3,035 hits on 46 entries in a mode_cold round (seed 7)
@lru_cache(maxsize=None)
def _row(p, length):
    """The signed binomial row ((-1)^i C(p, i) for i < length), cached."""
    row, r = [], 1
    for i in range(length):
        row.append(r)
        r = r * (i - p) // (i + 1)
    return tuple(row)


# ---------------------------------------------------------------------------
# the public boundary: QQi / complex coefficients in GradedVectors


def _add_lifted(acc: dict, s, table: dict, lam: int, ell: int) -> dict:
    """acc += s * table, the table lifted out of the lambda*x basis: for
    inputs of `ell` PBW factors in all, its entry c at a monomial of l
    factors stands for c / lambda^(ell - l).  s is read as a `QQi` when
    exact and as a complex otherwise; an exact term is `scale_int` of s,
    and fills an empty acc with no merge.  The terms are merged with `+`,
    so each coefficient is what `GradedVector.scale` and `+` give; a zero
    sum is dropped.  Returns acc."""
    if type(s) is not QQi:
        s = exact_value(s) if is_exact(s) else complex(s)
    if not s:
        return acc
    exact = type(s) is QQi
    # the fill loop: mode_cold ops/s x1.056, 9/10 pairs (BENCH_21.json)
    if exact and not acc:
        for mono, c in table.items():
            acc[mono] = scale_int(s, c, lam ** (ell - len(mono)))
        return acc
    for mono, c in table.items():
        k = ell - len(mono)
        if exact:
            x = scale_int(s, c, lam ** k)
        else:
            x = s * c if not k or lam == 1 else _reduced(c, 0, lam ** k) * s
        old = acc.get(mono)
        v = x if old is None else old + x
        if v:
            acc[mono] = v
        elif old is not None:
            del acc[mono]
    return acc


def exact_flow(preset: VAPreset, flow):
    """sum_j T^j U_j / j! = sum_j (U_j)_(-j-1)|0>, U_j the sum of s V over
    flow[j]'s pairs (s, V); None for a float s or a non-QQi coefficient.
    lambda^len(flow) bounds the lift: a degree-d monomial has <= d factors."""
    if not all(is_exact(s) for pairs in flow for s, _ in pairs):
        return None
    flow = [[(exact_value(s), v) for s, v in pairs] for pairs in flow]
    vecs = {id(v): v.terms for pairs in flow for _, v in pairs}
    cs = [c for terms in vecs.values() for c in terms.values()]
    if not all(type(c) is QQi for c in cs):
        return None
    ls = lcm(*(s.d for pairs in flow for s, _ in pairs))
    lc, lam, out = lcm(*(c.d for c in cs)), preset._lam, {}
    vecs = {k: [(m, c.a * (lc // c.d), c.b * (lc // c.d))
                for m, c in terms.items()] for k, terms in vecs.items()}
    for j, pairs in enumerate(flow):
        u = {}
        for s, v in pairs:
            sa, sb = s.a * (ls // s.d), s.b * (ls // s.d)
            for mono, a, b in vecs[id(v)]:
                x, y = u.get(mono, (0, 0))
                u[mono] = (x + sa * a - sb * b, y + sa * b + sb * a)
        for am, (a, b) in u.items():
            for mono, c in _sm(preset, am, -j - 1, ()).items():
                c *= lam ** (len(flow) - len(am) + len(mono))
                x, y = out.get(mono, (0, 0))
                out[mono] = (x + a * c, y + b * c)
    den = ls * lc * lam ** len(flow)
    return GradedVector.from_nonzero({mono: _reduced(x, y, den) for mono, (
        x, y) in out.items() if x or y})


# ---------------------------------------------------------------------------
# oscillator mode action


def gen_mode_mono(preset: VAPreset, gen: str, n: int, mono: Mono) -> GradedVector:
    """Apply the oscillator mode gen_n to a canonical basis monomial."""
    _check_gen_input(preset, gen, mono)
    return GradedVector.from_nonzero(_add_lifted(
        {}, 1, _gen(preset, gen, n, mono), preset._lam, len(mono) + 1))


def _check_gen_input(preset, gen, mono) -> None:
    """ValueError naming an unknown generator, or a monomial that
    `_degree` refuses."""
    if gen not in preset._weights:
        raise ValueError(f"{gen} is not a {preset.kind} generator")
    _degree(preset, mono)


def _gen_mode_mono_impl(preset, gen, n, mono):
    if not mono:
        if n <= -preset.creation_floor(gen):
            return {((gen, -n),): 1}
        return {}
    g0, m0 = mono[0]
    rest = mono[1:]
    if n < 0 and (-n > m0 or (-n == m0
                              and preset.gen_index(gen) <= preset.gen_index(g0))):
        return {((gen, -n),) + mono: 1}
    # not in place: commute past the first factor
    out = {}
    for mono2, c in _gen(preset, gen, n, rest).items():
        _acc(out, _gen(preset, g0, -m0, mono2), c)
    gens, central = preset.commutator(gen, n, g0, -m0)
    if central:
        _acc(out, {rest: 1}, central)
    for g2, n2, coeff in gens:
        _acc(out, _gen(preset, g2, n2, rest), coeff)
    return out


def gen_mode_apply(preset: VAPreset, gen: str, n: int, v: GradedVector) -> GradedVector:
    """Linear extension of `gen_mode_mono` to arbitrary vectors."""
    acc = {}
    for mono, coeff in v.terms.items():
        _check_gen_input(preset, gen, mono)
        table = _gen(preset, gen, n, mono)
        if table:
            _add_lifted(acc, coeff, table, preset._lam, len(mono) + 1)
    return GradedVector.from_nonzero(acc)


# ---------------------------------------------------------------------------
# translation operator


def translate(preset: VAPreset, v: GradedVector) -> GradedVector:
    return translate_power(preset, v, 1)


def translate_power(preset: VAPreset, v: GradedVector, j: int) -> GradedVector:
    if j <= 0:
        return v
    terms, lam = v.terms, preset._lam
    for _ in range(j):
        acc = {}
        for mono, coeff in terms.items():
            # T b = b_(-2)|0>, by the vacuum axiom Y(b, z)|0> = e^{zT} b
            table = _sm(preset, mono, -2, ())
            if table:
                _add_lifted(acc, coeff, table, lam, len(mono))
        terms = acc
    return GradedVector.from_nonzero(terms)


# ---------------------------------------------------------------------------
# state modes


def state_mode_mono(preset: VAPreset, a: Mono, n: int, b: Mono) -> GradedVector:
    """The n-th vertex operator mode of basis state a applied to basis state b."""
    return GradedVector.from_nonzero(_add_lifted(
        {}, 1, _sm(preset, a, n, b), preset._lam, len(a) + len(b)))


def _extend(preset, a, da, b, db, hi, tables, lo):
    """Append a_(n) b to the field `tables` of (a, b) for each n from the
    bottom of its range down to lo.  Reads the `gen` table and the fields
    of a[1:] directly, filling them as needed, and merges into each new
    table in place, a zero sum deleted.  Degrees are passed down:
    rest = a[1:] has degree da - m, and x_k lowers the degree of a
    monomial by k."""
    # inline: via _gen/_acc it won only 58/160 alternating mode_cold rounds
    gmemo = preset._memos["gen"]
    x, m = a[0]
    rest = a[1:]
    w = preset.weight(x)
    p = w - 1 - m      # a = u_(p) rest with u = x_{-w}|0>; p <= -1
    sign = 1 if p % 2 else -1      # -(-1)^p
    top = hi - len(tables)
    row = _row(p, max(hi - lo, hi, db + w))
    if not rest:
        # a = x_{-m}|0>: only i = -1-n of the first sum (n <= -1) and
        # i = p+n+1 of the second (n >= -1-p) survive, so a_(n) is c times
        # the oscillator mode x_{n-m+1}
        for n in range(top - 1, lo - 1, -1):
            i = -1 - n if n < 0 else p + n + 1
            c = 0 if i < 0 else row[i] if n < 0 else sign * row[i]
            g = _gen(preset, x, n - m + 1, b) if c else {}
            tables.append(g if c == 1 else {mono: c * v
                                            for mono, v in g.items()})
        return
    dr = da - m
    new = [{} for _ in range(top - lo)]     # new[j] is a_(top-1-j) b
    # sum_i (-1)^i C(p,i) u_(p-i) (rest_(n+i) b), where u_(p-i) is the
    # oscillator mode x_{-m-i}, nonzero on every i since p <= -1
    rhi, rtables = _field(preset, rest, dr, b, db, lo)
    for j, out in enumerate(new):
        n = top - 1 - j
        for i in range(rhi - n):
            inner = rtables[rhi - 1 - n - i]
            if not inner:
                continue
            k = -m - i
            coeff = row[i]
            for mono, c in inner.items():
                key = (x, k, mono)
                g = gmemo.get(key)
                if g is None:
                    g = gmemo[key] = _gen_mode_mono_impl(preset, x, k, mono)
                s = c * coeff
                for mono2, c2 in g.items():
                    out[mono2] = v = out.get(mono2, 0) + c2 * s
                    if not v:
                        del out[mono2]
    # -(-1)^p sum_i (-1)^i C(p,i) rest_(p+n-i) (u_(i) b), where u_(i) is
    # x_{i-w+1}, zero on b once i-w+1 exceeds deg b; each monomial of
    # u_(i) b has its field read once for all the new n
    for i in range(db + w):
        k = i - w + 1
        key = (x, k, b)
        ub = gmemo.get(key)
        if ub is None:
            ub = gmemo[key] = _gen_mode_mono_impl(preset, x, k, b)
        if not ub:
            continue
        coeff = sign * row[i]
        for mono, c in ub.items():
            mhi, mtables = _field(preset, rest, dr, mono, db - k, p + lo - i)
            # new[j] reads rest_(p+top-1-j-i) mono, at mtables[base + j];
            # base < 0 only for mono = |0>, whose field ends at n = -1
            base = mhi - p - top + i
            s = c * coeff
            for j in range(max(0, -base), len(new)):
                out = new[j]
                for mono2, c2 in mtables[base + j].items():
                    out[mono2] = v = out.get(mono2, 0) + c2 * s
                    if not v:
                        del out[mono2]
    tables.extend(new)


def state_mode(preset: VAPreset, a: GradedVector, n: int, b: GradedVector) -> GradedVector:
    """Bilinear extension: a_(n) b for arbitrary vectors a, b."""
    acc, lam = {}, preset._lam
    for am, ac in a.terms.items():
        for bm, bc in b.terms.items():
            # most pairs have an empty table; skip them before the product
            table = _sm(preset, am, n, bm)
            if table:
                _add_lifted(acc, ac * bc, table, lam, len(am) + len(bm))
    return GradedVector.from_nonzero(acc)


def pole_bound(preset: VAPreset, a: GradedVector, b: GradedVector) -> int:
    """Smallest N >= 0 with a_(n) b = 0 for all n >= N."""
    top = a.max_degree() + b.max_degree()
    for n in range(top - 1, -1, -1):
        if state_mode(preset, a, n, b):
            return n + 1
    return 0


def clear_caches():
    for m in _memo_root.values():
        for sub in m.values():
            sub.clear()

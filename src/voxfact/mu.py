"""Multi-point multiplication maps and their defining-property checks.

The m-point map sends states a_1 .. a_m at pairwise distinct points
z_1 .. z_m to the product-space vector e^{z_m T} Y(a_1, z_1 - z_m) ...
Y(a_{m-1}, z_{m-1} - z_m) a_m.  Each degree part is a rational function of
the points, a finite sum of state vectors times products of powers of the
differences z_i - z_k and of z_m.  `box_terms` reads that sum off by a
normal-ordered recursion on the first slot (`_box_terms`).  A one-point
map's term is its state, and a two-point map's terms are the fields
a_(n) b of its parts, so their float results are those of the fields.
From three points on, terms with equal exponents are summed as the
recursion meets them; that grouping fixes the last bits of a float
result, which any other grouping of the same sum may not share.
`mode_box` assembles groups of terms, each group with a coefficient and
a callback for the scalar factor of each term, and moves them by one
`presets.flow`, exact on exact data with one reduction per coefficient:

* `mu_numeric` (any arity), `two_point_value` and `mu_one_point` evaluate
  it at the points, exactly (QQi) at exact points and in complex at float
  points;
* `expressions` pairs it with jets and moments, one group per term;
* `check_associativity` reads one Laurent coefficient of it in t, one
  group per inner part for every k, with inner points moved to zc + t w.

Nothing is truncated and no ordering of the points is needed.
"""
from __future__ import annotations

import cmath
import itertools
import math
from functools import cache

from .errors import DomainViolation
from .graded import GradedVector, ProductVector, max_norm
from .oracle import _oracle
from .presets import (VAPreset, basis_upto, flow, gen_mode_apply, pole_bound,
                      state_mode)
from .report import CheckReport
from .scalars import (DegreeWindow, QQi, binom, exact_value, is_exact,
                      same_point, scalar_pow)


# ---------------------------------------------------------------------------
# the mode box


def box_terms(preset: VAPreset, states, window: DegreeWindow):
    """The terms (exps, d, V) of the map of ``states`` through degree
    window.hi, part tuple by part tuple, for `mode_box` on the same
    window; None for no states.  Each homogeneous part tuple is read by
    the recursion `_box_terms`, which holds its memo for that tuple only."""
    if not states:
        return None
    return [term for parts in itertools.product(
                *([s.project(d) for d in s.degrees()] for s in states))
            for term in _box_terms(preset, parts, window.hi)]


def mode_box(preset: VAPreset, groups, window: DegreeWindow) -> ProductVector:
    """The sum over ``groups`` (terms, scalar, coeff) of coeff times the
    m-point map, the sum of scalar(exps, j) T^j V / j! over the
    `box_terms` (exps, d, V) of its states on this window, in one flow.

    For homogeneous a_1 .. a_m and x_i = z_i - z_m, Y(a_1, x_1) ... a_m is
    a finite sum of vectors V of degree d times monomials in the x_i and
    the x_i - x_k, with poles bounded by the locality orders
    (Frenkel-Lepowsky-Meurman, ch. 8).  ``exps`` lists ((i, k), t), i < k
    counted from 0, for the factor prod (z_i - z_k)^t; the scalar stands
    for that factor times z_m^j, from the flow e^{z_m T}.  A zero scalar
    drops its term.  Any term list whose sum is the map will do, and a
    list built once may be assembled under several callbacks.  With no
    states (``terms`` None) a group's map is the vacuum.  `presets.flow`
    moves each U_j, the sum of coeff scalar(exps, j) V, by T^j / j!.
    """
    # orders[j] lists the (coeff scalar(exps, j), V) that sum to U_j
    orders = [[] for _ in range(window.hi + 1)]
    for terms, scalar, coeff in groups:
        if terms is None:
            terms, scalar = (((), 0, GradedVector.vacuum()),), lambda e, j: 1
        scaled = coeff != 1
        for exps, d, vec in terms:
            # degree 0 holds only the vacuum, and T kills it
            for j in range(max(0, window.lo - d),
                           window.hi - d + 1 if d else 1):
                s = scalar(exps, j)
                if s:
                    orders[j].append((s * coeff if scaled else s, vec))
    return ProductVector.from_vector(flow(preset, orders), window)


def _box_terms(preset, parts, top):
    """(exps, d, V) for the nonzero V of degree d <= top of the map of the
    homogeneous parts ``parts``; see `mode_box`.

    A recursion on the first remaining slot (i, a), x_j = z_j - z_m, its
    terms memoized by (slots, top) for this call.  One slot is the part
    itself.  Two are Y(a, x_i) b = sum_n a_(n) b x_i^(-n-1).  From three
    on, a = c|0> gives c times the map of the others, and a monomial
    x_{-m} a' of a, a' holding its coefficient, w the weight of x and
    t = m - w, gives the normal-ordered product :(d^t X / t!) Y(a', x_i):
    split as in `oracle` (Frenkel-Lepowsky-Meurman, ch. 8; Zhu 1996):

    * creation: sum_{s >= 0} C(s+t, t) x_i^s x_{-(s+m)} Y(a', x_i) V;
    * annihilation: sum_{j > i} sum_{0 <= n < w + deg a_j} C(-n-1, t)
      (x_i - x_j)^(-n-1-t) Y(a', x_i) V[a_j -> x_(n) a_j], x_m = 0.

    Each step shortens the first slot or drops it, so the recursion ends."""
    # re-read from 4 slots on (virasoro arity 5: 440 of 1,063), never below
    memo = {}

    def terms(slots, top):  # {exps: V}
        key = (slots, top)
        if key in memo:
            return memo[key]
        (i, a), rest = slots[0], slots[1:]
        out = {}
        if not rest:
            if a.degree() <= top:
                out[()] = a
        elif len(rest) == 1:
            (k, b), = rest
            hi = a.degree() + b.degree() - 1
            for n in range(hi, hi - top - 1, -1):
                out[(((i, k), -n - 1),) if n != -1 else ()] = \
                    state_mode(preset, a, n, b)
        elif () in a.terms:
            c = a.terms[()]
            out = {e: v.scale(c) for e, v in terms(rest, top).items()}
        else:
            for mono, c in a.terms.items():
                (x, m), head = mono[0], ((i, GradedVector.basis(mono[1:], c)),)
                w = preset.weight(x)
                for s in range(top - m + 1):
                    for e, v in terms(head + rest, top - m - s).items():
                        _add(out, e, (i, rest[-1][0]), s,
                             binom(s + m - w, m - w),
                             gen_mode_apply(preset, x, -m - s, v))
                for j, (k, b) in enumerate(rest):
                    for n in range(w + b.degree()):
                        xb = gen_mode_apply(preset, x, n - w + 1, b)
                        if not xb:
                            continue
                        slots = head + rest[:j] + ((k, xb),) + rest[j + 1:]
                        for e, v in terms(slots, top).items():
                            _add(out, e, (i, k), w - m - n - 1,
                                 binom(-n - 1, m - w), v)
        memo[key] = out = {e: v for e, v in out.items() if v}
        return out

    for exps, v in terms(tuple(enumerate(parts)), top).items():
        yield exps, v.degree(), v


def _add(out, exps, ik, t, c, v):
    """out[exps * (z_i - z_k)^t] += c v, for ik = (i, k) and an int c."""
    e = dict(exps)
    e[ik] = e.get(ik, 0) + t
    key = tuple(sorted(item for item in e.items() if item[1]))
    v = v if c == 1 else v.scale(c)
    out[key] = out[key] + v if key in out else v


# ---------------------------------------------------------------------------
# evaluation at the points


def mu_numeric(preset: VAPreset, states, points, window: DegreeWindow,
               tol: float = 1e-10) -> ProductVector:
    """mu(a_1, z_1, ..., a_m, z_m) for any arity m: `mode_box` with each
    scalar evaluated at the points, exactly (QQi) when states and points
    are exact and in complex otherwise; one float point makes every point
    complex, so no coefficient stays exact beside a float one.  Finite,
    pairwise distinct points are the only condition.  Nothing is
    truncated, so ``tail_estimate`` is 0.0; ``tol`` has no effect and is
    kept for callers that pass it.
    """
    if len(states) != len(points):
        raise ValueError("states and points differ in length")
    if not all(map(is_exact, points)):
        points = [complex(z) for z in points]
        if not all(map(cmath.isfinite, points)):
            raise ValueError(f"points must be finite: {points}")
    for i, z in enumerate(points):
        if any(same_point(z, w) for w in points[i + 1:]):
            raise DomainViolation("coincident insertion points")
    last = len(points) - 1

    # re-read on 5,192 of 7,332 calls (point_maps seeds 3, 11)
    @cache
    def power(ik, t):  # (z_i - z_k)^t, and z_m^t for ik = None
        if ik is None:
            return scalar_pow(points[last], t)
        return scalar_pow(points[ik[0]] - points[ik[1]], t)

    terms = box_terms(preset, states, window)
    return mode_box(preset, [(terms, lambda exps, j: math.prod(
        power(ik, t) for ik, t in exps) * power(None, j), 1)], window)


def mu_one_point(preset: VAPreset, a: GradedVector, z,
                 window: DegreeWindow) -> ProductVector:
    """mu(a, z) = exp(zT) a, windowed.  Exact when a and z are exact,
    complex otherwise, also at z = 0.0."""
    return mu_numeric(preset, [a], [z], window)


def two_point_value(preset: VAPreset, a: GradedVector, b: GradedVector,
                    z, w, window: DegreeWindow) -> ProductVector:
    """mu(a, z, b, w) = e^{wT} Y(a, z-w) b windowed; exact for exact inputs,
    needs z != w."""
    return mu_numeric(preset, [a, b], [z, w], window)


# ---------------------------------------------------------------------------
# defining-property checks


def compare_parts(axiom: str, pairs, tol: float,
                  truncation=None) -> CheckReport:
    """The report of check ``axiom`` on a stream of (witness, u, v), vectors
    that should agree: max_err the largest |u - v| / max(|u|, |v|, 1), the
    witness that of the last pair that disagrees, or {}, and a pass iff no
    pair disagrees.  Exact vectors agree only when equal, decided on their
    coefficients and never through float; others when within tol, which
    the report carries when some pair was float, and 0.0 otherwise."""
    worst, witness, passed, used = 0.0, {}, True, 0.0
    for key, u, v in pairs:
        exact = u.is_exact() and v.is_exact()
        used = used if exact else tol
        if exact and u == v:
            continue
        err = u.distance(v) / max(u.norm_inf(), v.norm_inf(), 1.0)
        worst = max_norm((worst, err))
        if exact or not err <= tol:
            witness, passed = key, False
    return CheckReport(axiom, passed, worst, used, witness, truncation)


def check_identity_on_basis(axiom: str, preset: VAPreset, max_degree: int,
                            route) -> CheckReport:
    """route(a, window) == a on the nose, degree by degree, for every basis
    state a of degree <= max_degree, on the window 0 .. max_degree;
    witness {"state", "degree"}."""
    window = DegreeWindow(0, max_degree)

    def pairs():
        for mono in basis_upto(preset, max_degree):
            a = GradedVector.basis(mono)
            got, state = route(a, window), a.to_obj()
            for k in window.degrees():
                yield ({"state": state, "degree": k}, got.component(k),
                       a.project(k))
    return compare_parts(axiom, pairs(), 0.0, {"max_degree": max_degree})


def check_insertion_at_zero(preset: VAPreset, max_degree: int) -> CheckReport:
    """The flow exp(zT) a at z = 0 returns a on the nose for every basis
    state, compared exactly."""
    return check_identity_on_basis(
        "insertion_at_zero", preset, max_degree,
        lambda a, window: mu_one_point(preset, a, QQi(0), window))


def check_equivariance(preset: VAPreset, configs,
                       window: DegreeWindow) -> CheckReport:
    """Dilation covariance of the multi-point map: for each (states,
    points, q) with q != 0,

        p_k mu(q.a_1, q z_1, ..., q.a_m, q z_m) == q^k p_k mu(a_1, z_1, ...)

    on ``window``, exactly on exact data and within a relative 1e-8
    otherwise."""
    def pairs():
        for states, points, q in configs:
            lhs = mu_numeric(preset, [s.grading_act(q) for s in states],
                             [q * z for z in points], window)
            rhs = mu_numeric(preset, states, points, window)
            shown = [str(z) for z in points]
            for k in window.degrees():
                yield ({"q": str(q), "degree": k, "points": shown},
                       lhs.component(k),
                       rhs.component(k).scale(scalar_pow(q, k)))
    return compare_parts("equivariance", pairs(), 1e-8)


def check_associativity(preset: VAPreset, outer, inner, insertion,
                        window: DegreeWindow) -> CheckReport:
    """Composition property, as a finite exact identity.

    ``outer`` is a list of (state, point) applied directly, ``inner`` a list
    of (state, point) with points relative to the insertion point zc; every
    point is read at its exact value.  With the inner points at zc + t w_j,
    dilation covariance gives p_k mu(b, t w) = t^(k - D) p_k mu(b, w) for
    homogeneous inner parts b of total degree D, so for every k the
    t^(k - D) Laurent coefficient at t = 0 of mu(outer, inner at zc + t w)
    equals mu(outer, p_k mu(inner, w), zc).  Both sides are compared
    exactly on ``window`` for k = 0 .. window.hi.
    """
    a_out, z_out = [s for s, _ in outer], [exact_value(z) for _, z in outer]
    b_in, w_in = [s for s, _ in inner], [exact_value(w) for _, w in inner]
    zc = exact_value(insertion)
    # the points as a + b t, outer first, as in the left side's states
    lines = [(z, QQi(0)) for z in z_out] + [(zc, w) for w in w_in]
    inner_pv = mu_numeric(preset, b_in, w_in, DegreeWindow(0, window.hi))
    # each homogeneous inner part's box, built once and read at every k
    boxes = [(sum(p.degree() for p in part),
              box_terms(preset, a_out + list(part), window))
             for part in itertools.product(
                 *([s.project(d) for d in s.degrees()] for s in b_in))]

    def pairs():
        for k in range(window.hi + 1):
            # computed first, so that coincident points raise DomainViolation
            rhs = mu_numeric(preset, a_out + [inner_pv.component(k)],
                             z_out + [zc], window)
            # bound now: a lambda reading degree later reads the last box's
            lhs = mode_box(preset, [
                (terms, lambda exps, j, order=k - degree:
                 _t_coefficient(lines, exps, j, order), 1)
                for degree, terms in boxes], window)
            for d in window.degrees():
                yield {"k": k, "degree": d}, lhs.component(d), rhs.component(d)
    return compare_parts("associativity", pairs(), 0.0)


def _t_coefficient(lines, exps, j, order):
    """The t^order coefficient of the `mode_box` scalar prod (z_i - z_k)^e
    * z_m^j at the points z_i = a_i + b_i t: a product of powers
    (a + b t)^e, a monomial in t where a = 0 and a generalized binomial
    series, cut at the one order read, where a != 0."""
    c, series = QQi(1), []
    m = len(lines) - 1
    for (i, k), e in exps + (((m, None), j),):
        a, b = lines[i]
        if k is not None:
            a, b = a - lines[k][0], b - lines[k][1]
        if a:
            series.append((a, b / a, e))
        else:
            c *= scalar_pow(b, e)
            order -= e
    if order < 0 or not c:
        return 0
    coeffs = [c] + [0] * order
    for a, r, e in series:
        c = a ** e
        terms = [c * binom(e, i) * r ** i for i in range(order + 1)]
        coeffs = [sum(coeffs[n - i] * terms[i] for i in range(n + 1))
                  for n in range(order + 1)]
    return coeffs[order]


def check_permutation(preset: VAPreset, configs,
                      window: DegreeWindow) -> CheckReport:
    """Order independence of the multi-point map: each (states, points)
    in reverse order gives the same value on ``window``, exactly on exact
    data and within a relative 1e-9 otherwise.  At two points (z, 0) this is
    skew-symmetry, Y(a, z) b = e^{zT} Y(b, -z) a."""
    def pairs():
        for num, (states, points) in enumerate(configs):
            fwd = mu_numeric(preset, states, points, window)
            rev = mu_numeric(preset, states[::-1], points[::-1], window)
            for k in window.degrees():
                yield ({"config": num, "degree": k}, fwd.component(k),
                       rev.component(k))
    return compare_parts("permutation_invariance", pairs(), 1e-9)


def check_meromorphicity(preset: VAPreset, max_degree: int) -> CheckReport:
    """Pole orders against the normal-ordered-field oracle: for every pair
    of basis states, N = pole_bound(a, b) is the locality order, so
    a_(N-1) b != 0 when N > 0 and a_(n) b = 0 for N <= n < deg a + deg b
    (above that a_(n) b would have negative degree).  The oracle's integer
    tables are empty exactly when the mode is zero, so none is lifted."""
    witness, max_order = {}, 0
    states = basis_upto(preset, max_degree)
    for am in states:
        a = GradedVector.basis(am)
        for bm in states:
            b = GradedVector.basis(bm)
            pb = pole_bound(preset, a, b)
            top = a.degree() + b.degree()
            if (pb > 0 and not _oracle(preset, am, pb - 1, bm)) \
                    or any(_oracle(preset, am, n, bm) for n in range(pb, top)):
                witness = {"a": a.to_obj(), "b": b.to_obj(), "pole_bound": pb}
            max_order = max(max_order, pb)
    return CheckReport("meromorphicity", not witness, 0.0, 0.0, witness,
                       {"max_degree": max_degree, "max_pole_order": max_order})

"""Multi-point multiplication maps and their defining-property checks.

The m-point map sends states a_1 .. a_m at pairwise distinct points
z_1 .. z_m to the product-space vector obtained by applying the vertex
operators in radial order to the vacuum.  Two computational routes:

* closed forms for one and two insertion points, the flow exp(zT) a and
  the two-point map e^{wT} Y(a, z-w) b.  Two assemblers build them over a
  degree window with a caller-supplied scalar per term: `one_point_sum`
  and `two_point_sum`.  With powers of the points as scalars they give
  `mu_one_point` and `two_point_value`; `expressions` passes the pairings
  of jets and moments instead;
* a numeric route for any arity, with intermediate degrees summed
  adaptively under a geometric tail estimate.  Its innermost state flows
  through `mu_one_point`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainViolation, EqualModuli, NonConvergent
from .graded import GradedVector, ProductVector
from .presets import VAPreset, state_mode, translate
from .report import CheckReport
from .scalars import (DegreeWindow, QQi, as_complex, is_exact, same_point,
                      scalar_pow, scalar_zero)


def default_dmax(window: DegreeWindow) -> int:
    return 6 * (window.hi + 1) + 24


# ---------------------------------------------------------------------------
# closed forms (one and two insertion points)


def one_point_sum(preset: VAPreset, a: GradedVector, window: DegreeWindow,
                  scalar) -> ProductVector:
    """sum_j scalar(j) T^j a / j!, windowed.

    T^j a / j! of a homogeneous part of degree d has degree d + j, so only
    the j with d + j in the window are formed.  ``scalar`` is called only
    for nonzero T^j a, and a zero scalar drops its term.
    """
    out = ProductVector(window)
    for d in a.degrees():
        v = a.project(d)
        for j in range(window.hi - d + 1):
            if j:
                v = translate(preset, v)
                if not v:
                    break
            if d + j < window.lo:
                continue
            s = scalar(j)
            if s:
                piece = v.scale(s * QQi(Fraction(1, math.factorial(j))))
                out.set_component(d + j, out.component(d + j) + piece)
    return out


def two_point_sum(preset: VAPreset, a: GradedVector, b: GradedVector,
                  window: DegreeWindow, scalar) -> ProductVector:
    """sum over n, j of scalar(j, -n-1) T^j (a_(n) b) / j!, windowed.

    With scalar(j, e) = w^j (z-w)^e this is e^{wT} Y(a, z-w) b.  Each
    a_(n) b of homogeneous parts goes through `one_point_sum`.
    """
    out = ProductVector(window)
    for da in a.degrees():
        ah = a.project(da)
        for db in b.degrees():
            bh = b.project(db)
            # a_(n) b has degree da + db - n - 1 and vanishes for n >= da + db
            for n in range(da + db - 1 - window.hi, da + db):
                vec = state_mode(preset, ah, n, bh)
                if vec:
                    out = out + one_point_sum(preset, vec, window,
                                              lambda j: scalar(j, -n - 1))
    return out


def mu_one_point(preset: VAPreset, a: GradedVector, z,
                 window: DegreeWindow) -> ProductVector:
    """mu(a, z) = exp(zT) a, windowed.  Exact when a and z are exact."""
    if scalar_zero(z):
        return ProductVector.from_vector(a, window)
    return one_point_sum(preset, a, window, lambda j: scalar_pow(z, j))


def two_point_value(preset: VAPreset, a: GradedVector, b: GradedVector,
                    z, w, window: DegreeWindow) -> ProductVector:
    """mu(a, z, b, w) = e^{wT} Y(a, z-w) b windowed; exact for exact inputs,
    needs z != w."""
    if same_point(z, w):
        raise DomainViolation("coincident insertion points")
    zw = _sub(z, w)
    return two_point_sum(preset, a, b, window,
                         lambda j, e: scalar_pow(w, j) * scalar_pow(zw, e))


def _sub(z, w):
    if is_exact(z) and is_exact(w):
        return QQi(z) - QQi(w) if not isinstance(z, QQi) else z - (w if isinstance(w, QQi) else QQi(w))
    return as_complex(z) - as_complex(w)


# ---------------------------------------------------------------------------
# numeric radial route


def mu_numeric(preset: VAPreset, states, points, window: DegreeWindow,
               tol: float = 1e-10, d_max: int | None = None) -> ProductVector:
    """mu(a_1, z_1, ..., a_m, z_m) by radially ordered operator application.

    Points are sorted by decreasing modulus; a tie raises EqualModuli.
    Intermediate degrees are carried up to an adaptive cap bounded by d_max;
    if the geometric tail estimate still exceeds tol there, NonConvergent.
    """
    if len(states) != len(points):
        raise ValueError("states and points differ in length")
    if d_max is None:
        d_max = default_dmax(window)
    m = len(states)
    if m == 0:
        out = ProductVector(window)
        if 0 in window:
            out.set_component(0, GradedVector.vacuum())
        return out
    pairs = sorted(zip(states, points), key=lambda sp: -abs(as_complex(sp[1])))
    for (_, z1), (_, z2) in zip(pairs, pairs[1:]):
        if abs(as_complex(z1)) == abs(as_complex(z2)):
            raise EqualModuli(f"insertion moduli coincide: {z1}, {z2}")
    for i in range(m):
        for j in range(i + 1, m):
            if same_point(pairs[i][1], pairs[j][1]):
                raise DomainViolation("coincident insertion points")

    # the cap must reach past every input degree or the expansion silently
    # truncates to zero with a vanishing tail estimate
    top_in = max((s.max_degree() for s in states if s), default=0)
    cap = max(window.hi, 2, top_in + window.hi)
    d_max = max(d_max, cap)
    while True:
        comps, tail = _mu_pass(preset, pairs, cap, window)
        if tail <= tol:
            out = ProductVector(window, truncated=tail > 0.0, tail_estimate=tail)
            for k in window.degrees():
                if k in comps:
                    out.set_component(k, comps[k])
            return out
        if cap >= d_max:
            raise NonConvergent(
                f"tail estimate {tail:.3e} above tol {tol:.3e} at cap {cap}")
        cap = min(d_max, cap * 2 + 4)


def _mu_pass(preset, pairs, cap, window):
    # innermost state flowed to its point, carried up to degree cap
    inner_state, inner_z = pairs[-1]
    comps = mu_one_point(preset, inner_state.to_complex(), as_complex(inner_z),
                         DegreeWindow(0, cap)).components

    worst_tail = 0.0
    rest = list(reversed(pairs[:-1]))
    for pos, (a, z) in enumerate(rest):
        # the outermost operator only needs to land inside the window
        out_cap = window.hi if pos == len(rest) - 1 else cap
        comps, contribs = _apply_operator(preset, a, as_complex(z), comps,
                                          out_cap, window.hi)
        worst_tail = max(worst_tail, _tail_estimate(contribs))
    return comps, worst_tail


def _apply_operator(preset, a, z: complex, comps, out_cap, window_hi):
    out: dict[int, GradedVector] = {}
    contribs: list[float] = []
    for j in sorted(comps):
        vj = comps[j]
        # the tail is judged on the degrees that survive the window
        level_norm = 0.0
        for da in a.degrees():
            ah = a.project(da)
            for k in range(0, out_cap + 1):
                n = da + j - k - 1
                term = state_mode(preset, ah, n, vj)
                if term:
                    term = term.scale(z ** (-n - 1))
                    out[k] = out.get(k, GradedVector.zero()) + term
                    if k <= window_hi:
                        level_norm = max(level_norm, term.norm_inf())
        contribs.append(level_norm)
    return out, contribs


def _tail_estimate(contribs):
    nz = [(i, c) for i, c in enumerate(contribs) if c > 0.0]
    if len(nz) < 3:
        return 0.0
    # a run of exact zeros at the top means the series terminated
    # (nilpotent directions do this), not that it plateaued
    if nz[-1][0] <= len(contribs) - 4:
        return 0.0
    (i1, c1), (_, _), (i3, c3) = nz[-3], nz[-2], nz[-1]
    if c1 <= 0 or c3 >= c1:
        return math.inf
    rho = (c3 / c1) ** (1.0 / (i3 - i1))
    if rho >= 0.95:
        return math.inf
    return c3 * rho / (1.0 - rho)


# ---------------------------------------------------------------------------
# defining-property checks


def check_insertion_at_zero(preset: VAPreset, max_degree: int = 6) -> CheckReport:
    """The flow exp(zT) a at z = 0 returns a on the nose for every basis
    state.  It runs the flow's general sum, `one_point_sum`, because
    `mu_one_point` returns a at z = 0 without summing."""
    from .presets import basis_upto
    worst = 0.0
    witness = {}
    ok = True
    for mono in basis_upto(preset, max_degree):
        a = GradedVector.basis(mono)
        d = a.degree()
        window = DegreeWindow(0, max(d, max_degree))
        got = one_point_sum(preset, a, window,
                            lambda j: scalar_pow(QQi(0), j))
        expect = ProductVector.from_vector(a, window)
        if not all((got.component(k) - expect.component(k)).norm_inf() == 0
                   for k in window.degrees()):
            ok = False
            witness = {"state": a.to_obj()}
            worst = max(worst,
                        max(got.component(k).distance(expect.component(k))
                            for k in window.degrees()))
    return CheckReport("insertion_at_zero", ok, worst, 0.0, witness,
                       {"max_degree": max_degree})


def check_equivariance_exact(preset: VAPreset, triples, window: DegreeWindow) -> CheckReport:
    """Dilation covariance of the exact two-point map: for exact q != 0,

        mu(q.a, q z, q.b, 0) == q . mu(a, z, b, 0)  degreewise, exactly.
    """
    ok = True
    witness = {}
    for a, b, z, q in triples:
        lhs = two_point_value(preset, a.grading_act(q), b.grading_act(q),
                              q * z, QQi(0), window)
        rhs = two_point_value(preset, a, b, z, QQi(0), window)
        for k in window.degrees():
            if lhs.component(k) != rhs.component(k).scale(scalar_pow(q, k)):
                ok = False
                witness = {"z": str(z), "q": str(q), "degree": k}
    return CheckReport("equivariance_exact", ok, 0.0, 0.0, witness, {})


def check_equivariance_numeric(preset: VAPreset, configs, window: DegreeWindow,
                               tol: float = 1e-8) -> CheckReport:
    """Dilation covariance of the numeric multi-point route."""
    worst = 0.0
    witness = {}
    for states, points, q in configs:
        qc = as_complex(q)
        lhs = mu_numeric(preset,
                         [s.grading_act(qc) for s in states],
                         [qc * as_complex(z) for z in points],
                         window, tol=tol * 1e-2)
        rhs = mu_numeric(preset, states, points, window, tol=tol * 1e-2)
        for k in window.degrees():
            err = _rel_err(lhs.component(k),
                           rhs.component(k).scale(qc ** k))
            if err > worst:
                worst = err
                witness = {"q": str(q), "degree": k,
                           "points": [str(z) for z in points]}
    return CheckReport("equivariance_numeric", worst <= tol, worst, tol,
                       witness, {})


def _rel_err(u: GradedVector, v: GradedVector) -> float:
    scale = max(u.norm_inf(), v.norm_inf(), 1.0)
    return u.distance(v) / scale


def check_associativity(preset: VAPreset, outer, inner, insertion,
                        window: DegreeWindow, tol: float = 1e-8,
                        k_cap: int = 40) -> CheckReport:
    """Composition property on the nested-configuration domain.

    ``outer`` is a list of (state, point) applied directly; ``inner`` a list
    of (state, point) with points relative to the insertion point.  Checks

      mu(outer, inner shifted by insertion)
        == sum_k mu(outer, p_k mu(inner), insertion)

    with the degree sum truncated adaptively.  The convergence curve
    (per-degree errors after each partial sum) is recorded.
    """
    z_out = [as_complex(z) for _, z in outer]
    w_in = [as_complex(w) for _, w in inner]
    zc = as_complex(insertion)
    if w_in:
        sep = min(abs(z - zc) for z in z_out) if z_out else math.inf
        if max(abs(w) for w in w_in) >= sep:
            raise DomainViolation("inner radius reaches an outer insertion")

    lhs = mu_numeric(preset,
                     [s for s, _ in outer] + [s for s, _ in inner],
                     z_out + [w + zc for w in w_in],
                     window, tol=tol * 1e-1)

    inner_window = DegreeWindow(0, k_cap)
    if len(inner) == 2:
        inner_pv = two_point_value(preset, inner[0][0], inner[1][0],
                                   w_in[0], w_in[1], inner_window)
    else:
        inner_pv = mu_numeric(preset, [s for s, _ in inner], w_in,
                              inner_window, tol=tol * 1e-3)

    acc = ProductVector(window)
    curve = []
    err = math.inf
    lhs_norm = max(lhs.norm_inf(), 1.0)
    used = 0
    for k in inner_window.degrees():
        pk = inner_pv.component(k)
        if pk:
            part = mu_numeric(preset, [s for s, _ in outer] + [pk],
                              z_out + [zc], window, tol=tol * 1e-2)
            acc = acc + part
            used = k
        err = max(lhs.component(d).distance(acc.component(d))
                  for d in window.degrees()) / lhs_norm
        curve.append(err)
        if err <= tol * 1e-1 and pk:
            break
    return CheckReport("associativity", err <= tol, err, tol,
                       {"insertion": str(insertion)},
                       {"inner_degrees_used": used, "curve": curve})


def check_permutation(preset: VAPreset, states, points, window: DegreeWindow,
                      tol: float = 1e-9) -> CheckReport:
    """Order independence of the numeric route, plus the exact transported
    opposite-product identity for two points."""
    worst = 0.0
    fwd = mu_numeric(preset, states, points, window, tol=tol * 1e-1)
    rev = mu_numeric(preset, list(reversed(states)), list(reversed(points)),
                     window, tol=tol * 1e-1)
    for k in window.degrees():
        worst = max(worst, _rel_err(fwd.component(k), rev.component(k)))
    return CheckReport("permutation_invariance", worst <= tol, worst, tol,
                       {}, {})


def check_skew_transport(preset: VAPreset, pairs, z, window: DegreeWindow) -> CheckReport:
    """Exact skew-symmetry Y(a, z) b = e^{zT} Y(b, -z) a, in the form
    mu(a, z, b, 0) == mu(b, 0, a, z): the right side expands b against a
    and transports the result by the translation flow to z."""
    ok = True
    witness = {}
    for a, b in pairs:
        lhs = two_point_value(preset, a, b, z, QQi(0), window)
        rhs = two_point_value(preset, b, a, QQi(0), z, window)
        for k in window.degrees():
            if lhs.component(k) != rhs.component(k):
                ok = False
                witness = {"degree": k, "z": str(z)}
    return CheckReport("skew_transport", ok, 0.0, 0.0, witness, {})


def check_meromorphicity(preset: VAPreset, max_degree: int = 5) -> CheckReport:
    """Pole orders stay within the grading bound and each degree component
    of a two-point product is a single Laurent monomial."""
    from .presets import basis_upto, pole_bound
    ok = True
    worst = 0
    witness = {}
    states = basis_upto(preset, max_degree)
    for am in states:
        a = GradedVector.basis(am)
        for bm in states:
            b = GradedVector.basis(bm)
            pb = pole_bound(preset, a, b)
            bound = a.degree() + b.degree() + 1
            if pb > bound:
                ok = False
                witness = {"a": a.to_obj(), "b": b.to_obj(), "pole_bound": pb}
            worst = max(worst, pb)
    return CheckReport("meromorphicity", ok, float(worst), 0.0, witness,
                       {"max_degree": max_degree})

"""Iterated residues: a term's functional paired with the scalars of the
multi-point map.

`mu.mode_box` writes the m-point map as state vectors times the scalars
prod (z_i - z_k)^t * z_{m-1}^j.  `Pairing` compiles the factors of one
term, a jet or a moment per coordinate, once:

* the elimination order: jets first, then moments from the innermost
  contour outward, so a jet meets only points and free variables, never a
  pole;
* the placement of the variables still free at each moment: they belong
  to larger contours, which lie outside it (contours that meet are
  refused), so every pole a moment meets sits at a point;
* a fixed list of bases, each a variable pair z_i - z_k (i < k) or a
  variable and a point z_i - p, where the points are the origin, the jet
  points and the moment centres.

An order-0 jet substitutes its point, so it rewrites the bases once, at
compile time: a difference of two substituted variables becomes a power
of a point difference, and z_i - z_k with z_i = p becomes -(z_k - p).
Every other integrand is a coefficient times an integer exponent tuple
over the bases, and each remaining coordinate is integrated out in turn.
An order-d jet at p takes the d-th Taylor coefficient at w = p by the
Leibniz rule.  A moment of (w - c)^n around |w - c| = r sums the residues
at the poles inside the contour: at a pole (w - b)^t, t < 0, the order
-t-1 Taylor coefficient at w = b of the other factors.  A factor
(z_k - w)^t moves to (w - z_k)^t with the sign (-1)^t, and a free z_k
leaves (b - z_k)^e = (-1)^e (z_k - b)^e.  Each power (p - q)^e of two
points is computed at most once per `Pairing`.

Arithmetic is plain: exact over Gaussian rationals, complex as soon as a
point is a float.  Whether a pole lies inside a contour, or one contour
inside another, is decided exactly by `geometry`, so a float pole counts
at its binary value.
"""
from __future__ import annotations

import itertools

from .errors import ExpansionDomainMismatch
from .functionals import DeltaJet
from .geometry import circle_vs_circle, point_in_circle
from .scalars import QQi, binom, is_exact, scalar_pow


class Pairing:
    """The scalar callback of `mu.mode_box` for the functional with
    ``factors``, one per coordinate: ``pairing(exps, j)`` applies them to
    prod (z_i - z_k)^t over ``exps`` ((i, k), t), i < k, times
    z_{m-1}^j.  Values and powers are memoized for the life of the
    instance."""

    def __init__(self, factors):
        m = len(factors)
        self.points = []
        at = [self._point(f.point if isinstance(f, DeltaJet) else f.center)
              for f in factors]
        origin = self._point(QQi(0))
        npts = len(self.points)
        var_base = [[None] * m for _ in range(m)]  # z_i - z_k, i < k
        for nb, (i, k) in enumerate(itertools.combinations(range(m), 2)):
            var_base[i][k] = var_base[k][i] = nb
        nb = m * (m - 1) // 2
        self.point_base = point_base = [
            list(range(nb + i * npts, nb + (i + 1) * npts)) for i in range(m)]
        self.nbases = nb + m * npts
        # where each input difference goes once the order-0 jets have
        # substituted their points: (None, p, q, False) for the power of a
        # point difference, (base, None, None, sign flip) otherwise
        subst = {v: at[v] for v, f in enumerate(factors)
                 if isinstance(f, DeltaJet) and not f.order}
        self.route = route = {}
        for i in range(m):
            for k in range(i + 1, m):
                if i in subst and k in subst:
                    route[(i, k)] = (None, subst[i], subst[k], False)
                elif i in subst:  # p - z_k = -(z_k - p)
                    route[(i, k)] = (point_base[k][subst[i]], None, None, True)
                elif k in subst:
                    route[(i, k)] = (point_base[i][subst[k]], None, None, False)
                else:
                    route[(i, k)] = (var_base[i][k], None, None, False)
        if m:
            last = m - 1
            route[None] = ((None, subst[last], origin, False)
                           if last in subst else
                           (point_base[last][origin], None, None, False))
        order = sorted((v for v in range(m) if v not in subst), key=lambda v: (
            (0, 0) if isinstance(factors[v], DeltaJet)
            else (1, factors[v].radius)))
        self.steps = []
        for s, v in enumerate(order):
            f, free = factors[v], order[s + 1:]
            # z_k - z_v = -(z_v - z_k) for k < v
            var_touch = [(var_base[v][k], k, k < v) for k in free]
            point_touch = [(point_base[v][q], q) for q in range(npts)]
            if isinstance(f, DeltaJet):
                moment, n = None, f.order
            else:
                # the variables still free belong to contours no smaller
                # than this one, so each lies outside it unless they meet
                for k in free:
                    g = factors[k]
                    if circle_vs_circle(g.center, g.radius, f.center,
                                        f.radius) is None:
                        raise ExpansionDomainMismatch("contours intersect")
                moment, n = (f, {}), f.exponent
            self.steps.append((var_touch, point_touch, at[v], n, moment))
        self._powers = {}
        self._rows = {}
        self._memo = {}

    def _point(self, p) -> int:
        """Index of the point p, merged with an equal one; a float value
        replaces an equal exact one, so the arithmetic stays complex."""
        for n, q in enumerate(self.points):
            if q == p:
                if not is_exact(p):
                    self.points[n] = p
                return n
        self.points.append(p)
        return len(self.points) - 1

    def __call__(self, exps, j):
        key = (exps, j)
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = self._pair(exps, j)
        return val

    def _pair(self, exps, j):
        route = self.route
        vec = [0] * self.nbases
        coeff = 1
        for ik, t in (*exps, (None, j)):
            b, p, q, flip = route[ik]
            if b is None:
                coeff = coeff * self._power(p, q, t)
            else:
                vec[b] += t
                if flip and t & 1:
                    coeff = -coeff
        if self.steps and coeff:
            terms = {tuple(vec): coeff}
            for step in self.steps:
                terms = self._integrate(step, terms)
            coeff = (sum(terms.values()) if len(terms) > 1
                     else next(iter(terms.values()), 0))
        return coeff

    def _power(self, p: int, q: int, e: int):
        """(points[p] - points[q])**e, computed once per (p, q, e); the
        difference itself is kept as the power e = 1."""
        if not e:
            return 1
        powers = self._powers
        val = powers.get((p, q, e))
        if val is None:
            base = powers.get((p, q, 1))
            if base is None:
                base = powers[(p, q, 1)] = self.points[p] - self.points[q]
            try:
                val = powers[(p, q, e)] = scalar_pow(base, e)
            except ZeroDivisionError:
                raise ExpansionDomainMismatch("jet taken at a pole") from None
        return val

    def _integrate(self, step, terms):
        """Integrate one coordinate out of ``terms`` {exponent tuple:
        coeff}: its jet or its moment."""
        var_touch, point_touch, at, n, moment = step
        out = {}
        for vec, coeff in terms.items():
            rest = list(vec)
            syms = []
            for b, k, flip in var_touch:
                t = vec[b]
                if t:
                    rest[b] = 0
                    if flip and t & 1:
                        coeff = -coeff
                    syms.append((k, t))
            pts = []
            for b, q in point_touch:
                t = vec[b] + n if moment and q == at else vec[b]
                if t:
                    rest[b] = 0
                    pts.append((q, t))
            pieces = (self._taylor(pts, syms, n, at) if moment is None
                      else self._residues(pts, syms, moment))
            for c, adds in pieces:
                if not c:
                    continue
                if adds:
                    nv = rest.copy()
                    for b, e in adds:
                        nv[b] += e
                    key = tuple(nv)
                else:
                    key = tuple(rest)
                c = coeff * c if coeff != -1 else -c
                if key in out:
                    c = out[key] + c
                    if not c:
                        del out[key]
                        continue
                out[key] = c
        return out

    def _residues(self, pts, syms, moment):
        """The moment's pieces: sum of the residues at the poles inside
        its contour, all at points."""
        f, sides = moment
        pieces = []
        for idx, (q, t) in enumerate(pts):
            if t >= 0:
                continue
            side = sides.get(q)
            if side is None:
                side = sides[q] = point_in_circle(self.points[q], f.center,
                                                  f.radius)
            if side == 0:
                raise ExpansionDomainMismatch("pole sits on the contour")
            if side < 0:
                pieces += self._taylor(pts[:idx] + pts[idx + 1:], syms,
                                       -t - 1, q)
        return pieces

    def _taylor(self, pts, syms, d, p):
        """[(coeff, [(base, e)])]: the order-d Taylor coefficient at w = p
        of prod (w - z_k)^t over syms [(k, t)] times prod (w - q)^t over
        pts [(q, t)], by the Leibniz rule: the sum over i_1 + ... = d of
        prod C(t, i) (p - b)^(t - i).  A free z_k leaves
        (p - z_k)^e = (-1)^e (z_k - p)^e, exponent e on the base (k, p);
        the last factor takes the order the others leave."""
        if any(q == p and t < 0 for q, t in pts):  # (w - p)^t at w = p
            raise ExpansionDomainMismatch("jet taken at a pole")
        factors = [(self.point_base[k][p], None, t) for k, t in syms]
        factors += [(None, q, t) for q, t in pts]
        last = len(factors) - 1
        out = []

        def compose(idx, left, coeff, adds):
            if idx > last:
                if not left:
                    out.append((coeff, adds))
                return
            b, q, t = factors[idx]
            if idx < last:
                row = self._row(t, d)
            else:
                c = binom(t, left)
                row = ((left, c),) if c else ()
            for i, c in row:
                if i > left:
                    break
                e = t - i
                if b is not None:
                    compose(idx + 1, left - i, -coeff * c if e & 1 else
                            coeff * c, adds + [(b, e)])
                elif q != p:
                    compose(idx + 1, left - i,
                            coeff * c * self._power(p, q, e), adds)
                elif not e:  # (w - p)^t at w = p leaves only i = t
                    compose(idx + 1, left - i, coeff * c, adds)

        compose(0, d, 1, [])
        return out

    def _row(self, t: int, d: int):
        """The nonzero binomials (i, C(t, i)) for i = 0 .. d, built once
        per (t, d)."""
        row = self._rows.get((t, d))
        if row is None:
            row = self._rows[(t, d)] = [(i, c) for i in range(d + 1)
                                        if (c := binom(t, i))]
        return row

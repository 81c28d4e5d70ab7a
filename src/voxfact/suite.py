"""Deterministic check suite with stable labels and table emission."""
from __future__ import annotations

import cmath
import csv
import io
import json
import random
import time
from fractions import Fraction

from .expressions import Expression
from .functionals import CircleMoment, DeltaJet
from .geometry import Annulus, Disc
from .graded import GradedVector
from .mu import (check_associativity, check_equivariance,
                 check_insertion_at_zero, check_meromorphicity,
                 check_permutation)
from .oracle import _oracle, oracle_mode_mono
from .presets import (VAPreset, _sm, basis_upto, pole_bound,
                      preset_from_name, state_mode_mono, translate)
from .relations import (check_weight_idempotent, check_weight_partition,
                        check_weight_quadrature, concentric_density_check,
                        lowest_state, multiplicativity_check,
                        relation_kernel, roundtrip_check, run_counterexample,
                        weiss_cover_check)
from .report import CheckReport
from .scalars import DegreeWindow, QQi

SUITE_LABELS = (
    "mode_iterate_matches_oracle",
    "insertion_at_zero",
    "equivariance_exact",
    "equivariance_numeric",
    "associativity_nested",
    "permutation_invariance",
    "skew_transport",
    "meromorphicity_pole_bounds",
    "weight_projection_quadrature",
    "weight_projection_partition",
    "weight_projection_idempotent",
    "embedding_roundtrip",
    "kernel_not_an_ideal",
    "concentric_density",
    "relation_kernel_exact",
    # these three evaluate nothing, so they run once, on no preset
    "multiplicativity_support_partition",
    "weiss_cover_accept",
    "weiss_cover_reject",
)


def check_mode_oracle(preset: VAPreset, max_degree: int) -> CheckReport:
    """The iterate-based state modes agree with the normal-ordered field
    oracle on every PBW basis pair, for every mode index with output in
    the nonnegative degrees.  Both integer tables are in the same basis of
    rescaled generators, so they are compared as they are; only the last
    differing triple is lifted, for the witness."""
    states = basis_upto(preset, max_degree)
    bad = None
    count = 0
    for am in states:
        da = sum(m for _, m in am)
        for bm in states:
            db = sum(m for _, m in bm)
            for n in range(-2, da + db + 1):
                count += 1
                if _sm(preset, am, n, bm) != _oracle(preset, am, n, bm):
                    bad = am, n, bm
    witness = {}
    if bad is not None:
        am, n, bm = bad
        witness = {"a": list(map(list, am)), "b": list(map(list, bm)),
                   "n": n,
                   "iterate": state_mode_mono(preset, am, n, bm).to_obj(),
                   "oracle": oracle_mode_mono(preset, am, n, bm).to_obj()}
    return CheckReport("mode_iterate_matches_oracle", bad is None,
                       0.0, 0.0, witness,
                       {"pairs_checked": count, "max_degree": max_degree})


def _random_state(rng: random.Random, preset: VAPreset, max_degree: int,
                  terms: int = 2) -> GradedVector:
    pool = basis_upto(preset, max_degree)[1:]  # skip the vacuum
    out = GradedVector.zero()
    for _ in range(terms):
        mono = rng.choice(pool)
        coeff = QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        if coeff:
            out = out + GradedVector.basis(mono, coeff)
    if not out:
        out = GradedVector.basis(pool[0])
    return out


def _random_point(rng: random.Random) -> QQi:
    return QQi(Fraction(rng.randint(-4, 4), rng.randint(2, 5)),
               Fraction(rng.randint(-4, 4), rng.randint(2, 5)))


def run_suite(*, presets=("heisenberg", "virasoro", "affine_sl2"), c=None,
              level=None, window: DegreeWindow = DegreeWindow(0, 6),
              seed: int = 2024, mode_degree: int = 4, only=None):
    """Run the checks labelled in ``only`` (every check in `SUITE_LABELS`
    when None) on each preset named in ``presets``, built with the central
    charge ``c`` and level ``level``; returns an ordered list of (label,
    preset name, CheckReport, seconds).  ``mode_degree`` bounds the basis
    states of the mode, insertion, pole and embedding checks.  Each check
    that evaluates runs once per preset, on inputs drawn from the stream
    seeded by ``seed`` and the preset's name, so a preset's rows do not
    depend on the presets before it; the checks that evaluate nothing run
    once after them, with preset name "".  An unknown label or a negative
    ``mode_degree`` is a ValueError."""
    unknown = set(only or ()) - set(SUITE_LABELS)
    if unknown:
        raise ValueError(f"unknown suite labels: {sorted(unknown)}")
    if mode_degree < 0:
        raise ValueError(f"mode degree {mode_degree} is negative")
    results = []

    def record(label, preset_name, fn):
        if only and label not in only:
            return
        t0 = time.perf_counter()
        rep = fn()
        dt = time.perf_counter() - t0
        results.append((label, preset_name, rep, dt))

    for preset in [preset_from_name(p, c=c, level=level) for p in presets]:
        name = preset.kind
        rng = random.Random(f"{seed}/{name}")
        record("mode_iterate_matches_oracle", name,
               lambda: check_mode_oracle(preset, mode_degree))
        record("insertion_at_zero", name,
               lambda: check_insertion_at_zero(preset, mode_degree))

        exact = [([_random_state(rng, preset, 3) for _ in range(2)],
                  [_random_point(rng) + QQi(3), QQi(0)], _nonzero(rng))
                 for _ in range(10)]
        record("equivariance_exact", name,
               lambda: check_equivariance(preset, exact, window))

        configs = [([_random_state(rng, preset, 2, terms=1) for _ in range(3)],
                    [m * _phase(rng) for m in (4.0, 1.0, 0.25)],
                    0.7 * _phase(rng)) for _ in range(4)]
        record("equivariance_numeric", name,
               lambda: check_equivariance(preset, configs,
                                          DegreeWindow(0, 4)))
        record("associativity_nested", name,
               lambda: _associativity_case(preset))

        floats = [([_random_state(rng, preset, 2, terms=1) for _ in range(2)],
                   [3.0 + 0.1j, 0.5 - 0.2j])]
        record("permutation_invariance", name,
               lambda: check_permutation(preset, floats,
                                         DegreeWindow(0, 4)))
        # skew-symmetry Y(a, z) b = e^{zT} Y(b, -z) a: reversal at (z, 0)
        skew = [([_random_state(rng, preset, 3) for _ in range(2)],
                 [QQi(Fraction(5, 2)), QQi(0)]) for _ in range(5)]
        record("skew_transport", name,
               lambda: check_permutation(preset, skew, window))
        record("meromorphicity_pole_bounds", name,
               lambda: check_meromorphicity(preset, mode_degree))

        samples = [(_random_state(rng, preset, 3), _random_point(rng),
                    rng.randrange(window.lo, window.hi + 1))
                   for _ in range(8)]
        record("weight_projection_quadrature", name,
               lambda: check_weight_quadrature(preset, samples, window))

        carrier = Disc(QQi(0), Fraction(4))
        exprs = [Expression.single(carrier, [DeltaJet(_random_point(rng), 0)],
                                   [_random_state(rng, preset, 3)])
                 for _ in range(6)]
        record("weight_projection_partition", name,
               lambda: check_weight_partition(preset, exprs, window))
        record("weight_projection_idempotent", name,
               lambda: check_weight_idempotent(preset, exprs[:2],
                                               DegreeWindow(0, 3)))
        record("embedding_roundtrip", name,
               lambda: roundtrip_check(preset, mode_degree))
        record("kernel_not_an_ideal", name,
               lambda: run_counterexample(1, preset, DegreeWindow(0, 4))[0])
        record("concentric_density", name,
               lambda: _density_case(preset, window))
        record("relation_kernel_exact", name, lambda: _kernel_case(preset))

    record("multiplicativity_support_partition", "", _multiplicativity_case)
    record("weiss_cover_accept", "", _weiss_accept)
    record("weiss_cover_reject", "", _weiss_reject)
    return results


def _phase(rng: random.Random) -> complex:
    return cmath.exp(2j * cmath.pi * rng.random())


def _nonzero(rng: random.Random) -> QQi:
    while True:
        q = QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if q:
            return q


def _associativity_case(preset):
    """Nested associativity: the lowest state a of the first generator
    outside and inside, beside T y = y_{-w_y-1}|0> for the lowest state y
    with the highest pole against a (on affine_sl2 f, as e_(n) e = 0 for
    n >= 0)."""
    a = lowest_state(preset, preset.generators[0])
    y = max((lowest_state(preset, g) for g in preset.generators),
            key=lambda s: pole_bound(preset, a, s))
    return check_associativity(
        preset, [(a, QQi(4, Fraction(3, 10)))],
        [(a, QQi(Fraction(3, 10), Fraction(1, 10))),
         (translate(preset, y), QQi(Fraction(-9, 20)))],
        QQi(Fraction(11, 10), Fraction(-1, 5)), DegreeWindow(0, 4))


def _density_case(preset, window):
    """The translation relation delta_p^(1) (x) a - delta_p (x) T a, zero
    since d/dp mu(a, p) = mu(T a, p), along its dilation orbit; its two
    terms scale alike only when a jet of order d is pushed forward with
    the factor lambda^d."""
    a = lowest_state(preset, preset.generators[0])
    carrier = Disc(QQi(0), Fraction(3))
    p = QQi(Fraction(1, 2))
    relation = (Expression.single(carrier, [DeltaJet(p, 1)], [a])
                + Expression.single(carrier, [DeltaJet(p, 0)],
                                    [translate(preset, a)], coeff=QQi(-1)))
    qs = [QQi(Fraction(1, 2)), QQi(Fraction(3, 4), Fraction(1, 4)),
          0.6 + 0.3j]
    return concentric_density_check(preset, relation, QQi(0), qs, window)


def _multiplicativity_case():
    """Products of delta families on two disjoint discs, at the vacuum."""
    a = GradedVector.vacuum()
    u = Disc(QQi(-2), Fraction(1))
    v = Disc(QQi(2), Fraction(1))
    fam_u = [Expression.single(u, [DeltaJet(z, 0)], [a])
             for z in (QQi(-2), QQi(Fraction(-3, 2)))]
    fam_v = [Expression.single(v, [DeltaJet(z, 0)], [a])
             for z in (QQi(2), QQi(Fraction(5, 2), Fraction(1, 4)))]
    return multiplicativity_check(u, v, Disc(QQi(0), Fraction(4)),
                                  fam_u, fam_v)


def _weiss_accept():
    a = GradedVector.vacuum()
    ambient = Disc(QQi(0), Fraction(4))
    cover = [Disc(QQi(0), Fraction(1)), Disc(QQi(0), Fraction(2)),
             Disc(QQi(0), Fraction(3))]
    exprs = [Expression.single(ambient, [DeltaJet(QQi(Fraction(1, 2)), 0),
                                         DeltaJet(QQi(Fraction(-1, 2)), 0)],
                               [a, a]),
             Expression.single(ambient,
                               [DeltaJet(QQi(Fraction(3, 2)), 0)], [a])]
    return weiss_cover_check(cover, exprs)


def _weiss_reject():
    a = GradedVector.vacuum()
    ambient = Disc(QQi(0), Fraction(4))
    cover = [Disc(QQi(-2), Fraction(3, 2)), Disc(QQi(2), Fraction(3, 2))]
    exprs = [Expression.single(ambient, [DeltaJet(QQi(-2), 0),
                                         DeltaJet(QQi(2), 0)], [a, a])]
    rep = weiss_cover_check(cover, exprs)
    # the check must fail on this cover; report the rejection as a pass
    return CheckReport("weiss_cover_reject", not rep.passed, rep.max_err,
                       rep.tol, rep.witness, rep.truncation)


def _kernel_case(preset):
    a = lowest_state(preset, preset.generators[0])
    u1 = Annulus(QQi(0), Fraction(1), Fraction(2))
    x = Expression.single(u1, [CircleMoment(QQi(0), Fraction(3, 2), 1)], [a])
    carrier = Disc(QQi(0), Fraction(1))
    e1 = Expression.single(carrier, [DeltaJet(QQi(0), 0)], [a])
    e2 = e1.scale(QQi(2))
    window = DegreeWindow(0, 4)
    basis = relation_kernel(preset, [e1, e2], window)
    ok = len(basis) == 1 and basis[0][0] == QQi(-2) and basis[0][1] == QQi(1)
    basis_x = relation_kernel(preset, [x], window)
    ok = ok and len(basis_x) == 1  # the annulus moment already evaluates to 0
    witness = {"kernel_dim": len(basis), "moment_kernel_dim": len(basis_x)}
    return CheckReport("relation_kernel_exact", ok, 0.0, 0.0, witness, {})


# ---------------------------------------------------------------------------
# output


def suite_rows(results):
    rows = []
    for label, preset_name, rep, dt in results:
        rows.append({"label": label, "preset": preset_name,
                     "pass": rep.passed, "max_err": rep.max_err,
                     "tol": rep.tol, "seconds": round(dt, 4)})
    return rows


def emit_tables(results, fmt: str = "json") -> str:
    rows = suite_rows(results)
    if fmt == "json":
        payload = {"rows": rows,
                   "reports": [{"label": l, "preset": p, **r.to_obj()}
                               for l, p, r, _ in results]}
        return json.dumps(payload, sort_keys=True, indent=2, default=str)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["label", "preset", "pass",
                                                 "max_err", "tol", "seconds"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")

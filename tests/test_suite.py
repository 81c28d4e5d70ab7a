"""The labeled check suite: coverage, determinism, table emission."""
import json

import pytest

from voxfact import expressions, functionals
from voxfact.presets import _sm, preset_from_name
from voxfact.scalars import DegreeWindow
from voxfact.suite import (SUITE_LABELS, _density_case, check_mode_oracle,
                           emit_tables, run_suite, suite_rows)


PRESETS = ("heisenberg", "virasoro", "affine_sl2")
# the labels that evaluate nothing run once, on no preset
PRESET_FREE = ("multiplicativity_support_partition", "weiss_cover_accept",
               "weiss_cover_reject")
PER_PRESET = [label for label in SUITE_LABELS if label not in PRESET_FREE]


@pytest.fixture(scope="module")
def rows():
    return run_suite(presets=PRESETS, mode_degree=2)


def test_all_labels_covered(rows):
    seen = {label for label, _, _, _ in rows}
    assert seen == set(SUITE_LABELS)


def test_all_pass(rows):
    failures = [(label, rep) for label, _, rep, _ in rows if not rep.passed]
    assert not failures, failures


def test_only_filter():
    out = run_suite(presets=("heisenberg",), mode_degree=2,
                    only=("insertion_at_zero",))
    assert {label for label, _, _, _ in out} == {"insertion_at_zero"}


def test_unknown_label_is_refused():
    with pytest.raises(ValueError, match=r"unknown suite labels: \['typo'\]"):
        run_suite(only=("insertion_at_zero", "typo"))


def test_negative_mode_degree_is_refused():
    # degree -1 has no basis state, so its rows would pass over nothing
    with pytest.raises(ValueError, match="mode degree -1 is negative"):
        run_suite(presets=("heisenberg",), mode_degree=-1,
                  only=("mode_iterate_matches_oracle",))


def test_rows_cover_each_preset_once():
    # 15 labels per preset, then the 3 preset-free rows
    assert len(PER_PRESET) == 15
    out = run_suite(presets=PRESETS, mode_degree=2,
                    only=("insertion_at_zero", *PRESET_FREE))
    assert [(label, p) for label, p, _, _ in out] == [
        *(("insertion_at_zero", p) for p in PRESETS),
        *((label, "") for label in PRESET_FREE)]


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("label", PER_PRESET)
def test_label_passes_on_every_preset(rows, label, preset):
    [rep] = [rep for l, p, rep, _ in rows if (l, p) == (label, preset)]
    assert rep.passed, rep.witness


def test_preset_rows_do_not_depend_on_the_presets_before():
    # each preset draws its inputs from its own stream, and a row names
    # only a preset it was given
    alone = run_suite(presets=("virasoro",), mode_degree=2)
    after = run_suite(presets=("heisenberg", "virasoro"), mode_degree=2)
    assert {p for _, p, _, _ in alone} == {"virasoro", ""}
    assert {p for _, p, _, _ in after} == {"heisenberg", "virasoro", ""}
    reports = lambda rows: [(l, rep.to_obj()) for l, p, rep, _ in rows
                            if p == "virasoro"]
    assert reports(alone) == reports(after)
    assert len(reports(alone)) == 15


def test_deterministic_reports():
    cfg = dict(presets=("heisenberg",), mode_degree=2,
               only=("equivariance_exact", "relation_kernel_exact"))
    r1 = run_suite(**cfg)
    r2 = run_suite(**cfg)
    strip = lambda rows: [(l, p, rep.to_obj()) for l, p, rep, _ in rows]
    assert strip(r1) == strip(r2)


def test_emit_tables(tmp_path, rows):
    data = json.loads(emit_tables(rows, "json"))
    assert len(data["rows"]) == len(rows)
    header = emit_tables(rows, "csv").splitlines()[0]
    assert "label" in header and "max_err" in header
    with pytest.raises(ValueError):
        emit_tables(rows, "xml")


def test_suite_rows_shape(rows):
    table = suite_rows(rows)
    assert all(set(r) >= {"label", "preset", "pass", "max_err"} for r in table)


# each check's own float tolerance; every other label compares only exact
# values, so its row reads 0.0
FLOAT_TOL = {"equivariance_numeric": 1e-8, "permutation_invariance": 1e-9,
             "concentric_density": 1e-9, "weight_projection_quadrature": 1e-9,
             "weight_projection_partition": 1e-9,
             "weight_projection_idempotent": 1e-9}


def test_tol_column_is_fixed_per_label(rows):
    got = {(row["label"], row["tol"]) for row in suite_rows(rows)}
    assert got == {(label, FLOAT_TOL.get(label, 0.0))
                   for label in SUITE_LABELS}


def test_mode_oracle_row_fails_on_a_wrong_table():
    # the row compares the integer tables, so a wrong entry in the iterate
    # memo must fail it, with both sides lifted into the witness
    p = preset_from_name("virasoro", c=7)
    a = b = (("L", 2),)
    _sm(p, a, -2, b)            # fills the field of (a, b) down to n = -2
    hi, field = p._memos["sm"][(a, b)]
    i = hi - 1 - 1              # the index of the table at n = 1
    good = field[i]
    field[i] = {mono: -c for mono, c in good.items()}
    try:
        rep = check_mode_oracle(p, 2)
    finally:
        field[i] = good
    assert not rep.passed
    assert rep.witness["n"] == 1
    assert rep.witness["iterate"]["terms"][0]["re"] == "-2"
    assert rep.witness["oracle"]["terms"][0]["re"] == "2"
    assert check_mode_oracle(p, 2).passed


@pytest.mark.parametrize("name", ["heisenberg", "virasoro", "affine_sl2"])
def test_density_row_holds_and_can_fail(monkeypatch, name):
    # the row's relation delta_p^(1) (x) a - delta_p (x) T a is zero along
    # the orbit only if a jet of order d is pushed forward with lambda^d;
    # a relation that normalises to the zero expression would hold
    # whatever the pushforward did
    p = preset_from_name(name)
    window = DegreeWindow(0, 4)
    assert _density_case(p, window).passed

    def unscaled(factor, lam, shift):
        s, pushed = functionals.pushforward_factor(factor, lam, shift)
        return (1, pushed) if isinstance(factor, functionals.DeltaJet) \
            else (s, pushed)

    monkeypatch.setattr(expressions, "pushforward_factor", unscaled)
    assert not _density_case(p, window).passed

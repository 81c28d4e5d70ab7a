"""The command-line scripts under scripts/ run to completion."""
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(__file__).resolve().parent / "data"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, argv", [
    ("mode_tables", ["--max-degree", "2"]),
    ("mode_tables", ["--json", "--max-degree", "2", "--preset", "heisenberg",
                     "affine_sl2", "--level", "1,2/3"]),
], ids=["mode_tables", "mode_tables_json"])
def test_script_exits_zero(name, argv, capsys):
    assert _main(name)(argv) == 0
    assert capsys.readouterr().out


def test_mode_tables_json_remakes_golden_file(capsys):
    # two of the presets of tests/data/parent_mode_tables.json, remade
    assert _main("mode_tables")(["--json", "--preset", "heisenberg",
                                 "virasoro", "--c", "1/3"]) == 0
    got = json.loads(capsys.readouterr().out)
    golden = json.loads((DATA / "parent_mode_tables.json").read_text())
    assert got == [t for t in golden
                   if (t["preset"], t["c"]) in {("heisenberg", "0"),
                                                ("virasoro", "1/3")}]


def _run_record(ops, p50, correct=True, rss=27.0):
    values = {"ops_per_s": ops, "op_p50_ms": p50, "op_p90_ms": 5 * p50,
              "ok_ratio": 1.0, "setup_s": 0.15, "peak_rss_mb": rss}
    return {"correct": correct, "attempted": int(ops * 20), "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"}
                        for k, v in values.items()}}


def test_bench_pairs_summary_and_claim():
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    module = _main("bench_pairs").__globals__
    parent = [450, 460, 455, 470, 440]
    change = [560, 550, 570, 545, 430]     # behind in the last pair
    pairs = [{"seed": 10 + i, "first": ("parent", "change")[i % 2],
              "parent": _run_record(p, 1000 / p),
              "change": _run_record(c, 1000 / c)}
             for i, (p, c) in enumerate(zip(parent, change))]
    got = module["summarize_pairs"](pairs, spec["end_to_end"])
    assert got["seeds"] == [10, 11, 12, 13, 14] and got["pairs"] == 5
    assert got["first_in_pair"] == ["parent", "change"] * 2 + ["parent"]
    assert got["all_correct"] and got["failed"]["change"] == [0] * 5
    ops = got["metrics"]["ops_per_s"]
    # the quartiles of perfbench/collect.py (statistics.quantiles' default)
    assert ops["parent"] == {"median": 455, "q1": 445, "q3": 465,
                             "runs": parent}
    assert ops["change"]["median"] == 550 and ops["within_bound"]
    assert ops["change_better_in_pairs"] == 4
    assert abs(ops["relative_change_of_medians"] - 95 / 455) < 1e-12
    # lower is better: the faster side has the smaller p50 in four pairs
    assert got["metrics"]["op_p50_ms"]["change_better_in_pairs"] == 4
    assert got["metrics"]["setup_s"]["change_better_in_pairs"] == 0
    claim = module["claim_block"]({"mode_cold": got},
                                  "mode_cold:ops_per_s:1.18")
    assert claim["ratio_of_medians"] == 550 / 455
    assert claim["parent_iqr"] == 20 and claim["pairs"] == 5
    assert not claim["met"]                 # 4 of 5 pairs is below 9 in 10
    pairs[-1]["change"] = _run_record(480, 1000 / 480)
    got = module["summarize_pairs"](pairs, spec["end_to_end"])
    assert module["claim_block"]({"mode_cold": got},
                                 "mode_cold:ops_per_s:1.18")["met"]
    assert not module["claim_block"]({"mode_cold": got},
                                     "mode_cold:ops_per_s:1.25")["met"]
    pairs[0]["change"] = _run_record(900, 1.0, correct=False)
    assert not module["summarize_pairs"](pairs,
                                         spec["end_to_end"])["all_correct"]
    # slower by more than the 25 % bound
    slow = [dict(p, change=_run_record(300, 1000 / 300)) for p in pairs]
    assert not module["summarize_pairs"](slow, spec["end_to_end"])[
        "metrics"]["ops_per_s"]["within_bound"]


def test_bench_pairs_rss_against_the_op_count():
    # peak RSS = 20 MiB + 0.2 MiB per 1000 attempted ops (20 s runs), the
    # change side offset by `extra` MiB: the slope is fitted within each
    # side, so the offset is neither read as slope nor netted out
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    module = _main("bench_pairs").__globals__
    parent = [450, 460, 455, 470, 440]
    change = [560, 550, 570, 545, 530]

    def pairs(extra):
        return [{"seed": i, "first": "parent",
                 "parent": _run_record(p, 1000 / p, rss=20 + 0.004 * p),
                 "change": _run_record(c, 1000 / c,
                                       rss=20 + 0.004 * c + extra)}
                for i, (p, c) in enumerate(zip(parent, change))]
    for extra in (0.0, 1.5):
        got = module["summarize_pairs"](pairs(extra), spec["end_to_end"])
        block = got["rss_vs_ops"]
        par_rss = 20 + 0.004 * 455
        assert block["attempted_relative_change_of_medians"] == \
            pytest.approx(95 / 455)
        assert block["peak_rss_relative_change_of_medians"] == \
            pytest.approx((0.004 * 95 + extra) / par_rss)
        assert block["peak_rss_mib_per_1000_ops"] == pytest.approx(0.2)
        assert block["peak_rss_net_relative_change"] == \
            pytest.approx(extra / par_rss, abs=1e-12)
    # no spread of op counts within a side: no slope, no net change
    flat = [dict(p, parent=_run_record(450, 1.0, rss=21.0),
                 change=_run_record(550, 1.0, rss=22.0)) for p in pairs(0)]
    block = module["summarize_pairs"](flat, spec["end_to_end"])["rss_vs_ops"]
    assert block["peak_rss_mib_per_1000_ops"] is None
    assert block["peak_rss_net_relative_change"] is None
    assert block["peak_rss_relative_change_of_medians"] == \
        pytest.approx(1 / 21)


def test_bench_pairs_seed_ranges():
    module = _main("bench_pairs").__globals__
    assert module["parse_seeds"]("2101-2103,2110") == [2101, 2102, 2103, 2110]


def test_bench_pairs_refuses_a_record_of_another_parent(tmp_path,
                                                       monkeypatch):
    # the rev lookup is stubbed, so the test runs outside a git checkout
    main = _main("bench_pairs")
    git = lambda args, **kw: SimpleNamespace(stdout="1234567\n")
    monkeypatch.setitem(main.__globals__, "subprocess",
                        SimpleNamespace(run=git))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"parent": "0000000", "run_seconds": 20}))
    with pytest.raises(SystemExit, match="parent '0000000', not '1234567'"):
        main(["--parent", "HEAD", "--workload", "mode_cold", "--seeds", "1",
              "--out", str(out)])


def test_bench_pairs_raises_on_a_failed_run(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('machine: nproc=1 python=3 cpu=x')\n"
        "sys.exit('crashed after the machine line')\n")
    run = _main("bench_pairs").__globals__["_run"]
    with pytest.raises(RuntimeError, match="crashed after the machine line"):
        run(tmp_path, "mode_cold", 1, 1)


def test_bench_arity_records_a_rung(tmp_path, monkeypatch, capsys):
    # both sides run this checkout's src/, so no git archive is needed
    main = _main("bench_arity")
    for key, value in (("_short_rev", lambda rev: "abc1234"),
                       ("_tree", lambda side, rev, into: SCRIPTS.parent),
                       ("LADDER", [("affine_sl2", 3, ["e(-1)", "h(-2) + "
                                                      "e(-1)f(-1)"])]),
                       ("WINDOWS", ["0:1"]), ("RUNS", 2)):
        monkeypatch.setitem(main.__globals__, key, value)
    out = tmp_path / "ladder.json"
    assert main(["--parent", "HEAD", "--out", str(out)]) == 0
    assert "affine_sl2:3" in capsys.readouterr().out
    record = json.loads(out.read_text())
    assert record["parent"] == "abc1234" and record["runs"] == 2
    (rung,) = record["rungs"]
    assert (rung["preset"], rung["arity"], rung["window"]) == \
        ("affine_sl2", 3, "0:1")
    assert rung["states"] == ["e(-1)", "h(-2) + e(-1)f(-1)"]
    for side in ("parent", "change"):
        assert len(rung[side]["runs_s"]) == 2
        assert rung[side]["median_s"] > 0


def test_bench_arity_records_timeouts():
    rung_record = _main("bench_arity").__globals__["rung_record"]
    row = rung_record({"parent": [None], "change": [0.5, 0.25, 1.0]})
    assert row["parent"] == {"median_s": "timeout", "runs_s": [None]}
    assert row["change"]["median_s"] == 0.5 and row["speedup"] == ">120"
    row = rung_record({"parent": [2.0, 4.0], "change": [0.5, 0.5]})
    assert row["speedup"] == 6.0
    assert rung_record({"parent": [1.0], "change": [None]})["speedup"] is None


def test_same_outputs_on_one_checkout(monkeypatch, capsys):
    # both sides run this checkout's src/, so every output is the same
    main = _main("same_outputs")
    monkeypatch.setitem(main.__globals__, "_tree",
                        lambda side, rev, into: SCRIPTS.parent)
    assert main(["--parent", "HEAD", "--seeds", "3", "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == \
        ["point_maps seed=3", "functionals seed=3"]
    total = json.loads(lines[-1])
    assert total["differing"] == total["exact_mismatch"] == 0
    assert total["exact_equal"] > 0 and total["float_identical"] > 0


def test_same_outputs_suite_on_one_checkout(monkeypatch, capsys):
    # both sides run this checkout's suite, cut to two labels on one preset
    main = _main("same_outputs")
    monkeypatch.setitem(main.__globals__, "_tree",
                        lambda side, rev, into: SCRIPTS.parent)
    monkeypatch.setitem(main.__globals__, "SUITE", [
        "suite", "--format", "json", "--presets", "heisenberg",
        "--mode-degree", "2", "--only",
        "insertion_at_zero,weiss_cover_accept"])
    assert main(["--parent", "HEAD", "--suite"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == [
        "suite: rows equal 2 of 2, reports equal 2 of 2, seconds not "
        "compared"]


def test_same_outputs_suite_names_each_differing_field():
    compare_suite = _main("same_outputs").__globals__["compare_suite"]
    row = {"label": "x", "preset": "heisenberg", "pass": True,
           "max_err": 0.0, "tol": 1e-9, "seconds": 0.5}
    report = {"label": "x", "preset": "heisenberg", "pass": True,
              "witness": {}}
    parent = {"rows": [row], "reports": [report]}
    got = compare_suite(parent, {"rows": [{**row, "seconds": 9.0}],
                                 "reports": [report]})
    assert (got["rows_equal"], got["reports_equal"], got["differences"]) \
        == (1, 1, [])
    got = compare_suite(parent, {"rows": [{**row, "tol": 0.0}],
                                 "reports": [report, report]})
    assert (got["rows"], got["rows_equal"]) == (1, 0)
    assert (got["reports"], got["reports_equal"]) == (2, 1)
    assert got["differences"] == [
        "rows x/heisenberg: tol",
        "reports x/heisenberg: label, pass, preset, witness"]


def test_same_outputs_counts_each_kind_of_difference():
    compare = _main("same_outputs").__globals__["compare"]
    exact = ("two_point", [[["2", "a(-2)"], "QQi", "QQi(Fraction(1, 2), "
                            "Fraction(0, 1))"]])
    flt = ("numeric2", [[["2", "a(-2)"], "complex", "(0.5+0j)"],
                        [["3", "a(-3)"], "complex", "(2+0j)"]])
    got = compare([exact, flt], [exact, flt])
    assert (got["exact_equal"], got["float_identical"], got["differing"]) \
        == (1, 1, 0)
    # a float moved in its last bit: a difference, relative per degree
    moved = ("numeric2", [flt[1][0], [["3", "a(-3)"], "complex",
                                      "(2.0000000000000004+0j)"]])
    got = compare([exact, flt], [exact, moved])
    assert got["differing"] == 1 and got["exact_mismatch"] == 0
    assert got["worst_relative"] == pytest.approx(2.2e-16, rel=0.01)
    # a float output that also holds text, as weight_project's route
    route = [["1", "route"], "str", "'numeric'"]
    got = compare([("weight_project", flt[1] + [route])],
                  [("weight_project", moved[1] + [route])])
    assert got["exact_mismatch"] == 0 and got["worst_relative"] > 0
    # an exact value changed, or turned float, is an exact mismatch
    for row in ([[["2", "a(-2)"], "QQi", "QQi(Fraction(1, 3), "
                  "Fraction(0, 1))"]], [[["2", "a(-2)"], "complex",
                                         "(0.5+0j)"]]):
        got = compare([exact], [("two_point", row)])
        assert got["differing"] == got["exact_mismatch"] == 1
    with pytest.raises(RuntimeError, match="different ops"):
        compare([exact], [flt])


def test_same_outputs_counts_non_finite_float_leaves(monkeypatch, capsys):
    main = _main("same_outputs")
    compare = main.__globals__["compare"]
    exact = ("two_point", [[["2", "a(-2)"], "QQi", "QQi(Fraction(1, 2), "
                            "Fraction(0, 1))"]])
    flt = ("numeric2", [[["2", "a(-2)"], "complex", "(0.5+0j)"],
                        [["3", "a(-3)"], "float", "2.0"]])
    bad = ("numeric2", [[["2", "a(-2)"], "complex", "(nan+nanj)"],
                        [["3", "a(-3)"], "float", "-inf"]])
    got = compare([exact, flt], [exact, flt])
    assert (got["parent_nonfinite"], got["change_nonfinite"]) == (0, 0)
    got = compare([exact, flt], [exact, bad])
    assert (got["parent_nonfinite"], got["change_nonfinite"]) == (0, 2)
    assert got["exact_mismatch"] == 0
    got = compare([exact, bad], [exact, bad])
    assert (got["parent_nonfinite"], got["change_nonfinite"]) == (2, 2)
    assert got["float_identical"] == 1 and got["differing"] == 0
    # the exit status is 1 when the working tree has one, whatever the
    # parent has
    monkeypatch.setitem(main.__globals__, "_tree",
                        lambda side, rev, into: side)
    for parent, change, status in (([bad], [flt], 0), ([flt], [bad], 1)):
        sides = {"parent": parent, "change": change}
        monkeypatch.setitem(main.__globals__, "_outputs",
                            lambda tree, *args: sides[tree])
        assert main(["--parent", "HEAD", "--seeds", "3",
                     "--workload", "point_maps"]) == status
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(f"non-finite parent {2 - 2 * status}, "
                             f"change {2 * status}")

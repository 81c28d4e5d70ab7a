"""Command line interface: argument handling, outputs, exit codes."""
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from voxfact.cli import main
from voxfact.expressions import Expression
from voxfact.functionals import DeltaJet
from voxfact.geometry import Disc
from voxfact.graded import GradedVector
from voxfact.mu import mu_numeric, mu_one_point, two_point_value
from voxfact.presets import heisenberg
from voxfact.scalars import DegreeWindow, QQi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_define(capsys):
    code, out, _ = run(capsys, "define", "--preset", "virasoro",
                       "--window", "0:4")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["L"]
    assert data["basis"]["4"] == ["L(-4)", "L(-2)L(-2)"]


def test_mode_token_input(capsys):
    code, out, _ = run(capsys, "mode", "--a", "a(-1)", "--n", "1",
                       "--b", "a(-1)")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"im": "0", "mono": [], "re": "1"}]


def test_mode_json_input(capsys):
    state = json.dumps({"terms": [{"mono": ["a(-1)"], "re": "2", "im": "0"}]})
    code, out, _ = run(capsys, "mode", "--a", state, "--n", "1",
                       "--b", "a(-1)")
    assert code == 0
    assert json.loads(out)["terms"][0]["re"] == "2"


def test_npoint_exact(capsys):
    code, out, _ = run(capsys, "npoint", "--states", "a(-1);a(-1)",
                       "--points", "5/2;0", "--window", "0:2")
    assert code == 0
    data = json.loads(out)
    assert data["by_degree"]["0"]["terms"][0]["re"] == "4/25"


def test_npoint_numeric(capsys):
    # float literals make the points float
    code, out, _ = run(capsys, "npoint", "--states", "a(-1);a(-1);a(-1)",
                       "--points", "4.0;1.0;0.25", "--window", "0:2")
    assert code == 0
    data = json.loads(out)
    assert abs(float(data["by_degree"]["1"]["terms"][0]["re"]) - 1.96) < 1e-6
    gen = GradedVector.basis((("a", 1),))
    assert data == mu_numeric(heisenberg(), [gen] * 3,
                              [4 + 0j, 1 + 0j, 0.25 + 0j],
                              DegreeWindow(0, 2)).to_obj()


def test_npoint_points_follow_the_text_rule(capsys):
    # a point is exact iff its text is an exact literal, in either form;
    # 1/(1/2)^2 = 4 at degree 0
    for points, want in (("1/2;0", "4"), ('["1/2", 0]', "4"),
                         ("0.5;0", "4.0"), ('["(0.5+0j)", "0"]', "4.0")):
        code, out, _ = run(capsys, "npoint", "--states", "a(-1);a(-1)",
                           "--points", points, "--window", "0:2")
        assert code == 0, points
        data = json.loads(out)
        assert data["by_degree"]["0"]["terms"][0]["re"] == want, points


def test_npoint_three_exact_points(capsys):
    code, out, _ = run(capsys, "npoint", "--states", "a(-1);a(-1);a(-1)",
                       "--points", "4;1;1/4", "--window", "0:2")
    assert code == 0
    data = json.loads(out)
    assert data["by_degree"]["1"]["terms"][0]["re"] == "49/25"


def test_npoint_equal_moduli_evaluates(capsys):
    code, out, _ = run(capsys, "npoint", "--states", "a(-1);a(-1)",
                       "--points", "1;i", "--window", "0:2")
    assert code == 0
    gen = GradedVector.basis((("a", 1),))
    want = two_point_value(heisenberg(), gen, gen, QQi(1), QQi(0, 1),
                           DegreeWindow(0, 2))
    assert json.loads(out) == want.to_obj()


def test_npoint_coincident_points_exit_code(capsys):
    code, _, err = run(capsys, "npoint", "--states", "a(-1);a(-1)",
                       "--points", "1;1", "--window", "0:2")
    assert code == 1
    assert "coincident" in err


def suite_reports(capsys, *labels, argv=()):
    """The reports of `suite --presets heisenberg --only labels`, and its
    exit code."""
    code, out, _ = run(capsys, "suite", "--presets", "heisenberg", "--only",
                       ",".join(labels), *argv)
    return code, json.loads(out)["reports"]


def test_check_insertion(capsys):
    # the insertion check runs only through the suite, at any degree
    code, [rep] = suite_reports(capsys, "insertion_at_zero",
                                argv=("--mode-degree", "6"))
    assert code == 0
    assert rep["pass"] is True
    assert rep["truncation"] == {"max_degree": 6}


def test_counterexample(capsys):
    code, out, _ = run(capsys, "counterexample", "--m", "1",
                       "--window", "0:4")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["witness"]["ev_x"] == {"terms": []}


@pytest.mark.parametrize("preset", ["virasoro", "affine_sl2"])
def test_counterexample_on_every_preset(capsys, preset):
    # the state is a lowest state with a_(1) a != 0: L(-2) on virasoro,
    # h(-1) on affine_sl2 (e_(1) e = 0)
    code, out, _ = run(capsys, "counterexample", "--preset", preset)
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["witness"]["ev_x"] == {"terms": []}
    assert data["witness"]["expected"]["terms"]


def test_suite_csv(capsys):
    code, out, _ = run(capsys, "suite", "--presets", "heisenberg",
                       "--only", "insertion_at_zero", "--mode-degree", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,")
    assert lines[1].startswith("insertion_at_zero,heisenberg,True")


def test_suite_failure_exit_code(capsys, tmp_path):
    # an unknown label is a usage error
    code, _, err = run(capsys, "suite", "--only", "not_a_label")
    assert code == 2


def test_suite_negative_mode_degree_is_a_usage_error(capsys):
    # degree -1 has no basis state, so the rows would pass over nothing
    code, out, err = run(capsys, "suite", "--presets", "heisenberg",
                         "--mode-degree", "-1", "--only",
                         "mode_iterate_matches_oracle,"
                         "meromorphicity_pole_bounds")
    assert code == 2 and out == ""
    assert err == "error: mode degree -1 is negative\n"


# a preset parameter that is no number is a usage error naming it
@pytest.mark.parametrize("argv, text", [
    (["define", "--preset", "virasoro", "--c", "1/0"], "bad c '1/0'"),
    (["npoint", "--preset", "affine_sl2", "--level", "2/0", "--states",
      "e(-1)", "--points", "1/2"], "bad level '2/0'"),
    (["suite", "--presets", "virasoro", "--c", "1/0", "--only",
      "insertion_at_zero"], "bad c '1/0'"),
], ids=["define", "npoint", "suite"])
def test_bad_preset_parameter_is_a_usage_error(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {text}\n"


_DELTA_EXPR = {"carrier": {"disc": {"center": "0", "radius": "2"}},
               "terms": [{"coeff": {"re": "1", "im": "0"},
                          "factors": [{"delta": {"p": "1/2", "d": 1}}],
                          "states": [{"terms": [{"mono": ["a(-1)"],
                                                 "re": "1", "im": "0"}]}]}]}


def _eval_with(carrier=None, factor=None):
    expr = json.loads(json.dumps(_DELTA_EXPR))
    if carrier:
        expr["carrier"] = carrier
    if factor:
        expr["terms"][0]["factors"] = [factor]
    return ["factor", "eval", "--expr", json.dumps(expr)]


# a point that is no exact literal and no complex names its text
@pytest.mark.parametrize("argv, text", [
    (["npoint", "--states", "a(-1)", "--points", "1/0"], "'1/0'"),
    (["mode", "--a", '{"terms": [{"mono": ["a(-1)"], "re": "1/0", '
      '"im": "0"}]}', "--n", "-1", "--b", "a(-1)"], "'1/0'"),
    (_eval_with(carrier={"disc": {"center": "0", "radius": "2/0"}}),
     "'2/0'"),
], ids=["point", "coefficient", "radius"])
def test_zero_denominator_is_a_usage_error(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and text in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["1/0", "1e200/1", "abc"])
def test_malformed_point_names_its_text(capsys, text):
    code, out, err = run(capsys, "npoint", "--states", "a(-1)",
                         "--points", text)
    assert code == 2 and out == ""
    assert err == f"error: cannot parse Gaussian rational: {text!r}\n"


def _eval_at(*points):
    expr = json.loads(json.dumps(_DELTA_EXPR))
    term = expr["terms"][0]
    term["factors"] = [{"delta": {"p": p, "d": 0}} for p in points]
    term["states"] = term["states"] * len(points)
    return ["factor", "eval", "--expr", json.dumps(expr)]


# a nonzero float power out of the float range is a usage error naming the
# base and the exponent, at the flow power z^j, at a pole factor
# (z - w)^-2 of the map and at the same factor in a residue pairing
@pytest.mark.parametrize("argv, text", [
    (["npoint", "--states", "a(-1)", "--points", "1e200", "--window", "0:4"],
     "(1e+200+0j) ** 2"),
    (["npoint", "--states", "a(-1);a(-1)", "--points", "1e-200;0"],
     "(1e-200+0j) ** -2"),
    (_eval_at("1e-200", "0"), "(1e-200+0j) ** -2"),
], ids=["flow_overflow", "pole_underflow", "pairing_underflow"])
def test_float_power_out_of_range_is_a_usage_error(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {text} is out of float range\n"


def _eval_everywhere(*points):
    # order-0 jets at the points, on the whole plane
    argv = _eval_at(*points)
    expr = json.loads(argv[-1])
    expr["carrier"] = {"all": True}
    return [*argv[:-1], json.dumps(expr)]


# a float power that is not finite, which complex ** can return without
# raising, is a usage error naming the base and the exponent: a point
# difference that overflows to inf, raised to -2 in the map and in a
# residue pairing, and a power that is nan+nanj
@pytest.mark.parametrize("argv, text", [
    (["npoint", "--states", "a(-1);a(-1)", "--points", "1e308;-1e308",
      "--window", "0:2"], "(inf+0j) ** -2"),
    (["npoint", "--states", "a(-1)", "--points", "(1e200+1e200j)",
      "--window", "3:3"], "(1e+200+1e+200j) ** 2"),
    ([*_eval_everywhere("1e308", "-1e308"), "--window", "0:2"],
     "(-inf+0j) ** -2"),
], ids=["pole_overflow_to_inf", "nan_power", "pairing_overflow_to_inf"])
def test_non_finite_float_power_is_a_usage_error(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {text} is not finite\n"


@pytest.mark.parametrize("factor", [
    {"delta": {"p": "nan", "d": 0}},
    {"delta": {"p": "inf", "d": 1}},
    {"moment": {"c": "(nan+1j)", "r": "1", "n": 0}},
], ids=["jet_nan", "jet_inf", "moment_nan"])
def test_non_finite_jet_point_is_a_usage_error(capsys, factor):
    # refused when the factor is read, before any position decision
    code, out, err = run(capsys, *_eval_with(carrier={"all": True},
                                             factor=factor),
                         "--preset", "heisenberg", "--window", "0:2")
    assert code == 2 and out == ""
    assert err.startswith("error: not a finite scalar: ")


@pytest.mark.parametrize("factor, text", [
    ({"delta": {"p": "1/2", "d": 1.9}}, "1.9"),
    ({"delta": {"p": "1/2", "d": "3/2"}}, "'3/2'"),
    ({"moment": {"c": "0", "r": "3/2", "n": 2.5}}, "2.5"),
], ids=["jet_order_float", "jet_order_fraction", "moment_exponent"])
def test_non_integral_order_is_a_usage_error(capsys, factor, text):
    code, out, err = run(capsys, *_eval_with(factor=factor))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and text in err


def test_integral_order_text_is_read(capsys):
    # an integer's text reads as the integer, as a JSON number does
    code, out, _ = run(capsys, *_eval_with(
        factor={"delta": {"p": "1/2", "d": " 1 "}}))
    assert code == 0
    assert out == run(capsys, *_eval_with())[1]


def test_bad_state_exit_code(capsys):
    code, _, err = run(capsys, "mode", "--a", "garbage", "--n", "0",
                       "--b", "a(-1)")
    assert code == 2
    assert "parse" in err


# a payload missing one key: the coefficient's "im", a term's "mono", a
# state's "terms", and an expression term's "factors" in `factor eval`
_EVAL_EXPR = {"carrier": {"disc": {"center": "0", "radius": "4"}},
              "terms": [{"coeff": {"re": "1", "im": "0"},
                         "states": [{"terms": [{"mono": ["a(-1)"], "re": "1",
                                                "im": "0"}]}]}]}


@pytest.mark.parametrize("argv, key", [
    (["npoint", "--preset", "virasoro", "--points", "1", "--states",
      '[{"terms": [{"mono": ["L(-2)"], "re": "1"}]}]'], "'im'"),
    (["npoint", "--preset", "virasoro", "--points", "1", "--states",
      '[{"terms": [{"re": "1", "im": "0"}]}]'], "'mono'"),
    (["mode", "--a", '{"trms": []}', "--n", "0", "--b", "a(-1)"], "'terms'"),
    (["factor", "eval", "--expr", json.dumps(_EVAL_EXPR)], "'factors'"),
], ids=["im", "mono", "terms", "factor_eval"])
def test_malformed_json_is_a_usage_error(capsys, argv, key):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and f"missing key {key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["npoint", "--states", "[3]", "--points", "1"],
    ["npoint", "--states", "a(-1)", "--points", '[{"re": 1}]'],
    ["factor", "kernel", "--exprs", '{"carrier": 1}'],
], ids=["state_not_an_object", "point_not_a_number", "exprs_not_a_list"])
def test_json_of_the_wrong_shape_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: bad ")


@pytest.mark.parametrize("a", ["L(-1)", "X(-2)"])
def test_invalid_monomial_exit_code(capsys, a):
    code, _, err = run(capsys, "mode", "--preset", "virasoro", "--a", a,
                       "--n", "-3", "--b", "")
    assert code == 2
    assert f"{a} is not a virasoro basis monomial" in err


def test_out_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "define", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["preset"] == "heisenberg"


def test_config_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": "0:2"}))
    code, out, _ = run(capsys, "--config", str(cfg), "define")
    assert code == 0
    assert "3" not in json.loads(out)["basis"]


GEN = GradedVector.basis((("a", 1),))


def _delta(carrier, point, state=GEN, coeff=1):
    return Expression.single(carrier, [DeltaJet(QQi(point), 0)], [state],
                             coeff=QQi(coeff))


MULTIPLY = ["--x", json.dumps(_delta(Disc(QQi(-2), 1), -2).to_obj()),
            "--y", json.dumps(_delta(Disc(QQi(2), 1), 2).to_obj()),
            "--target", json.dumps(Disc(QQi(0), 4).to_obj())]


EVAL = ["eval", "--expr", json.dumps(_DELTA_EXPR)]
KERNEL = ["kernel", "--exprs", json.dumps([_DELTA_EXPR])]


@pytest.mark.parametrize("argv", [
    ["define", "--seed", "3"],
    ["factor", "--format", "json", *EVAL],
    ["npoint", "--states", "a(-1)", "--points", "1", "--format", "csv"],
    # the removed `check --axiom` is no option of the suite either
    ["suite", "--axiom", "insertion"],
    ["counterexample", "--format", "csv"],
    ["suite", "--preset", "virasoro"],
    ["mode", "--window", "0:1", "--a", "a(-1)", "--n", "1", "--b", "a(-1)"],
    ["counterexample", "--mode-degree", "2"],
    ["factor", "--seed", "1", *KERNEL],
    ["factor", "--mode-degree", "2", *EVAL],
    # no subcommand resets a check's tolerance or the points' exactness
    ["suite", "--tol", "1e-30"],
    ["suite", "--quad-n", "20"],
    ["npoint", "--states", "a(-1)", "--points", "1", "--numeric"],
    # factor takes the options after the sub-subcommand that reads them
    ["factor", "--window", "0:1", *EVAL],
    ["factor", "--window", "0:1", "--c", "3", *KERNEL],
    ["factor", "--preset", "virasoro", "--window", "0:1", "multiply",
     *MULTIPLY],
    ["define", "--only", "insertion_at_zero"],
    ["factor", "multiply", "--preset", "virasoro", *MULTIPLY],
    ["factor", "multiply", "--level", "2", *MULTIPLY],
])
def test_option_offered_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# every check runs through `suite --only <label>`; the commands that ran
# one check at a fixed degree are gone
@pytest.mark.parametrize("argv", [
    ["check", "--axiom", "insertion"],
    ["check", "--axiom", "meromorphicity"],
    ["factor", "weiss"],
    ["factor", "roundtrip", "--preset", "virasoro"],
], ids=["check_insertion", "check_meromorphicity", "weiss", "roundtrip"])
def test_single_check_commands_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["define"],
    ["mode", "--a", "a(-1)", "--n", "1", "--b", "a(-1)"],
    ["npoint", "--states", "a(-1)", "--points", "1/2"],
    ["factor", *EVAL],
    ["counterexample"],
    ["suite", "--presets", "heisenberg", "--only", "insertion_at_zero",
     "--mode-degree", "2"],
], ids=lambda argv: argv[0])
def test_config_with_every_option_loads(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": "0:3", "quad_n": 20, "tol": 1e-8,
                               "seed": 7, "format": "json"}))
    code, out, _ = run(capsys, "--config", str(cfg), *argv)
    assert code == 0
    assert json.loads(out)


def test_factor_roundtrip(capsys):
    # the embedding round trip runs only through the suite
    code, [rep] = suite_reports(capsys, "embedding_roundtrip")
    assert code == 0
    assert rep["pass"] is True
    assert rep["truncation"] == {"max_degree": 4}


def test_factor_multiply(capsys):
    code, out, _ = run(capsys, "factor", "multiply", *MULTIPLY)
    assert code == 0
    product = Expression.from_obj(json.loads(out))
    assert product.carrier == Disc(QQi(0), 4)
    [term] = product.terms
    assert sorted(f.point.re for f in term.factors) == [-2, 2]
    assert term.states == (GEN, GEN)


def test_factor_eval(capsys):
    expr = _delta(Disc(QQi(0), 4), Fraction(1, 2))
    code, out, _ = run(capsys, "factor", "eval", "--window", "0:3",
                       "--expr", json.dumps(expr.to_obj()))
    assert code == 0
    want = mu_one_point(heisenberg(), GEN, QQi(Fraction(1, 2)),
                        DegreeWindow(0, 3))
    assert json.loads(out) == want.to_obj()


@pytest.mark.parametrize("points, states", [(["1/2", "-1/2"], 1),
                                            (["1/2"], 2)],
                         ids=["two_jets_one_state", "one_jet_two_states"])
def test_factor_eval_refuses_unpaired_factors(capsys, points, states):
    # a term pairs each factor with one state; none is dropped
    expr = json.loads(_eval_at(*points)[-1])
    term = expr["terms"][0]
    term["states"] = term["states"][:1] * states
    code, out, err = run(capsys, "factor", "eval", "--expr", json.dumps(expr))
    assert code == 2 and out == ""
    assert err == (f"error: a term has {len(points)} factors but "
                   f"{states} states\n")


def test_factor_kernel(capsys):
    e = _delta(Disc(QQi(0), 1), 0)
    exprs = [e.to_obj(), _delta(Disc(QQi(0), 1), 0, coeff=2).to_obj()]
    code, out, _ = run(capsys, "factor", "kernel", "--window", "0:4",
                       "--exprs", json.dumps(exprs))
    assert code == 0
    assert json.loads(out) == [["-2", "1"]]


def test_factor_weiss(capsys):
    # the Weiss cover checks run only through the suite
    code, (accept, reject) = suite_reports(capsys, "weiss_cover_accept",
                                           "weiss_cover_reject")
    assert code == 0
    assert (accept["axiom"], accept["pass"]) == ("weiss_cover", True)
    assert accept["truncation"] == {"lifted": 2, "total": 2}
    assert (reject["axiom"], reject["pass"]) == ("weiss_cover_reject", True)
    assert reject["witness"]["expression"] == 0


def test_factor_project_exact(capsys):
    expr = {"carrier": {"disc": {"center": "0", "radius": "4"}},
            "terms": [{"coeff": {"re": "1", "im": "0"},
                       "factors": [DeltaJet(QQi(Fraction(1, 2)), 0).to_obj()],
                       "states": [{"terms": [{"mono": ["a(-1)"], "re": "1",
                                              "im": "0"}]}]}]}
    code, out, _ = run(capsys, "factor", "project", "--window", "0:4",
                       "--expr", json.dumps(expr), "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["meta"] == {"route": "exact"}
    # p_2 exp(zT) a(-1)|0> at z = 1/2 is z a(-2)|0>
    assert data["vector"]["terms"] == [{"mono": ["a(-2)"], "re": "1/2",
                                        "im": "0"}]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run(capsys):
    # every `voxfact` line of the README's command-line block runs
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("voxfact ")]
    assert len(lines) >= 5
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line

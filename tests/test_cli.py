"""Command line interface: argument handling, outputs, exit codes."""
import json
from fractions import Fraction

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


def test_check_insertion(capsys):
    code, out, _ = run(capsys, "check", "--axiom", "insertion")
    assert code == 0
    assert json.loads(out)["pass"] is True


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


# a point that is no exact literal is read as a complex, so its error is
# complex()'s, which names no text
@pytest.mark.parametrize("argv, text", [
    (["npoint", "--states", "a(-1)", "--points", "1/0"], ""),
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


@pytest.mark.parametrize("argv", [
    ["define", "--seed", "3"],
    ["factor", "--format", "json", "roundtrip"],
    ["npoint", "--states", "a(-1)", "--points", "1", "--format", "csv"],
    ["check", "--axiom", "insertion", "--seed", "1"],
    ["counterexample", "--format", "csv"],
    ["suite", "--preset", "virasoro"],
    ["mode", "--window", "0:1", "--a", "a(-1)", "--n", "1", "--b", "a(-1)"],
    ["check", "--window", "0:1", "--axiom", "insertion"],
    ["factor", "--seed", "1", "roundtrip"],
    ["factor", "--mode-degree", "2", "roundtrip"],
    # no subcommand resets a check's tolerance or the points' exactness
    ["suite", "--tol", "1e-30"],
    ["suite", "--quad-n", "20"],
    ["npoint", "--states", "a(-1)", "--points", "1", "--numeric"],
    # factor takes the options after the sub-subcommand that reads them
    ["factor", "--window", "0:1", "roundtrip"],
    ["factor", "--window", "0:1", "--c", "3", "weiss"],
    ["factor", "--preset", "virasoro", "--window", "0:1", "multiply",
     *MULTIPLY],
    ["factor", "roundtrip", "--window", "0:1"],
    ["factor", "weiss", "--preset", "virasoro"],
    ["factor", "multiply", "--level", "2", *MULTIPLY],
])
def test_option_offered_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["define"],
    ["mode", "--a", "a(-1)", "--n", "1", "--b", "a(-1)"],
    ["npoint", "--states", "a(-1)", "--points", "1/2"],
    ["check", "--axiom", "insertion"],
    ["factor", "roundtrip"],
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
    code, out, _ = run(capsys, "factor", "roundtrip")
    assert code == 0
    assert json.loads(out)["pass"] is True


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


def test_factor_kernel(capsys):
    e = _delta(Disc(QQi(0), 1), 0)
    exprs = [e.to_obj(), _delta(Disc(QQi(0), 1), 0, coeff=2).to_obj()]
    code, out, _ = run(capsys, "factor", "kernel", "--window", "0:4",
                       "--exprs", json.dumps(exprs))
    assert code == 0
    assert json.loads(out) == [["-2", "1"]]


def test_factor_weiss(capsys):
    code, out, _ = run(capsys, "factor", "weiss")
    assert code == 0
    accept, reject = json.loads(out)
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

"""Command line front end.

Exit codes: 0 success, 1 a check failed, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import UsageError, VoxfactError
from .expressions import Expression, evaluate_expression, multiply
from .geometry import OpenSet
from .graded import GradedVector, mono_text, parse_mono
from .mu import mu_numeric
from .presets import basis, preset_from_name, state_mode
from .relations import relation_kernel, run_counterexample, weight_project
from .scalars import DegreeWindow, point_from_text
from .suite import emit_tables, run_suite


def build_parser():
    top = argparse.ArgumentParser(prog="voxfact")
    top.add_argument("--config", help="JSON file with default option values")
    sub = top.add_subparsers(dest="command", required=True)

    # defaults stay None here so that --config values can fill them in;
    # the hard fallbacks live in _apply_config.  A subcommand offers only
    # the options it reads.
    def common(p, preset=True, params=True, window=True):
        if preset:
            p.add_argument("--preset", default=None,
                           choices=["heisenberg", "virasoro", "affine_sl2"])
        if params:
            p.add_argument("--c", default=None, help="virasoro central charge")
            p.add_argument("--level", default=None, help="affine level")
        if window:
            p.add_argument("--window", default=None,
                           help="degree window lo:hi")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("define", help="describe a preset and its basis")
    common(p)

    p = sub.add_parser("mode", help="apply a state mode: a_(n) b")
    common(p, window=False)
    p.add_argument("--a", required=True, help="state JSON")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--b", required=True, help="state JSON")

    p = sub.add_parser("npoint", help="multi-point multiplication map")
    common(p)
    p.add_argument("--states", required=True, help="JSON list of states")
    p.add_argument("--points", required=True,
                   help="points as text, ';'-separated or a JSON list")

    p = sub.add_parser("factor", help="expression-level operations")
    fsub = p.add_subparsers(dest="factor_command", required=True)
    fm = fsub.add_parser("multiply")
    common(fm, preset=False, params=False, window=False)
    fm.add_argument("--x", required=True, help="expression JSON")
    fm.add_argument("--y", required=True, help="expression JSON")
    fm.add_argument("--target", required=True, help="open set JSON")
    fe = fsub.add_parser("eval")
    common(fe)
    fe.add_argument("--expr", required=True, help="expression JSON")
    fk = fsub.add_parser("kernel")
    common(fk)
    fk.add_argument("--exprs", required=True, help="JSON list of expressions")
    fp = fsub.add_parser("project")
    common(fp)
    fp.add_argument("--expr", required=True, help="expression JSON")
    fp.add_argument("--k", required=True, type=int)

    p = sub.add_parser("counterexample",
                       help="the annulus kernel obstruction, exactly")
    common(p)
    p.add_argument("--m", type=int, default=1)

    # names in full only, so that --preset is refused, not read as --presets
    p = sub.add_parser("suite", help="run the full check suite",
                       allow_abbrev=False)
    common(p, preset=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", default=None, choices=["json", "csv"])
    p.add_argument("--presets", default="heisenberg,virasoro,affine_sl2")
    p.add_argument("--only", default=None,
                   help="comma separated subset of check labels")
    p.add_argument("--mode-degree", type=int, default=4)
    return top


def _apply_config(args):
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad config file: {exc}") from exc
        for key, val in data.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and getattr(args, attr) in (None, ""):
                setattr(args, attr, val)
    fallback = {"preset": "heisenberg", "window": "0:6", "seed": 2024,
                "format": "json"}
    for attr, val in fallback.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, val)
    if hasattr(args, "seed"):
        args.seed = int(args.seed)
    return args


def _preset(args):
    return preset_from_name(args.preset, c=args.c, level=args.level)


def _window(args):
    return DegreeWindow.parse(args.window)


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _read(what, build, text, many=False):
    try:
        obj = json.loads(text)
        return [build(o) for o in obj] if many else build(obj)
    except (KeyError, TypeError, IndexError) as exc:
        key = "missing key " if type(exc) is KeyError else ""
        raise UsageError(f"bad {what}: {key}{exc}") from None


def _load_state(text):
    """A state is either a GradedVector JSON object or a compact monomial
    string like 'a(-2)a(-1)' ('' or '|0>' for the vacuum), coefficient 1."""
    text = text.strip()
    if text.startswith("{"):
        return _read("state", GradedVector.from_obj, text)
    try:
        return GradedVector.basis(parse_mono(text))
    except ValueError:
        raise UsageError(f"cannot parse state {text!r}") from None


def _load_states(text):
    text = text.strip()
    if text.startswith("["):
        return _read("states", GradedVector.from_obj, text, many=True)
    return [_load_state(part) for part in text.split(";")]


def _load_points(text):
    text = text.strip()
    return (_read("points", point_from_text, text, many=True)
            if text.startswith("[") else list(map(point_from_text,
                                                  text.split(";"))))


def main(argv=None) -> int:
    try:
        args = _apply_config(build_parser().parse_args(argv))
        return _dispatch(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VoxfactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "define":
        preset = _preset(args)
        window = _window(args)
        payload = {"preset": preset.kind,
                   "generators": list(preset.generators),
                   "c": str(preset.c), "level": str(preset.level),
                   "basis": {str(d): list(map(mono_text, basis(preset, d)))
                             for d in window.degrees()}}
        _emit(args, json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if cmd == "mode":
        preset = _preset(args)
        out = state_mode(preset, _load_state(args.a), args.n,
                         _load_state(args.b))
        _emit(args, out.to_json(indent=2))
        return 0

    if cmd == "npoint":
        preset = _preset(args)
        window = _window(args)
        states = _load_states(args.states)
        pv = mu_numeric(preset, states, _load_points(args.points), window)
        _emit(args, json.dumps(pv.to_obj(), indent=2, sort_keys=True))
        return 0

    if cmd == "factor":
        return _dispatch_factor(args)

    if cmd == "counterexample":
        preset = _preset(args)
        rep, _ = run_counterexample(args.m, preset, _window(args))
        _emit(args, rep.to_json(indent=2))
        return 0 if rep.passed else 1

    if cmd == "suite":
        results = run_suite(
            presets=tuple(args.presets.split(",")), c=args.c,
            level=args.level, window=_window(args), seed=args.seed,
            mode_degree=args.mode_degree,
            only=tuple(args.only.split(",")) if args.only else None)
        _emit(args, emit_tables(results, args.format))
        return 0 if all(r.passed for _, _, r, _ in results) else 1

    raise UsageError(f"unknown command {cmd!r}")


def _dispatch_factor(args) -> int:
    fc = args.factor_command
    if fc == "multiply":
        x = _read("expression", Expression.from_obj, args.x)
        y = _read("expression", Expression.from_obj, args.y)
        target = _read("open set", OpenSet.from_obj, args.target)
        _emit(args, json.dumps(multiply(x, y, target).to_obj(),
                               indent=2, sort_keys=True))
        return 0
    preset = _preset(args)
    window = _window(args)
    if fc == "eval":
        expr = _read("expression", Expression.from_obj, args.expr)
        pv = evaluate_expression(expr, preset, window)
        _emit(args, json.dumps(pv.to_obj(), indent=2, sort_keys=True))
        return 0
    if fc == "kernel":
        exprs = _read("expressions", Expression.from_obj, args.exprs, True)
        basis_vecs = relation_kernel(preset, exprs, window)
        payload = [[str(c) for c in vec] for vec in basis_vecs]
        _emit(args, json.dumps(payload, indent=2))
        return 0
    if fc == "project":
        expr = _read("expression", Expression.from_obj, args.expr)
        vec, meta = weight_project(expr, args.k, preset, window)
        _emit(args, json.dumps({"vector": vec.to_obj(), "meta": meta},
                               indent=2, sort_keys=True))
        return 0
    raise UsageError(f"unknown factor command {fc!r}")


if __name__ == "__main__":
    sys.exit(main())

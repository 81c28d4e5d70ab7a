#!/usr/bin/env python3
"""Print exact mode-action tables a_(n) b for PBW basis pairs of a preset.

Examples:
    python3 scripts/mode_tables.py --preset heisenberg --max-degree 3
    python3 scripts/mode_tables.py --preset virasoro --c 1/2 --max-degree 4

With --json the script prints, for each preset, the public outputs
state_mode_mono(a, n, b), gen_mode_mono(x, n, b) and translate(b) on every
basis monomial up to --max-degree, each in `GradedVector.to_obj` form, as
one JSON list: a_(n) b for every n >= -1 that gives output (the range the
text form prints), x_n b for every n >= -3 that gives output, and T b.
--preset takes several names, and --c and --level comma-separated lists;
every value makes one preset.  tests/data/parent_mode_tables.json was
made by

    python3 scripts/mode_tables.py --json --max-degree 3 \\
        --preset heisenberg virasoro affine_sl2 --c 1/2,1/3,5 \\
        --level 1,1/2,2/3
"""
import argparse
import json
import sys
from fractions import Fraction

from voxfact.graded import GradedVector, mono_degree, mono_text, mono_token
from voxfact.presets import (basis_upto, gen_mode_mono, preset_from_name,
                             state_mode_mono, translate)


def _tokens(mono):
    return [mono_token(f) for f in mono]


def tables(preset, max_degree: int) -> dict:
    """The public mode outputs on every basis monomial up to `max_degree`
    in JSON form: a_(n) b for n >= -1 and x_n b for n >= -3 where nonzero,
    and T b."""
    states = basis_upto(preset, max_degree)
    sm, gm, tr = [], [], []
    for bm in states:
        db = mono_degree(bm)
        for am in states:
            for n in range(-1, mono_degree(am) + db):
                out = state_mode_mono(preset, am, n, bm)
                if out:
                    sm.append({"a": _tokens(am), "n": n, "b": _tokens(bm),
                               "out": out.to_obj()})
        for gen in preset.generators:
            for n in range(-3, db + 1):
                out = gen_mode_mono(preset, gen, n, bm)
                if out:
                    gm.append({"gen": gen, "n": n, "b": _tokens(bm),
                               "out": out.to_obj()})
        tr.append({"b": _tokens(bm),
                   "out": translate(preset, GradedVector.basis(bm)).to_obj()})
    return {"preset": preset.kind, "c": str(preset.c),
            "level": str(preset.level), "max_degree": max_degree,
            "state_mode": sm, "gen_mode": gm, "translate": tr}


def _presets(names, cs, levels):
    """The distinct presets of every (name, c, level), in order; a preset
    keeps only the parameters its OPE reads."""
    return list(dict.fromkeys(preset_from_name(name, c=c, level=level)
                              for name in names for c in cs
                              for level in levels))


def _fractions(text):
    return [Fraction(t) for t in text.split(",")] if text else [None]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", nargs="+", default=["heisenberg"],
                    choices=["heisenberg", "virasoro", "affine_sl2"])
    ap.add_argument("--c", default=None,
                    help="virasoro central charge(s), comma-separated")
    ap.add_argument("--level", default=None,
                    help="affine level(s), comma-separated")
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--nonzero-only", action="store_true")
    ap.add_argument("--json", action="store_true",
                    help="print state_mode_mono, gen_mode_mono and translate "
                         "outputs as JSON")
    args = ap.parse_args(argv)

    presets = _presets(args.preset, _fractions(args.c),
                       _fractions(args.level))
    if args.json:
        print(json.dumps([tables(p, args.max_degree) for p in presets],
                         separators=(",", ":"), sort_keys=True))
        return 0
    for preset in presets:
        if len(presets) > 1:
            print(f"# {preset.kind} c={preset.c} level={preset.level}")
        states = basis_upto(preset, args.max_degree)
        for am in states:
            for bm in states:
                bound = mono_degree(am) + mono_degree(bm)
                for n in range(-1, bound):
                    out = state_mode_mono(preset, am, n, bm)
                    if args.nonzero_only and not out:
                        continue
                    print(f"{mono_text(am)} _({n}) {mono_text(bm)} = {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

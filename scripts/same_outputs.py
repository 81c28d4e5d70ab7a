#!/usr/bin/env python3
"""Compare every benchmark op's output, parent rev against the working
tree, coefficient by coefficient, and with --suite the default check
suite's rows and reports.

Example:
    python3 scripts/same_outputs.py --parent HEAD --seeds 3,11
    python3 scripts/same_outputs.py --parent HEAD --suite

For each workload (point_maps and functionals unless --workload is given)
and seed, each side runs every op of perfbench/workloads.py's `generate`
once through `run_op`, in a fresh process of its own, and prints each
output's coefficients as (place, type name, repr).  The two sides are
built by scripts/bench_pairs.py's _tree: `git archive` of --parent and a
copy of the working tree's src/, both with the working tree's
perfbench/.  An output is a float output when a coefficient is a float
or complex, and exact otherwise.  Three counts are printed: exact
outputs equal in repr and type, float outputs bit-identical (a float's
repr round-trips), and outputs that differ, with the worst relative
difference per degree, |u - v| / max(|u|, |v|, 1) in the largest
coefficient, over the differing float outputs.

With --suite, each side runs the default `voxfact suite --format json`
in a fresh process, and every field of every row and report but
`seconds` is compared: label, preset, pass, max_err, tol, witness and
truncation.  The counts of equal rows and reports are printed, and each
difference by label, preset and field.

The exit status is 1 when any exact coefficient differs in value or
type, or any suite field differs, and 0 otherwise.
"""
import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
from bench_pairs import SIDES, _tree  # noqa: E402
from collect import parse_seeds  # noqa: E402

WORKLOADS = ("point_maps", "functionals")
FLOAT_TYPES = {"float", "complex"}
SUITE = ["suite", "--format", "json"]
_MISSING = object()

# the child: every op's output as a list of [place, type name, repr]
CHILD = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
from tracing import direct
from voxfact.graded import GradedVector, ProductVector, mono_text

def flat(x, place, out):
    if isinstance(x, ProductVector):
        x = {k: x.component(k) for k in sorted(x.components)}
    if isinstance(x, GradedVector):
        x = {mono_text(m): c for m, c in sorted(x.terms.items())}
    if isinstance(x, dict):
        for k, v in x.items():
            flat(v, place + [str(k)], out)
    elif isinstance(x, (list, tuple)):
        for i, v in enumerate(x):
            flat(v, place + [i], out)
    else:
        out.append([place, type(x).__name__, repr(x)])
    return out

rows = []
for op in workloads.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"):
    try:
        rows.append([op.kind, flat(workloads.run_op(op, direct), [], [])])
    except workloads.REFUSALS as exc:
        rows.append([op.kind, [[[], "refused", type(exc).__name__]]])
    workloads.reset_after(op)
print(json.dumps(rows))
"""


def _outputs(tree: Path, workload: str, seed: int, tiny: bool):
    """[(op kind, [[place, type name, repr], ...]), ...] of one side."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, workload, str(seed), str(int(tiny))],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _suite(tree: Path):
    """The JSON payload of one side's `voxfact suite` (its exit status is
    1 when a check fails, and the payload is compared all the same)."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = ['src']; "
         "from voxfact.cli import main; sys.exit(main(sys.argv[1:]))",
         *SUITE], cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{tree.name} suite exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout)


def compare_suite(parent, change) -> dict:
    """The counts of rows and of reports equal on both sides in every
    field but `seconds`, matched by position, and each difference as
    "kind label/preset: fields"; a row on one side only differs in all
    its fields."""
    counts = {"rows": 0, "rows_equal": 0, "reports": 0, "reports_equal": 0,
              "differences": []}
    for kind in ("rows", "reports"):
        p, c = parent[kind], change[kind]
        counts[kind] = max(len(p), len(c))
        for i in range(counts[kind]):
            u, v = (side[i] if i < len(side) else {} for side in (p, c))
            fields = sorted(k for k in set(u) | set(v) if k != "seconds"
                            and u.get(k, _MISSING) != v.get(k, _MISSING))
            if not fields:
                counts[f"{kind}_equal"] += 1
                continue
            row = u or v
            counts["differences"].append(
                f"{kind} {row['label']}/{row['preset']}: "
                f"{', '.join(fields)}")
    return counts


def compare(parent, change) -> dict:
    """The counts of one workload and seed from each side's rows.  Leaves
    are matched by place; a leaf that differs is a float difference when
    it is a float or complex on both sides and an exact mismatch
    otherwise (a changed exact value or type, a missing leaf, a refusal
    on one side)."""
    counts = {"exact_equal": 0, "float_identical": 0, "differing": 0,
              "exact_mismatch": 0, "worst_relative": 0.0}
    if [k for k, _ in parent] != [k for k, _ in change]:
        raise RuntimeError("the two sides ran different ops")
    for (_, p), (_, c) in zip(parent, change):
        if p == c:
            floats = any(t in FLOAT_TYPES for _, t, _ in p)
            counts["float_identical" if floats else "exact_equal"] += 1
            continue
        counts["differing"] += 1
        u, v = ({json.dumps(place): (t, text) for place, t, text in rows}
                for rows in (p, c))
        changed = [k for k in set(u) | set(v) if u.get(k) != v.get(k)]
        if all(side.get(k, ("",))[0] in FLOAT_TYPES
               for k in changed for side in (u, v)):
            counts["worst_relative"] = max(counts["worst_relative"],
                                           _relative_by_part(p, c))
        else:
            counts["exact_mismatch"] += 1
    return counts


def _relative_by_part(parent, change) -> float:
    """The worst |u - v| / max(|u|, |v|, 1) over the vectors of an output
    (a ProductVector's degrees), each read in its largest float
    coefficient."""
    parts = {}
    for side, rows in enumerate((parent, change)):
        for place, t, text in rows:
            if t in FLOAT_TYPES:
                key = json.dumps(place[:-1])
                parts.setdefault(key, ({}, {}))[side][place[-1]] = \
                    complex(text)
    worst = 0.0
    for u, v in parts.values():
        diff = max(abs(u.get(k, 0) - v.get(k, 0)) for k in set(u) | set(v))
        scale = max([1.0] + [abs(x) for x in (*u.values(), *v.values())])
        worst = max(worst, diff / scale)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git rev of the parent")
    ap.add_argument("--seeds", default=None, help="e.g. 3,11")
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--tiny", action="store_true",
                    help="one op per (kind, preset), as perfbench's --tiny")
    ap.add_argument("--suite", action="store_true",
                    help="compare the default check suite's rows and "
                         "reports")
    args = ap.parse_args(argv)
    if not (args.seeds or args.suite):
        ap.error("give --seeds, --suite or both")

    work = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    total = {"exact_equal": 0, "float_identical": 0, "differing": 0,
             "exact_mismatch": 0}
    status = 0
    try:
        trees = {s: _tree(s, args.parent, work / s) for s in SIDES}
        for workload in (args.workload or WORKLOADS) if args.seeds else ():
            for seed in parse_seeds(args.seeds):
                rows = {s: _outputs(trees[s], workload, seed, args.tiny)
                        for s in SIDES}
                got = compare(rows["parent"], rows["change"])
                for key in total:
                    total[key] += got[key]
                print(f"{workload} seed={seed}: exact equal "
                      f"{got['exact_equal']}, float bit-identical "
                      f"{got['float_identical']}, differing "
                      f"{got['differing']} (exact {got['exact_mismatch']}, "
                      f"worst relative per degree "
                      f"{got['worst_relative']:.3g})", flush=True)
        if args.seeds:
            print(json.dumps(total))
            status = 1 if total["exact_mismatch"] else 0
        if args.suite:
            got = compare_suite(*(_suite(trees[s]) for s in SIDES))
            for line in got.pop("differences"):
                print(f"suite differs: {line}")
            print(f"suite: rows equal {got['rows_equal']} of {got['rows']}, "
                  f"reports equal {got['reports_equal']} of "
                  f"{got['reports']}, seconds not compared")
            if got["rows_equal"] < got["rows"] \
                    or got["reports_equal"] < got["reports"]:
                status = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the m-point map at growing arity, parent rev against the working
tree, and write the ladder as JSON.

Example:
    python3 scripts/bench_arity.py --parent HEAD --out BENCH_26.json

Each rung is `mu_numeric` at fixed exact points on one degree window of
WINDOWS, its states taken in turn from the rung's list: generator states
(heisenberg a, virasoro L, affine_sl2 e, f, h) and, for affine_sl2 at
arity 4, degree-2 states of two monomials each.  Every run is a fresh
process that imports voxfact from one side's src/ and reports the seconds
of that one call; the sides alternate, the parent first in even runs
(counting from 0) and the change first in odd ones, one after another,
RUNS runs a side.  A run that takes longer than TIMEOUT seconds of wall
time is recorded as a timeout, and that side runs that rung no more.  The
two sides are built by scripts/bench_pairs.py's _tree: `git archive` of
--parent and a copy of the working tree's src/.  The record is this
script's own: scripts/bench_pairs.py writes the BENCH_*.json records of
the perfbench workloads.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
from bench_pairs import SIDES, _short_rev, _tree  # noqa: E402
from run import machine  # noqa: E402

# (preset, arity, states); a state is monomials joined by " + ", and the
# map's states are the list's in turn
_A, _L, _EFH = ["a(-1)"], ["L(-2)"], ["e(-1)", "f(-1)", "h(-1)"]
LADDER = [("heisenberg", 4, _A), ("heisenberg", 6, _A), ("heisenberg", 8, _A),
          ("virasoro", 4, _L), ("virasoro", 5, _L), ("virasoro", 6, _L),
          ("affine_sl2", 4, _EFH), ("affine_sl2", 6, _EFH),
          ("affine_sl2", 4, ["e(-2) + e(-1)h(-1)", "f(-2) + h(-1)f(-1)",
                             "h(-2) + e(-1)f(-1)"])]
WINDOWS = ["0:0", "0:4"]
RUNS = 5
TIMEOUT = 60.0

# the child: one map, timed in-process after the imports
CHILD = """
import sys, time
from voxfact.graded import GradedVector, parse_mono
from voxfact.mu import mu_numeric
from voxfact.presets import preset_from_name
from voxfact.scalars import DegreeWindow, QQi
name, arity, lo, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), \\
    int(sys.argv[4])
texts = sys.argv[5:]
states = [GradedVector({parse_mono(m.strip()): QQi(1)
                        for m in texts[i % len(texts)].split("+")})
          for i in range(arity)]
points = [QQi(2 * i + 1, i * i - 3) / (i + 2) for i in range(arity)]
start = time.perf_counter()
mu_numeric(preset_from_name(name), states, points, DegreeWindow(lo, hi))
print(time.perf_counter() - start)
"""


def _time(src: Path, name: str, arity: int, states, window: str):
    """Seconds of one map in a fresh process, or None past TIMEOUT."""
    lo, hi = window.split(":")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, name, str(arity), lo, hi, *states],
            env=dict(os.environ, PYTHONPATH=str(src)), cwd=src,
            capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{name}:{arity} on {window} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def rung_record(runs: dict) -> dict:
    """The record of one rung from each side's list of seconds, a None for
    a timeout: the medians of the completed runs, or "timeout" where any
    run timed out, and the parent's median over the change's."""
    row = {}
    for side in SIDES:
        done = [s for s in runs[side] if s is not None]
        timed_out = len(done) < len(runs[side])
        row[side] = {"median_s": "timeout" if timed_out
                     else statistics.median(done), "runs_s": runs[side]}
    par, chg = row["parent"]["median_s"], row["change"]["median_s"]
    if chg == "timeout":
        row["speedup"] = None
    elif par == "timeout":
        row["speedup"] = f">{TIMEOUT / chg:.0f}"
    else:
        row["speedup"] = par / chg
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git rev of the parent")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    rev = _short_rev(args.parent)
    work = Path(tempfile.mkdtemp(prefix="bench_arity_"))
    rungs = []
    try:
        srcs = {s: _tree(s, args.parent, work / s) / "src" for s in SIDES}
        for name, arity, states in LADDER:
            for window in WINDOWS:
                runs = {s: [] for s in SIDES}
                for i in range(RUNS):
                    for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                        if None not in runs[side]:
                            runs[side].append(_time(srcs[side], name, arity,
                                                    states, window))
                row = rung_record(runs)
                rungs.append({"preset": name, "arity": arity,
                              "states": states, "window": window, **row})
                print(f"{name}:{arity} {states} {window}: parent "
                      f"{row['parent']['median_s']} change "
                      f"{row['change']['median_s']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"about": "mu_numeric at exact points, seconds of the call in "
                       "fresh processes",
              "parent": rev, "machine": machine(), "runs": RUNS,
              "timeout_s": TIMEOUT, "rungs": rungs}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

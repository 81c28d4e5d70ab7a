#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, parent rev against the working
tree, and write a before/after record in the BENCH_*.json format.

Example:
    python3 scripts/bench_pairs.py --parent HEAD --workload mode_cold \\
        --seeds 2101-2110 --claim mode_cold:ops_per_s:1.18 --out BENCH_21.json
    python3 scripts/bench_pairs.py --parent HEAD --workload point_maps \\
        --workload functionals --seeds 2111-2115 --out BENCH_21.json

The parent side is `git archive` of --parent; the change side is a copy of
the working tree's src/ and pyproject.toml.  Both sides run the working
tree's perfbench/, so the benchmark code is identical.  Each seed is one
pair, `python3 perfbench/run.py --workload W --seed S --seconds T --trace
0` on each side, T the run_seconds of BENCHMARK.json, the parent first in
even pairs (counting from 0) and the change first in odd ones.  The runs
go one after another, never in parallel.  An existing --out file keeps
the workloads this call does not run; it must have been made against the
same parent, run length and machine.  Seeds are read and each side's
median and quartiles taken by perfbench/collect.py's parse_seeds and
summarise.  A claim WORKLOAD:METRIC:MIN_RATIO is met when the change's
median is at least MIN_RATIO times better than the parent's, the change
is better in at least nine pairs in ten, and the medians differ by more
than the parent's interquartile range.

Peak RSS grows with the number of ops a run completes, because run.py
keeps a record per op.  So each workload also gets `rss_vs_ops`: the
relative change of the median `attempted` beside that of `peak_rss_mb`,
the slope of peak RSS in MiB per 1000 ops, and the RSS change net of that
slope.  The slope is fitted over both sides' runs with one intercept per
side, so only the spread of op counts within a side sets it and a side's
own RSS offset cannot pass for a slope.  A net change near zero says the
RSS move is only the op count.
"""
import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from collect import parse_seeds, summarise  # noqa: E402

SIDES = ("parent", "change")
_MACHINE = re.compile(r"machine: nproc=(\S+) python=(\S+) cpu=(.*)")


def summarize_pairs(pairs, end_to_end):
    """The record of one workload from its pairs: each pair is a dict with
    `seed`, `first` ("parent" or "change") and, per side, the JSON object
    that perfbench/run.py printed last.  `end_to_end` is the list of that
    name from BENCHMARK.json."""
    out = {"pairs": len(pairs), "seeds": [p["seed"] for p in pairs],
           "first_in_pair": [p["first"] for p in pairs],
           "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
           "attempted": {s: [p[s]["attempted"] for p in pairs]
                         for s in SIDES},
           "failed": {s: [p[s]["failed"] for p in pairs] for s in SIDES},
           "metrics": {}}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        row = {"unit": spec["unit"], "better": spec["better"],
               "bound": spec["bound"]}
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in SIDES}
        for s in SIDES:
            summary = summarise(runs[s])
            row[s] = {k: summary[k] for k in ("median", "q1", "q3")}
            row[s]["runs"] = runs[s]
        par, chg = row["parent"]["median"], row["change"]["median"]
        row["relative_change_of_medians"] = (chg - par) / par if par else 0.0
        row["within_bound"] = (chg >= par * (1 - spec["bound"]) if higher
                               else chg <= par * (1 + spec["bound"]))
        row["change_better_in_pairs"] = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(runs["parent"], runs["change"]))
        out["metrics"][name] = row
    if "peak_rss_mb" in out["metrics"]:
        out["rss_vs_ops"] = rss_vs_ops(out["attempted"],
                                       out["metrics"]["peak_rss_mb"])
    return out


def rss_vs_ops(attempted, rss):
    """The `rss_vs_ops` block of one workload, from each side's attempted
    op counts and its `peak_rss_mb` row; the slope and the net change are
    None when no side's op counts spread."""
    ops = {s: [a / 1000 for a in attempted[s]] for s in SIDES}
    sxy = sxx = 0.0
    for s in SIDES:
        xs, ys = ops[s], rss[s]["runs"]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    slope = sxy / sxx if sxx else None
    par_ops = statistics.median(ops["parent"])
    d_ops = statistics.median(ops["change"]) - par_ops
    par = rss["parent"]["median"]
    d_rss = rss["change"]["median"] - par
    return {"attempted_relative_change_of_medians": d_ops / par_ops,
            "peak_rss_relative_change_of_medians": d_rss / par,
            "peak_rss_mib_per_1000_ops": slope,
            "peak_rss_net_relative_change":
                None if slope is None else (d_rss - slope * d_ops) / par}


def claim_block(workloads, claim: str):
    """The claim WORKLOAD:METRIC:MIN_RATIO checked against the records."""
    workload, metric, min_ratio = claim.split(":")
    row = workloads[workload]["metrics"][metric]
    par, chg = row["parent"], row["change"]
    ratio = (chg["median"] / par["median"] if row["better"] == "higher"
             else par["median"] / chg["median"])
    pairs = workloads[workload]["pairs"]
    better = row["change_better_in_pairs"]
    iqr = par["q3"] - par["q1"]
    return {"workload": workload, "metric": metric,
            "min_ratio": float(min_ratio), "ratio_of_medians": ratio,
            "change_better_in_pairs": better, "pairs": pairs,
            "parent_iqr": iqr,
            "met": (ratio >= float(min_ratio)
                    and better >= math.ceil(0.9 * pairs)
                    and abs(chg["median"] - par["median"]) > iqr)}


def _short_rev(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def _tree(kind: str, rev: str, into: Path) -> Path:
    into.mkdir(parents=True)
    if kind == "parent":
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive,
                       check=True)
        shutil.rmtree(into / "perfbench", ignore_errors=True)
    else:
        shutil.copytree(ROOT / "src", into / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", into)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    return into


def _run(tree: Path, workload: str, seed: int, seconds: float):
    """The JSON object run.py printed last, and its machine line as a dict
    (nproc, python, cpu)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}{proc.stdout}")
    lines = proc.stdout.strip().splitlines()
    machine = next(({"nproc": int(m[1]), "python": m[2], "cpu": m[3]}
                    for m in map(_MACHINE.match, lines) if m), None)
    return json.loads(lines[-1]), machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git rev of the parent")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 2101-2110,2120")
    ap.add_argument("--claim", default=None,
                    help="WORKLOAD:METRIC:MIN_RATIO")
    ap.add_argument("--about", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    rev = _short_rev(args.parent)
    for key, want in (("parent", rev), ("run_seconds", seconds)):
        if record.get(key, want) != want:
            raise SystemExit(f"{out} has {key} {record[key]!r}, not "
                             f"{want!r}: write to a new file")
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    machine = record.get("machine")
    try:
        trees = {s: _tree(s, args.parent, work / s) for s in SIDES}
        workloads = record.get("workloads", {})
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(parse_seeds(args.seeds)):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], seen = _run(trees[side], workload, seed,
                                            seconds)
                    if machine not in (None, seen):
                        raise SystemExit(f"machine {seen} differs from the "
                                         f"record's {machine}")
                    machine = seen
                    print(f"{workload} seed={seed} {side}: " + " ".join(
                        f"{k}={m['value']:.5g}"
                        for k, m in pair[side]["metrics"].items()),
                        flush=True)
                pairs.append(pair)
            workloads[workload] = summarize_pairs(pairs, spec["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "about": args.about or record.get("about", ""),
        "parent": rev,
        "machine": machine,
        "run_seconds": seconds,
        "claim": (claim_block(workloads, args.claim) if args.claim
                  else record.get("claim")),
        "workloads": workloads})
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["claim"]))
    return 0 if all(w["all_correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

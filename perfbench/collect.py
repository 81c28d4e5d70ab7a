#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads mode_cold,point_maps \\
        --seeds 1-10 [--seconds 20] [--out perfbench/results/x.json]

Runs one seed after another (never in parallel), from the checkout root.
For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
and checks the spread against the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}{proc.stdout}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], wall


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="mode_cold,point_maps,functionals")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        per_metric = {}
        walls = []
        for seed in seeds:
            res, lines, wall = run_once(workload, seed, seconds)
            report.setdefault("machine", lines[0].split(": ", 1)[1])
            walls.append(wall)
            if not res["correct"]:
                ok = False
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} wall={wall:.1f}s " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in res["metrics"].items()),
                flush=True)
        rows = {name: summarise(vals) for name, vals in per_metric.items()}
        report["workloads"][workload] = {"metrics": rows,
                                         "wall_s_median":
                                         statistics.median(walls)}
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" \
                    and row["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {workload:12s} {name:12s} median={row['median']:.5g} "
                  f"q1={row['q1']:.5g} q3={row['q3']:.5g} "
                  f"spread={row['spread']:.4f} bound={bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""voxfact benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload mode_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The parent process never imports voxfact.  It starts fresh child processes
one after another: ``SETUP_REPEATS - 1`` that only set up, then one that
sets up and runs the timed loop.  ``setup_s`` is the median over all of
them.  Set-up is import, preset construction, input generation and one
untimed pass over every op, which on ``mode_cold`` warms the interpreter
and the allocator (each op still starts from empty memo tables) and on the
other workloads also the mode engine's memo.

The timed loop visits every generated op once per round, in a seeded
order, and runs whole rounds until the ops' summed wall time reaches
``--seconds`` and at least ``MIN_SAMPLES`` ops have succeeded.  After each
op, with its clock stopped, its output is checked against an independent
reference (see workloads.py).  An op that raises NonConvergent is refused:
it counts in ``fail_ratio`` and against ``ok_ratio`` but is not a wrong
answer.  A wrong answer or any other exception makes the run incorrect,
and the command exits 1.

Every time metric is in reference seconds (see speed.py): the wall time of
each op and of each set-up step is scaled by a calibration probe that runs
between ops, so that the shared host's drifting speed cancels out of it.
The unscaled wall-clock figures are printed on a line of their own.

``--trace 1`` runs every op twice, untraced and traced in alternating
order, records call-site spans in the traced copy, prints the per-layer
table and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_PROBE_S

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

WORKLOADS = ("mode_cold", "point_maps", "functionals")
SETUP_REPEATS = 3
MIN_SAMPLES = 100           # so that ten samples lie beyond the p90
CHILD_WALL_LIMIT_S = 120.0  # a child stops starting rounds after this
PARENT_TIMEOUT_S = 170.0

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# layers whose calls the benchmark wraps, by span name
LAYERS = (
    "presets.state_mode_cold.heisenberg",
    "presets.state_mode_cold.virasoro",
    "presets.state_mode_cold.affine_sl2",
    "presets.state_mode_warm",
    "oracle.verify",
    "mu.two_point_value",
    "mu.mu_one_point",
    "mu.mu_numeric",
    "expressions.evaluate_exact",
    "expressions.multiply",
    "expressions.evaluate_quadrature",
    "relations.weight_project",
    "relations.relation_kernel",
)
LAYER_SUFFIXES = (("calls", "count"), ("busy_s", "s"), ("failed", "count"))
EXTRA_LAYER_METRICS = (
    ("presets.state_mode_cold.out_terms", "count"),
    ("oracle.verify.mismatches", "count"),
    ("mu.mu_numeric.ok_ratio", "1"),
    ("mu.mu_numeric.tail_max", "1"),
    ("bench.op_self_s", "s"),
    ("trace.overhead_ratio", "1"),
)


def per_layer_units():
    units = {f"{layer}.{suffix}": unit
             for layer in LAYERS for suffix, unit in LAYER_SUFFIXES}
    units.update(EXTRA_LAYER_METRICS)
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description="voxfact benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one op per (kind, preset) stratum and a single "
                    "round, for the benchmark's own tests")
    ap.add_argument("--child", choices=("setup", "run"), default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child: set up, then (for --child run) the timed loop


def child_main(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from speed import Speed
    speed = Speed()
    t_start = time.perf_counter()
    import workloads
    from tracing import Tracer, direct, layer_table

    ops = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    pieces = [(t_start, time.perf_counter() - t_start)]
    for op in ops:
        speed.tick()
        t0 = time.perf_counter()
        try:
            workloads.run_op(op, direct)
        except workloads.REFUSALS:
            pass
        pieces.append((t0, time.perf_counter() - t0))
        workloads.reset_after(op)
    speed.probe()
    setup = {"setup_s": sum(speed.scaled(t0, dt) for t0, dt in pieces),
             "setup_wall_s": sum(dt for _, dt in pieces)}
    if args.child == "setup":
        print(json.dumps(setup))
        return 0

    tracer = Tracer() if args.trace else None
    check_call = tracer.call if tracer else direct
    stats = _Loop(workloads, direct, check_call, speed)
    rnd = 0
    while True:
        for idx in workloads.round_order(ops, args.workload, args.seed, rnd):
            op = ops[idx]
            if tracer is None:
                stats.step(op, rnd)
                continue
            # pair each traced run with an untraced one, alternating which
            # goes first, so drift cancels out of the overhead ratio
            tracer.op_id = stats.attempted
            if idx % 2:
                stats.step(op, rnd, tracer)
                stats.step(op, rnd)
            else:
                stats.step(op, rnd)
                stats.step(op, rnd, tracer)
        rnd += 1
        min_samples = 1 if args.tiny else MIN_SAMPLES
        enough = (stats.wall_s >= args.seconds
                  and len(stats.latencies) >= min_samples)
        if enough or time.perf_counter() - t_start > CHILD_WALL_LIMIT_S:
            break
    speed.probe()

    rss_mb = _peak_rss_mb()
    busy = [speed.scaled(t0, dt) for t0, dt in stats.timings]
    result = {
        **setup,
        "probe_ms": speed.median_probe_s() * 1e3,
        "probes": len(speed.durations),
        "digest": workloads.input_digest(ops),
        "ops_per_round": len(ops),
        "rounds": rnd,
        "attempted": stats.attempted,
        "ok": len(stats.latencies),
        "refused": stats.refused,
        "wrong": stats.wrong,
        "errors": stats.errors,
        "error_messages": stats.error_messages[:5],
        "busy_s": sum(busy),
        "busy_wall_s": stats.wall_s,
        "latencies": [busy[i] for i in stats.latencies],
        "latencies_wall": [stats.timings[i][1] for i in stats.latencies],
        "out_terms": stats.out_terms,
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["layers"] = layer_table(tracer.spans)
        result["mismatches"] = stats.mismatches
        result["numeric_tail_max"] = stats.tail_max
        result["traced_busy_s"] = sum(speed.scaled(t0, dt)
                                      for t0, dt in stats.traced)
    print(json.dumps(result))
    return 0


class _Loop:
    """Counters of the timed loop.  Outcomes come from the untraced runs,
    whose (start, wall time) pairs go to `timings`; `latencies` indexes the
    successful ones.  Traced runs add their pairs to `traced`.  After each
    op, with its clock stopped, `speed` may run its calibration probe."""

    def __init__(self, workloads, direct, check_call, speed):
        self.workloads = workloads
        self.direct = direct
        self.check_call = check_call
        self.speed = speed
        self.attempted = 0
        self.timings = []
        self.latencies = []
        self.traced = []
        self.refused = 0
        self.wrong = 0
        self.errors = 0
        self.error_messages = []
        self.wall_s = 0.0
        self.mismatches = 0
        self.tail_max = 0.0
        self.out_terms = 0

    def step(self, op, rnd, tracer=None):
        wl = self.workloads
        if tracer is None:
            call, run = self.direct, wl.run_op
        else:
            call = tracer.call

            def run(o, c):
                return tracer.call("bench.op", wl.run_op, o, c)
        out = None
        t0 = time.perf_counter()
        try:
            out = run(op, call)
            outcome = "done"
        except wl.REFUSALS:
            outcome = "refused"
        except Exception as exc:  # a crash is a failed op, not a dead run
            outcome = "error"
            self.error_messages.append(f"{op.kind}: {exc!r}")
        dt = time.perf_counter() - t0
        if tracer is None:
            self.wall_s += dt
            self.timings.append((t0, dt))
        else:
            self.traced.append((t0, dt))
        if outcome == "done":
            correct, mismatches = wl.check_op(op, out, self.check_call)
            self.mismatches += mismatches
            if op.kind.startswith("numeric"):
                self.tail_max = max(self.tail_max, out.tail_estimate)
            outcome = "ok" if correct else "wrong"
        if outcome == "wrong":
            self.wrong += 1
        elif outcome == "error":
            self.errors += 1
        self.speed.tick()
        if tracer is not None:
            return
        self.attempted += 1
        if outcome == "ok":
            self.latencies.append(len(self.timings) - 1)
            if rnd == 0:
                self.out_terms += wl.out_terms(op, out)
        elif outcome == "refused":
            self.refused += 1


def _peak_rss_mb() -> float:
    import resource
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# parent: orchestrate children, compute metrics, print


def _child(args, role, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--child", role]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} child printed nothing")
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model}


def end_to_end_metrics(res, setup_times):
    lat = sorted(res["latencies"])
    attempted = res["attempted"]
    ok = res["ok"]
    return {
        "ops_per_s": ok / res["busy_s"] if res["busy_s"] > 0 else 0.0,
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_p90_ms": percentile(lat, 0.9) * 1e3 if lat else 0.0,
        "ok_ratio": ok / attempted if attempted else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer_metrics(res):
    layers = res["layers"]
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
    out = {}
    for layer in LAYERS:
        row = layers.get(layer, zero)
        for suffix, _ in LAYER_SUFFIXES:
            out[f"{layer}.{suffix}"] = row[suffix]
    numeric = layers.get("mu.mu_numeric", zero)
    out["presets.state_mode_cold.out_terms"] = res["out_terms"]
    out["oracle.verify.mismatches"] = res["mismatches"]
    out["mu.mu_numeric.ok_ratio"] = (
        1.0 - numeric["failed"] / numeric["calls"] if numeric["calls"] else 0.0)
    out["mu.mu_numeric.tail_max"] = res["numeric_tail_max"]
    out["bench.op_self_s"] = layers.get("bench.op", zero)["self_s"]
    out["trace.overhead_ratio"] = (res["traced_busy_s"] / res["busy_s"]
                                   if res["busy_s"] > 0 else 0.0)
    return out


def parent_main(args) -> int:
    if not (ROOT / "src" / "voxfact" / "__init__.py").is_file():
        sys.stderr.write(f"voxfact sources not found under {ROOT / 'src'}; "
                         "run from the root of a voxfact checkout\n")
        return 2
    deadline = time.monotonic() + PARENT_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_child(args, "setup", deadline))
        res = _child(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups.append(res)
    setup_times = [s["setup_s"] for s in setups]

    info = machine()
    print(f"machine: nproc={info['nproc']} python={info['python']} "
          f"cpu={info['cpu']}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"input_digest={res['digest']} ops_per_round={res['ops_per_round']} "
          f"rounds={res['rounds']}")
    attempted = res["attempted"]
    failed = res["wrong"] + res["errors"]
    fail_ratio = (res["refused"] + failed) / attempted if attempted else 0.0
    print(f"attempted={attempted} ok={res['ok']} refused={res['refused']} "
          f"wrong={res['wrong']} errors={res['errors']} "
          f"fail_ratio={fail_ratio:.6g} samples={len(res['latencies'])} "
          f"timed_s={res['busy_s']:.3f} out_terms={res['out_terms']}")
    for msg in res["error_messages"]:
        print(f"error: {msg}")

    if args.trace:
        metrics = per_layer_metrics(res)
        units = per_layer_units()
        print(f"{'layer':40s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s} "
              f"{'failed':>7s}")
        for name, row in sorted(res["layers"].items()):
            print(f"{name:40s} {row['calls']:9d} {row['busy_s']:10.4f} "
                  f"{row['self_s']:10.4f} {row['failed']:7d}")
        print(f"spans written to {res['span_file']}")
    else:
        metrics = end_to_end_metrics(res, setup_times)
        units = dict(END_TO_END)
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup_times)}")
        wall = sorted(res["latencies_wall"])
        print(f"wall clock, unscaled: probe_ms={res['probe_ms']:.4f} "
              f"(reference {REF_PROBE_S * 1e3:g}, {res['probes']} probes) "
              f"ops_per_s={res['ok'] / res['busy_wall_s']:.6g} "
              f"op_p50_ms={statistics.median(wall) * 1e3:.6g} "
              f"op_p90_ms={percentile(wall, 0.9) * 1e3:.6g} setup_s="
              f"{statistics.median(s['setup_wall_s'] for s in setups):.6g}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, each workload at a tiny size.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

METRIC_RE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


def run(workload, seed, trace=0, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    info = {}
    for line in lines[:-1]:
        m = METRIC_RE.match(line)
        if m:
            printed[m.group(1)] = m.group(3)
        for key in ("input_digest", "out_terms"):
            found = re.search(rf"\b{key}=(\S+)", line)
            if found:
                info[key] = found.group(1)
    return result, printed, info


@pytest.fixture(scope="module")
def runs():
    """Seed 1 twice and seed 2 once, untraced and traced, per workload."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = {
            "a": parse(run(workload, 1)),
            "b": parse(run(workload, 1)),
            "c": parse(run(workload, 2)),
            "trace": parse(run(workload, 1, trace=1)),
        }
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(runs, workload):
    result, printed, _ = runs[workload]["a"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert printed == want
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_print_with_units(runs, workload):
    result, printed, _ = runs[workload]["trace"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert printed == want
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["oracle.verify.mismatches"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_reproduces_inputs(runs, workload):
    _, _, first = runs[workload]["a"]
    _, _, again = runs[workload]["b"]
    _, _, other = runs[workload]["c"]
    assert first["input_digest"] == again["input_digest"]
    assert first["out_terms"] == again["out_terms"]
    assert first["input_digest"] != other["input_digest"]


def test_out_terms_fingerprint_repeats_in_traced_run(runs):
    _, _, plain = runs["mode_cold"]["a"]
    traced, _, _ = runs["mode_cold"]["trace"]
    value = traced["metrics"]["presets.state_mode_cold.out_terms"]["value"]
    assert int(plain["out_terms"]) == value > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("mode_cold", 1, cwd=tmp_path,
               script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_speed_scales_by_the_probes_around_an_interval():
    from speed import REF_PROBE_S, Speed
    speed = Speed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.durations = [2 * REF_PROBE_S] * 5
    assert speed.scaled(2.5, 1.0) == pytest.approx(0.5)
    # one slow probe among the four around the interval does not move it
    speed.durations[2] = 20 * REF_PROBE_S
    assert speed.scaled(2.5, 1.0) == pytest.approx(0.5)

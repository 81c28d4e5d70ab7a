"""Call-site spans for the benchmark's traced run.

A span is recorded around each public call the benchmark makes into the
program, plus one ``bench.op`` span around each whole operation.  Spans are
kept in memory as tuples and written out once, when the run ends.  The
untraced run uses `direct`, which only calls through.
"""
from __future__ import annotations

import json
from time import perf_counter

OP_SPAN = "bench.op"


def direct(name, fn, *args, **kwargs):
    """Untraced call site: no clock reads, no bookkeeping."""
    return fn(*args, **kwargs)


class Tracer:
    """Records (name, start, end, parent index, op id, failed) per call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        failed = True
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op_id, failed)

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op_id, failed in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op_id, failed]))
                fh.write("\n")


def layer_table(spans):
    """Per span name: calls, busy seconds, self seconds, failed calls.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the run is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table = {}
    for idx, (name, t0, t1, _, _, failed) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["busy_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[idx]
        row["failed"] += int(failed)
    return table

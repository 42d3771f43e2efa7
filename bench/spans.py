"""Per-layer metrics computed from the spans ``tracer.py`` writes.

A layer's self time is the time its spans cover minus the part of each
span's interval that its child spans cover (children may run in parallel in
pool workers, so the union of their intervals is subtracted, not the sum).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass

from tracer import LAYERS

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "linalg.svd_s": "s",
    "linalg.svd_matrices": "count",
    "linalg.svd_per_trial": "ratio",
    "linalg.solve_s": "s",
    "linalg.solve_matrices": "count",
    "linalg.qr_s": "s",
    "linalg.norm_s": "s",
    "linalg.bytes_computed": "bytes",
    "linalg.api_s": "s",
    "linalg.api_calls": "count",
    "linalg.self_s": "s",
    "channel.generators": "count",
    "channel.draw_s": "s",
    "channel.normals_drawn": "count",
    "channel.accept_ratio": "ratio",
    "channel.api_s": "s",
    "channel.api_calls": "count",
    "channel.self_s": "s",
    "detection.api_s": "s",
    "detection.api_calls": "count",
    "detection.self_s": "s",
    "analysis.api_s": "s",
    "analysis.api_calls": "count",
    "analysis.self_s": "s",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.pools_started": "count",
    "experiments.worker_busy_s": "s",
    "experiments.parallel_efficiency": "ratio",
    "properties.self_s": "s",
    "properties.checks_failed": "count",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.import_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    run: int
    layer: str
    kind: str
    name: str
    start: float
    end: float
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def count(self, key: str) -> int:
        return (self.counts or {}).get(key, 0)


def load(spans_dir: str) -> list[Span]:
    """Every span written to ``spans_dir``, from all processes of one run."""
    spans = []
    for name in sorted(os.listdir(spans_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
    return spans


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(s.start, s.end, children[s.sid]) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every metric in ``UNITS`` except ``trace.overhead_s``."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def outer_api(s: Span) -> bool:
        # A public-function call made from another layer, not from inside
        # its own layer's public functions.
        parent = by_id.get(s.parent)
        return s.kind == "api" and not (
            parent is not None and parent.kind == "api" and parent.layer == s.layer
        )

    def total(pred, value=lambda s: s.duration):
        return sum(value(s) for s in spans if pred(s))

    def numpy_op(name):
        return lambda s: s.kind == "numpy" and s.name == name

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(lambda s: s.layer == layer, lambda s: selfs[s.sid])
    for layer in ("linalg", "channel", "detection", "analysis"):
        m[f"{layer}.api_s"] = total(lambda s: s.layer == layer and outer_api(s))
        m[f"{layer}.api_calls"] = total(lambda s: s.layer == layer and outer_api(s), lambda s: 1)

    trials = total(lambda s: s.kind == "api", lambda s: s.count("trials"))
    svd_matrices = total(numpy_op("svd"), lambda s: s.count("matrices"))
    m["linalg.svd_s"] = total(numpy_op("svd"))
    m["linalg.svd_matrices"] = svd_matrices
    m["linalg.svd_per_trial"] = svd_matrices / trials if trials else 0.0
    m["linalg.solve_s"] = total(numpy_op("solve"))
    m["linalg.solve_matrices"] = total(numpy_op("solve"), lambda s: s.count("matrices"))
    m["linalg.qr_s"] = total(numpy_op("qr"))
    m["linalg.norm_s"] = total(numpy_op("norm"))
    m["linalg.bytes_computed"] = total(lambda s: s.kind == "numpy", lambda s: s.count("bytes"))

    accepted = total(lambda s: s.kind == "api", lambda s: s.count("normalized_trials"))
    drawn = total(numpy_op("norm"), lambda s: s.count("normalized"))
    m["channel.generators"] = total(lambda s: s.kind == "generator", lambda s: 1)
    m["channel.draw_s"] = total(lambda s: s.kind == "draw")
    m["channel.normals_drawn"] = total(lambda s: s.kind == "draw", lambda s: s.count("normals"))
    m["channel.accept_ratio"] = accepted / drawn if drawn else 1.0

    run_s = total(lambda s: s.layer == "experiments" and outer_api(s) and s.name.startswith("run_"))
    busy = total(lambda s: s.kind == "task")
    workers = max((s.count("workers") for s in spans if s.kind == "pool"), default=0)
    m["experiments.run_s"] = run_s
    m["experiments.pools_started"] = total(lambda s: s.kind == "pool", lambda s: 1)
    m["experiments.worker_busy_s"] = busy
    m["experiments.parallel_efficiency"] = busy / (workers * run_s) if workers and run_s else 0.0

    m["properties.checks_failed"] = total(lambda s: True, lambda s: s.count("failed"))

    def outer_write(s: Span) -> bool:
        parent = by_id.get(s.parent)
        return (
            s.layer == "cli"
            and s.kind == "api"
            and s.name.startswith("write_")
            and not (parent is not None and parent.name.startswith("write_"))
        )

    m["cli.write_s"] = total(outer_write)
    m["cli.import_s"] = total(lambda s: s.kind == "import")
    m["cli.output_bytes"] = total(lambda s: s.layer == "cli", lambda s: s.count("bytes"))
    # cli.self_s is argument parsing, option resolution and dispatch only;
    # writing and importing are reported on their own.
    m["cli.self_s"] -= m["cli.write_s"] + m["cli.import_s"]
    return {name: m[name] for name in UNITS if name in m}

"""State of one benchmark run: work directory, header, probes, checks,
metrics and the final result line."""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from sndbench import common, layers
from sndbench.tracer import Tracer, layer_split

WORK_DIR = ".sndbench-work"

#: Per-layer metrics of layers that only serve-10k loads.
SERVE_ONLY = (
    "service.self_s",
    "store.flush_s",
    "store.transitions_written",
    "http.overhead_ms",
    "http.non200",
    "http.unmatched",
    "generator.lag_p99_ms",
)
#: Per-layer metrics of the process pool, which only corpus-2k-pool loads.
POOL_ONLY = ("engine.slot_writes", "engine.pool_starts", "engine.parallel_efficiency")
SOLVED_DEFECT = "known defect: PairScheduler._solve counts solved before the solve runs"


def merged_split(tracer: Tracer, windows) -> dict:
    """:func:`~sndbench.tracer.layer_split` summed over several windows."""
    total = {"by_layer": {}, "by_name": {}, "other": 0.0, "wall": 0.0}
    for start, end in windows:
        part = layer_split(tracer.spans, start, end)
        for key in ("by_layer", "by_name"):
            for name, seconds in part[key].items():
                total[key][name] = total[key].get(name, 0.0) + seconds
        total["other"] += part["other"]
        total["wall"] += part["wall"]
    return total


class Traced:
    """Context manager installing the tracer's wrap points when *on*."""

    def __init__(self, tracer: Tracer | None, on: bool) -> None:
        self.tracer, self.on = tracer, on and tracer is not None

    def __enter__(self):
        if self.on:
            self.tracer.install(layers.WRAP_POINTS)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.on:
            self.tracer.restore()


@dataclass
class Run:
    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    latency_limit_ms: float
    attempted: int = 0
    failed: int = 0
    checked: bool = False
    metrics: dict = field(default_factory=dict)
    #: Metrics that read zero or are taken from elsewhere because of a
    #: known program defect, or that do not meet a sampling rule.
    flags: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.work = self.root / WORK_DIR / f"{self.workload}-{self.seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.header = common.run_header(
            self.root, self.workload, self.seed, int(self.seconds), self.trace
        )
        self.header["latency_limit_ms"] = self.latency_limit_ms
        self.header["probe_s"] = {}
        self.probe("start")

    def probe(self, label: str) -> None:
        self.header["probe_s"][label] = common.host_probe()

    def record(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def flag(self, name: str, reason: str) -> None:
        self.flags[name] = reason

    def zero(self, names) -> None:
        """Layers this workload does not load did no work: they read zero."""
        for name in names:
            self.metrics.setdefault(name, 0.0)

    def record_split(self, tracer: Tracer, windows) -> list:
        """Per-layer seconds over the traced *windows*; returns their spans."""
        total = merged_split(tracer, windows)
        self.metrics.update(layers.split_metrics(total))
        self.report["layer_split"] = total
        self.header["split_check"] = {
            "wall_s": total["wall"],
            "layers_plus_other_s": sum(total["by_layer"].values()) + total["other"],
            "largest_layer": max(total["by_layer"], key=total["by_layer"].get),
        }
        spans = [s for start, end in windows for s in tracer.window(start, end)]
        self.metrics.update(layers.span_counts(spans))
        return spans

    def result(self) -> dict:
        wanted = layers.PER_LAYER if self.trace else layers.END_TO_END
        missing = [m.name for m in wanted if m.name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        bad = [m.name for m in wanted if not math.isfinite(self.metrics[m.name])]
        if bad:
            raise RuntimeError(f"metrics not finite: {bad}")
        self.header["flags"] = self.flags
        return {
            "correct": self.checked and self.failed == 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                m.name: common.metric(self.metrics[m.name], m.unit) for m in wanted
            },
        }

    def write_report(self) -> None:
        """Header, flags and span summaries, written when the run ends."""
        out = self.root / WORK_DIR / f"{self.workload}-{self.seed}-trace{int(self.trace)}.json"
        payload = {"header": self.header, "flags": self.flags, "metrics": self.metrics}
        payload.update(self.report)
        out.write_text(json.dumps(common.jsonable(payload), indent=1, sort_keys=True))

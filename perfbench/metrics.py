"""Metric names, units and the per-run result every workload fills in."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root (the benchmark runs from there) and the one directory
#: the benchmark writes to.
ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"

#: End-to-end metrics every run reports, with their units.
END_TO_END = {
    "setup_s": "s", "frames_per_s": "1/s", "peak_rss_mb": "MB",
    "sample_err_pct": "%", "job_p50_s": "s", "job_tail_s": "s",
    "rerun_s": "s",
}

#: Per-layer metrics every traced run reports (0 where a layer does not
#: run or a workload does not hand back the statistics it is read from).
PER_LAYER = {
    "events.fired": "count", "events.self_s": "s", "events.ns_per_event": "ns",
    "simt.cycles": "count", "simt.warp_insts": "count", "simt.self_s": "s",
    "simt.ns_per_inst": "ns",
    "shader.warp_runs": "count", "shader.dyn_insts": "count",
    "shader.self_s": "s", "shader.ns_per_inst": "ns",
    "raster.fragments": "count", "raster.self_s": "s", "pipeline.self_s": "s",
    "l1.accesses": "count", "l1.hit_rate": "ratio", "l2.accesses": "count",
    "l2.hit_rate": "ratio", "gpu.self_s": "s",
    "dram.requests": "count", "dram.row_hit_rate": "ratio",
    "dram.queue_ticks": "ticks", "memory.self_s": "s",
    "memory.frfcfs.self_s": "s", "memory.dash.self_s": "s",
    "ports.sends": "count", "ports.retry_ratio": "ratio", "noc.self_s": "s",
    "cpu.requests": "count", "display.requests": "count",
    "display.aborts": "count", "soc.self_s": "s",
    "sampling.functional_s": "s", "sampling.detailed_s": "s",
    "sampling.coverage": "ratio", "sampling.self_s": "s",
    "checkpoint.capture_s": "s", "checkpoint.restore_s": "s",
    "checkpoint.bytes": "bytes", "checkpoint.self_s": "s",
    "fleet.queue_wait_s": "s", "fleet.attempt_s": "s",
    "fleet.publish_s": "s", "journal.append_ms": "ms",
    "cache.lookup_ms": "ms", "cache.store_ms": "ms", "fleet.hit_ms": "ms",
    "fleet.ok_per_attempt": "ratio", "fleet.gen_late_s": "s",
    "fleet.self_s": "s",
    "sim.end_tick": "ticks", "sim.gpu_time": "ticks",
    "sim.dram_bytes": "bytes", "sim.row_hit_rate": "ratio",
    "ledger.wall_s": "s", "ledger.unaccounted_s": "s",
    "ledger.overhead_pct": "%",
}

#: The traced run's layers plus unaccounted time must sum to its wall time
#: within this share.
LEDGER_TOLERANCE = 0.01


@dataclass
class Result:
    """One benchmark run's metrics and verdicts."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # failed checks, one line
    notes: list = field(default_factory=list)      # report lines


def latency_metrics(latencies: list, result: Result, what: str) -> None:
    """``job_p50_s`` and ``job_tail_s``: the median, and the highest
    percentile with at least ten samples beyond it (the maximum when there
    are fewer than eleven samples, which the report says)."""
    ordered = sorted(latencies)
    count = len(ordered)
    result.metrics["job_p50_s"] = statistics.median(ordered)
    if count > 10:
        result.metrics["job_tail_s"] = ordered[count - 11]
        tail = f"p{100 * (count - 10) / count:.1f}"
    else:
        result.metrics["job_tail_s"] = ordered[-1]
        tail = "max (fewer than 11 samples)"
    result.notes.append(f"job latency: {what}; n={count}, "
                        f"job_tail_s is the {tail}")

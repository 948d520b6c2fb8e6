"""Benchmark artifacts pinned to the event schedule.

Every artifact this module writes embeds the identity fingerprint that
proves the run computed the pinned simulation.  Three reference workloads
are tracked:

* ``fig14`` — the case-study-I unit behind Fig. 14 (M1 under the BAS
  memory system, high-load scenario): DRAM-scheduler-bound, the worst
  case for the event kernel and the FR-FCFS scan.
* ``pipeline`` — one :class:`~repro.gpu.gpu.EmeraldGPU` teapot frame:
  shader/raster-bound, the worst case for per-op dispatch.
* ``ffwd`` — sampled simulation (DESIGN.md §13) against full detail on
  the Fig. 14 scene: wall-clock speedup, per-metric extrapolation error
  vs a symmetric per-frame ground truth, and the fast-forward
  framebuffer-CRC identity check.  It compares an *approximation* to the
  exact run, so the gate bounds the error (≤5 %) rather than demanding
  bit identity of the estimates — the CRC identity of the fast-forwarded
  run stays exact.

``fig14`` and ``pipeline`` run their workload once and report wall time,
events/sec and (for the GPU frame) fragments/sec next to the identity
fingerprint (end tick / cycles, events fired, framebuffer CRC, ...).
:data:`PINS` holds the expected fingerprint for every scale, and
:func:`gate` fails when a run drifts from it: the event schedule changed.

Machine-independence: a fingerprint is the same on every host, so CI gates
on it.  A wall time is one sample on a host whose speed varies; it is
reported, never gated.  ``perfbench/`` takes repeated, host-speed-corrected
measurements with a per-layer host-time table (``perfbench/README.md``).

Entry points: ``python -m repro bench --summary`` (writes
``BENCH_<name>.json``) and the CI smoke job (``--scale smoke --gate``).
"""

from __future__ import annotations

import json
import platform
import time
import zlib
from pathlib import Path
from typing import Callable

#: Identity fingerprints per benchmark and scale.  The default-scale end
#: tick / cycles and event counts are those first recorded at commit
#: f9eb076; a legitimate schedule change re-pins these together with the
#: golden tests, never alone.
PINS = {
    "fig14": {
        "default": {"end_tick": 1_357_432, "events_fired": 274_152,
                    "fb_crc": 967344438,
                    "row_hit_rate": 0.7729785508955553,
                    "mean_gpu_time": 206497.33333333334},
        "smoke": {"end_tick": 240_000, "events_fired": 46_972,
                  "fb_crc": 723212397, "row_hit_rate": 0.2994871794871795,
                  "mean_gpu_time": 7703.0},
        "micro": {"end_tick": 120_000, "events_fired": 25_446,
                  "fb_crc": 511478711, "row_hit_rate": 0.3783783783783784,
                  "mean_gpu_time": 0.0},
    },
    "pipeline": {
        "default": {"cycles": 35_612, "fragments": 6_650,
                    "events_fired": 125_678, "fb_crc": 2197508556,
                    "dram_bytes": 146_944},
        "smoke": {"cycles": 14_433, "fragments": 1_690,
                  "events_fired": 58_735, "fb_crc": 4187011321,
                  "dram_bytes": 55_424},
        "micro": {"cycles": 9_863, "fragments": 417,
                  "events_fired": 42_027, "fb_crc": 554418416,
                  "dram_bytes": 35_456},
    },
}

BENCHMARKS = ("fig14", "pipeline", "ffwd")
SCALES = ("default", "smoke", "micro")

#: Stamped next to every single-run wall time in an artifact.
WALL_NOTE = ("wall_s is one sample on a host whose speed varies; "
             "perfbench/ takes repeated, host-speed-corrected measurements "
             "(perfbench/README.md)")

#: Largest relative extrapolation error the ffwd gate tolerates, per
#: metric, at the default (Fig. 14) operating point.  The estimates are
#: deterministic simulation quantities, so this check is
#: machine-independent.  The reduced scales carry their own looser bound
#: (see :func:`_ffwd_operating_point`): their detailed windows measure
#: only one frame each, and per-frame variance at the tiny 48x36
#: workload is ~25% of the mean, so a 5% bound would gate on sampling
#: noise rather than bias.
FFWD_ERROR_BOUND = 0.05


def _timed(fn: Callable):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _host() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _fig14_config(scale: str):
    from repro.harness.case_study1 import CS1Config

    if scale == "default":
        # The benchmarks/conftest.py quick-mode operating point.
        return CS1Config(num_frames=4)
    if scale == "smoke":
        # The CI trace-smoke operating point: seconds, not minutes.
        return CS1Config(width=48, height=36, num_frames=2,
                         texture_size=64,
                         gpu_frame_period_ticks=120_000,
                         display_period_ticks=60_000,
                         cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
    if scale == "micro":
        return CS1Config(width=48, height=36, num_frames=1,
                         texture_size=64,
                         gpu_frame_period_ticks=120_000,
                         display_period_ticks=60_000,
                         cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
    raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def run_fig14(scale: str = "default") -> dict:
    """Benchmark the Fig. 14 unit (M1 / BAS / high load)."""
    from repro.harness.case_study1 import make_cs1_soc

    config = _fig14_config(scale)
    soc = make_cs1_soc("M1", "BAS", "high", config=config)
    wall, results = _timed(soc.run)
    events = soc.events.events_fired
    row = {
        "wall_s": round(wall, 4),
        "events_fired": events,
        "events_per_s": round(events / wall, 1),
        "end_tick": results.end_tick,
        "fb_crc": zlib.crc32(soc.gpu.fb.color.tobytes()),
        "row_hit_rate": results.row_hit_rate,
        "mean_gpu_time": results.mean_gpu_time,
    }
    workload = {
        "name": "cs1 M1/BAS/high",
        "width": config.width, "height": config.height,
        "num_frames": config.num_frames,
    }
    return _report("fig14", scale, workload, row)


def run_pipeline(scale: str = "default") -> dict:
    """Benchmark one EmeraldGPU teapot frame (shader/raster bound)."""
    from repro.common.config import DRAMConfig, GPUConfig
    from repro.common.events import EventQueue
    from repro.gpu.gpu import EmeraldGPU
    from repro.harness.scenes import SceneSession
    from repro.memory.builders import build_baseline_memory

    sizes = {"default": (256, 192), "smoke": (128, 96), "micro": (64, 48)}
    if scale not in sizes:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    width, height = sizes[scale]

    session = SceneSession("teapot", width, height)
    frame = session.frame(0)
    events = EventQueue()
    memory = build_baseline_memory(events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, GPUConfig(num_clusters=4),
                     width, height, memory=memory)
    wall, stats = _timed(lambda: gpu.run_frame(frame))
    fired = events.events_fired
    row = {
        "wall_s": round(wall, 4),
        "events_fired": fired,
        "events_per_s": round(fired / wall, 1),
        "cycles": stats.cycles,
        "fragments": stats.fragments,
        "fragments_per_s": round(stats.fragments / wall, 1),
        "dram_bytes": stats.dram_bytes,
        "fb_crc": zlib.crc32(gpu.fb.color.tobytes()),
    }
    workload = {"name": "gpu teapot frame", "width": width,
                "height": height, "clusters": 4, "channels": 2}
    return _report("pipeline", scale, workload, row)


def _ffwd_operating_point(scale: str):
    """(CS1Config, sample spec, ffwd frames, error bound) per scale.

    The reduced scales use warmup 2: the post-switch cold transient at
    the 48x36 workload lasts ~2 frames (the first detailed frame after a
    mode switch runs ~5x steady state, the second ~2x), so a warmup-1
    schedule would measure frames still inside the transient.
    """
    from repro.harness.case_study1 import CS1Config

    if scale == "default":
        # Fig. 14 scene at its real resolution; 1/6 detailed coverage.
        return CS1Config(num_frames=36), "2:12:1", 18, FFWD_ERROR_BOUND
    small = dict(width=48, height=36, texture_size=64,
                 gpu_frame_period_ticks=120_000,
                 display_period_ticks=60_000,
                 cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
    if scale == "smoke":
        return CS1Config(num_frames=24, **small), "3:8:2", 12, 0.10
    if scale == "micro":
        return CS1Config(num_frames=8, **small), "3:4:2", 4, 0.10
    raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def run_ffwd(scale: str = "default") -> dict:
    """Benchmark sampled simulation against full detail (Fig. 14 scene).

    Three runs of M1 / BAS / high load:

    1. **full detail** — the exact run, with a per-frame activity hook so
       the ground-truth per-frame metrics are computed *the same way* the
       sampler computes its window samples (deltas between frame
       boundaries, app warmup frame 0 excluded) — asymmetric definitions
       would report definition error as extrapolation error;
    2. **sampled** — functional/detailed alternation under the scale's
       schedule, extrapolated with error bars;
    3. **fast-forward** — half the frames functional, rest detailed; its
       final framebuffer must be CRC-identical to the full-detail run's
       (the mode-switch exactness check, same contract CI's
       ``repro ffwd --verify`` gates on).
    """
    from dataclasses import replace as dc_replace

    from repro.gpu.energy import frame_energy, gpu_activity_snapshot
    from repro.harness.case_study1 import make_cs1_setup
    from repro.sampling import fast_forward, parse_sample_spec, run_sampled
    from repro.sampling.stats import SAMPLE_METRICS
    from repro.soc.soc import EmeraldSoC

    config, spec, ffwd_frames, error_bound = _ffwd_operating_point(scale)
    run_config, factory = make_cs1_setup("M1", "BAS", "high", config=config)
    schedule = parse_sample_spec(spec, config.num_frames)

    # 1. Full detail with symmetric per-frame ground truth.
    per_frame: list[dict] = []
    cell: dict = {}

    def hook(frame_index: int, tick: int) -> None:
        soc = cell["soc"]
        activity = gpu_activity_snapshot(soc.gpu)
        per_frame.append({"frame": frame_index,
                          "total_bytes": soc.memory.total_bytes(),
                          "issued": activity["issued"],
                          "l1_accesses": activity["l1_accesses"]})

    session = factory()
    soc = EmeraldSoC(dc_replace(run_config, frame_hook=hook),
                     session.frame, session.framebuffer_address)
    cell["soc"] = soc
    wall_full, results = _timed(soc.run)
    full_fb_crc = zlib.crc32(soc.gpu.fb.color.tobytes())

    previous = {"total_bytes": 0, "issued": 0, "l1_accesses": 0}
    by_index = {entry["frame"]: entry for entry in per_frame}
    rows: list[tuple] = []
    for record in results.frames:
        entry = by_index[record.index]
        delta_bytes = entry["total_bytes"] - previous["total_bytes"]
        delta_issued = entry["issued"] - previous["issued"]
        delta_l1 = entry["l1_accesses"] - previous["l1_accesses"]
        previous = entry
        if record.index == 0:
            continue                      # app warmup: excluded both sides
        rows.append((record.gpu_time, record.total_time, delta_bytes,
                     frame_energy(record.gpu_stats, delta_issued,
                                  delta_l1).total_uj))
    ground_truth = {
        metric: sum(row[i] for row in rows) / len(rows)
        for i, metric in enumerate(SAMPLE_METRICS)
    }

    # 2. Sampled run + extrapolation.
    wall_sampled, sampled = _timed(
        lambda: run_sampled(run_config, factory, schedule))
    errors = {
        metric: abs(sampled.estimates[metric].mean - ground_truth[metric])
        / abs(ground_truth[metric])
        for metric in SAMPLE_METRICS
    }

    # 3. Fast-forward CRC identity.
    wall_ffwd, ffwd = _timed(
        lambda: fast_forward(run_config, factory, ffwd_frames))
    crc_identical = ffwd.final_fb_crc == full_fb_crc

    workload = {
        "name": "cs1 M1/BAS/high sampled",
        "width": config.width, "height": config.height,
        "num_frames": config.num_frames, "sample": schedule.spec(),
        "ffwd_frames": ffwd_frames,
    }
    return {
        "benchmark": "ffwd",
        "scale": scale,
        "workload": workload,
        "full_detail": {
            "wall_s": round(wall_full, 4),
            "fb_crc": full_fb_crc,
            "per_frame": {k: round(v, 4) for k, v in ground_truth.items()},
        },
        "sampled": {
            "wall_s": round(wall_sampled, 4),
            "wall_functional": round(sampled.wall_functional, 4),
            "wall_detailed": round(sampled.wall_detailed, 4),
            "coverage": schedule.coverage,
            "windows": len(sampled.samples),
            "estimates": {name: est.as_dict()
                          for name, est in sampled.estimates.items()},
            "fps": sampled.extrapolated.fps,
        },
        "ffwd": {
            "wall_s": round(wall_ffwd, 4),
            "final_fb_crc": ffwd.final_fb_crc,
            "speedup_vs_full": round(wall_full / wall_ffwd, 3),
        },
        "errors": {k: round(v, 5) for k, v in errors.items()},
        "error_bound": error_bound,
        "identical": crc_identical,
        "identity": {"fb_crc": full_fb_crc},
        "speedup_sampled_vs_full": round(wall_full / wall_sampled, 3),
        "host": _host(),
        "generated_by": "python -m repro bench",
    }


def _report(name: str, scale: str, workload: dict, row: dict) -> dict:
    pinned = PINS[name][scale]
    return {
        "benchmark": name,
        "scale": scale,
        "workload": workload,
        "run": row,
        "pinned": pinned,
        "wall_note": WALL_NOTE,
        "host": _host(),
        "generated_by": "python -m repro bench",
    }


def _drifted(report: dict) -> list:
    """Fingerprint keys whose run value differs from the pinned one."""
    return [key for key, expected in report["pinned"].items()
            if report["run"][key] != expected]


def gate(report: dict, min_speedup: float = 0.9) -> list:
    """Machine-independent pass/fail checks for one report.

    Returns a list of failure strings (empty = pass).  ``fig14`` and
    ``pipeline`` fail when their fingerprint drifts from :data:`PINS`.
    ``ffwd`` fails on a fast-forward CRC mismatch, an extrapolation error
    over its bound, or a sampled run slower than the full-detail run of
    the same process beyond the noise allowance ``min_speedup``.
    """
    failures = []
    name = report["benchmark"]
    if name == "ffwd":
        if not report["identical"]:
            failures.append(
                f"ffwd: fast-forwarded final framebuffer CRC "
                f"{report['ffwd']['final_fb_crc']} != full-detail "
                f"{report['full_detail']['fb_crc']} — the mode switch "
                f"changed the simulation")
        bound = report["error_bound"]
        for metric, error in report["errors"].items():
            if error > bound:
                failures.append(
                    f"ffwd: {metric} extrapolation error {error * 100:.2f}% "
                    f"exceeds the {bound * 100:.0f}% bound")
        if report["speedup_sampled_vs_full"] < min_speedup:
            failures.append(
                f"ffwd: sampled run is slower than full detail "
                f"({report['sampled']['wall_s']:.3f}s vs "
                f"{report['full_detail']['wall_s']:.3f}s, ratio "
                f"{report['speedup_sampled_vs_full']:.3f} < {min_speedup})")
        return failures
    for key in _drifted(report):
        failures.append(
            f"{name}: {key} {report['run'][key]} != pinned "
            f"{report['pinned'][key]} — the event schedule drifted")
    return failures


def artifact_name(report: dict) -> str:
    return f"BENCH_{report['benchmark']}.json"


def write_report(report: dict, out_dir: str = ".") -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / artifact_name(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


def format_summary(report: dict) -> str:
    """Human-readable one-benchmark summary for ``bench --summary``."""
    if report["benchmark"] == "ffwd":
        full, sampled = report["full_detail"], report["sampled"]
        lines = [f"ffwd ({report['scale']}): {report['workload']['name']} "
                 f"{report['workload']['width']}x"
                 f"{report['workload']['height']} "
                 f"x{report['workload']['num_frames']} frames, "
                 f"sample {report['workload']['sample']}"]
        lines.append(f"  full detail   {full['wall_s']:>7.3f}s")
        lines.append(f"  sampled       {sampled['wall_s']:>7.3f}s  "
                     f"({sampled['coverage'] * 100:.0f}% coverage, "
                     f"{sampled['windows']} windows)  "
                     f"{report['speedup_sampled_vs_full']:.2f}x")
        lines.append(f"  fast-forward  {report['ffwd']['wall_s']:>7.3f}s  "
                     f"{report['ffwd']['speedup_vs_full']:.2f}x  "
                     f"(fb CRC identical: {report['identical']})")
        errors = "  ".join(f"{k} {v * 100:.2f}%"
                           for k, v in report["errors"].items())
        lines.append(f"  extrapolation error (bound "
                     f"{report['error_bound'] * 100:.0f}%): {errors}")
        return "\n".join(lines)
    row = report["run"]
    drifted = _drifted(report)
    lines = [f"{report['benchmark']} ({report['scale']}): "
             f"{report['workload']['name']} "
             f"{report['workload']['width']}x{report['workload']['height']}"]
    lines.append(f"  wall {row['wall_s']:.3f}s (one sample)  "
                 f"{row['events_per_s']:,.0f} events/s"
                 + (f"  {row['fragments_per_s']:,.0f} frags/s"
                    if "fragments_per_s" in row else ""))
    lines.append("  fingerprint: "
                 + ("matches its pins" if not drifted
                    else f"drifted on {', '.join(drifted)}"))
    return "\n".join(lines)


def run(names=BENCHMARKS, scale: str = "default") -> list:
    runners = {"fig14": run_fig14, "pipeline": run_pipeline,
               "ffwd": run_ffwd}
    return [runners[name](scale) for name in names]

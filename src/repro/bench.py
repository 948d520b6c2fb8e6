"""The sampled-simulation gate: ``python -m repro bench``.

``run_ffwd`` measures sampled simulation (DESIGN.md §13) against full
detail on the Fig. 14 scene (M1 under the BAS memory system, high
load): wall-clock speedup, per-metric extrapolation error against a
full-detail ground truth, and the fast-forward framebuffer-CRC identity
check.  It compares an *approximation* to the exact run, so the gate
bounds the error rather than demanding bit identity of the estimates;
the CRC identity of the fast-forwarded run stays exact.

The fingerprints of the reference workloads (the Fig. 14 unit and the
GPU teapot frame, at every scale) are golden tests in
``tests/soc/test_port_fabric.py``.  Repeated, host-speed-corrected
speed measurements with a per-layer host-time table come from
``perfbench/``, folded into ``BENCH_perf.json`` by
``benchmarks/fold_perf.py``.

Entry points: ``python -m repro bench --summary`` (writes
``BENCH_ffwd.json``) and CI's ffwd job (``--scale smoke --gate``).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Callable

SCALES = ("default", "smoke", "micro")

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

    1. **full detail** — the exact run, measured as one detailed window
       over every frame from frame 1 on (the app warmup frame 0
       excluded), so the ground-truth per-frame metrics come from the
       reduction the sampler applies to its own windows — asymmetric
       definitions would report definition error as extrapolation error;
    2. **sampled** — the scale's sampling schedule (functional pass,
       then the detailed windows), extrapolated with error bars;
    3. **fast-forward** — half the frames functional, rest detailed; its
       final framebuffer must be CRC-identical to the full-detail run's
       (the mode-switch exactness check, same contract CI's
       ``repro ffwd --verify`` gates on).
    """
    from repro.harness.case_study1 import make_cs1_setup
    from repro.sampling import (Window, fast_forward, fb_crc,
                                parse_sample_spec, run_sampled)
    from repro.sampling.sampler import measure_window
    from repro.sampling.stats import SAMPLE_METRICS

    config, spec, ffwd_frames, error_bound = _ffwd_operating_point(scale)
    run_config, factory = make_cs1_setup("M1", "BAS", "high", config=config)
    schedule = parse_sample_spec(spec, config.num_frames)

    # 1. Full detail, reduced the way the sampler reduces a window.
    everything = Window(start=0, end=config.num_frames, kind="detailed",
                        measure_from=1)
    session = factory()
    wall_full, (soc, _, truth) = _timed(
        lambda: measure_window(run_config, everything, session))
    full_fb_crc = fb_crc(soc)
    ground_truth = {metric: truth.metric(metric) for metric in SAMPLE_METRICS}

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


def gate(report: dict, min_speedup: float = 0.9) -> list:
    """Machine-independent pass/fail checks for one ``run_ffwd`` report.

    Returns a list of failure strings (empty = pass): a fast-forward CRC
    mismatch, an extrapolation error over its bound, or a sampled run
    slower than the full-detail run of the same process beyond the noise
    allowance ``min_speedup``.
    """
    failures = []
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


def write_report(report: dict, out_dir: str = ".") -> Path:
    """Write the report as ``BENCH_ffwd.json`` in ``out_dir``."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "BENCH_ffwd.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


def format_summary(report: dict) -> str:
    """Human-readable summary for ``bench --summary``."""
    full, sampled = report["full_detail"], report["sampled"]
    workload = report["workload"]
    lines = [f"ffwd ({report['scale']}): {workload['name']} "
             f"{workload['width']}x{workload['height']} "
             f"x{workload['num_frames']} frames, "
             f"sample {workload['sample']}"]
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

"""Periodic-sampling driver: one functional pass, then independent windows.

:func:`run_sampled` executes one workload under a
:class:`~repro.sampling.windows.WindowSchedule` in two steps.  One
:class:`~repro.sampling.functional.FunctionalSim` pass advances
architectural state with zero timing events from frame 0 to the last
detailed window's start and snapshots every detailed window's start
boundary; then each detailed window runs the full timing model alone,
resumed from its own snapshot.  No window hands anything to the next, so
the windows could run in any order: a detailed phase entered from a
functional snapshot is bit-identical to one entered from a detailed
snapshot at the same boundary (check 4 of
:func:`~repro.sampling.ffwd.verify_equivalence`).  The snapshots stay in
memory: each holds the frames it was captured from, so none encodes or
replays a trace.

Each detailed window contributes one :class:`WindowSample` (per-frame
means of GPU time, total time, DRAM bytes, energy, measured after the
window's warmup frames), and :func:`~repro.sampling.stats.extrapolate`
turns the samples into whole-run estimates with Student-t error bars.
Detailed windows start microarchitecturally cold (the switch contract,
DESIGN.md §13) — the per-window warmup exists to keep that transient out
of the samples.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.gpu.energy import frame_energy, gpu_activity_snapshot
from repro.health import HealthConfig
from repro.health.recovery import resume_soc
from repro.sampling.ffwd import fb_crc
from repro.sampling.functional import FunctionalSim
from repro.sampling.stats import (ExtrapolatedRun, WindowSample, extrapolate,
                                  require_windows)
from repro.sampling.windows import Window, WindowSchedule
from repro.soc.checkpoint import GraphicsCheckpoint


@dataclass
class SampledRunResult:
    """One sampled run: window samples, estimates, and cost accounting."""

    schedule: WindowSchedule
    samples: list[WindowSample]
    extrapolated: ExtrapolatedRun
    final_detailed_fb_crc: int                 # last detailed window's fb
    wall_functional: float = 0.0
    wall_detailed: float = 0.0
    window_results: list = field(default_factory=list)   # per-window SoCResults

    @property
    def frames_functional(self) -> int:
        return self.schedule.functional_frames()

    @property
    def frames_detailed(self) -> int:
        return self.schedule.detailed_frames()

    @property
    def final_detailed_frame(self) -> int:
        """The frame ``final_detailed_fb_crc`` belongs to."""
        return [w for w in self.schedule.windows()
                if w.kind == "detailed"][-1].end - 1

    @property
    def wall_total(self) -> float:
        return self.wall_functional + self.wall_detailed

    @property
    def estimates(self):
        return self.extrapolated.estimates

    def as_dict(self) -> dict:
        doc = self.extrapolated.as_dict()
        doc.update({
            "schedule": {
                "total_frames": self.schedule.total_frames,
                "period": self.schedule.period,
                "detail": self.schedule.detail,
                "warmup": self.schedule.warmup,
                "offset": self.schedule.offset,
                "coverage": self.schedule.coverage,
            },
            "frames_functional": self.frames_functional,
            "frames_detailed": self.frames_detailed,
            "wall_functional": self.wall_functional,
            "wall_detailed": self.wall_detailed,
            "wall_total": self.wall_total,
            "final_detailed_fb_crc": self.final_detailed_fb_crc,
            "final_detailed_frame": self.final_detailed_frame,
        })
        return doc


def _window_sample(window: Window, results, per_frame: list[dict]
                   ) -> Optional[WindowSample]:
    """Reduce one detailed window's per-frame telemetry to a sample."""
    gpu_times: list[float] = []
    total_times: list[float] = []
    dram_bytes: list[float] = []
    energy: list[float] = []
    previous = {"total_bytes": 0, "issued": 0, "l1_accesses": 0}
    by_index = {entry["frame"]: entry for entry in per_frame}
    for record in results.frames:
        entry = by_index.get(record.index)
        if entry is None:
            continue
        delta_bytes = entry["total_bytes"] - previous["total_bytes"]
        delta_issued = entry["issued"] - previous["issued"]
        delta_l1 = entry["l1_accesses"] - previous["l1_accesses"]
        previous = entry
        if record.index < window.measure_from:
            continue        # per-window warmup: executed, not measured
        gpu_times.append(record.gpu_time)
        total_times.append(record.total_time)
        dram_bytes.append(delta_bytes)
        energy.append(frame_energy(record.gpu_stats, delta_issued,
                                   delta_l1).total_uj)
    if not gpu_times:
        return None
    count = len(gpu_times)
    return WindowSample(
        start=window.start, end=window.end, measured_frames=count,
        gpu_time=sum(gpu_times) / count,
        total_time=sum(total_times) / count,
        dram_bytes=sum(dram_bytes) / count,
        energy_uj=sum(energy) / count)


def measure_window(run_config, window: Window, session,
                   checkpoint: Optional[GraphicsCheckpoint] = None):
    """Run one detailed window and reduce it to a :class:`WindowSample`.

    The SoC resumes from ``checkpoint`` (from frame 0 when None) and runs
    to ``run_config.num_frames``.  A per-frame activity hook, chained
    after the config's own ``frame_hook``, records the cumulative DRAM
    and GPU counters at every frame end, so the sample's DRAM bytes and
    energy are per-frame deltas.  Frames before ``window.measure_from``
    run but are not measured.  Returns ``(soc, results, sample)``;
    ``sample`` is None when no frame was measured.
    """
    from repro.soc.soc import EmeraldSoC   # late import: cycle via health

    caller_hook = run_config.frame_hook
    per_frame: list[dict] = []

    def hook(frame_index: int, tick: int) -> None:
        if caller_hook is not None:
            caller_hook(frame_index, tick)
        activity = gpu_activity_snapshot(soc.gpu)
        per_frame.append({
            "frame": frame_index,
            "total_bytes": soc.memory.total_bytes(),
            "issued": activity["issued"],
            "l1_accesses": activity["l1_accesses"],
        })

    config = replace(run_config, frame_hook=hook)
    if checkpoint is None:
        soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    else:
        soc = resume_soc(checkpoint, config, session.frame,
                         session.framebuffer_address)
    results = soc.run()
    return soc, results, _window_sample(window, results, per_frame)


def run_sampled(run_config, session_factory: Callable[[], object],
                schedule: WindowSchedule) -> SampledRunResult:
    """Execute one workload under a sampling schedule and extrapolate.

    The functional pass renders nothing and stops at the last detailed
    window's start: nothing reads a frame after it.  Detailed windows
    take no snapshots, so the caller's ``run_config.health`` is *not*
    used inside them (they run with the default :class:`HealthConfig`),
    but its ``frame_hook`` (fleet heartbeats) is preserved.
    """
    if schedule.total_frames != run_config.num_frames:
        raise ValueError(
            f"schedule covers {schedule.total_frames} frames but the run "
            f"config has {run_config.num_frames}")
    # Refused before the first window runs, not after the last.
    require_windows(schedule.measured_windows())
    detailed = [w for w in schedule.windows() if w.kind == "detailed"]

    start = time.perf_counter()
    sim = FunctionalSim(run_config, session_factory().frame, render="none")
    checkpoints: list[Optional[GraphicsCheckpoint]] = []
    for window in detailed:
        sim.run(window.start)
        # A window at frame 0 starts from reset: there is nothing to
        # snapshot (and FunctionalSim refuses to).
        checkpoints.append(sim.checkpoint() if window.start else None)
    wall_functional = time.perf_counter() - start

    samples: list[WindowSample] = []
    window_results: list = []
    wall_detailed = 0.0
    for window, checkpoint in zip(detailed, checkpoints):
        start = time.perf_counter()
        # HealthConfig(), not None: None switches the event loop's error
        # policy from wrap to propagate.
        window_config = replace(run_config, num_frames=window.end,
                                health=HealthConfig())
        soc, results, sample = measure_window(
            window_config, window, session_factory(), checkpoint)
        if sample is not None:
            samples.append(sample)
        window_results.append(results)
        final_fb_crc = fb_crc(soc)
        # An EmeraldSoC sits in reference cycles, so dropping it frees
        # nothing until the collector runs: collect now, or it stays
        # alive beside the next window's SoC.
        del soc
        gc.collect()
        wall_detailed += time.perf_counter() - start
    estimates = extrapolate(samples)
    extrapolated = ExtrapolatedRun(
        estimates=estimates, total_frames=schedule.total_frames,
        frame_period_ticks=run_config.gpu_frame_period_ticks,
        samples=samples)
    return SampledRunResult(
        schedule=schedule, samples=samples, extrapolated=extrapolated,
        final_detailed_fb_crc=final_fb_crc,
        wall_functional=wall_functional, wall_detailed=wall_detailed,
        window_results=window_results)

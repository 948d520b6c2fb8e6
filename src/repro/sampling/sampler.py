"""Periodic-sampling driver: alternate functional and detailed windows.

:func:`run_sampled` executes one workload under a
:class:`~repro.sampling.windows.WindowSchedule`: functional windows
advance architectural state with zero timing events
(:class:`~repro.sampling.functional.FunctionalSim`), detailed windows run
the full timing model resumed from the previous window's checkpoint, and
every window hands the next one a :class:`GraphicsCheckpoint` — the same
snapshot format in both directions, which is what the mode-boundary test
suite pins.

Each detailed window contributes one :class:`WindowSample` (per-frame
means of GPU time, total time, DRAM bytes, energy, measured after the
window's warmup frames), and :func:`~repro.sampling.stats.extrapolate`
turns the samples into whole-run estimates with standard-error bars.
Detailed windows start microarchitecturally cold (the switch contract,
DESIGN.md §13) — the per-window warmup exists to keep that transient out
of the samples.
"""

from __future__ import annotations

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
    checkpoint: Optional[GraphicsCheckpoint]   # after the last window
    final_detailed_fb_crc: Optional[int]       # last detailed window's fb
    final_detailed_frame: Optional[int]        # index that fb belongs to
    frames_functional: int = 0
    frames_detailed: int = 0
    wall_functional: float = 0.0
    wall_detailed: float = 0.0
    window_results: list = field(default_factory=list)   # per-window SoCResults

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
                schedule: WindowSchedule, job: Optional[str] = None,
                render: str = "none") -> SampledRunResult:
    """Execute one workload under a sampling schedule and extrapolate.

    ``render`` is the functional windows' render policy ("none" is the
    fast default; "boundary" renders each switch frame for CRC
    cross-checks).  The caller's ``run_config.health`` is *not* used
    inside detailed windows — sampling owns the window checkpointing —
    but its ``frame_hook`` (fleet heartbeats) is preserved.
    """
    if schedule.total_frames != run_config.num_frames:
        raise ValueError(
            f"schedule covers {schedule.total_frames} frames but the run "
            f"config has {run_config.num_frames}")
    # Refused before the first window runs, not after the last.
    require_windows(schedule.measured_windows())
    checkpoint: Optional[GraphicsCheckpoint] = None
    samples: list[WindowSample] = []
    window_results: list = []
    frames_functional = 0
    frames_detailed = 0
    wall_functional = 0.0
    wall_detailed = 0.0
    final_fb_crc: Optional[int] = None
    final_fb_frame: Optional[int] = None
    windows = schedule.windows()
    for window in windows:
        # The last window's boundary snapshot has no consumer (nothing
        # runs after it) and is the most expensive capture of the run —
        # its trace covers every frame — so it is skipped.
        is_last = window is windows[-1]
        if window.kind == "functional":
            start = time.perf_counter()
            session = session_factory()
            if checkpoint is None:
                sim = FunctionalSim(run_config, session.frame, render=render)
            else:
                sim = FunctionalSim.from_checkpoint(
                    checkpoint, run_config, session.frame, render=render)
            sim.run(window.end)
            checkpoint = sim.checkpoint(job=job) if not is_last else None
            frames_functional += window.frames
            wall_functional += time.perf_counter() - start
            continue
        # Detailed window: full timing model from the previous boundary,
        # with a snapshot landing exactly at the window end
        # (on_frame_done snapshots when (index+1) % every == 0).
        start = time.perf_counter()
        window_config = replace(
            run_config, num_frames=window.end,
            health=HealthConfig(
                checkpoint_every=0 if is_last else window.end,
                checkpoint_job=job))
        soc, results, sample = measure_window(
            window_config, window, session_factory(), checkpoint)
        if is_last:
            checkpoint = None
        else:
            checkpoint = soc.checkpoints.last
            if checkpoint is None or checkpoint.frame_index != window.end:
                raise RuntimeError(
                    f"detailed window [{window.start}, {window.end}) ended "
                    f"without a boundary snapshot (got "
                    f"{checkpoint and checkpoint.frame_index})")
        if sample is not None:
            samples.append(sample)
        window_results.append(results)
        final_fb_crc = fb_crc(soc)
        final_fb_frame = window.end - 1
        frames_detailed += window.frames
        wall_detailed += time.perf_counter() - start
        del soc   # not alive beside the next window's: ~5 MB peak RSS
    estimates = extrapolate(samples)
    extrapolated = ExtrapolatedRun(
        estimates=estimates, total_frames=schedule.total_frames,
        frame_period_ticks=run_config.gpu_frame_period_ticks,
        samples=samples)
    return SampledRunResult(
        schedule=schedule, samples=samples, extrapolated=extrapolated,
        checkpoint=checkpoint, final_detailed_fb_crc=final_fb_crc,
        final_detailed_frame=final_fb_frame,
        frames_functional=frames_functional,
        frames_detailed=frames_detailed,
        wall_functional=wall_functional, wall_detailed=wall_detailed,
        window_results=window_results)

"""Case study II: fragment-shading load balance (paper §6, Figs. 17-19).

Standalone-GPU experiments:

* :func:`run_static` — render N frames of a workload at a fixed WT size;
* :func:`wt_sweep` — Fig. 17/18: frame time (and L1 misses) vs WT size;
* :func:`run_dfsl` — frames driven by the DFSL controller;
* :func:`compare_policies` — Fig. 19: MLB / MLC / SOPT / DFSL speedups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.config import (
    CacheConfig,
    DRAMConfig,
    GPUConfig,
    case_study2_gpu_config,
)
from repro.common.events import EventQueue
from repro.gpu.dfsl import DFSLController
from repro.gpu.gpu import EmeraldGPU, GPUFrameStats
from repro.harness.scenes import CASE_STUDY2_SCENES, SceneSession
from repro.memory.builders import build_memory_by_name

# Case study II workload keys in paper order.
WORKLOADS = tuple(CASE_STUDY2_SCENES)        # W1..W6


def _scaled_cs2_gpu() -> GPUConfig:
    """Table 7's GPU scaled to the reduced experiment resolution.

    Two scalings keep the paper's operating point at laptop scale
    (rationale in EXPERIMENTS.md; the verbatim Table 7 configuration stays
    available via ``case_study2_gpu_config``):

    * **L1 capacities** shrink with the framebuffer: at 1024x768 the 3 MB
      color/depth buffers dwarf the 32 KB L1s — the regime where the WT
      locality-vs-balance tradeoff lives.  At 160x120 the Table 7 L1s
      would swallow the whole frame and the tradeoff would vanish.
    * **Cluster count** shrinks with the TC-tile grid so TC-tiles-per-core
      stays in the paper's range (~512/core at paper scale; ~100/core
      here with 3 clusters).  Six clusters over a 20x15 tile grid would
      make every WT >= 3 catastrophically imbalanced, an artifact of the
      small screen rather than of the mechanism under study.
    """
    base = case_study2_gpu_config()
    core = replace(
        base.core,
        l1d=CacheConfig(2 * 1024, ways=8),
        l1t=CacheConfig(4 * 1024, line_bytes=128, ways=8),
        l1z=CacheConfig(2 * 1024, ways=8),
        l1c=CacheConfig(4 * 1024, ways=4),
        max_warps=12,
    )
    return replace(base, core=core, num_clusters=3, noc_latency=14,
                   l2=CacheConfig(512 * 1024, ways=32, hit_latency=28))


@dataclass
class CS2Config:
    """Experiment scale knobs (paper scale: 1024x768; default: reduced)."""

    width: int = 160
    height: int = 120
    detail: Optional[int] = None
    texture_size: int = 256
    # Small orbit step: DFSL's run phase samples later frames than the
    # static sweeps, so scene drift must stay small over ~20 frames for the
    # Fig. 19 comparison (and it is the temporal coherence DFSL exploits).
    orbit_step: float = 0.02
    gpu: GPUConfig = field(default_factory=_scaled_cs2_gpu)
    dram: DRAMConfig = field(
        default_factory=lambda: DRAMConfig(channels=4, data_rate_mbps=1600))
    min_wt: int = 1
    max_wt: int = 10


def make_gpu(config: CS2Config, wt_size: int) -> EmeraldGPU:
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, config.dram,
                                     gpu_clock_ghz=config.gpu.clock_ghz)
    gpu_config = replace(config.gpu, work_tile_size=wt_size)
    gpu = EmeraldGPU(events, gpu_config, config.width, config.height,
                     memory=memory)
    gpu.work_tile_size = wt_size
    return gpu


@dataclass
class FrameResult:
    wt_size: int
    stats: GPUFrameStats
    time_override: Optional[float] = None

    @property
    def time(self) -> float:
        # Case study II reports the fragment-shading time (§6.1).
        if self.time_override is not None:
            return self.time_override
        return float(self.stats.fragment_cycles or self.stats.cycles)


def run_static(workload: str, wt_size: int, frames: int,
               config: Optional[CS2Config] = None,
               warmup: int = 1,
               stats_path: Optional[str] = None,
               trace=None, sanitize=None,
               ffwd: int = 0) -> list[FrameResult]:
    """Render ``frames`` animated frames at a fixed WT size.

    The first ``warmup`` frames are rendered but dropped from the results
    (cold caches).  ``ffwd`` fast-forwards the first N frames
    *functionally*: the frames are pulled from the scene session — GL
    architectural state advances exactly as in a full run, so later
    frames are bit-identical — but never submitted to the timing GPU
    (the gem5 idiom, DESIGN.md §13).  Results are collected from index
    ``max(warmup, ffwd)`` on; the detailed portion starts
    microarchitecturally cold, so ``ffwd`` beyond ``warmup`` trades
    measured frames for wall clock.  ``stats_path`` dumps every GPU
    component's statistics to one JSON file after the run.  ``trace`` (a
    :class:`repro.trace.TraceConfig`) records the run as Chrome-trace JSON
    and/or prints a cycle-attribution report.  ``sanitize`` (a
    :class:`repro.sanitize.SanitizeConfig`) arms runtime invariant
    checking over the GPU's ports, caches and DRAM queues for the run.
    """
    _, results = run_static_gpu(workload, wt_size, frames, config=config,
                                warmup=warmup, stats_path=stats_path,
                                trace=trace, sanitize=sanitize, ffwd=ffwd)
    return results


def run_static_gpu(workload: str, wt_size: int, frames: int,
                   config: Optional[CS2Config] = None,
                   warmup: int = 1,
                   stats_path: Optional[str] = None,
                   trace=None, sanitize=None,
                   ffwd: int = 0) -> tuple[EmeraldGPU, list[FrameResult]]:
    """:func:`run_static` returning the live GPU too.

    The equivalence tests hash ``gpu.fb`` after the run — the
    fast-forwarded and full-detail paths must end on the same pixels.
    """
    config = config or CS2Config()
    total = frames + warmup
    if not 0 <= ffwd < total:
        raise ValueError(
            f"ffwd must leave at least one detailed frame: need "
            f"0 <= ffwd < {total}, got {ffwd}")
    model = CASE_STUDY2_SCENES.get(workload, workload)
    session = SceneSession(model, config.width, config.height,
                           detail=config.detail,
                           texture_size=config.texture_size,
                           orbit_step_radians=config.orbit_step)
    gpu = make_gpu(config, wt_size)
    tracer = None
    if trace is not None:
        from repro.trace import Tracer
        tracer = Tracer(gpu.events, categories=trace.categories,
                        kernel_events=trace.kernel_events)
    sanitizer = None
    if sanitize is not None:
        from repro.sanitize import Sanitizer
        sanitizer = Sanitizer(gpu.events, sanitize)
        sanitizer.register_gpu(gpu)
        for channel in gpu.memory.channels:
            sanitizer.register_dram_channel(channel)
        sanitizer.install()
    try:
        results = []
        for index in range(total):
            if index < ffwd:
                # Functional fast-forward: advance the session's GL state
                # (allocator, frame counter, uniforms) without timing.
                session.frame(index)
                continue
            stats = gpu.run_frame(session.frame(index))
            if index >= max(warmup, ffwd):
                results.append(FrameResult(wt_size, stats))
    finally:
        if sanitizer is not None:
            sanitizer.uninstall()
    if stats_path is not None:
        from repro.harness.report import gpu_stat_groups, write_stats_json
        write_stats_json(gpu_stat_groups(gpu), stats_path)
    if tracer is not None:
        if trace.path:
            tracer.write(trace.path)
        if trace.profile:
            from repro.trace import summarize
            print(summarize(tracer).format())
    return gpu, results


def wt_sweep(workload: str, wt_sizes: Optional[range] = None,
             frames_per_wt: int = 1,
             config: Optional[CS2Config] = None) -> dict[int, FrameResult]:
    """Fig. 17/18 data: one (averaged) result per WT size.

    Each WT size renders the *same* frames (fresh GPU per size, with one
    warmup frame), so differences isolate the work-distribution knob.
    """
    config = config or CS2Config()
    wt_sizes = wt_sizes or range(config.min_wt, config.max_wt + 1)
    out: dict[int, FrameResult] = {}
    for wt in wt_sizes:
        results = run_static(workload, wt, frames_per_wt, config)
        mean_time = sum(r.time for r in results) / len(results)
        out[wt] = FrameResult(wt, results[-1].stats, time_override=mean_time)
    return out


def run_dfsl(workload: str, frames: int,
             config: Optional[CS2Config] = None,
             eval_min: int = 1, eval_max: int = 10,
             run_frames: int = 100,
             warmup: int = 1) -> tuple[list[FrameResult], DFSLController]:
    """Render frames with the DFSL controller choosing WT per frame.

    One GPU instance persists across frames (temporal coherence in caches);
    the WT size is updated between frames, driver-style.  ``warmup`` frames
    render before the controller engages — otherwise the first evaluated WT
    size is measured against cold caches and systematically loses.
    """
    config = config or CS2Config()
    model = CASE_STUDY2_SCENES.get(workload, workload)
    session = SceneSession(model, config.width, config.height,
                           detail=config.detail,
                           texture_size=config.texture_size,
                           orbit_step_radians=config.orbit_step)
    controller = DFSLController(min_wt=eval_min, max_wt=eval_max,
                                run_frames=run_frames)
    gpu = make_gpu(config, eval_min)
    for index in range(warmup):
        gpu.run_frame(session.frame(index))
    results = []
    for index in range(warmup, warmup + frames):
        wt = controller.begin_frame()
        gpu.work_tile_size = wt
        stats = gpu.run_frame(session.frame(index))
        result = FrameResult(wt, stats)
        controller.end_frame(result.time)
        results.append(result)
    return results, controller


@dataclass
class PolicyComparison:
    """Fig. 19 row: mean frame time per policy for one workload.

    ``dfsl`` averages over the whole run (evaluation overhead included, as
    in the paper's 10-eval/100-run amortization); ``dfsl_steady`` averages
    the run phase only — the comparable number when a scaled-down run
    cannot amortize the evaluation sweep over ~100 frames.
    """

    workload: str
    mlb: float          # WT = min (maximum load balance)
    mlc: float          # WT = max (maximum locality)
    sopt: float         # static best-average WT across all workloads
    dfsl: float
    dfsl_steady: float = 0.0
    dfsl_wt: int = 1    # the WT size DFSL locked in

    def speedup_over_mlb(self, policy: str) -> float:
        return self.mlb / getattr(self, policy)


def compare_policies(workloads=WORKLOADS, frames: int = 6,
                     config: Optional[CS2Config] = None,
                     eval_max: Optional[int] = None,
                     run_frames: Optional[int] = None) -> list[PolicyComparison]:
    """Fig. 19: DFSL vs the static MLB / MLC / SOPT configurations.

    ``frames`` counts the measured frames per workload per policy.  DFSL
    uses an evaluation window matching the WT range and then ``run_frames``
    (default: enough to dominate the evaluation cost, as in the paper's
    10-eval/100-run split scaled down).
    """
    config = config or CS2Config()
    eval_max = eval_max or config.max_wt
    run_frames = run_frames or frames * 4
    wt_range = range(config.min_wt, eval_max + 1)

    # Pass 1: static sweeps per workload.
    static: dict[str, dict[int, float]] = {}
    for workload in workloads:
        sweep = wt_sweep(workload, wt_sizes=wt_range, config=config,
                         frames_per_wt=2)
        static[workload] = {wt: float(r.time) for wt, r in sweep.items()}

    # SOPT: the single WT best on average across all workloads (normalized
    # per workload so heavy scenes don't dominate).
    def normalized_mean(wt: int) -> float:
        return sum(static[w][wt] / min(static[w].values())
                   for w in workloads) / len(workloads)

    sopt_wt = min(wt_range, key=normalized_mean)

    comparisons = []
    for workload in workloads:
        dfsl_results, controller = run_dfsl(
            workload, frames=len(wt_range) + frames, config=config,
            eval_min=config.min_wt, eval_max=eval_max + 1,
            run_frames=run_frames)
        # Amortized mean (evaluation overhead included, as in the paper)
        # and the steady-state (run-phase-only) mean.
        dfsl_mean = sum(r.time for r in dfsl_results) / len(dfsl_results)
        steady = [t for _, _, t, mode in controller.history if mode == "run"]
        dfsl_steady = (sum(steady) / len(steady)) if steady else dfsl_mean
        comparisons.append(PolicyComparison(
            workload=workload,
            mlb=static[workload][config.min_wt],
            mlc=static[workload][max(wt_range)],
            sopt=static[workload][sopt_wt],
            dfsl=dfsl_mean,
            dfsl_steady=dfsl_steady,
            dfsl_wt=controller.wt_best,
        ))
    return comparisons

"""The Emerald GPU: clusters + shared L2 + memory-side port (Fig. 4).

``EmeraldGPU.render_frame`` runs a recorded frame's draw calls through the
full timing pipeline asynchronously on the shared event queue (full-system
mode); ``run_frame`` is the standalone-mode convenience that drives the
queue to completion and returns the frame statistics.

The functional result is written into the GPU's framebuffer and must match
:class:`repro.pipeline.renderer.ReferenceRenderer` pixel-exactly — tests
enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.config import GPUConfig
from repro.common.events import EventQueue
from repro.common.stats import StatGroup
from repro.gl.context import Frame
from repro.gpu.caches import Cache
from repro.gpu.cluster import Cluster
from repro.gpu.draw_engine import DrawEngine
from repro.gpu.hiz import HiZBuffer
from repro.gpu.simt_core import SIMTCore
from repro.memory.request import SourceType
from repro.memory.system import MemorySystem
from repro.pipeline.framebuffer import Framebuffer


@dataclass
class GPUFrameStats:
    """Everything measured about one rendered frame."""

    frame_index: int = 0
    start_tick: int = 0
    end_tick: int = 0
    fragment_start: Optional[int] = None
    fragment_end: Optional[int] = None
    fragments: int = 0
    fragments_discarded: int = 0
    tc_tiles: int = 0
    hiz_culled_fragments: int = 0
    prims_rasterized: int = 0
    prims_rejected: int = 0
    l1_misses: dict[str, int] = field(default_factory=dict)
    l2_misses: int = 0
    l2_accesses: int = 0
    dram_bytes: int = 0
    wt_size: int = 1

    @property
    def cycles(self) -> int:
        return self.end_tick - self.start_tick

    @property
    def fragment_cycles(self) -> int:
        """The fragment-shading span (what case study II measures)."""
        if self.fragment_start is None or self.fragment_end is None:
            return 0
        return self.fragment_end - self.fragment_start

    @property
    def pixels_per_cycle(self) -> float:
        return self.fragments / self.cycles if self.cycles else 0.0


class EmeraldGPU:
    """Top-level GPU model."""

    def __init__(self, events: EventQueue, config: GPUConfig,
                 width: int, height: int,
                 memory: Optional[MemorySystem] = None,
                 memory_port=None,
                 framebuffer: Optional[Framebuffer] = None) -> None:
        self.events = events
        self.config = config
        self.memory = memory
        if memory_port is None:
            if memory is None:
                raise ValueError("need a MemorySystem or an explicit port")
            # L2 misses enter the memory system directly (synchronous port
            # hop); full-system builds pass the NoC as memory_port instead.
            memory_port = memory
        self.stats = StatGroup("gpu")
        self.l2 = Cache(events, config.l2, "gpu.l2", memory_port)
        self.cores = [
            SIMTCore(events, config.core, core_id=i, l2_port=self.l2,
                     noc_latency=config.noc_latency)
            for i in range(config.num_clusters)
        ]
        self.clusters = [
            Cluster(events, i, config, self.cores[i])
            for i in range(config.num_clusters)
        ]
        self.fb = framebuffer or Framebuffer(width, height)
        self.hiz = HiZBuffer(width, height, config.raster.raster_tile_px)
        self.draw_engine = DrawEngine(events, config, self.clusters)
        self.work_tile_size = config.work_tile_size
        self._frame_stats: list[GPUFrameStats] = []
        self._busy = False

    # -- rendering ------------------------------------------------------------------

    def render_frame(self, frame: Frame,
                     on_complete: Optional[Callable[[GPUFrameStats], None]] = None,
                     on_progress: Optional[Callable[[float], None]] = None) -> None:
        """Start rendering a frame; completion is reported via callback."""
        if self._busy:
            raise RuntimeError("GPU is already rendering a frame")
        self._busy = True
        self.fb.bind_addresses(frame.color_base, frame.depth_base,
                               frame.stencil_base)
        self.fb.clear(frame.clear_color, frame.clear_depth, frame.clear_stencil)
        self.hiz.clear(frame.clear_depth)
        self.draw_engine.reset_fragment_window()
        stats = GPUFrameStats(frame_index=frame.index,
                              start_tick=self.events.now,
                              wt_size=self.work_tile_size)
        tracer = self.events.tracer
        if tracer is not None:
            tracer.begin("gpu", f"frame{frame.index}",
                         args={"draws": len(frame.draw_calls)})
        snapshot = self._counter_snapshot()
        draws = list(frame.draw_calls)
        total = max(len(draws), 1)

        def next_draw(index: int) -> None:
            if on_progress is not None:
                on_progress(index / total)
            if index >= len(draws):
                self._finish_frame(stats, snapshot, on_complete)
                return
            self.draw_engine.run_draw(
                draws[index], self.fb, self.hiz, self.work_tile_size,
                on_done=lambda: next_draw(index + 1))

        self.events.schedule(0, next_draw, 0, owner="gpu.frame")

    def run_frame(self, frame: Frame, max_events: int = 200_000_000) -> GPUFrameStats:
        """Standalone mode: render and drive the event queue to completion."""
        done: list[GPUFrameStats] = []
        self.render_frame(frame, on_complete=done.append)
        result = self.events.run(max_events=max_events)
        if not done:
            # The stop reason says which failure this actually is: a
            # drained queue means a lost completion (model bug), an
            # exhausted budget means a hung/overlong frame.
            if result.drained:
                raise RuntimeError(
                    "frame did not complete: event queue drained — a "
                    "completion callback was lost")
            raise RuntimeError(
                f"frame did not complete: event budget ({max_events}) "
                f"exhausted — hung or overlong frame")
        return done[0]

    def _finish_frame(self, stats: GPUFrameStats, snapshot: dict,
                      on_complete) -> None:
        # Write back dirty frame data (color/depth) through the hierarchy.
        for core in self.cores:
            core.l1d.flush_dirty()
            core.l1z.flush_dirty()
        self.l2.flush_dirty()
        stats.end_tick = self.events.now
        self._collect(stats, snapshot)
        self._frame_stats.append(stats)
        tracer = self.events.tracer
        if tracer is not None:
            tracer.end("gpu", f"frame{stats.frame_index}",
                       args={"fragments": stats.fragments})
        self._busy = False
        if on_complete is not None:
            on_complete(stats)

    # -- statistics -------------------------------------------------------------------

    def _counter_snapshot(self) -> dict:
        snap = {
            "l2_misses": self.l2.miss_count,
            "l2_accesses": self.l2.stats.counter("accesses").value,
            "fragments": self._engine_counter("fragments"),
            "discarded": self._engine_counter("fragments_discarded"),
            "tc_tiles": self._engine_counter("tc_tiles"),
            "hiz": self._engine_counter("hiz_culled_fragments"),
            "rasterized": self._engine_counter("prims_rasterized"),
            "rejected": self._engine_counter("prims_rejected"),
            "dram": (self.memory.total_bytes(SourceType.GPU)
                     if self.memory else 0),
        }
        for name in ("l1i", "l1d", "l1t", "l1z", "l1c"):
            snap[name] = sum(core.cache_misses()[name] for core in self.cores)
        return snap

    def _engine_counter(self, name: str) -> int:
        return self.draw_engine.stats.counter(name).value

    def _collect(self, stats: GPUFrameStats, snapshot: dict) -> None:
        stats.l2_misses = self.l2.miss_count - snapshot["l2_misses"]
        stats.l2_accesses = (self.l2.stats.counter("accesses").value
                             - snapshot["l2_accesses"])
        stats.fragments = self._engine_counter("fragments") - snapshot["fragments"]
        stats.fragments_discarded = (self._engine_counter("fragments_discarded")
                                     - snapshot["discarded"])
        stats.tc_tiles = self._engine_counter("tc_tiles") - snapshot["tc_tiles"]
        stats.hiz_culled_fragments = (
            self._engine_counter("hiz_culled_fragments") - snapshot["hiz"])
        stats.prims_rasterized = (self._engine_counter("prims_rasterized")
                                  - snapshot["rasterized"])
        stats.prims_rejected = (self._engine_counter("prims_rejected")
                                - snapshot["rejected"])
        if self.memory is not None:
            stats.dram_bytes = (self.memory.total_bytes(SourceType.GPU)
                                - snapshot["dram"])
        stats.l1_misses = {
            name: sum(core.cache_misses()[name] for core in self.cores)
            - snapshot[name]
            for name in ("l1i", "l1d", "l1t", "l1z", "l1c")
        }
        # Fragment span: first TC-tile dispatch -> last fragment warp retire.
        stats.fragment_start = self.draw_engine.fragment_first
        stats.fragment_end = self.draw_engine.fragment_last
        self.stats.counter("frames").add()

    @property
    def frame_history(self) -> list[GPUFrameStats]:
        return list(self._frame_stats)

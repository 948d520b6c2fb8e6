"""Functional-only execution: architectural state with zero timing events.

The fast-forward idiom (gem5 atomic warm-up, ODIN replay-driven
emulation) needs a mode that advances *architectural* state — the GL
command stream, buffer contents, the framebuffer — without paying for the
timing model.  :class:`FunctionalSim` is that mode: it pulls frames from
the same deterministic frame source a detailed run uses, records them
into the same draw-call trace, and emits the same
:class:`~repro.soc.checkpoint.GraphicsCheckpoint` a detailed run's
:class:`~repro.health.recovery.CheckpointManager` would emit at the same
frame boundary.  **No event queue exists here at all** — the class never
constructs one, schedules nothing, and models no SIMT/DRAM/NoC/display
behavior; per-frame cost is frame generation (plus optional reference
rendering), which is what buys the sampled-mode speedup.  Its snapshots
hold the frames themselves (:func:`~repro.soc.checkpoint.capture`), so a
handoff within the process encodes no trace.

Checkpoint ticks are *nominal*: frame ``k``'s boundary is stamped at
``k * gpu_frame_period_ticks`` — where an on-pace detailed run would be.
This is sound because checkpoint resume is exactly tick-shift invariant
(the whole post-resume event schedule is built relative to the start
tick; pinned by tests/sampling/test_equivalence.py), so the detailed
phase after a switch is bit-identical regardless of the tick origin.

The switch contract ("architecturally equivalent", DESIGN.md §13) pins
GL-level state only; microarchitectural warmth (caches, row buffers,
in-flight requests) is reset at every switch — exactly the semantics
crash-recovery resume has always had.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from repro.gl.context import Frame
from repro.pipeline.framebuffer import Framebuffer
from repro.pipeline.renderer import ReferenceRenderer
from repro.soc.checkpoint import GraphicsCheckpoint, capture

# What the functional engine renders: "none" advances GL state only (the
# cheapest fast-forward), "boundary" renders the last frame before each
# checkpoint (gives a framebuffer CRC to cross-check against the detailed
# engine).
RENDER_POLICIES = ("none", "boundary")


class FunctionalSimError(ValueError):
    """Misuse of the functional engine (bad policy, empty checkpoint...)."""


class FunctionalSim:
    """Zero-event functional execution over a deterministic frame source.

    Mirrors the architectural half of a detailed run: frames are pulled
    in index order from ``frame_source`` (mutating the source's GL
    context exactly as the render loop would), accumulated into the
    checkpoint trace, and optionally rendered through the
    :class:`~repro.pipeline.renderer.ReferenceRenderer` — the functional
    model the timing GPU is pinned pixel-exact against.
    """

    def __init__(self, run_config, frame_source: Callable[[int], Frame],
                 render: str = "boundary") -> None:
        if render not in RENDER_POLICIES:
            raise FunctionalSimError(
                f"render policy must be one of {RENDER_POLICIES}, "
                f"got {render!r}")
        self.config = run_config
        self.topology = run_config.topology
        self.frame_source = frame_source
        self.render = render
        gpu = self.topology.gpu
        self._renderer = ReferenceRenderer(
            run_config.width, run_config.height,
            warp_size=gpu.core.warp_size,
            raster_tile_px=gpu.raster.raster_tile_px)
        self.frames: list[Frame] = []
        self.next_frame = 0
        self.fb: Optional[Framebuffer] = None

    def nominal_tick(self, frame_index: Optional[int] = None) -> int:
        """Where an on-pace detailed run's clock sits at a frame boundary."""
        index = self.next_frame if frame_index is None else frame_index
        return index * self.config.gpu_frame_period_ticks

    def run(self, until_frame: int) -> "FunctionalSim":
        """Execute frames ``[next_frame, until_frame)`` functionally."""
        if until_frame < self.next_frame:
            raise FunctionalSimError(
                f"cannot run backwards: at frame {self.next_frame}, "
                f"asked for {until_frame}")
        if until_frame > self.config.num_frames:
            raise FunctionalSimError(
                f"until_frame {until_frame} exceeds the run's "
                f"num_frames {self.config.num_frames}")
        for index in range(self.next_frame, until_frame):
            frame = self.frame_source(index)
            self.frames.append(frame)
            if self.render == "boundary" and index == until_frame - 1:
                self.fb, _ = self._renderer.render(frame)
        self.next_frame = until_frame
        return self

    def fb_crc(self) -> int:
        """CRC32 of the last rendered framebuffer's color plane."""
        if self.fb is None:
            raise FunctionalSimError(
                "no framebuffer rendered yet (render policy "
                f"{self.render!r}, {self.next_frame} frames executed)")
        return zlib.crc32(self.fb.color.tobytes())

    def checkpoint(self, job: Optional[str] = None) -> GraphicsCheckpoint:
        """Snapshot the current frame boundary, nominal-tick stamped."""
        if self.next_frame == 0:
            raise FunctionalSimError(
                "nothing executed yet — a checkpoint at frame 0 would "
                "restore an empty run")
        return capture(self.frames, tick=self.nominal_tick(),
                       frame_index=self.next_frame, job=job,
                       topology=self.topology.topology_hash(),
                       mode="functional")

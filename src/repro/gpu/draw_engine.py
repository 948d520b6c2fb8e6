"""Per-draw orchestration: vertex launcher, primitive table, completion.

The vertex launcher (Fig. 3 B/C, §3.3.3) slices the index stream into
warp-sized batches with primitive-type-dependent vertex overlap, so each
warp's primitives are assembled entirely from warp-local vertices.
Batches launch round-robin across SIMT cores, throttled by PMRB space
(§3.3.4's deadlock-avoidance credit scheme).

The :class:`DrawContext` carries the draw's compiled programs, the shared
primitive table (clip/cull/raster results computed once, consumed by every
covering cluster) and the outstanding-work accounting that detects draw
completion.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.common.config import GPUConfig
from repro.common.events import EventQueue
from repro.common.geometry2d import work_tile_owner
from repro.common.stats import StatGroup
from repro.geometry.mesh import PrimitiveMode
from repro.gl.context import DrawCall
from repro.gpu.hiz import HiZBuffer
from repro.gpu.simt_core import WarpTask
from repro.pipeline.clip import clip_triangle, is_culled
from repro.pipeline.framebuffer import Framebuffer
from repro.pipeline.raster import FragmentBlock, rasterize, to_screen
from repro.pipeline.shading_env import build_varying_link
from repro.pipeline.vertex import VertexShaderEnv
from repro.shader.compiler import compile_shader
from repro.shader.interpreter import WarpInterpreter
from repro.shader.rop_epilogue import attach_rop


@dataclass
class VertexBatch:
    """One warp's worth of index-stream entries plus its local primitives."""

    batch_id: int
    vertex_ids: np.ndarray                     # index values (VBO vertex ids)
    prims: list[tuple[int, tuple[int, int, int]]]   # (prim_id, local indices)
    clip: Optional[np.ndarray] = None          # filled after shading
    varyings: Optional[np.ndarray] = None


def build_vertex_batches(indices: np.ndarray, mode: PrimitiveMode,
                         warp_size: int = 32) -> list[VertexBatch]:
    """Slice the index stream into overlapped warp batches (§3.3.3)."""
    idx = np.asarray(indices, dtype=np.int64)
    batches: list[VertexBatch] = []
    if mode is PrimitiveMode.TRIANGLES:
        prims_per_batch = warp_size // 3
        entries_per_batch = prims_per_batch * 3
        total_prims = len(idx) // 3
        prim_id = 0
        for start in range(0, total_prims * 3, entries_per_batch):
            entries = idx[start:start + entries_per_batch]
            prims = []
            for local in range(0, len(entries) - 2, 3):
                prims.append((prim_id, (local, local + 1, local + 2)))
                prim_id += 1
            batches.append(VertexBatch(len(batches), entries, prims))
    elif mode is PrimitiveMode.TRIANGLE_STRIP:
        shared = 2
        step = warp_size - shared
        total_prims = max(0, len(idx) - 2)
        start = 0
        prim_id = 0
        while prim_id < total_prims:
            entries = idx[start:start + warp_size]
            prims = []
            for local in range(len(entries) - 2):
                if prim_id >= total_prims:
                    break
                if prim_id % 2 == 0:
                    order = (local, local + 1, local + 2)
                else:
                    order = (local + 1, local, local + 2)
                prims.append((prim_id, order))
                prim_id += 1
            batches.append(VertexBatch(len(batches), entries, prims))
            start += step
    elif mode is PrimitiveMode.TRIANGLE_FAN:
        # The fan center rides along in lane 0 of every batch.
        per_batch = warp_size - 2                # new rim vertices per batch
        total_prims = max(0, len(idx) - 2)
        prim_id = 0
        rim = 1
        while prim_id < total_prims:
            rim_entries = idx[rim:rim + per_batch + 1]
            entries = np.concatenate([idx[:1], rim_entries])
            prims = []
            for local in range(1, len(entries) - 1):
                if prim_id >= total_prims:
                    break
                prims.append((prim_id, (0, local, local + 1)))
                prim_id += 1
            batches.append(VertexBatch(len(batches), entries, prims))
            rim += per_batch
    else:  # pragma: no cover
        raise AssertionError(f"unhandled mode {mode}")
    return batches


@dataclass
class PrimitiveRecord:
    """Functional results for one primitive, shared by all clusters."""

    prim_id: int
    cluster_mask: frozenset[int] = frozenset()
    candidate_tiles: dict[int, int] = field(default_factory=dict)
    blocks_by_cluster: dict[int, list[FragmentBlock]] = field(
        default_factory=dict)
    culled: bool = True


@dataclass
class PrimRef:
    """Pointer from a vertex batch to one of its primitives."""

    prim_id: int
    batch: VertexBatch
    local: tuple[int, int, int]


class DrawContext:
    """Shared state for one in-flight draw call."""

    def __init__(self, engine: "DrawEngine", draw: DrawCall,
                 fb: Framebuffer, hiz: HiZBuffer, wt_size: int,
                 on_done: Callable[[], None]) -> None:
        self.engine = engine
        self.draw = draw
        self.fb = fb
        self.hiz = hiz
        self.wt_size = wt_size
        self.on_done = on_done
        self.events = engine.events
        self.config = engine.config
        self.clusters = engine.clusters
        self.stats = engine.stats

        self.vs_program = compile_shader(draw.vs_source, "vertex",
                                         name=f"{draw.name}_vs")
        fs_base = compile_shader(draw.fs_source, "fragment",
                                 name=f"{draw.name}_fs")
        self.rop_program = attach_rop(fs_base, draw.state)
        self.link = build_varying_link(self.vs_program, self.rop_program)
        # Stable program ids (I-cache addressing must be run-deterministic).
        self.fs_program_id = zlib.crc32(draw.fs_source.encode()) % 1024
        self.vs_program_id = zlib.crc32(draw.vs_source.encode()) % 1024
        # Applicability is judged on the *base* shader: the ROP epilogue's
        # own discard/zwrite are the depth test itself, not shader behavior
        # that would make Hi-Z unsound.
        self.hiz_active = (engine.config.raster.hiz_enabled
                           and hiz.applicable(draw.state, fs_base))

        self.prim_table: dict[int, PrimitiveRecord] = {}
        self._outstanding = 0
        self._launcher_done = False
        self._completed = False
        self.last_fragment_time: Optional[int] = None

        raster_px = engine.config.raster.raster_tile_px
        self._tc_ratio = engine.config.raster.tc_tile_raster_tiles
        self._tc_cols = ((fb.width + raster_px - 1) // raster_px
                         + self._tc_ratio - 1) // self._tc_ratio
        self._raster_px = raster_px
        # Precomputed raster-tile-granularity owner grid: owner_grid[r, c]
        # is the cluster owning raster tile (c, r) under this WT size.
        raster_cols = (fb.width + raster_px - 1) // raster_px
        raster_rows = (fb.height + raster_px - 1) // raster_px
        self._owner_grid = np.empty((raster_rows, raster_cols),
                                    dtype=np.int64)
        for row in range(raster_rows):
            for col in range(raster_cols):
                self._owner_grid[row, col] = work_tile_owner(
                    col // self._tc_ratio, row // self._tc_ratio,
                    self._tc_cols, wt_size, len(self.clusters))

    # -- accounting ---------------------------------------------------------------

    def inc(self, kind: str) -> None:
        self._outstanding += 1

    def dec(self, kind: str) -> None:
        self._outstanding -= 1
        if self._outstanding < 0:  # pragma: no cover - accounting bug guard
            raise RuntimeError(f"outstanding underflow at {kind}")
        self._maybe_finish()

    def launcher_finished(self) -> None:
        self._launcher_done = True
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (self._launcher_done and self._outstanding == 0
                and not self._completed):
            self._completed = True
            self.on_done()

    def on_prim_popped(self, prim_id: int) -> None:
        self.engine.return_credit(prim_id)

    def note_fragment_activity(self, now: int) -> None:
        self.last_fragment_time = now
        self.engine.note_fragment(now)

    # -- functional primitive resolution -----------------------------------------

    def resolve_primitive(self, ref: PrimRef) -> PrimitiveRecord:
        """Clip, cull and rasterize a primitive once (cached)."""
        if ref.prim_id in self.prim_table:
            return self.prim_table[ref.prim_id]
        record = PrimitiveRecord(prim_id=ref.prim_id)
        self.prim_table[ref.prim_id] = record
        batch = ref.batch
        tri_clip = batch.clip[list(ref.local)]
        tri_var = batch.varyings[list(ref.local)]
        pieces = clip_triangle(tri_clip, tri_var, ref.prim_id)
        pieces = [p for p in pieces
                  if not is_culled(p, self.draw.state.cull)]
        if not pieces:
            self.stats.counter("prims_rejected").add()
            return record
        record.culled = False
        self.stats.counter("prims_rasterized").add()
        mask: set[int] = set()
        candidate: dict[int, int] = {}
        blocks_by_cluster: dict[int, list[FragmentBlock]] = {}
        owner_grid = self._owner_grid
        for piece in pieces:
            tri = to_screen(piece, self.fb.width, self.fb.height)
            x0, y0, x1, y1 = tri.bounding_box(self.fb.width, self.fb.height)
            if x0 >= x1 or y0 >= y1:
                continue
            # Candidate raster tiles (coarse raster cost) per owning
            # cluster, counted on the precomputed owner grid.
            rpx = self._raster_px
            owners = owner_grid[y0 // rpx:(y1 - 1) // rpx + 1,
                                x0 // rpx:(x1 - 1) // rpx + 1]
            counts = np.bincount(owners.ravel(),
                                 minlength=len(self.clusters))
            for owner in np.flatnonzero(counts):
                mask.add(int(owner))
                candidate[int(owner)] = (candidate.get(int(owner), 0)
                                         + int(counts[owner]))
            for block in rasterize(tri, self.fb.width, self.fb.height, rpx):
                owner = int(owner_grid[block.tile_y, block.tile_x])
                blocks_by_cluster.setdefault(owner, []).append(block)
        record.cluster_mask = frozenset(mask)
        record.candidate_tiles = candidate
        record.blocks_by_cluster = blocks_by_cluster
        return record


class DrawEngine:
    """Runs draw calls through the GPU, one at a time."""

    def __init__(self, events: EventQueue, config: GPUConfig, clusters: list,
                 stats: Optional[StatGroup] = None) -> None:
        self.events = events
        self.config = config
        self.clusters = clusters
        self.stats = stats or StatGroup("draw_engine")
        self._credits = 0
        self._pending_batches: list[tuple[VertexBatch, DrawContext]] = []
        self._next_core = 0
        self._prim_pops: dict[int, int] = {}
        self.fragment_first: Optional[int] = None
        self.fragment_last: Optional[int] = None

    def reset_fragment_window(self) -> None:
        self.fragment_first = None
        self.fragment_last = None

    def note_fragment(self, now: int) -> None:
        if self.fragment_first is None:
            self.fragment_first = now
        self.fragment_last = now

    def run_draw(self, draw: DrawCall, fb: Framebuffer, hiz: HiZBuffer,
                 wt_size: int, on_done: Callable[[], None]) -> DrawContext:
        tracer = self.events.tracer
        if tracer is not None:
            span = f"draw:{draw.name}"
            tracer.begin("gpu", span, args={"prims": draw.num_primitives})

            def on_done(_done=on_done, _tracer=tracer, _span=span):
                _tracer.end("gpu", _span)
                _done()
        ctx = DrawContext(self, draw, fb, hiz, wt_size, on_done)
        for cluster in self.clusters:
            cluster.begin_draw(ctx)
        batches = build_vertex_batches(draw.ibo.indices, draw.mode,
                                       self.config.core.warp_size)
        self.stats.counter("draws").add()
        self.stats.counter("vertex_batches").add(len(batches))
        max_batch_prims = max((len(b.prims) for b in batches), default=1)
        self._credits = max(self.config.pmrb_entries, max_batch_prims)
        self._prim_pops = {}
        self._pending_batches = [(batch, ctx) for batch in batches]
        self._launch_ready()
        if not batches:
            ctx.launcher_finished()
        return ctx

    # -- launcher --------------------------------------------------------------

    def _launch_ready(self) -> None:
        while self._pending_batches:
            batch, ctx = self._pending_batches[0]
            cost = max(len(batch.prims), 1)
            if cost > self._credits:
                return
            self._pending_batches.pop(0)
            self._credits -= cost
            self._launch_batch(batch, ctx)

    def _launch_batch(self, batch: VertexBatch, ctx: DrawContext) -> None:
        ctx.inc("batch")
        for prim_id, _ in batch.prims:
            self._prim_pops[prim_id] = len(self.clusters)
        env = VertexShaderEnv(ctx.draw, ctx.vs_program, batch.vertex_ids,
                              warp_size=self.config.core.warp_size)
        result = WarpInterpreter(ctx.vs_program, env).run(
            initial_mask=env.active)
        batch.clip = env.clip
        batch.varyings = env.varyings
        core_index = self._next_core % len(self.clusters)
        self._next_core += 1
        cluster = self.clusters[core_index]
        task = WarpTask(result.trace, kind="vertex",
                        program_id=ctx.vs_program_id,
                        on_complete=lambda t, b=batch, c=cluster, x=ctx:
                        self._vertex_batch_done(b, c, x))
        cluster.core.submit(task)

    def _vertex_batch_done(self, batch: VertexBatch, cluster,
                           ctx: DrawContext) -> None:
        refs = [PrimRef(prim_id, batch, local)
                for prim_id, local in batch.prims]
        cluster.submit_vertex_prims(refs)
        ctx.dec("batch")
        self._check_launcher_done(ctx)

    def return_credit(self, prim_id: int) -> None:
        remaining = self._prim_pops.get(prim_id)
        if remaining is None:
            return
        remaining -= 1
        if remaining == 0:
            del self._prim_pops[prim_id]
            self._credits += 1
            self._launch_ready()
        else:
            self._prim_pops[prim_id] = remaining

    def _check_launcher_done(self, ctx: DrawContext) -> None:
        if not self._pending_batches:
            ctx.launcher_finished()

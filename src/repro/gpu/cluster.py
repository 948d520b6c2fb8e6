"""A SIMT cluster: VPO consumer, raster pipeline, TC unit and one core.

Implements stages G-K of Fig. 3 / Fig. 5 for one cluster:

* the **PMRB** (primitive-mask reorder buffer) collects per-primitive
  coverage masks from every producing cluster and releases primitives in
  draw-call order, one per cycle;
* **setup** (1 primitive/cycle), **coarse raster** (one cycle per candidate
  raster tile in the primitive's bounding box that this cluster owns),
  **fine raster** (one cycle per produced raster tile) and **Hi-Z** (one
  cycle per tile, with conservative culling) are modeled as
  :class:`~repro.gpu.stages.StageQueue` chains;
* the **TC unit** coalesces surviving raster tiles into TC tiles and
  dispatches them to the cluster's SIMT core, where fragments are shaded
  functionally at dispatch and their recorded traces replayed for timing.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import GPUConfig
from repro.common.events import EventQueue, Ticker
from repro.common.stats import StatGroup
from repro.gpu.simt_core import SIMTCore, WarpTask
from repro.gpu.stages import StageQueue
from repro.gpu.tc import TCTile, TCUnit
from repro.pipeline.shading_env import FragmentShaderEnv, pack_fragments
from repro.shader.interpreter import WarpInterpreter


class Cluster:
    """One SIMT cluster (cluster == core in both case-study configs)."""

    def __init__(self, events: EventQueue, cluster_id: int, config: GPUConfig,
                 core: SIMTCore) -> None:
        self.events = events
        self.cluster_id = cluster_id
        self.config = config
        self.core = core
        self.stats = StatGroup(f"cluster{cluster_id}")
        self.ctx = None                      # active DrawContext

        raster = config.raster
        self.vpo_stage = StageQueue(events, f"cl{cluster_id}.vpo",
                                    self._process_vpo)
        self.setup_stage = StageQueue(events, f"cl{cluster_id}.setup",
                                      self._process_setup)
        self.coarse_stage = StageQueue(
            events, f"cl{cluster_id}.coarse", self._process_coarse,
            cost_fn=lambda item: max(
                1, item[1] // raster.coarse_tiles_per_cycle))
        self.fine_stage = StageQueue(
            events, f"cl{cluster_id}.fine", self._process_fine,
            cost_fn=lambda item: max(
                1, len(item) // raster.fine_tiles_per_cycle))
        self.hiz_stage = StageQueue(events, f"cl{cluster_id}.hiz",
                                    self._process_hiz)
        self.tc = TCUnit(
            events, cluster_id,
            tc_tile_raster_tiles=raster.tc_tile_raster_tiles,
            num_engines=raster.tc_engines_per_cluster,
            bins_per_engine=raster.tc_bins_per_engine,
            flush_timeout=raster.tc_flush_timeout,
            dispatch=self._dispatch_tile,
        )
        # PMRB state.
        self._pmrb_committed: dict[int, bool] = {}
        self._pmrb_next = 0
        self._pmrb_ticker = Ticker(events, period=1, callback=self._pmrb_pop)

    # -- draw lifecycle --------------------------------------------------------

    def begin_draw(self, ctx) -> None:
        self.ctx = ctx
        self._pmrb_committed.clear()
        self._pmrb_next = 0

    # -- VPO: bounding boxes + mask distribution (producing side) -----------------

    def submit_vertex_prims(self, prim_refs: list) -> None:
        """Primitives from a retired vertex warp enter this cluster's VPO."""
        for ref in prim_refs:
            self.ctx.inc("vpo")
            self.vpo_stage.submit(ref)

    def _process_vpo(self, ref) -> None:
        ctx = self.ctx
        record = ctx.resolve_primitive(ref)
        for cluster in ctx.clusters:
            bit = cluster.cluster_id in record.cluster_mask
            latency = 0 if cluster is self else self.config.noc_latency
            ctx.inc("mask")
            self.events.schedule(latency, cluster.pmrb_commit,
                                 record.prim_id, bit)
        ctx.dec("vpo")

    # -- PMRB (consuming side) ----------------------------------------------------

    def pmrb_commit(self, prim_id: int, bit: bool) -> None:
        ctx = self.ctx
        self._pmrb_committed[prim_id] = bit
        # inc strictly before dec: dec can complete the draw and start the
        # next one (which resets this PMRB) if it momentarily reaches zero.
        ctx.inc("pmrb")
        ctx.dec("mask")
        self.stats.histogram("pmrb_occupancy").record(
            len(self._pmrb_committed))
        self._pmrb_ticker.kick()

    def _pmrb_pop(self) -> bool:
        if self._pmrb_next not in self._pmrb_committed:
            return False
        bit = self._pmrb_committed.pop(self._pmrb_next)
        prim_id = self._pmrb_next
        self._pmrb_next += 1
        ctx = self.ctx
        if bit:
            ctx.inc("setup")
            self.setup_stage.submit(prim_id)
        ctx.dec("pmrb")
        ctx.on_prim_popped(prim_id)
        return True

    # -- raster pipeline ---------------------------------------------------------

    def _process_setup(self, prim_id: int) -> None:
        ctx = self.ctx
        record = ctx.prim_table[prim_id]
        candidates = record.candidate_tiles.get(self.cluster_id, 0)
        blocks = record.blocks_by_cluster.get(self.cluster_id, [])
        ctx.inc("coarse")
        self.coarse_stage.submit((blocks, candidates))
        ctx.dec("setup")

    def _process_coarse(self, item) -> None:
        blocks, _candidates = item
        ctx = self.ctx
        if blocks:
            ctx.inc("fine")
            self.fine_stage.submit(blocks)
        ctx.dec("coarse")

    def _process_fine(self, blocks: list) -> None:
        ctx = self.ctx
        for block in blocks:
            ctx.inc("hiz")
            self.hiz_stage.submit(block)
        ctx.dec("fine")

    def _process_hiz(self, block) -> None:
        ctx = self.ctx
        if ctx.hiz_active and not ctx.hiz.test_block(block):
            ctx.stats.counter("hiz_culled_tiles").add()
            ctx.stats.counter("hiz_culled_fragments").add(block.count)
            ctx.dec("hiz")
            return
        # The block stays outstanding while staged in the TC unit; the TC
        # tile built from it takes over the accounting at dispatch.
        self.tc.submit_block(block)

    # -- TC dispatch / fragment shading --------------------------------------------

    def _dispatch_tile(self, tile: TCTile) -> None:
        """Shade a TC tile: functional now, timing via warp traces."""
        ctx = self.ctx
        ctx.inc("tile")
        for block in tile.blocks:
            ctx.dec("hiz")
        xs = np.concatenate([b.xs for b in tile.blocks])
        ys = np.concatenate([b.ys for b in tile.blocks])
        z = np.concatenate([b.z for b in tile.blocks])
        inv_w = np.concatenate([b.inv_w for b in tile.blocks])
        varyings = np.vstack([b.varyings for b in tile.blocks])
        ctx.note_fragment_activity(self.events.now)
        warps = pack_fragments(xs, ys, z, inv_w, varyings,
                               warp_size=self.config.core.warp_size)
        remaining = {"count": len(warps)}
        ctx.stats.counter("tc_tiles").add()
        ctx.stats.counter("fragments").add(int(len(xs)))
        for warp in warps:
            env = FragmentShaderEnv(ctx.draw, ctx.rop_program,
                                    ctx.vs_program, warp, ctx.fb,
                                    link=ctx.link)
            result = WarpInterpreter(ctx.rop_program, env).run(
                initial_mask=warp.active)
            ctx.stats.counter("fragments_discarded").add(
                int((result.discarded & warp.active).sum()))
            ctx.inc("warp")
            task = WarpTask(result.trace, kind="fragment",
                            program_id=ctx.fs_program_id,
                            on_complete=lambda t, tl=tile, rem=remaining:
                            self._warp_retired(tl, rem))
            self.core.submit(task)
        if not warps:
            self._tile_done(tile)

    def _warp_retired(self, tile: TCTile, remaining: dict) -> None:
        ctx = self.ctx
        ctx.note_fragment_activity(self.events.now)
        ctx.dec("warp")
        remaining["count"] -= 1
        if remaining["count"] == 0:
            self._tile_done(tile)

    def _tile_done(self, tile: TCTile) -> None:
        ctx = self.ctx
        ctx.stats.counter("fragments_retired").add(tile.fragment_count)
        if ctx.hiz_active:
            ctx.hiz.update_from_framebuffer(ctx.fb, tile.raster_tiles)
        self.tc.tile_retired(tile)
        ctx.dec("tile")

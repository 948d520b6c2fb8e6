"""The pure-software reference renderer.

Chains the full functional pipeline — vertex shading, assembly/clip/cull,
viewport transform, rasterization, fragment shading with the in-shader ROP
epilogue — in draw-call order.  The GPU timing model reuses exactly these
pieces, so its framebuffer must match this renderer's pixel-for-pixel;
tests assert that.

Fragments are shaded in batches, by the tile-coalescing rule (paper
§3.3.5): a batch collects whole primitives, in order, until the next one
touches a pixel the batch already covers; then the batch is shaded in
:func:`~repro.pipeline.vertex.shading_passes` and a new one begins.  That
is exact.  A shader lane reads and writes only its own pixel (the ISA has
no cross-lane op, fragment shaders reach no global memory, the shader
language has no loops), and no two fragments of a batch share a pixel, so
every fragment reads what earlier primitives left, as it would shaded one
warp at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gl.context import DrawCall, Frame
from repro.pipeline.clip import assemble_and_clip
from repro.pipeline.framebuffer import Framebuffer
from repro.pipeline.raster import rasterize, to_screen
from repro.pipeline.shading_env import (
    FragmentShaderEnv,
    build_varying_link,
    pack_fragments,
)
from repro.pipeline.vertex import run_vertex_shading, shading_passes
from repro.shader.compiler import compile_shader
from repro.shader.interpreter import WarpInterpreter
from repro.shader.rop_epilogue import attach_rop


@dataclass
class RenderStats:
    """Counters the reference renderer collects per frame."""

    draw_calls: int = 0
    vertices_shaded: int = 0
    input_primitives: int = 0
    rejected_primitives: int = 0
    culled_primitives: int = 0
    rasterized_primitives: int = 0
    fragments_shaded: int = 0
    fragments_discarded: int = 0
    fragment_warps: int = 0

    def merge(self, other: "RenderStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class ReferenceRenderer:
    """Renders frames functionally; the ground truth for the timing model."""

    def __init__(self, width: int, height: int, warp_size: int = 32,
                 raster_tile_px: int = 4) -> None:
        self.width = width
        self.height = height
        self.warp_size = warp_size
        self.raster_tile_px = raster_tile_px

    def render(self, frame: Frame) -> tuple[Framebuffer, RenderStats]:
        fb = Framebuffer(self.width, self.height)
        fb.clear(frame.clear_color, frame.clear_depth, frame.clear_stencil)
        stats = RenderStats()
        for draw in frame.draw_calls:
            stats.merge(self.render_draw(draw, fb))
        return fb, stats

    def render_draw(self, draw: DrawCall, fb: Framebuffer) -> RenderStats:
        stats = RenderStats(draw_calls=1)
        shaded = run_vertex_shading(draw, self.warp_size)
        stats.vertices_shaded = shaded.num_vertices

        prims, clip_stats = assemble_and_clip(
            draw.ibo.indices, draw.mode, shaded.clip, shaded.varyings,
            draw.state.cull)
        stats.input_primitives = clip_stats.input_primitives
        stats.rejected_primitives = clip_stats.trivially_rejected
        stats.culled_primitives = clip_stats.culled
        stats.rasterized_primitives = len(prims)

        fs_base = compile_shader(draw.fs_source, "fragment",
                                 name=f"{draw.name}_fs")
        rop_program = attach_rop(fs_base, draw.state)
        link = build_varying_link(shaded.program, rop_program)

        covered = np.zeros((self.height, self.width), dtype=bool)
        batch: list = []            # the pending primitives' fragment blocks

        def shade_batch() -> None:
            columns = [np.concatenate([getattr(b, name) for b in batch])
                       for name in ("xs", "ys", "z", "inv_w", "varyings")]
            for start, stop, width in shading_passes(len(columns[0]),
                                                     self.warp_size):
                warp, = pack_fragments(*(c[start:stop] for c in columns),
                                       width)
                env = FragmentShaderEnv(draw, rop_program, shaded.program,
                                        warp, fb, link=link)
                result = WarpInterpreter(rop_program, env).run(
                    initial_mask=warp.active)
                stats.fragments_discarded += int(
                    (result.discarded & warp.active).sum())
            covered.fill(False)
            batch.clear()

        for prim in prims:
            tri = to_screen(prim, self.width, self.height)
            blocks = rasterize(tri, self.width, self.height,
                               self.raster_tile_px)
            if not blocks:
                continue
            xs = np.concatenate([b.xs for b in blocks])
            ys = np.concatenate([b.ys for b in blocks])
            if batch and covered[ys, xs].any():
                shade_batch()
            covered[ys, xs] = True
            batch.extend(blocks)
            stats.fragment_warps += -(-len(xs) // self.warp_size)
            stats.fragments_shaded += len(xs)
        if batch:
            shade_batch()
        return stats

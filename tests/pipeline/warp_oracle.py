"""The per-warp reference loop: the oracle for the renderer's batched passes.

:func:`render_per_warp` renders a frame the way
:class:`~repro.pipeline.renderer.ReferenceRenderer` did before it shaded
conflict-free batches of primitives in wide passes: vertices one warp at a
time, then each primitive's fragments one warp-size packet at a time, in
draw-call and primitive order.  It shares every pipeline stage with the
renderer except the batching, so a difference between the two is a
batching fault.
"""

from __future__ import annotations

import numpy as np

from repro.gl.context import DrawCall, Frame
from repro.pipeline.clip import assemble_and_clip
from repro.pipeline.framebuffer import Framebuffer
from repro.pipeline.raster import rasterize, to_screen
from repro.pipeline.renderer import RenderStats
from repro.pipeline.shading_env import (
    FragmentShaderEnv,
    build_varying_link,
    pack_fragments,
)
from repro.pipeline.vertex import VertexShaderEnv
from repro.shader.compiler import compile_shader
from repro.shader.interpreter import WarpInterpreter
from repro.shader.rop_epilogue import attach_rop


def render_per_warp(frame: Frame, width: int, height: int,
                    warp_size: int = 32,
                    raster_tile_px: int = 4) -> tuple[Framebuffer, RenderStats]:
    fb = Framebuffer(width, height)
    fb.clear(frame.clear_color, frame.clear_depth, frame.clear_stencil)
    stats = RenderStats()
    for draw in frame.draw_calls:
        stats.merge(render_draw_per_warp(draw, fb, warp_size,
                                         raster_tile_px))
    return fb, stats


def render_draw_per_warp(draw: DrawCall, fb: Framebuffer, warp_size: int,
                         raster_tile_px: int) -> RenderStats:
    stats = RenderStats(draw_calls=1)
    vs_program = compile_shader(draw.vs_source, "vertex",
                                name=f"{draw.name}_vs")
    n = draw.vbo.num_vertices
    clip = np.zeros((n, 4))
    vs_varyings = np.zeros((n, max(vs_program.varyings.total, 1)))
    for start in range(0, n, warp_size):
        ids = np.arange(start, min(start + warp_size, n))
        env = VertexShaderEnv(draw, vs_program, ids, warp_size)
        WarpInterpreter(vs_program, env).run(initial_mask=env.active)
        clip[ids] = env.clip[:len(ids)]
        vs_varyings[ids] = env.varyings[:len(ids)]
    stats.vertices_shaded = n

    prims, clip_stats = assemble_and_clip(
        draw.ibo.indices, draw.mode, clip, vs_varyings, draw.state.cull)
    stats.input_primitives = clip_stats.input_primitives
    stats.rejected_primitives = clip_stats.trivially_rejected
    stats.culled_primitives = clip_stats.culled
    stats.rasterized_primitives = len(prims)

    fs_base = compile_shader(draw.fs_source, "fragment",
                             name=f"{draw.name}_fs")
    rop_program = attach_rop(fs_base, draw.state)
    link = build_varying_link(vs_program, rop_program)

    for prim in prims:
        tri = to_screen(prim, fb.width, fb.height)
        blocks = rasterize(tri, fb.width, fb.height, raster_tile_px)
        if not blocks:
            continue
        xs = np.concatenate([b.xs for b in blocks])
        ys = np.concatenate([b.ys for b in blocks])
        z = np.concatenate([b.z for b in blocks])
        inv_w = np.concatenate([b.inv_w for b in blocks])
        varyings = np.vstack([b.varyings for b in blocks])
        for warp in pack_fragments(xs, ys, z, inv_w, varyings, warp_size):
            env = FragmentShaderEnv(draw, rop_program, vs_program, warp, fb,
                                    link=link)
            result = WarpInterpreter(rop_program, env).run(
                initial_mask=warp.active)
            stats.fragment_warps += 1
            stats.fragments_shaded += warp.num_fragments
            stats.fragments_discarded += int(
                (result.discarded & warp.active).sum())
    return stats

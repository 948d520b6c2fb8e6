"""End-to-end GPU timing model tests.

The decisive invariant: the timing model's framebuffer matches the
reference renderer pixel-for-pixel, while also producing plausible timing
(nonzero cycles, caches exercised, DRAM traffic).
"""

import numpy as np
import pytest

from repro.common.config import (
    DRAMConfig,
    GPUConfig,
    RasterConfig,
    scaled_gpu,
)
from repro.common.events import EventQueue
from repro.geometry.models import cube, triangles
from repro.gl.context import GLContext
from repro.gl.state import CullMode
from repro.gl.textures import checkerboard
from repro.gpu.gpu import EmeraldGPU
from repro.memory.builders import build_memory_by_name
from repro.pipeline.renderer import ReferenceRenderer
from repro.shader import builtins

from tests.pipeline.helpers import (
    FLAT_COLOR_FS,
    FLAT_VS,
    fullscreen_quad,
    perspective_mvp,
)


def make_gpu(width=48, height=48, num_clusters=2, wt_size=1):
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    config = scaled_gpu(GPUConfig(num_clusters=num_clusters,
                                  work_tile_size=wt_size))
    gpu = EmeraldGPU(events, config, width, height, memory=memory)
    return events, gpu, memory


def flat_scene(width=48, height=48, color=(1.0, 0.0, 0.0, 1.0)):
    ctx = GLContext(width, height)
    ctx.use_program(FLAT_VS, FLAT_COLOR_FS)
    ctx.set_state(cull=CullMode.NONE)
    ctx.set_uniform("flat_color", np.asarray(color))
    ctx.draw_mesh(fullscreen_quad())
    return ctx.end_frame()


def lit_cube_scene(width=48, height=48):
    ctx = GLContext(width, height)
    ctx.use_program(builtins.LIT_TEXTURED_VERTEX,
                    builtins.LIT_TEXTURED_FRAGMENT)
    model = np.eye(4)
    ctx.set_uniform("mvp", perspective_mvp(eye=(1.5, 1.2, 2.5)) @ model)
    ctx.set_uniform("model", model)
    ctx.set_uniform("light_dir", [0.5, 1.0, 0.8])
    ctx.set_uniform("tint", [1.0, 1.0, 1.0, 1.0])
    ctx.bind_texture("albedo", checkerboard(size=32, squares=4))
    ctx.draw_mesh(cube())
    return ctx.end_frame()


class TestFunctionalEquivalence:
    def test_flat_quad_matches_reference(self):
        frame = flat_scene()
        events, gpu, _ = make_gpu()
        stats = gpu.run_frame(frame)
        reference, _ = ReferenceRenderer(48, 48).render(frame)
        assert np.allclose(gpu.fb.color, reference.color)
        assert np.allclose(gpu.fb.depth, reference.depth)
        assert stats.cycles > 0

    def test_lit_cube_matches_reference(self):
        frame = lit_cube_scene()
        events, gpu, _ = make_gpu()
        gpu.run_frame(frame)
        reference, _ = ReferenceRenderer(48, 48).render(frame)
        assert np.allclose(gpu.fb.color, reference.color)
        assert np.allclose(gpu.fb.depth, reference.depth)

    @pytest.mark.parametrize("wt_size", [1, 2, 4])
    def test_image_independent_of_wt_size(self, wt_size):
        frame = lit_cube_scene()
        events, gpu, _ = make_gpu(wt_size=wt_size)
        gpu.run_frame(frame)
        reference, _ = ReferenceRenderer(48, 48).render(frame)
        assert np.allclose(gpu.fb.color, reference.color)

    def test_depth_order_across_draws(self):
        ctx = GLContext(32, 32)
        ctx.use_program(FLAT_VS, FLAT_COLOR_FS)
        ctx.set_state(cull=CullMode.NONE)
        ctx.set_uniform("flat_color", [0.0, 1.0, 0.0, 1.0])
        ctx.draw_mesh(fullscreen_quad(z=0.5), name="far")
        ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
        ctx.draw_mesh(fullscreen_quad(z=-0.5), name="near")
        frame = ctx.end_frame()
        events, gpu, _ = make_gpu(32, 32)
        gpu.run_frame(frame)
        assert np.allclose(gpu.fb.color[:, :, 0], 1.0)
        assert np.allclose(gpu.fb.color[:, :, 1], 0.0)

    def test_blending_matches_reference(self):
        ctx = GLContext(32, 32)
        ctx.use_program(FLAT_VS, FLAT_COLOR_FS)
        ctx.set_state(cull=CullMode.NONE, blend=True,
                      clear_color=(0.0, 0.0, 1.0, 1.0))
        ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 0.5])
        ctx.draw_mesh(fullscreen_quad())
        frame = ctx.end_frame()
        events, gpu, _ = make_gpu(32, 32)
        gpu.run_frame(frame)
        reference, _ = ReferenceRenderer(32, 32).render(frame)
        assert np.allclose(gpu.fb.color, reference.color)
        assert np.allclose(gpu.fb.color[:, :, 0], 0.5)

    def test_fan_primitive_mode(self):
        ctx = GLContext(32, 32)
        ctx.use_program(FLAT_VS, FLAT_COLOR_FS)
        ctx.set_state(cull=CullMode.NONE)
        ctx.set_uniform("flat_color", [1.0, 1.0, 0.0, 1.0])
        ctx.draw_mesh(triangles())
        frame = ctx.end_frame()
        events, gpu, _ = make_gpu(32, 32)
        gpu.run_frame(frame)
        reference, _ = ReferenceRenderer(32, 32).render(frame)
        assert np.allclose(gpu.fb.color, reference.color)


class TestTimingPlausibility:
    def test_cycles_and_counts(self):
        frame = lit_cube_scene()
        events, gpu, memory = make_gpu()
        stats = gpu.run_frame(frame)
        assert stats.fragments > 100
        assert stats.tc_tiles > 0
        assert stats.prims_rasterized > 0
        assert stats.prims_rejected > 0          # back faces
        assert stats.fragment_cycles > 0
        assert stats.cycles >= stats.fragment_cycles

    def test_caches_exercised(self):
        frame = lit_cube_scene()
        events, gpu, _ = make_gpu()
        stats = gpu.run_frame(frame)
        assert stats.l1_misses["l1t"] > 0        # texture fills
        assert stats.l1_misses["l1z"] > 0        # depth traffic
        assert stats.l1_misses["l1d"] > 0        # color writes
        assert stats.l2_accesses > 0

    def test_dram_traffic_recorded(self):
        frame = lit_cube_scene()
        events, gpu, memory = make_gpu()
        stats = gpu.run_frame(frame)
        assert stats.dram_bytes > 0

    def test_more_clusters_not_slower(self):
        frame = lit_cube_scene()
        _, gpu1, _ = make_gpu(num_clusters=1)
        cycles1 = gpu1.run_frame(frame).cycles
        _, gpu4, _ = make_gpu(num_clusters=4)
        cycles4 = gpu4.run_frame(frame).cycles
        assert cycles4 < cycles1

    def test_back_to_back_frames(self):
        frame = flat_scene()
        events, gpu, _ = make_gpu()
        first = gpu.run_frame(frame)
        second = gpu.run_frame(frame)
        assert len(gpu.frame_history) == 2
        assert second.start_tick >= first.end_tick

    def test_busy_guard(self):
        frame = flat_scene()
        events, gpu, _ = make_gpu()
        gpu.render_frame(frame)
        with pytest.raises(RuntimeError):
            gpu.render_frame(frame)

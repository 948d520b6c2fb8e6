"""Tests for stencil operations (pipeline stage J's stencil half)."""

import numpy as np
import pytest

from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.gl.context import GLContext
from repro.gl.state import CullMode, DepthFunc, StencilOp
from repro.gpu.gpu import EmeraldGPU
from repro.memory.builders import build_memory_by_name
from repro.pipeline.renderer import ReferenceRenderer

from tests.pipeline.helpers import FLAT_COLOR_FS, FLAT_VS, fullscreen_quad, \
    half_quad

SIZE = 32


def make_ctx():
    ctx = GLContext(SIZE, SIZE)
    ctx.use_program(FLAT_VS, FLAT_COLOR_FS)
    ctx.set_state(cull=CullMode.NONE)
    return ctx


def render(ctx):
    frame = ctx.end_frame()
    return ReferenceRenderer(SIZE, SIZE).render(frame)


class TestStencilMasking:
    def test_replace_writes_stencil(self):
        ctx = make_ctx()
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.ALWAYS,
                      stencil_ref=5, stencil_pass_op=StencilOp.REPLACE)
        ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
        ctx.draw_mesh(half_quad(left=True))
        fb, _ = render(ctx)
        assert fb.stencil.max() == 5
        assert fb.stencil.min() == 0
        # The stenciled region matches the rendered region.
        assert np.array_equal(fb.stencil == 5, fb.depth < 1.0)

    def test_equal_test_masks_second_pass(self):
        """The classic mask-then-fill: draw a mask with REPLACE, then a
        fullscreen quad gated on stencil EQUAL ref."""
        ctx = make_ctx()
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.ALWAYS,
                      stencil_ref=7, stencil_pass_op=StencilOp.REPLACE)
        ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
        ctx.draw_mesh(half_quad(left=True), name="mask")
        # Second pass: nearer fullscreen quad, only where stencil == 7.
        ctx.set_state(stencil_func=DepthFunc.EQUAL, stencil_ref=7,
                      stencil_pass_op=StencilOp.KEEP)
        ctx.set_uniform("flat_color", [0.0, 1.0, 0.0, 1.0])
        ctx.draw_mesh(fullscreen_quad(z=-0.5), name="fill")
        fb, _ = render(ctx)
        masked = fb.stencil == 7
        assert masked.any() and (~masked).any()
        assert np.allclose(fb.color[masked][:, 1], 1.0)
        assert np.allclose(fb.color[~masked][:, 1], 0.0)

    def test_never_discards_everything(self):
        ctx = make_ctx()
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.NEVER)
        ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
        ctx.draw_mesh(fullscreen_quad())
        fb, stats = render(ctx)
        assert stats.fragments_discarded == stats.fragments_shaded
        assert np.allclose(fb.color[:, :, 0], 0.0)

    def test_incr_counts_overdraw(self):
        ctx = make_ctx()
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.ALWAYS,
                      stencil_pass_op=StencilOp.INCR, depth_test=False)
        ctx.set_uniform("flat_color", [0.5, 0.5, 0.5, 1.0])
        ctx.draw_mesh(fullscreen_quad(z=0.1), name="layer0")
        ctx.draw_mesh(fullscreen_quad(z=0.2), name="layer1")
        ctx.draw_mesh(half_quad(left=True, z=0.3), name="layer2")
        fb, _ = render(ctx)
        assert fb.stencil.max() == 3       # half the screen: three layers
        assert fb.stencil.min() == 2       # the rest: two

    def test_invert(self):
        ctx = make_ctx()
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.ALWAYS,
                      stencil_pass_op=StencilOp.INVERT, depth_test=False)
        ctx.set_uniform("flat_color", [1.0, 1.0, 1.0, 1.0])
        ctx.draw_mesh(fullscreen_quad())
        fb, _ = render(ctx)
        assert np.all(fb.stencil == 255)

    def test_stencil_before_depth(self):
        """Stencil-failed fragments must not write depth."""
        ctx = make_ctx()
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.EQUAL,
                      stencil_ref=9)     # buffer is 0 -> all fail
        ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
        ctx.draw_mesh(fullscreen_quad(z=-0.5))
        fb, _ = render(ctx)
        assert np.all(fb.depth == 1.0)

    def test_clear_stencil_value(self):
        ctx = make_ctx()
        ctx.set_state(clear_stencil=3)
        fb, _ = render(ctx)
        assert np.all(fb.stencil == 3)


class TestStencilOnGPU:
    def test_timing_model_matches_reference(self):
        def build_frame():
            ctx = make_ctx()
            ctx.set_state(stencil_test=True, stencil_func=DepthFunc.ALWAYS,
                          stencil_ref=4, stencil_pass_op=StencilOp.REPLACE)
            ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
            ctx.draw_mesh(half_quad(left=True), name="mask")
            ctx.set_state(stencil_func=DepthFunc.EQUAL, stencil_ref=4,
                          stencil_pass_op=StencilOp.KEEP)
            ctx.set_uniform("flat_color", [0.0, 0.0, 1.0, 1.0])
            ctx.draw_mesh(fullscreen_quad(z=-0.5), name="fill")
            return ctx.end_frame()

        frame = build_frame()
        reference, _ = ReferenceRenderer(SIZE, SIZE).render(frame)
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
        gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=2)),
                         SIZE, SIZE, memory=memory)
        gpu.run_frame(frame)
        assert np.allclose(gpu.fb.color, reference.color)
        assert np.array_equal(gpu.fb.stencil, reference.stencil)

    def test_stencil_traffic_hits_l1z(self):
        ctx = make_ctx()
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.ALWAYS,
                      stencil_ref=1, stencil_pass_op=StencilOp.REPLACE,
                      depth_test=False)
        ctx.set_uniform("flat_color", [1.0, 1.0, 1.0, 1.0])
        ctx.draw_mesh(fullscreen_quad())
        frame = ctx.end_frame()
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
        gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=2)),
                         SIZE, SIZE, memory=memory)
        gpu.run_frame(frame)
        assert gpu.cores[0].l1z.stats.counter("accesses").value > 0

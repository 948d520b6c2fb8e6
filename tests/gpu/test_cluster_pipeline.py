"""Integration tests on cluster pipeline internals (PMRB order, stages)."""

import numpy as np
import pytest

from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.geometry.mesh import Mesh
from repro.gl.context import GLContext
from repro.gl.state import BlendFactor, CullMode
from repro.gpu.gpu import EmeraldGPU
from repro.memory.builders import build_memory_by_name
from repro.pipeline.renderer import ReferenceRenderer

SIZE = 32
VS = "in vec3 position;\nvoid main() { gl_Position = vec4(position, 1.0); }"
FS = ("uniform vec4 flat_color;\n"
      "void main() { gl_FragColor = flat_color; }")


def make_gpu(num_clusters=2, pmrb_entries=64):
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
    config = scaled_gpu(GPUConfig(num_clusters=num_clusters,
                                  pmrb_entries=pmrb_entries))
    return EmeraldGPU(events, config, SIZE, SIZE, memory=memory)


def overlapping_strips_frame(layers=8):
    """Many small overlapping quads at the same place: stresses PMRB
    ordering + TC exclusivity (blending makes order errors visible)."""
    ctx = GLContext(SIZE, SIZE)
    ctx.use_program(VS, FS)
    ctx.set_state(cull=CullMode.NONE, depth_test=False, blend=True,
                  blend_src=BlendFactor.ONE, blend_dst=BlendFactor.ONE)
    for i in range(layers):
        quad = Mesh(
            positions=np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0],
                                [-0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]),
            indices=np.array([0, 1, 2, 1, 3, 2]), name=f"layer{i}")
        ctx.set_uniform("flat_color", [0.1, 0.0, 0.0, 1.0])
        ctx.draw_mesh(quad, name=f"layer{i}")
    return ctx.end_frame()


class TestOrderingUnderContention:
    def test_additive_layers_sum_exactly(self):
        """8 additive layers: every pixel accumulates exactly 0.8."""
        frame = overlapping_strips_frame(8)
        gpu = make_gpu()
        gpu.run_frame(frame)
        covered = gpu.fb.color[:, :, 0] > 0
        assert covered.any()
        values = gpu.fb.color[:, :, 0][covered]
        assert np.allclose(values, 0.8), \
            "TC exclusivity must serialize same-position tiles"

    def test_tiny_pmrb_still_correct(self):
        """PMRB capacity throttles the launcher but preserves order."""
        frame = overlapping_strips_frame(6)
        gpu = make_gpu(pmrb_entries=2)
        gpu.run_frame(frame)
        reference, _ = ReferenceRenderer(SIZE, SIZE).render(frame)
        assert np.allclose(gpu.fb.color, reference.color)

    def test_many_clusters_single_tile(self):
        """All fragments land in one TC tile: one core does the shading."""
        ctx = GLContext(SIZE, SIZE)
        ctx.use_program(VS, FS)
        ctx.set_state(cull=CullMode.NONE)
        tiny = Mesh(positions=np.array([[-0.2, -0.2, 0.0], [0.0, -0.2, 0.0],
                                        [-0.2, 0.0, 0.0]]),
                    indices=np.arange(3), name="tiny")
        ctx.set_uniform("flat_color", [1.0, 1.0, 0.0, 1.0])
        ctx.draw_mesh(tiny)
        frame = ctx.end_frame()
        gpu = make_gpu(num_clusters=4)
        gpu.run_frame(frame)
        shading_cores = [core.core_id for core in gpu.cores
                         if core.stats.counter("warps.fragment").value > 0]
        assert len(shading_cores) == 1

    def test_wt_size_spreads_work(self):
        """WT=1 on a fullscreen quad engages every core."""
        ctx = GLContext(SIZE, SIZE)
        ctx.use_program(VS, FS)
        ctx.set_state(cull=CullMode.NONE)
        quad = Mesh(positions=np.array([[-1, -1, 0], [1, -1, 0],
                                        [-1, 1, 0], [1, 1, 0]], dtype=float),
                    indices=np.array([0, 1, 2, 1, 3, 2]), name="full")
        ctx.set_uniform("flat_color", [0.0, 1.0, 1.0, 1.0])
        ctx.draw_mesh(quad)
        frame = ctx.end_frame()
        gpu = make_gpu(num_clusters=4)
        gpu.work_tile_size = 1
        gpu.run_frame(frame)
        active = sum(1 for core in gpu.cores
                     if core.stats.counter("warps.fragment").value > 0)
        assert active == 4

    def test_vertex_work_round_robins_cores(self):
        frame = overlapping_strips_frame(8)   # 8 draws, 1 batch each
        gpu = make_gpu(num_clusters=2)
        gpu.run_frame(frame)
        vertex_counts = [core.stats.counter("warps.vertex").value
                         for core in gpu.cores]
        assert all(c > 0 for c in vertex_counts)

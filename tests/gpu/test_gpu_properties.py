"""Property-based equivalence: random scenes, timing model == reference.

The strongest invariant in the repository: for arbitrary triangle soups,
states and work-tile sizes, the cycle-level GPU must produce exactly the
image the functional reference renderer produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.geometry.mesh import Mesh
from repro.gl.context import GLContext
from repro.gl.state import BlendFactor, CullMode, DepthFunc
from repro.gpu.gpu import EmeraldGPU
from repro.memory.builders import build_memory_by_name
from repro.pipeline.renderer import ReferenceRenderer

SIZE = 24

VS = "in vec3 position;\nvoid main() { gl_Position = vec4(position, 1.0); }"
FS = ("uniform vec4 flat_color;\n"
      "void main() { gl_FragColor = flat_color; }")

coords = st.floats(min_value=-1.2, max_value=1.2, allow_nan=False,
                   allow_infinity=False)
depths = st.floats(min_value=-0.9, max_value=0.9, allow_nan=False)


@st.composite
def triangle_soup(draw):
    n = draw(st.integers(1, 4))
    triangles = []
    for _ in range(n):
        tri = [(draw(coords), draw(coords), draw(depths)) for _ in range(3)]
        color = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
        triangles.append((tri, color))
    return triangles


@st.composite
def render_state(draw):
    return dict(
        depth_test=draw(st.booleans()),
        depth_func=draw(st.sampled_from([DepthFunc.LESS, DepthFunc.LEQUAL,
                                         DepthFunc.GREATER])),
        blend=draw(st.booleans()),
        cull=draw(st.sampled_from([CullMode.NONE, CullMode.BACK])),
    )


def build_frame(triangles, state):
    ctx = GLContext(SIZE, SIZE)
    ctx.use_program(VS, FS)
    ctx.set_state(**state)
    for index, (tri, color) in enumerate(triangles):
        mesh = Mesh(positions=np.array(tri), indices=np.arange(3),
                    name=f"tri{index}")
        ctx.set_uniform("flat_color", color)
        ctx.draw_mesh(mesh, name=f"tri{index}")
    return ctx.end_frame()


class TestRandomSceneEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(triangle_soup(), render_state(), st.integers(1, 4))
    def test_timing_model_matches_reference(self, triangles, state, wt):
        frame = build_frame(triangles, state)
        reference, _ = ReferenceRenderer(SIZE, SIZE).render(frame)
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
        gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=2,
                                                      work_tile_size=wt)),
                         SIZE, SIZE, memory=memory)
        gpu.work_tile_size = wt
        gpu.run_frame(frame)
        assert np.allclose(gpu.fb.color, reference.color), \
            f"image mismatch (state={state}, wt={wt})"
        assert np.allclose(gpu.fb.depth, reference.depth)

    @settings(max_examples=8, deadline=None)
    @given(triangle_soup())
    def test_blending_order_preserved(self, triangles):
        """Additive blending makes ordering errors visible as wrong sums."""
        state = dict(depth_test=False, blend=True,
                     cull=CullMode.NONE)
        frame = build_frame(triangles, state)
        for call in frame.draw_calls:
            object.__setattr__(call.state, "__dict__",
                               call.state.__dict__)  # no-op; keep frozen
        reference, _ = ReferenceRenderer(SIZE, SIZE).render(frame)
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
        gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=3)),
                         SIZE, SIZE, memory=memory)
        gpu.run_frame(frame)
        assert np.allclose(gpu.fb.color, reference.color)

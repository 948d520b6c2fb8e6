"""The renderer's batched shading against the per-warp oracle.

:class:`ReferenceRenderer` shades each conflict-free run of primitives in
wide passes; :func:`tests.pipeline.warp_oracle.render_per_warp` shades one
warp-size packet of one primitive at a time.  Every comparison requires
byte-identical color, depth and stencil buffers and equal
:class:`RenderStats`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.shader.dispatch as dispatch
from repro.geometry.mesh import Mesh
from repro.geometry.models import MODEL_NAMES
from repro.gl.context import GLContext
from repro.gl.state import BlendFactor, CullMode, DepthFunc, StencilOp
from repro.harness.scenes import (CASE_STUDY1_SCENES, CASE_STUDY2_SCENES,
                                  SceneSession)
from repro.pipeline.renderer import ReferenceRenderer
from repro.pipeline.vertex import MAX_PASS_LANES, shading_passes
from repro.shader import builtins

from tests.pipeline.helpers import flat_context, fullscreen_quad
from tests.pipeline.warp_oracle import render_per_warp

WIDTH, HEIGHT = 96, 72


def assert_renders_like_the_oracle(frame, width, height, warp_size=32):
    fb, stats = ReferenceRenderer(width, height,
                                  warp_size=warp_size).render(frame)
    want_fb, want_stats = render_per_warp(frame, width, height, warp_size)
    assert fb.color.tobytes() == want_fb.color.tobytes()
    assert fb.depth.tobytes() == want_fb.depth.tobytes()
    assert fb.stencil.tobytes() == want_fb.stencil.tobytes()
    assert stats == want_stats
    return stats


def _labels(model):
    return [label for scenes in (CASE_STUDY2_SCENES, CASE_STUDY1_SCENES)
            for label, name in scenes.items() if name == model]


def test_the_scene_models_cover_every_workload_label():
    workload_models = (set(CASE_STUDY1_SCENES.values())
                       | set(CASE_STUDY2_SCENES.values()))
    assert workload_models <= set(MODEL_NAMES)


@pytest.mark.parametrize("model", MODEL_NAMES, ids=lambda model: "-".join(
    _labels(model) + [model]))
def test_workload_frames_render_like_the_oracle(model):
    """W1-W6, M1-M4 and every model: two frames each."""
    session = SceneSession(model, WIDTH, HEIGHT)
    for index in range(2):
        stats = assert_renders_like_the_oracle(session.frame(index), WIDTH,
                                               HEIGHT)
        assert stats.fragments_shaded > 0


class TestShadingPasses:
    def test_pass_widths_are_warp_size_times_a_power_of_two(self):
        assert list(shading_passes(0, 32)) == []
        assert list(shading_passes(1, 32)) == [(0, 1, 32)]
        assert list(shading_passes(32, 32)) == [(0, 32, 32)]
        assert list(shading_passes(33, 32)) == [(0, 33, 64)]
        assert list(shading_passes(2500, 32)) == [
            (0, 1024, 1024), (1024, 2048, 1024), (2048, 2500, 512)]

    def test_no_pass_is_wider_than_the_cap_unless_one_warp_is(self):
        assert MAX_PASS_LANES == 1024
        assert max(width for _, _, width in shading_passes(10_000, 8)) \
            == MAX_PASS_LANES
        assert list(shading_passes(3, 2048)) == [(0, 3, 2048)]

    @pytest.fixture
    def pass_widths(self, monkeypatch):
        """The width of every interpreter run, in order."""
        widths = []
        run = dispatch.CompiledProgram.run

        def counted(self, env, *args, **kwargs):
            widths.append(self.width)
            return run(self, env, *args, **kwargs)

        monkeypatch.setattr(dispatch.CompiledProgram, "run", counted)
        return widths

    def test_a_conflict_free_draw_runs_in_capped_passes(self, pass_widths):
        """3,072 fragments of two abutting triangles share no pixel: one
        vertex pass and three 1,024-lane fragment passes, where the
        per-warp loop ran 1 + 96 warps."""
        ctx = flat_context(64, 48)
        ctx.set_state(cull=CullMode.NONE)
        ctx.draw_mesh(fullscreen_quad())
        frame = ctx.end_frame()
        _, stats = ReferenceRenderer(64, 48).render(frame)
        assert pass_widths == [32, 1024, 1024, 1024]
        assert stats.fragment_warps == 96

    def test_overlapping_primitives_start_a_new_batch(self, pass_widths):
        """The second quad covers the first one's pixels: its fragments
        wait for the first batch, as blending needs."""
        ctx = flat_context(16, 16, color=(1.0, 0.0, 0.0, 0.5))
        ctx.set_state(cull=CullMode.NONE, blend=True, depth_test=False)
        quad = fullscreen_quad()
        doubled = Mesh(positions=quad.positions,
                       indices=np.concatenate([quad.indices, quad.indices]))
        ctx.draw_mesh(doubled)
        frame = ctx.end_frame()
        assert_renders_like_the_oracle(frame, 16, 16)
        pass_widths.clear()
        fb, _ = ReferenceRenderer(16, 16).render(frame)
        assert pass_widths == [32, 256, 256]
        assert np.allclose(fb.color[:, :, 0], 0.75)


DISCARD_FS = """
in vec4 v_color;
void main() {
    if (v_color.x < 0.4) {
        discard;
    }
    gl_FragColor = v_color;
}
"""

_unit = st.floats(0.0, 1.0, allow_nan=False)
_xy = st.floats(-1.3, 1.3, allow_nan=False)
_z = st.floats(-0.95, 0.95, allow_nan=False)


@st.composite
def triangle_soups(draw):
    """One draw of overlapping triangles under a random ROP state."""
    count = draw(st.integers(1, 10))
    vertices = draw(st.lists(st.tuples(_xy, _xy, _z, _unit, _unit, _unit,
                                       _unit),
                             min_size=3 * count, max_size=3 * count))
    state = {
        "cull": draw(st.sampled_from(list(CullMode))),
        "depth_test": draw(st.booleans()),
        "depth_func": draw(st.sampled_from(list(DepthFunc))),
        "depth_write": draw(st.booleans()),
        "blend": draw(st.booleans()),
        "blend_src": draw(st.sampled_from(list(BlendFactor))),
        "blend_dst": draw(st.sampled_from(list(BlendFactor))),
        "stencil_test": draw(st.booleans()),
        "stencil_func": draw(st.sampled_from(list(DepthFunc))),
        "stencil_ref": draw(st.integers(0, 3)),
        "stencil_pass_op": draw(st.sampled_from(list(StencilOp))),
    }
    discard = draw(st.booleans())
    warp_size = draw(st.sampled_from([4, 8, 32]))
    return np.array(vertices), state, discard, warp_size


@settings(max_examples=200, deadline=None)
@given(soup=triangle_soups())
def test_triangle_soups_render_like_the_oracle(soup):
    vertices, state, discard, warp_size = soup
    width, height = 40, 30
    ctx = GLContext(width, height)
    ctx.use_program(builtins.COLOR_VERTEX,
                    DISCARD_FS if discard else builtins.VERTEX_COLOR_FRAGMENT)
    ctx.set_uniform("mvp", np.eye(4))
    ctx.set_state(clear_color=(0.2, 0.3, 0.4, 1.0), **state)
    ctx.draw_mesh(Mesh(positions=vertices[:, :3],
                       indices=np.arange(len(vertices)),
                       colors=vertices[:, 3:]))
    assert_renders_like_the_oracle(ctx.end_frame(), width, height, warp_size)

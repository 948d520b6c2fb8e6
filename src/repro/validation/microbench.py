"""The 14 validation microbenchmarks (§3.4).

Each microbenchmark isolates one axis of GPU behavior — fill rate,
texturing, geometry throughput, depth complexity, discard, blending — the
way the paper's Tegra microbenchmarks do.  Each builds a single frame at a
fixed resolution; the accuracy study renders it on the timing model and
compares draw time / fill rate against the surrogate hardware model.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.geometry.mesh import Mesh
from repro.geometry.models import cube, mask, sphere, teapot
from repro.gl.context import Frame, GLContext
from repro.gl.state import BlendFactor, CullMode, DepthFunc
from repro.gl.textures import checkerboard, gradient, marble
from repro.shader import builtins

WIDTH, HEIGHT = 96, 96

FLAT_VS = "in vec3 position;\nvoid main() { gl_Position = vec4(position, 1.0); }"
FLAT_FS = ("uniform vec4 flat_color;\n"
           "void main() { gl_FragColor = flat_color; }")


def _quad(z: float = 0.5, scale: float = 1.0, offset=(0.0, 0.0)) -> Mesh:
    ox, oy = offset
    positions = np.array([
        [-scale + ox, -scale + oy, z], [scale + ox, -scale + oy, z],
        [-scale + ox, scale + oy, z], [scale + ox, scale + oy, z],
    ])
    uvs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return Mesh(positions=positions, indices=np.array([0, 1, 2, 1, 3, 2]),
                uvs=uvs, name=f"quad{z}_{scale}_{ox}")


def _flat_ctx(color=(0.8, 0.2, 0.2, 1.0)) -> GLContext:
    ctx = GLContext(WIDTH, HEIGHT)
    ctx.use_program(FLAT_VS, FLAT_FS)
    ctx.set_state(cull=CullMode.NONE)
    ctx.set_uniform("flat_color", np.asarray(color))
    return ctx


def _fill_small() -> Frame:
    ctx = _flat_ctx()
    ctx.draw_mesh(_quad(scale=0.25))
    return ctx.end_frame()


def _fill_half() -> Frame:
    ctx = _flat_ctx()
    ctx.draw_mesh(_quad(scale=0.7))
    return ctx.end_frame()


def _fill_full() -> Frame:
    ctx = _flat_ctx()
    ctx.draw_mesh(_quad(scale=1.0))
    return ctx.end_frame()


def _fill_quads_grid() -> Frame:
    ctx = _flat_ctx()
    for i in range(4):
        for j in range(4):
            ctx.draw_mesh(_quad(scale=0.2,
                                offset=(-0.75 + i * 0.5, -0.75 + j * 0.5)))
    return ctx.end_frame()


def _textured(texture) -> Frame:
    ctx = GLContext(WIDTH, HEIGHT)
    ctx.use_program(builtins.TRANSFORM_UV_VERTEX, builtins.TEXTURED_FRAGMENT)
    ctx.set_state(cull=CullMode.NONE)
    ctx.set_uniform("mvp", np.eye(4))
    ctx.bind_texture("albedo", texture)
    ctx.draw_mesh(_quad(scale=1.0))
    return ctx.end_frame()


def _textured_small_texture() -> Frame:
    return _textured(checkerboard(size=32, squares=4))


def _textured_large_texture() -> Frame:
    return _textured(marble(size=256, seed=5))


def _lit_mesh(mesh: Mesh, eye=(1.6, 1.3, 2.4)) -> Frame:
    from repro.geometry.transforms import look_at, perspective
    ctx = GLContext(WIDTH, HEIGHT)
    ctx.use_program(builtins.LIT_TEXTURED_VERTEX,
                    builtins.LIT_TEXTURED_FRAGMENT)
    proj = perspective(math.radians(60), 1.0, 0.1, 50.0)
    view = look_at(np.array(eye, dtype=np.float64), np.zeros(3),
                   np.array([0.0, 1.0, 0.0]))
    model = np.eye(4)
    ctx.set_uniform("mvp", proj @ view @ model)
    ctx.set_uniform("model", model)
    ctx.set_uniform("light_dir", [0.4, 1.0, 0.6])
    ctx.set_uniform("tint", [1.0, 1.0, 1.0, 1.0])
    ctx.bind_texture("albedo", gradient(size=64))
    ctx.draw_mesh(mesh)
    return ctx.end_frame()


def _lit_cube() -> Frame:
    return _lit_mesh(cube())


def _lit_sphere_dense() -> Frame:
    return _lit_mesh(sphere(radius=1.1, detail=12))


def _geometry_heavy_small_on_screen() -> Frame:
    return _lit_mesh(mask(detail=3), eye=(4.5, 3.5, 7.0))


def _depth_complexity() -> Frame:
    """Four stacked full-screen layers, back to front."""
    ctx = _flat_ctx()
    ctx.set_state(depth_func=DepthFunc.LEQUAL)
    for i, z in enumerate((0.8, 0.6, 0.4, 0.2)):
        ctx.set_uniform("flat_color", [0.2 * (i + 1), 0.1, 0.1, 1.0])
        ctx.draw_mesh(_quad(z=z))
    return ctx.end_frame()


def _depth_complexity_front_to_back() -> Frame:
    ctx = _flat_ctx()
    ctx.set_state(depth_func=DepthFunc.LEQUAL)
    for i, z in enumerate((0.2, 0.4, 0.6, 0.8)):
        ctx.set_uniform("flat_color", [0.2 * (i + 1), 0.1, 0.1, 1.0])
        ctx.draw_mesh(_quad(z=z))
    return ctx.end_frame()


def _discard_cutout() -> Frame:
    tex = checkerboard(size=64, squares=8,
                       color_a=(1.0, 1.0, 1.0, 1.0),
                       color_b=(0.0, 0.0, 0.0, 0.0))
    ctx = GLContext(WIDTH, HEIGHT)
    ctx.use_program(builtins.TRANSFORM_UV_VERTEX,
                    builtins.ALPHA_CUTOUT_FRAGMENT)
    ctx.set_state(cull=CullMode.NONE)
    ctx.set_uniform("mvp", np.eye(4))
    ctx.bind_texture("albedo", tex)
    ctx.draw_mesh(_quad(scale=1.0))
    return ctx.end_frame()


def _blending_layers() -> Frame:
    ctx = _flat_ctx(color=(0.8, 0.3, 0.2, 0.4))
    ctx.set_state(blend=True, depth_test=False,
                  blend_src=BlendFactor.SRC_ALPHA,
                  blend_dst=BlendFactor.ONE_MINUS_SRC_ALPHA)
    for __ in range(3):
        ctx.draw_mesh(_quad(scale=0.9))
    return ctx.end_frame()


def _mixed_teapot() -> Frame:
    return _lit_mesh(teapot(detail=4), eye=(2.6, 2.2, 4.0))


MICROBENCHMARKS: dict[str, Callable[[], Frame]] = {
    "fill_small": _fill_small,
    "fill_half": _fill_half,
    "fill_full": _fill_full,
    "fill_grid": _fill_quads_grid,
    "tex_small": _textured_small_texture,
    "tex_large": _textured_large_texture,
    "lit_cube": _lit_cube,
    "lit_sphere": _lit_sphere_dense,
    "geom_heavy": _geometry_heavy_small_on_screen,
    "depth_b2f": _depth_complexity,
    "depth_f2b": _depth_complexity_front_to_back,
    "discard": _discard_cutout,
    "blend3": _blending_layers,
    "teapot": _mixed_teapot,
}

assert len(MICROBENCHMARKS) == 14, "the paper uses 14 microbenchmarks"


def build_microbench(name: str) -> Frame:
    if name not in MICROBENCHMARKS:
        raise KeyError(f"unknown microbenchmark {name!r}; "
                       f"known: {sorted(MICROBENCHMARKS)}")
    return MICROBENCHMARKS[name]()

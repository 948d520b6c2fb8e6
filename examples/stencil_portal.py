#!/usr/bin/env python
"""Multi-pass stencil rendering: a portal mask (pipeline stage J).

Pass 1 writes a circular stencil mask (color writes effectively invisible),
pass 2 draws a lit teapot only where the stencil matches, and pass 3 fills
the outside with a dim background — the classic portal/HUD masking pattern,
running on the in-shader ROP pipeline of the GPU timing model.

Run:  python examples/stencil_portal.py [portal.ppm]
"""

import math
import sys

import numpy as np

from repro.common.config import DRAMConfig, GPUConfig
from repro.common.events import EventQueue
from repro.geometry.mesh import Mesh, PrimitiveMode
from repro.geometry.models import teapot
from repro.geometry.transforms import look_at, perspective
from repro.gl.context import GLContext
from repro.gl.state import CullMode, DepthFunc, StencilOp
from repro.gl.textures import marble
from repro.gpu.gpu import EmeraldGPU
from repro.memory.builders import build_memory_by_name
from repro.shader import builtins

WIDTH, HEIGHT = 160, 120

FLAT_VS = "in vec3 position;\nvoid main() { gl_Position = vec4(position, 1.0); }"
FLAT_FS = ("uniform vec4 flat_color;\n"
           "void main() { gl_FragColor = flat_color; }")


def disk(radius=0.7, segments=48) -> Mesh:
    positions = [(0.0, 0.0, 0.9)]
    for i in range(segments + 1):
        a = 2 * math.pi * i / segments
        positions.append((radius * math.cos(a) * HEIGHT / WIDTH,
                          radius * math.sin(a), 0.9))
    return Mesh(positions=np.array(positions),
                indices=np.arange(len(positions)),
                mode=PrimitiveMode.TRIANGLE_FAN, name="portal_disk")


def fullscreen(z=0.95) -> Mesh:
    return Mesh(positions=np.array([[-1, -1, z], [1, -1, z],
                                    [-1, 1, z], [1, 1, z]], dtype=float),
                indices=np.array([0, 1, 2, 1, 3, 2]), name="backdrop")


def main() -> None:
    ctx = GLContext(WIDTH, HEIGHT)
    ctx.set_state(clear_color=(0.0, 0.0, 0.0, 1.0), cull=CullMode.NONE)

    # Pass 1: carve the portal into the stencil buffer.
    ctx.use_program(FLAT_VS, FLAT_FS)
    ctx.set_state(stencil_test=True, stencil_func=DepthFunc.ALWAYS,
                  stencil_ref=1, stencil_pass_op=StencilOp.REPLACE,
                  depth_test=False)
    ctx.set_uniform("flat_color", [0.02, 0.02, 0.05, 1.0])
    ctx.draw_mesh(disk(), name="portal_mask")

    # Pass 2: the world, visible only through the portal.
    ctx.use_program(builtins.LIT_TEXTURED_VERTEX,
                    builtins.LIT_TEXTURED_FRAGMENT)
    proj = perspective(math.radians(55), WIDTH / HEIGHT, 0.1, 50.0)
    view = look_at(np.array([2.6, 2.0, 3.8]), np.array([0.0, 0.8, 0.0]),
                   np.array([0.0, 1.0, 0.0]))
    model = np.eye(4)
    ctx.set_uniform("mvp", proj @ view @ model)
    ctx.set_uniform("model", model)
    ctx.set_uniform("light_dir", [0.4, 1.0, 0.6])
    ctx.set_uniform("tint", [1.0, 0.95, 0.85, 1.0])
    ctx.bind_texture("albedo", marble(size=128, seed=3))
    ctx.set_state(stencil_test=True, stencil_func=DepthFunc.EQUAL,
                  stencil_ref=1, stencil_pass_op=StencilOp.KEEP,
                  depth_test=True)
    ctx.draw_mesh(teapot(detail=4), name="world")

    # Pass 3: dim vignette outside the portal (stencil != 1).
    ctx.use_program(FLAT_VS, FLAT_FS)
    ctx.set_state(stencil_test=True, stencil_func=DepthFunc.NOTEQUAL,
                  stencil_ref=1, stencil_pass_op=StencilOp.KEEP,
                  depth_test=False)
    ctx.set_uniform("flat_color", [0.12, 0.08, 0.16, 1.0])
    ctx.draw_mesh(fullscreen(), name="vignette")

    frame = ctx.end_frame()
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), WIDTH, HEIGHT,
                     memory=memory)
    stats = gpu.run_frame(frame)

    inside = int((gpu.fb.stencil == 1).sum())
    print(f"rendered 3 passes in {stats.cycles} cycles "
          f"({stats.fragments} fragments, "
          f"{stats.fragments_discarded} stencil/depth-discarded)")
    print(f"portal covers {inside} of {WIDTH * HEIGHT} pixels")
    output = sys.argv[1] if len(sys.argv) > 1 else "portal.ppm"
    gpu.fb.save_ppm(output)
    print(f"image -> {output}")


if __name__ == "__main__":
    main()

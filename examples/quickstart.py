#!/usr/bin/env python
"""Quickstart: render one frame on the Emerald GPU timing model.

Builds a textured, lit cube scene through the GL-like API, renders it on
the cycle-level GPU (standalone mode), verifies the image against the
pure-software reference renderer, and prints the timing/cache statistics.

Run:  python examples/quickstart.py [output.ppm]
"""

import sys

import numpy as np

from repro.common.config import DRAMConfig, GPUConfig
from repro.common.events import EventQueue
from repro.geometry.models import cube
from repro.gl.context import GLContext
from repro.gl.textures import checkerboard
from repro.gpu.gpu import EmeraldGPU
from repro.memory.builders import build_memory_by_name
from repro.pipeline.renderer import ReferenceRenderer
from repro.shader import builtins

WIDTH, HEIGHT = 160, 120


def main() -> None:
    # 1. Describe the scene through the GL-like API (the Mesa analog).
    import math
    from repro.geometry.transforms import look_at, perspective

    ctx = GLContext(WIDTH, HEIGHT)
    ctx.use_program(builtins.LIT_TEXTURED_VERTEX,
                    builtins.LIT_TEXTURED_FRAGMENT)
    proj = perspective(math.radians(60.0), WIDTH / HEIGHT, 0.1, 50.0)
    view = look_at(np.array([1.8, 1.4, 2.6]), np.zeros(3),
                   np.array([0.0, 1.0, 0.0]))
    model = np.eye(4)
    ctx.set_uniform("mvp", proj @ view @ model)
    ctx.set_uniform("model", model)
    ctx.set_uniform("light_dir", [0.5, 1.0, 0.7])
    ctx.set_uniform("tint", [1.0, 1.0, 1.0, 1.0])
    ctx.bind_texture("albedo", checkerboard(size=64, squares=8))
    ctx.set_state(clear_color=(0.08, 0.08, 0.12, 1.0))
    ctx.draw_mesh(cube())
    frame = ctx.end_frame()

    # 2. Build a standalone GPU: 4 SIMT clusters over 2 LPDDR channels.
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), WIDTH, HEIGHT,
                     memory=memory)

    # 3. Render on the timing model.
    stats = gpu.run_frame(frame)

    # 4. Cross-check against the functional reference renderer.
    reference, ref_stats = ReferenceRenderer(WIDTH, HEIGHT).render(frame)
    exact = np.allclose(gpu.fb.color, reference.color)

    print(f"frame rendered in {stats.cycles} GPU cycles "
          f"({stats.fragment_cycles} in fragment shading)")
    print(f"  primitives rasterized : {stats.prims_rasterized} "
          f"(+{stats.prims_rejected} culled/clipped away)")
    print(f"  fragments shaded      : {stats.fragments} "
          f"({stats.fragments_discarded} failed depth)")
    print(f"  TC tiles dispatched   : {stats.tc_tiles}")
    print(f"  L1 misses             : {stats.l1_misses}")
    print(f"  L2 accesses/misses    : {stats.l2_accesses}/{stats.l2_misses}")
    print(f"  DRAM traffic          : {stats.dram_bytes} bytes")
    print(f"  fill rate             : {stats.pixels_per_cycle:.3f} px/cycle")
    print(f"  matches reference     : {exact}")

    output = sys.argv[1] if len(sys.argv) > 1 else "quickstart.ppm"
    gpu.fb.save_ppm(output)
    print(f"  image written to      : {output}")
    if not exact:
        raise SystemExit("timing model diverged from the reference renderer")


if __name__ == "__main__":
    main()

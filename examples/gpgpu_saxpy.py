#!/usr/bin/env python
"""The unified shader model from the compute side: SAXPY on Emerald.

Emerald's central claim is one microarchitecture for graphics *and* GPGPU.
This example launches a SAXPY kernel (written in the PTX-like shader ISA)
on the same SIMT cores, caches and DRAM that render frames — and then
renders a frame on the same GPU instance to show both workloads sharing
the hardware model.

Run:  python examples/gpgpu_saxpy.py
"""

import numpy as np

from repro.common.config import DRAMConfig, GPUConfig
from repro.common.events import EventQueue
from repro.gl.context import GLContext
from repro.gl.state import CullMode
from repro.gpu.compute import GlobalMemory, run_kernel
from repro.gpu.gpu import EmeraldGPU
from repro.gpu.kernels import saxpy, strided_copy
from repro.memory.builders import build_memory_by_name

N = 4096
ALPHA = 2.5


def main() -> None:
    events = EventQueue()
    memory_system, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), 96, 96,
                     memory=memory_system)

    # SAXPY: out = alpha * x + y.
    mem = GlobalMemory(3 * N)
    x = mem.base_address
    y = mem.base_address + N * 4
    out = mem.base_address + 2 * N * 4
    mem.data[:N] = np.arange(N) * 0.001
    mem.data[N:2 * N] = 1.0
    program = saxpy(x, y, out)
    print(f"kernel {program.name!r}: {len(program.instructions)} "
          f"instructions")
    stats = run_kernel(gpu, program, N, mem, constants=np.array([ALPHA]))
    expected = ALPHA * mem.data[:N] + 1.0
    assert np.allclose(mem.data[2 * N:], expected)
    print(f"SAXPY over {N} elements: {stats.num_warps} warps, "
          f"{stats.cycles} cycles, {stats.mem_transactions} memory "
          f"transactions ({stats.dynamic_instructions} warp instructions)")

    # Coalescing contrast: unit-stride vs 32-word-stride copies.
    for stride in (1, 32):
        scratch = GlobalMemory(N * 40)
        program = strided_copy(scratch.base_address,
                               scratch.base_address + N * 36, stride)
        kstats = run_kernel(gpu, program, 1024, scratch)
        print(f"strided copy (stride {stride:2d}): {kstats.cycles:6d} "
              f"cycles, {kstats.mem_transactions:5d} transactions")

    # And graphics on the very same GPU instance.
    ctx = GLContext(96, 96)
    ctx.use_program(
        "in vec3 position;\nvoid main() { gl_Position = vec4(position, 1.0); }",
        "uniform vec4 flat_color;\nvoid main() { gl_FragColor = flat_color; }")
    ctx.set_state(cull=CullMode.NONE)
    ctx.set_uniform("flat_color", [0.2, 0.9, 0.4, 1.0])
    from repro.geometry.models import cube
    ctx.draw_mesh(cube())
    frame_stats = gpu.run_frame(ctx.end_frame())
    fragment_warps = sum(core.stats.counter("warps.fragment").value
                         for core in gpu.cores)
    compute_warps = sum(core.stats.counter("warps.compute").value
                        for core in gpu.cores)
    print(f"same GPU then rendered a frame: {frame_stats.cycles} cycles "
          f"({fragment_warps} fragment warps alongside the earlier "
          f"{compute_warps} compute warps)")


if __name__ == "__main__":
    main()

"""Tests for the GPGPU compute path (unified shader model)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.gpu.compute import ComputeEnv, GlobalMemory, launch_kernel, run_kernel
from repro.gpu.gpu import EmeraldGPU
from repro.gpu.kernels import clamped_threshold, saxpy, strided_copy, vector_add
from repro.memory.builders import build_memory_by_name
from repro.shader.isa import MemSpace


def make_gpu(num_clusters=2):
    events = EventQueue()
    memory_system, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=num_clusters)),
                     32, 32, memory=memory_system)
    return gpu


class TestGlobalMemory:
    def test_read_write_roundtrip(self):
        mem = GlobalMemory(64)
        mem.write(np.array([mem.address_of(3)]), np.array([7.5]))
        assert mem.read(np.array([mem.address_of(3)]))[0] == 7.5

    def test_bounds_checked(self):
        mem = GlobalMemory(4)
        with pytest.raises(IndexError):
            mem.read(np.array([mem.base_address + 100]))
        with pytest.raises(IndexError):
            mem.address_of(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalMemory(0)


class TestKernels:
    def test_vector_add(self):
        gpu = make_gpu()
        mem = GlobalMemory(3 * 64)
        a, b, out = (mem.base_address, mem.base_address + 64 * 4,
                     mem.base_address + 128 * 4)
        mem.data[:64] = np.arange(64)
        mem.data[64:128] = 100.0
        stats = run_kernel(gpu, vector_add(a, b, out), 64, mem)
        assert np.allclose(mem.data[128:192], np.arange(64) + 100.0)
        assert stats.num_warps == 2
        assert stats.cycles > 0

    def test_saxpy_with_constant(self):
        gpu = make_gpu()
        mem = GlobalMemory(3 * 32)
        x, y, out = (mem.base_address, mem.base_address + 32 * 4,
                     mem.base_address + 64 * 4)
        mem.data[:32] = np.arange(32)
        mem.data[32:64] = 1.0
        run_kernel(gpu, saxpy(x, y, out), 32, mem,
                   constants=np.array([2.0]))
        assert np.allclose(mem.data[64:96], 2.0 * np.arange(32) + 1.0)

    def test_partial_last_warp(self):
        gpu = make_gpu()
        mem = GlobalMemory(2 * 40)
        src, dst = mem.base_address, mem.base_address + 40 * 4
        mem.data[:40] = np.arange(40)
        stats = run_kernel(gpu, strided_copy(src, dst, 1), 37, mem)
        assert stats.num_warps == 2
        assert np.allclose(mem.data[40:77], np.arange(37))
        assert np.all(mem.data[77:80] == 0)       # untouched tail

    def test_divergent_kernel(self):
        gpu = make_gpu()
        mem = GlobalMemory(2 * 32)
        src, dst = mem.base_address, mem.base_address + 32 * 4
        values = np.linspace(0, 1, 32)
        mem.data[:32] = values
        run_kernel(gpu, clamped_threshold(src, dst), 32, mem)
        assert np.allclose(mem.data[32:64], (values > 0.5).astype(float))

    def test_strided_access_costs_more_transactions(self):
        def transactions(stride):
            gpu = make_gpu()
            mem = GlobalMemory(4096)
            src, dst = mem.base_address, mem.base_address + 2048 * 4
            stats = run_kernel(gpu, strided_copy(src, dst, stride), 32, mem)
            return stats.mem_transactions

        assert transactions(32) > transactions(1) * 4

    def test_compute_shares_cores_with_graphics(self):
        """A kernel launched on a GPU that just rendered reuses its cores."""
        from tests.pipeline.helpers import FLAT_COLOR_FS, FLAT_VS, \
            fullscreen_quad
        from repro.gl.context import GLContext
        from repro.gl.state import CullMode
        gpu = make_gpu()
        ctx = GLContext(32, 32)
        ctx.use_program(FLAT_VS, FLAT_COLOR_FS)
        ctx.set_state(cull=CullMode.NONE)
        ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
        ctx.draw_mesh(fullscreen_quad())
        gpu.run_frame(ctx.end_frame())
        mem = GlobalMemory(128)
        src, dst = mem.base_address, mem.base_address + 64 * 4
        mem.data[:64] = 3.0
        stats = run_kernel(gpu, strided_copy(src, dst, 1), 64, mem)
        assert np.allclose(mem.data[64:128], 3.0)
        kinds = gpu.cores[0].stats.counter("warps.compute").value
        assert kinds > 0
        assert gpu.cores[0].stats.counter("warps.fragment").value > 0


# One 64-thread copy on a GPU that just rendered a 32x32 frame; prints its
# KernelStats, end tick and events fired.
_KERNEL_AFTER_A_FRAME = """
import json
from dataclasses import asdict
import numpy as np
from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.geometry.mesh import Mesh
from repro.gl.context import GLContext
from repro.gl.state import CullMode
from repro.gpu.compute import GlobalMemory, run_kernel
from repro.gpu.gpu import EmeraldGPU
from repro.gpu.kernels import strided_copy
from repro.memory.builders import build_memory_by_name
from repro.shader import builtins

events = EventQueue()
memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=2)), 32, 32,
                 memory=memory)
ctx = GLContext(32, 32)
ctx.use_program(builtins.BASIC_VERTEX, builtins.FLAT_FRAGMENT)
ctx.set_state(cull=CullMode.NONE)
ctx.set_uniform("mvp", np.eye(4))
ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
ctx.draw_mesh(Mesh(positions=[[-1, -1, 0.5], [1, -1, 0.5], [-1, 1, 0.5],
                              [1, 1, 0.5]], indices=[0, 1, 2, 1, 3, 2]))
gpu.run_frame(ctx.end_frame())
mem = GlobalMemory(128)
stats = run_kernel(gpu, strided_copy(mem.base_address,
                                     mem.base_address + 64 * 4, 1), 64, mem)
print(json.dumps([asdict(stats), events.now, events.events_fired]))
"""


class TestDeterminismAcrossProcesses:
    def test_kernel_timing_does_not_follow_the_hash_seed(self):
        """Instruction-fetch addresses come from the program name; a
        salted ``hash`` made this kernel take 245 or 275 cycles depending
        on ``PYTHONHASHSEED`` (seeds 1 and 3 differ)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        runs = []
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=src + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))
            done = subprocess.run([sys.executable, "-c",
                                   _KERNEL_AFTER_A_FRAME], env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        assert runs[0] == runs[1]
        stats, end_tick, fired = runs[0]
        assert stats["end_tick"] == end_tick and fired > 0


class TestComputeEnv:
    def test_thread_ids_via_attribute(self):
        env = ComputeEnv(saxpy(0, 0, 0), GlobalMemory(8),
                         np.arange(5), warp_size=8)
        values, accesses = env.attribute(0, np.ones(8, dtype=bool))
        assert values[:5].tolist() == [0, 1, 2, 3, 4]
        assert env.active.tolist() == [True] * 5 + [False] * 3

    def test_global_accesses_record_the_words_touched(self):
        mem = GlobalMemory(8)
        mem.data[:4] = [1.0, 2.0, 3.0, 4.0]
        env = ComputeEnv(saxpy(0, 0, 0), mem, np.arange(4), warp_size=8)
        mask = np.ones(8, dtype=bool)
        # Float register addresses, truncated the way GlobalMemory does.
        addresses = mem.base_address + np.arange(8) * 4.0 + 0.5
        words = [mem.base_address + 4 * i for i in range(4)]
        values, (space, lanes, size, write) = env.ld_global(addresses, mask)
        assert values[:4].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert (space, size, write) == (MemSpace.GLOBAL, 4, False)
        assert lanes.dtype == np.int64 and lanes.tolist() == words
        space, lanes, size, write = env.st_global(addresses, np.full(8, 9.0),
                                                  mask)
        assert (space, size, write) == (MemSpace.GLOBAL, 4, True)
        assert lanes.tolist() == words
        assert mem.data[:4].tolist() == [9.0] * 4

    def test_global_access_outside_memory_raises(self):
        mem = GlobalMemory(4)
        env = ComputeEnv(saxpy(0, 0, 0), mem, np.arange(4), warp_size=8)
        mask = np.ones(8, dtype=bool)
        outside = np.full(8, float(mem.base_address + 4 * 4))
        with pytest.raises(IndexError):
            env.ld_global(outside, mask)
        with pytest.raises(IndexError):
            env.st_global(outside, np.zeros(8), mask)

    def test_graphics_resources_rejected(self):
        env = ComputeEnv(saxpy(0, 0, 0), GlobalMemory(8), np.arange(4),
                         warp_size=8)
        mask = np.ones(8, dtype=bool)
        for method, args in (("varying", (0, mask)),
                             ("tex", (0, None, None, mask)),
                             ("zread", (mask,)),
                             ("fb_read", (mask,))):
            with pytest.raises(RuntimeError):
                getattr(env, method)(*args)

    def test_launch_validation(self):
        gpu = make_gpu()
        with pytest.raises(ValueError):
            launch_kernel(gpu, saxpy(0, 0, 0), 0, GlobalMemory(8))

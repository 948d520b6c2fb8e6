"""GPGPU compute support: the other half of Emerald's unified model.

Emerald's headline is that graphics shaders execute on *the same* SIMT
core model GPGPU-Sim uses for compute.  This module closes the loop from
the compute side: kernels written against the shader ISA (``ld.global`` /
``st.global`` plus ALU ops) launch as grids of warps onto the same
:class:`~repro.gpu.simt_core.SIMTCore` instances, through the same caches,
interconnect and DRAM as fragment shading.

Kernels address a :class:`GlobalMemory` of 32-bit words.  The per-thread
global index arrives through attribute slot 0 (the compute analog of a
vertex id).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.gpu import EmeraldGPU
from repro.gpu.simt_core import WarpTask
from repro.shader.interpreter import WarpInterpreter
from repro.shader.isa import MemSpace
from repro.shader.program import Program

WORD_BYTES = 4


class GlobalMemory:
    """A flat array of 32-bit words at a fixed base address."""

    def __init__(self, num_words: int, base_address: int = 0x6000_0000) -> None:
        if num_words <= 0:
            raise ValueError("num_words must be positive")
        self.base_address = base_address
        self.data = np.zeros(num_words)

    @property
    def num_words(self) -> int:
        return len(self.data)

    @property
    def size_bytes(self) -> int:
        return self.num_words * WORD_BYTES

    def address_of(self, word_index: int) -> int:
        if not (0 <= word_index < self.num_words):
            raise IndexError(f"word {word_index} out of range")
        return self.base_address + word_index * WORD_BYTES

    def _index_of(self, address) -> np.ndarray:
        index = (np.asarray(address, dtype=np.int64)
                 - self.base_address) // WORD_BYTES
        if np.any(index < 0) or np.any(index >= self.num_words):
            raise IndexError("address outside global memory")
        return index

    def read(self, addresses) -> np.ndarray:
        return self.data[self._index_of(addresses)]

    def write(self, addresses, values) -> None:
        self.data[self._index_of(addresses)] = values


class ComputeEnv:
    """ExecEnv for one compute warp."""

    def __init__(self, program: Program, memory: GlobalMemory,
                 thread_ids: np.ndarray, warp_size: int = 32,
                 constants: Optional[np.ndarray] = None,
                 constant_base: int = 0x7000_0000) -> None:
        self.program = program
        self.memory = memory
        self.warp_size = warp_size
        ids = np.full(warp_size, -1, dtype=np.int64)
        ids[:len(thread_ids)] = thread_ids
        self.thread_ids = ids
        self.active = ids >= 0
        self.constants = (np.zeros(1) if constants is None
                          else np.asarray(constants, dtype=np.float64))
        self.constant_base = constant_base
        self.outputs: dict[int, np.ndarray] = {}

    def attribute(self, slot: int, mask: np.ndarray):
        if slot != 0:
            raise RuntimeError("compute kernels only have the thread-id "
                               "attribute (slot 0)")
        return self.thread_ids.astype(np.float64), None

    def varying(self, slot, mask):
        raise RuntimeError("compute kernels have no varyings")

    def constant(self, slot: int, mask: np.ndarray):
        return float(self.constants[slot]), (
            MemSpace.CONST, (self.constant_base + slot * 4,), 4, False)

    def tex(self, unit, u, v, mask):
        raise RuntimeError("compute kernels have no texture units bound")

    def zread(self, mask):
        raise RuntimeError("compute kernels have no depth buffer")

    def zwrite(self, values, mask):
        raise RuntimeError("compute kernels have no depth buffer")

    def sread(self, mask):
        raise RuntimeError("compute kernels have no stencil buffer")

    def swrite(self, values, mask):
        raise RuntimeError("compute kernels have no stencil buffer")

    def fb_read(self, mask):
        raise RuntimeError("compute kernels have no framebuffer")

    def fb_write(self, rgba, mask):
        raise RuntimeError("compute kernels have no framebuffer")

    def ld_global(self, addresses, mask):
        lanes = mask & self.active
        # Register addresses are floats; GlobalMemory converts them the
        # same way, so the record names the words actually read.
        lane_addresses = np.asarray(addresses[lanes], dtype=np.int64)
        values = np.zeros(self.warp_size)
        if len(lane_addresses):
            values[lanes] = self.memory.read(lane_addresses)
        return values, (MemSpace.GLOBAL, lane_addresses, 4, False)

    def st_global(self, addresses, values, mask):
        lanes = mask & self.active
        lane_addresses = np.asarray(addresses[lanes], dtype=np.int64)
        if len(lane_addresses):
            self.memory.write(lane_addresses, values[lanes])
        return MemSpace.GLOBAL, lane_addresses, 4, True

    def store_output(self, slot: int, values: np.ndarray,
                     mask: np.ndarray) -> None:
        if slot not in self.outputs:
            self.outputs[slot] = np.zeros(self.warp_size)
        self.outputs[slot][mask & self.active] = values[mask & self.active]


@dataclass
class KernelStats:
    """Timing results of one kernel launch."""

    num_threads: int
    num_warps: int
    start_tick: int = 0
    end_tick: int = 0
    dynamic_instructions: int = 0
    mem_transactions: int = 0

    @property
    def cycles(self) -> int:
        return self.end_tick - self.start_tick


def launch_kernel(gpu: EmeraldGPU, program: Program, num_threads: int,
                  memory: GlobalMemory,
                  constants: Optional[np.ndarray] = None,
                  on_complete=None) -> KernelStats:
    """Launch a compute grid on the GPU's SIMT cores (asynchronous).

    Warps are executed functionally at launch (recording traces) and
    distributed round-robin across the cores for timing, exactly like
    vertex/fragment work.  ``on_complete(stats)`` fires when the last warp
    retires; use :func:`run_kernel` to drive the event queue synchronously.
    """
    if num_threads <= 0:
        raise ValueError("num_threads must be positive")
    warp_size = gpu.config.core.warp_size
    stats = KernelStats(num_threads=num_threads,
                        num_warps=(num_threads + warp_size - 1) // warp_size,
                        start_tick=gpu.events.now)
    remaining = {"count": stats.num_warps}
    before_transactions = sum(
        core.stats.counter("mem_transactions").value for core in gpu.cores)

    def warp_done(task: WarpTask) -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            stats.end_tick = gpu.events.now
            stats.mem_transactions = sum(
                core.stats.counter("mem_transactions").value
                for core in gpu.cores) - before_transactions
            if on_complete is not None:
                on_complete(stats)

    # A stable program id (I-cache addressing must be run-deterministic):
    # ``hash(str)`` is salted per process.
    program_id = zlib.crc32(program.name.encode()) % 1024
    for warp_index in range(stats.num_warps):
        ids = np.arange(warp_index * warp_size,
                        min((warp_index + 1) * warp_size, num_threads))
        env = ComputeEnv(program, memory, ids, warp_size,
                         constants=constants)
        result = WarpInterpreter(program, env).run(initial_mask=env.active)
        stats.dynamic_instructions += result.trace.dynamic_instructions
        task = WarpTask(result.trace, kind="compute",
                        program_id=program_id,
                        on_complete=warp_done)
        gpu.cores[warp_index % len(gpu.cores)].submit(task)
    return stats


def run_kernel(gpu: EmeraldGPU, program: Program, num_threads: int,
               memory: GlobalMemory,
               constants: Optional[np.ndarray] = None) -> KernelStats:
    """Synchronous wrapper: launch and drive the event queue to completion."""
    done: list[KernelStats] = []
    stats = launch_kernel(gpu, program, num_threads, memory,
                          constants=constants, on_complete=done.append)
    result = gpu.events.run()
    if not done:
        # run() without a budget only returns on a drained queue, so this
        # is always a lost completion, not a hang.
        assert result.drained
        raise RuntimeError(
            "kernel did not complete: event queue drained — a warp "
            "completion callback was lost")
    return done[0]

"""Warp-level functional executor with a SIMT reconvergence stack.

Executes a :class:`~repro.shader.program.Program` for one warp (all lanes in
lock-step), handling divergence exactly the way GPGPU-Sim does: a stack of
(pc, reconvergence-pc, active-mask) entries; divergent branches push both
paths and pop at the IPDOM reconvergence point.

Besides functional results (shader outputs per lane) the interpreter
records a :class:`WarpTrace` — the dynamic instruction stream with memory
accesses — which the SIMT-core timing model replays cycle-accurately.  This
is the "execute functionally, time the recorded stream" split described in
DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Protocol

import numpy as np

from repro.shader.compiler import dispatch_for
from repro.shader.isa import LatencyClass, MemSpace, Opcode
from repro.shader.program import Program


class MemAccess(NamedTuple):
    """One lane-level memory access (pre-coalescing).

    A NamedTuple rather than a dataclass: millions are constructed per
    simulated frame and tuple construction is markedly cheaper.
    """

    space: MemSpace
    address: int
    size: int
    write: bool = False


@dataclass(slots=True)
class TraceOp:
    """One dynamic warp instruction in the recorded stream.

    Slotted: one per dynamic warp instruction, hundreds of thousands per
    frame, and the timing model touches ``op``/``accesses`` per issue."""

    op: Opcode
    pc: int
    active_lanes: int
    accesses: list[MemAccess] = field(default_factory=list)

    @property
    def latency_class(self) -> LatencyClass:
        return self.op.latency_class


@dataclass(slots=True)
class WarpTrace:
    """Recorded dynamic instruction stream for one warp execution."""

    ops: list[TraceOp] = field(default_factory=list)

    @property
    def dynamic_instructions(self) -> int:
        return len(self.ops)

    def count_class(self, latency_class: LatencyClass) -> int:
        return sum(1 for op in self.ops if op.latency_class is latency_class)

    def memory_accesses(self) -> list[MemAccess]:
        return [a for op in self.ops for a in op.accesses]


class ExecEnv(Protocol):
    """Execution environment: where shader I/O values and addresses come from.

    Implementations: vertex/fragment environments in
    :mod:`repro.pipeline.shading_env`, plus test doubles.
    All array shapes use W = warp size.  ``mask`` is a (W,) bool array of
    the lanes that must be serviced.
    """

    warp_size: int

    def attribute(self, slot: int, mask: np.ndarray) -> tuple[np.ndarray, list[MemAccess]]:
        """Vertex attribute scalar slot -> ((W,) values, accesses)."""
        ...

    def varying(self, slot: int, mask: np.ndarray) -> np.ndarray:
        """Interpolated varying scalar slot -> (W,) values (no memory)."""
        ...

    def constant(self, slot: int, mask: np.ndarray) -> tuple[float, list[MemAccess]]:
        """Uniform scalar slot -> (value, accesses)."""
        ...

    def tex(self, unit: int, u: np.ndarray, v: np.ndarray,
            mask: np.ndarray) -> tuple[np.ndarray, list[MemAccess]]:
        """Texture sample -> ((W, 4) rgba, accesses)."""
        ...

    def zread(self, mask: np.ndarray) -> tuple[np.ndarray, list[MemAccess]]:
        ...

    def zwrite(self, values: np.ndarray, mask: np.ndarray) -> list[MemAccess]:
        ...

    def sread(self, mask: np.ndarray) -> tuple[np.ndarray, list[MemAccess]]:
        ...

    def swrite(self, values: np.ndarray, mask: np.ndarray) -> list[MemAccess]:
        ...

    def fb_read(self, mask: np.ndarray) -> tuple[np.ndarray, list[MemAccess]]:
        ...

    def fb_write(self, rgba: np.ndarray, mask: np.ndarray) -> list[MemAccess]:
        ...

    def ld_global(self, addresses: np.ndarray,
                  mask: np.ndarray) -> tuple[np.ndarray, list[MemAccess]]:
        ...

    def st_global(self, addresses: np.ndarray, values: np.ndarray,
                  mask: np.ndarray) -> list[MemAccess]:
        ...

    def store_output(self, slot: int, values: np.ndarray, mask: np.ndarray) -> None:
        ...


@dataclass
class ExecResult:
    """Outcome of executing one warp."""

    trace: WarpTrace
    discarded: np.ndarray        # (W,) lanes killed by DISCARD
    completed: np.ndarray        # (W,) lanes that reached EXIT


class WarpInterpreter:
    """Executes programs warp-wide; see module docstring."""

    def __init__(self, program: Program, env: ExecEnv,
                 max_dynamic_instructions: int = 100_000) -> None:
        self.program = program
        self.env = env
        self.warp_size = env.warp_size
        self.max_dynamic_instructions = max_dynamic_instructions

    def run(self, initial_mask: Optional[np.ndarray] = None) -> ExecResult:
        """Execute one warp through the program's compiled dispatch table
        (:mod:`repro.shader.dispatch`, cached per program digest and warp
        width by :func:`repro.shader.compiler.dispatch_for`)."""
        return dispatch_for(self.program, self.warp_size).run(
            self.env, initial_mask, self.max_dynamic_instructions)

"""Warp-level functional executor with a SIMT reconvergence stack.

Executes a :class:`~repro.shader.program.Program` for one warp (all lanes in
lock-step), handling divergence exactly the way GPGPU-Sim does: a stack of
(pc, reconvergence-pc, active-mask) entries; divergent branches push both
paths and pop at the IPDOM reconvergence point.

Besides functional results (shader outputs per lane) the interpreter
records a :class:`WarpTrace` — the dynamic instruction stream with one
memory record per memory instruction — which the SIMT-core timing model
replays cycle-accurately.  This is the "execute functionally, time the
recorded stream" split described in DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from repro.shader.compiler import dispatch_for
from repro.shader.isa import LatencyClass, MemSpace, Opcode
from repro.shader.program import Program

#: One warp memory instruction's footprint: ``(space, addresses, size,
#: write)``.  ``addresses`` holds the active lanes' byte addresses in lane
#: order: an int64 array, or a tuple for a uniform (one-address) read.
#: Every lane accesses ``size`` bytes.  The SIMT core coalesces it in one
#: pass (:func:`repro.gpu.coalescer.coalesce`).
MemRecord = tuple[MemSpace, np.ndarray | tuple[int, ...], int, bool]


@dataclass(slots=True)
class TraceOp:
    """One dynamic warp instruction in the recorded stream.

    Slotted: one per dynamic warp instruction, hundreds of thousands per
    frame, and the timing model touches ``op``/``accesses`` per issue.
    ``accesses`` is the instruction's :data:`MemRecord`, ``None`` when it
    touched no memory."""

    op: Opcode
    pc: int
    active_lanes: int
    accesses: Optional[MemRecord] = None

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


class ExecEnv(Protocol):
    """Execution environment: where shader I/O values and addresses come from.

    Implementations: the vertex environment in :mod:`repro.pipeline.vertex`,
    the fragment environment in :mod:`repro.pipeline.shading_env`, the
    compute environment in :mod:`repro.gpu.compute`, plus test doubles.
    All array shapes use W = warp size.  ``mask`` is a (W,) bool array of
    the lanes that must be serviced.  Every memory call returns the
    instruction's :data:`MemRecord` (``None`` if it touched no memory).
    """

    warp_size: int

    def attribute(self, slot: int,
                  mask: np.ndarray) -> tuple[np.ndarray, Optional[MemRecord]]:
        """Vertex attribute scalar slot -> ((W,) values, record)."""
        ...

    def varying(self, slot: int, mask: np.ndarray) -> np.ndarray:
        """Interpolated varying scalar slot -> (W,) values (no memory)."""
        ...

    def constant(self, slot: int, mask: np.ndarray) -> tuple[float, MemRecord]:
        """Uniform scalar slot -> (value, record)."""
        ...

    def tex(self, unit: int, u: np.ndarray, v: np.ndarray,
            mask: np.ndarray) -> tuple[np.ndarray, MemRecord]:
        """Texture sample -> ((W, 4) rgba, record of every texel read)."""
        ...

    def zread(self, mask: np.ndarray) -> tuple[np.ndarray, MemRecord]:
        ...

    def zwrite(self, values: np.ndarray, mask: np.ndarray) -> MemRecord:
        ...

    def sread(self, mask: np.ndarray) -> tuple[np.ndarray, MemRecord]:
        ...

    def swrite(self, values: np.ndarray, mask: np.ndarray) -> MemRecord:
        ...

    def fb_read(self, mask: np.ndarray) -> tuple[np.ndarray, MemRecord]:
        ...

    def fb_write(self, rgba: np.ndarray, mask: np.ndarray) -> MemRecord:
        ...

    def ld_global(self, addresses: np.ndarray,
                  mask: np.ndarray) -> tuple[np.ndarray, MemRecord]:
        ...

    def st_global(self, addresses: np.ndarray, values: np.ndarray,
                  mask: np.ndarray) -> MemRecord:
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
        """Execute one warp through the program's compiled basic blocks
        (:mod:`repro.shader.dispatch`, cached per program digest and warp
        width by :func:`repro.shader.compiler.dispatch_for`)."""
        return dispatch_for(self.program, self.warp_size).run(
            self.env, initial_mask, self.max_dynamic_instructions)

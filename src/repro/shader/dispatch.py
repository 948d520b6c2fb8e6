"""Compiled per-program basic blocks: the warp executor's run loop.

Interpreting a program naively decodes every instruction on every dynamic
execution: isinstance checks per operand, opcode dict probes, a fresh
``np.errstate`` context per op.  At hundreds of thousands of dynamic warp
instructions per frame that decode cost dominates the actual numpy lane
arithmetic.

This module performs the decode **once per program**: each instruction is
compiled to a pre-bound handler closure (operand register indices and
immediate lane arrays captured at build time), and the handlers are split
into basic blocks, which start at pc 0, at every branch target and
reconvergence pc, and after every BRA, EXIT and DISCARD.  The run loop
executes one whole block per SIMT-stack step under a single ``errstate``:
it checks the stack entry and counts the active mask once per block and
recounts only for guarded ops, since no lane joins or leaves the entry
inside a block.  Handlers write their lanes with one masked copy,
``np.copyto(dst, value, where=mask, casting="unsafe")``: the lanes, values
and casting of ``dst[mask] = value[mask]`` without its gather and scatter.
The compiled program is cached per ``(program digest, warp size)`` by
:func:`repro.shader.compiler.dispatch_for`;
:meth:`repro.shader.interpreter.WarpInterpreter.run` always executes
through it.

Bit-identity contract: for any program/env/mask, :meth:`CompiledProgram.run`
returns an :class:`~repro.shader.interpreter.ExecResult` whose trace
(op/pc/active_lanes/memory-record sequences), discarded and completed masks,
register effects and env side effects are exactly those of a
decode-every-instruction reference interpreter — same numpy operations on
the same values in the same order, only the Python interpretation overhead
removed.  ``tests/shader/test_dispatch.py`` keeps that reference loop as
its per-opcode oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.shader.interpreter import ExecResult, TraceOp, WarpTrace
from repro.shader.isa import Imm, Instruction, Opcode, Pred, Reg
from repro.shader.program import Program

# The opcodes that end a basic block; the run loop handles them itself.
_CONTROL = frozenset((Opcode.BRA, Opcode.EXIT, Opcode.DISCARD))

_ALU_BINARY = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: a / b,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.POW: lambda a, b: np.power(np.maximum(a, 0.0), b),
}

_ALU_UNARY = {
    Opcode.MOV: lambda a: a,
    Opcode.ABS: np.abs,
    Opcode.NEG: lambda a: -a,
    Opcode.FLOOR: np.floor,
    Opcode.FRAC: lambda a: a - np.floor(a),
    Opcode.RCP: lambda a: 1.0 / a,
    Opcode.RSQRT: lambda a: 1.0 / np.sqrt(a),
    Opcode.SQRT: np.sqrt,
    Opcode.SIN: np.sin,
    Opcode.COS: np.cos,
    Opcode.EXP2: np.exp2,
    Opcode.LOG2: np.log2,
}

_SETP = {
    Opcode.SETP_LT: lambda a, b: a < b,
    Opcode.SETP_LE: lambda a, b: a <= b,
    Opcode.SETP_GT: lambda a, b: a > b,
    Opcode.SETP_GE: lambda a, b: a >= b,
    Opcode.SETP_EQ: lambda a, b: a == b,
    Opcode.SETP_NE: lambda a, b: a != b,
}


@dataclass(slots=True)
class _StackEntry:
    """One SIMT reconvergence-stack frame: (pc, reconvergence pc, mask)."""

    pc: int
    rpc: int
    mask: np.ndarray


def _make_reader(operand, width: int):
    """Pre-bound operand fetch: ``read(regs, preds) -> (W,) array``.

    Immediates become one cached lane array per program (a naive
    interpreter builds an identical ``np.full`` per read; no op mutates
    its source arrays, so sharing is value-identical).
    """
    kind = type(operand)
    if kind is Reg:
        return lambda regs, preds, _i=operand.index: regs[_i]
    if kind is Imm:
        arr = np.full(width, operand.value)
        arr.setflags(write=False)
        return lambda regs, preds, _a=arr: _a
    if kind is Pred:
        return lambda regs, preds, _i=operand.index: preds[_i]
    raise TypeError(f"cannot read operand {operand!r}")


def _build_handler(instr: Instruction, width: int):
    """Compile one instruction to ``handler(regs, preds, mask, record, env)``.

    Each family mirrors the corresponding branch of the reference
    interpreter's ``_execute`` exactly (same array expressions, the same
    lanes written with the same values, the env's memory record stored as
    ``record.accesses``).
    """
    op = instr.op
    if op in _ALU_BINARY:
        fn = _ALU_BINARY[op]
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)
        rb = _make_reader(instr.srcs[1], width)

        def handler(regs, preds, mask, record, env):
            np.copyto(regs[d], fn(ra(regs, preds), rb(regs, preds)),
                      where=mask, casting="unsafe")
        return handler
    if op in _ALU_UNARY:
        fn = _ALU_UNARY[op]
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)

        def handler(regs, preds, mask, record, env):
            np.copyto(regs[d], fn(ra(regs, preds)), where=mask,
                      casting="unsafe")
        return handler
    if op is Opcode.MAD:
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)
        rb = _make_reader(instr.srcs[1], width)
        rc = _make_reader(instr.srcs[2], width)

        def handler(regs, preds, mask, record, env):
            np.copyto(regs[d],
                      ra(regs, preds) * rb(regs, preds) + rc(regs, preds),
                      where=mask, casting="unsafe")
        return handler
    if op in _SETP:
        fn = _SETP[op]
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)
        rb = _make_reader(instr.srcs[1], width)

        def handler(regs, preds, mask, record, env):
            np.copyto(preds[d], fn(ra(regs, preds), rb(regs, preds)),
                      where=mask, casting="unsafe")
        return handler
    if op is Opcode.SEL:
        d = instr.dsts[0].index
        p = instr.srcs[0].index
        ra = _make_reader(instr.srcs[1], width)
        rb = _make_reader(instr.srcs[2], width)

        def handler(regs, preds, mask, record, env):
            np.copyto(regs[d],
                      np.where(preds[p], ra(regs, preds), rb(regs, preds)),
                      where=mask, casting="unsafe")
        return handler
    if op is Opcode.PAND:
        d = instr.dsts[0].index
        a, b = instr.srcs[0].index, instr.srcs[1].index

        def handler(regs, preds, mask, record, env):
            np.copyto(preds[d], preds[a] & preds[b], where=mask,
                      casting="unsafe")
        return handler
    if op is Opcode.POR:
        d = instr.dsts[0].index
        a, b = instr.srcs[0].index, instr.srcs[1].index

        def handler(regs, preds, mask, record, env):
            np.copyto(preds[d], preds[a] | preds[b], where=mask,
                      casting="unsafe")
        return handler
    if op is Opcode.PNOT:
        d = instr.dsts[0].index
        a = instr.srcs[0].index

        def handler(regs, preds, mask, record, env):
            np.copyto(preds[d], ~preds[a], where=mask, casting="unsafe")
        return handler
    if op is Opcode.LD_ATTR:
        d = instr.dsts[0].index
        slot = instr.slot

        def handler(regs, preds, mask, record, env):
            values, record.accesses = env.attribute(slot, mask)
            np.copyto(regs[d], values, where=mask, casting="unsafe")
        return handler
    if op is Opcode.LD_VARY:
        d = instr.dsts[0].index
        slot = instr.slot

        def handler(regs, preds, mask, record, env):
            np.copyto(regs[d], env.varying(slot, mask), where=mask,
                      casting="unsafe")
        return handler
    if op is Opcode.LD_CONST:
        d = instr.dsts[0].index
        slot = instr.slot

        def handler(regs, preds, mask, record, env):
            value, record.accesses = env.constant(slot, mask)
            np.copyto(regs[d], value, where=mask, casting="unsafe")
        return handler
    if op is Opcode.ST_OUT:
        slot = instr.slot
        ra = _make_reader(instr.srcs[0], width)

        def handler(regs, preds, mask, record, env):
            env.store_output(slot, ra(regs, preds), mask)
        return handler
    if op is Opcode.TEX:
        slot = instr.slot
        dsts = tuple(d.index for d in instr.dsts)
        ru = _make_reader(instr.srcs[0], width)
        rv = _make_reader(instr.srcs[1], width)

        def handler(regs, preds, mask, record, env):
            rgba, record.accesses = env.tex(slot, ru(regs, preds),
                                            rv(regs, preds), mask)
            for i, d in enumerate(dsts):
                np.copyto(regs[d], rgba[:, i], where=mask, casting="unsafe")
        return handler
    if op is Opcode.ZREAD or op is Opcode.SREAD:
        d = instr.dsts[0].index
        call = "zread" if op is Opcode.ZREAD else "sread"

        def handler(regs, preds, mask, record, env):
            values, record.accesses = getattr(env, call)(mask)
            np.copyto(regs[d], values, where=mask, casting="unsafe")
        return handler
    if op is Opcode.ZWRITE or op is Opcode.SWRITE:
        ra = _make_reader(instr.srcs[0], width)
        call = "zwrite" if op is Opcode.ZWRITE else "swrite"

        def handler(regs, preds, mask, record, env):
            record.accesses = getattr(env, call)(ra(regs, preds), mask)
        return handler
    if op is Opcode.FB_READ:
        dsts = tuple(d.index for d in instr.dsts)

        def handler(regs, preds, mask, record, env):
            rgba, record.accesses = env.fb_read(mask)
            for i, d in enumerate(dsts):
                np.copyto(regs[d], rgba[:, i], where=mask, casting="unsafe")
        return handler
    if op is Opcode.FB_WRITE:
        readers = tuple(_make_reader(s, width) for s in instr.srcs)

        def handler(regs, preds, mask, record, env):
            rgba = np.stack([r(regs, preds) for r in readers], axis=1)
            record.accesses = env.fb_write(rgba, mask)
        return handler
    if op is Opcode.LD_GLOBAL:
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)

        def handler(regs, preds, mask, record, env):
            values, record.accesses = env.ld_global(ra(regs, preds), mask)
            np.copyto(regs[d], values, where=mask, casting="unsafe")
        return handler
    if op is Opcode.ST_GLOBAL:
        ra = _make_reader(instr.srcs[0], width)
        rb = _make_reader(instr.srcs[1], width)

        def handler(regs, preds, mask, record, env):
            record.accesses = env.st_global(ra(regs, preds), rb(regs, preds),
                                            mask)
        return handler
    raise NotImplementedError(f"unhandled opcode {op}")   # pragma: no cover


class CompiledProgram:
    """A program decoded once into basic blocks of handlers; see module
    docstring.

    ``blocks[pc]`` is ``None`` unless a block starts at ``pc``.  A block
    starts at pc 0, at every branch target and reconvergence pc, and after
    every BRA, EXIT and DISCARD, so no lane joins or leaves a stack entry
    inside one.  Each block is ``(body, end, control)``: ``body`` holds one
    ``(guard_index, guard_sense, handler, opcode, pc)`` row per executing
    instruction (``guard_index`` is -1 when unguarded), ``end`` is the pc
    after the block, and ``control`` is its closing ``(opcode, guard_index,
    guard_sense, pc, target, reconv)`` row, ``None`` when the block falls
    through into the next one.
    """

    __slots__ = ("program", "width", "exit_pc", "blocks",
                 "_num_regs", "_num_preds")

    def __init__(self, program: Program, width: int) -> None:
        self.program = program
        self.width = width
        instructions = program.instructions
        self.exit_pc = exit_pc = len(instructions)
        self._num_regs = max(program.num_regs, 1)
        self._num_preds = max(program.num_preds, 1)
        starts = {0}
        for pc, instr in enumerate(instructions):
            if instr.op in _CONTROL:
                starts.add(pc + 1)
            if instr.op is Opcode.BRA:
                starts.update((instr.target, instr.reconv))
        starts = sorted(pc for pc in starts
                        if pc is not None and pc < exit_pc)
        blocks = [None] * exit_pc
        for start, end in zip(starts, starts[1:] + [exit_pc]):
            body, control = [], None
            for pc in range(start, end):
                instr = instructions[pc]
                gidx = instr.guard.index if instr.guard is not None else -1
                if instr.op in _CONTROL:        # always the block's last
                    control = (instr.op, gidx, instr.guard_sense, pc,
                               instr.target, instr.reconv)
                else:
                    body.append((gidx, instr.guard_sense,
                                 _build_handler(instr, width), instr.op, pc))
            blocks[start] = (tuple(body), end, control)
        self.blocks = tuple(blocks)

    def run(self, env, initial_mask: Optional[np.ndarray] = None,
            max_dynamic_instructions: int = 100_000) -> ExecResult:
        """Execute one warp, a basic block per stack step.

        The trace, masks and env calls are the reference loop's, op for op.
        Only the dynamic-instruction limit is checked between blocks, so a
        run that crosses it raises at the end of that block.
        """
        width = self.width
        exit_pc = self.exit_pc
        blocks = self.blocks

        regs = np.zeros((self._num_regs, width))
        preds = np.zeros((self._num_preds, width), dtype=bool)
        if initial_mask is None:
            initial_mask = np.ones(width, dtype=bool)
        else:
            initial_mask = np.asarray(initial_mask, dtype=bool).copy()

        discarded = np.zeros(width, dtype=bool)
        completed = np.zeros(width, dtype=bool)
        stack = [_StackEntry(0, exit_pc, initial_mask.copy())]
        trace = WarpTrace()
        ops = trace.ops
        append = ops.append
        count_nonzero = np.count_nonzero

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while stack:
                if len(ops) > max_dynamic_instructions:
                    raise RuntimeError(
                        f"{self.program.name}: exceeded "
                        f"{max_dynamic_instructions} dynamic instructions "
                        "(diverging loop?)"
                    )
                entry = stack[-1]
                pc = entry.pc
                active = entry.mask
                # count_nonzero beats ndarray.any() on warp-width bool
                # arrays (no ufunc-reduce machinery) — same truth value.
                if pc == entry.rpc or pc >= exit_pc \
                        or not (count := count_nonzero(active)):
                    stack.pop()
                    continue
                body, end, control = blocks[pc]
                for gidx, gsense, handler, opcode, op_pc in body:
                    if gidx < 0:
                        record = TraceOp(opcode, op_pc, count)
                        append(record)
                        handler(regs, preds, active, record, env)
                        continue
                    guard_values = preds[gidx]
                    effective = (active & guard_values if gsense
                                 else active & ~guard_values)
                    lanes = count_nonzero(effective)
                    record = TraceOp(opcode, op_pc, lanes)
                    append(record)
                    if lanes:
                        handler(regs, preds, effective, record, env)
                entry.pc = end
                if control is None:
                    continue

                opcode, gidx, gsense, pc, target, reconv = control
                if opcode is Opcode.BRA:
                    append(TraceOp(opcode, pc, count))
                    if gidx < 0:
                        entry.pc = target
                        continue
                    cond = preds[gidx]
                    if not gsense:
                        cond = ~cond
                    taken = active & cond
                    fall = active & ~cond
                    if not count_nonzero(taken):
                        continue
                    if not count_nonzero(fall):
                        entry.pc = target
                        continue
                    if reconv is None:
                        raise RuntimeError(
                            "divergent branch without reconvergence: "
                            f"pc={pc}")
                    entry.pc = reconv   # current entry becomes the join
                    stack.append(_StackEntry(end, reconv, fall))
                    stack.append(_StackEntry(target, reconv, taken))
                    continue
                if gidx < 0:
                    effective, lanes = active, count
                else:
                    guard_values = preds[gidx]
                    effective = (active & guard_values if gsense
                                 else active & ~guard_values)
                    lanes = count_nonzero(effective)
                append(TraceOp(opcode, pc, lanes))
                if opcode is Opcode.EXIT:
                    completed |= active
                    dead = ~active          # materialized before mutation
                else:                       # DISCARD
                    discarded |= effective
                    dead = ~effective
                for frame in stack:
                    frame.mask &= dead

        return ExecResult(trace=trace, discarded=discarded,
                          completed=completed)

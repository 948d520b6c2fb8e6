"""Compiled per-program dispatch tables: the warp executor's run loop.

Interpreting a program naively decodes every instruction on every dynamic
execution: isinstance checks per operand, opcode dict probes, a fresh
``np.errstate`` context per op.  At hundreds of thousands of dynamic warp
instructions per frame that decode cost dominates the actual numpy lane
arithmetic.

This module performs the decode **once per program**: each instruction is
compiled to a pre-bound handler closure (operand register indices and
immediate lane arrays captured at build time), and the run loop walks the
handler table with a single ``errstate`` around the whole execution.  The
table is cached per ``(program digest, warp size)`` by
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

# Table-row kinds; control flow is handled by the run loop itself.
_EXEC, _BRA, _EXIT, _DISCARD = 0, 1, 2, 3

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
    interpreter's ``_execute`` exactly (same array expressions, same masked
    writes, the env's memory record stored as ``record.accesses``).
    """
    op = instr.op
    if op in _ALU_BINARY:
        fn = _ALU_BINARY[op]
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)
        rb = _make_reader(instr.srcs[1], width)

        def handler(regs, preds, mask, record, env):
            regs[d][mask] = fn(ra(regs, preds), rb(regs, preds))[mask]
        return handler
    if op in _ALU_UNARY:
        fn = _ALU_UNARY[op]
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)

        def handler(regs, preds, mask, record, env):
            regs[d][mask] = np.asarray(fn(ra(regs, preds)))[mask]
        return handler
    if op is Opcode.MAD:
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)
        rb = _make_reader(instr.srcs[1], width)
        rc = _make_reader(instr.srcs[2], width)

        def handler(regs, preds, mask, record, env):
            regs[d][mask] = (ra(regs, preds) * rb(regs, preds)
                             + rc(regs, preds))[mask]
        return handler
    if op in _SETP:
        fn = _SETP[op]
        d = instr.dsts[0].index
        ra = _make_reader(instr.srcs[0], width)
        rb = _make_reader(instr.srcs[1], width)

        def handler(regs, preds, mask, record, env):
            preds[d][mask] = fn(ra(regs, preds), rb(regs, preds))[mask]
        return handler
    if op is Opcode.SEL:
        d = instr.dsts[0].index
        p = instr.srcs[0].index
        ra = _make_reader(instr.srcs[1], width)
        rb = _make_reader(instr.srcs[2], width)

        def handler(regs, preds, mask, record, env):
            regs[d][mask] = np.where(preds[p], ra(regs, preds),
                                     rb(regs, preds))[mask]
        return handler
    if op is Opcode.PAND:
        d = instr.dsts[0].index
        a, b = instr.srcs[0].index, instr.srcs[1].index

        def handler(regs, preds, mask, record, env):
            preds[d][mask] = (preds[a] & preds[b])[mask]
        return handler
    if op is Opcode.POR:
        d = instr.dsts[0].index
        a, b = instr.srcs[0].index, instr.srcs[1].index

        def handler(regs, preds, mask, record, env):
            preds[d][mask] = (preds[a] | preds[b])[mask]
        return handler
    if op is Opcode.PNOT:
        d = instr.dsts[0].index
        a = instr.srcs[0].index

        def handler(regs, preds, mask, record, env):
            preds[d][mask] = ~preds[a][mask]
        return handler
    if op is Opcode.LD_ATTR:
        d = instr.dsts[0].index
        slot = instr.slot

        def handler(regs, preds, mask, record, env):
            values, record.accesses = env.attribute(slot, mask)
            regs[d][mask] = np.asarray(values)[mask]
        return handler
    if op is Opcode.LD_VARY:
        d = instr.dsts[0].index
        slot = instr.slot

        def handler(regs, preds, mask, record, env):
            regs[d][mask] = np.asarray(env.varying(slot, mask))[mask]
        return handler
    if op is Opcode.LD_CONST:
        d = instr.dsts[0].index
        slot = instr.slot

        def handler(regs, preds, mask, record, env):
            value, record.accesses = env.constant(slot, mask)
            regs[d][mask] = np.full(width, value)[mask]
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
                regs[d][mask] = rgba[:, i][mask]
        return handler
    if op is Opcode.ZREAD or op is Opcode.SREAD:
        d = instr.dsts[0].index
        call = "zread" if op is Opcode.ZREAD else "sread"

        def handler(regs, preds, mask, record, env):
            values, record.accesses = getattr(env, call)(mask)
            regs[d][mask] = np.asarray(values)[mask]
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
                regs[d][mask] = rgba[:, i][mask]
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
            regs[d][mask] = np.asarray(values)[mask]
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
    """A program decoded once into a handler table; see module docstring.

    Table rows are plain tuples walked at C speed:
    ``(kind, guard_index, guard_sense, handler, opcode, target, reconv)``
    — ``guard_index`` is -1 when unguarded; for ``_BRA`` rows the guard
    fields describe the branch condition and ``handler`` is ``None``.
    """

    __slots__ = ("program", "width", "exit_pc", "table",
                 "_num_regs", "_num_preds")

    def __init__(self, program: Program, width: int) -> None:
        self.program = program
        self.width = width
        self.exit_pc = len(program.instructions)
        self._num_regs = max(program.num_regs, 1)
        self._num_preds = max(program.num_preds, 1)
        table = []
        for instr in program.instructions:
            op = instr.op
            gidx = instr.guard.index if instr.guard is not None else -1
            gsense = instr.guard_sense
            if op is Opcode.BRA:
                table.append((_BRA, gidx, gsense, None, op,
                              instr.target, instr.reconv))
            elif op is Opcode.EXIT:
                table.append((_EXIT, gidx, gsense, None, op, None, None))
            elif op is Opcode.DISCARD:
                table.append((_DISCARD, gidx, gsense, None, op, None, None))
            else:
                table.append((_EXEC, gidx, gsense,
                              _build_handler(instr, width), op, None, None))
        self.table = tuple(table)

    def run(self, env, initial_mask: Optional[np.ndarray] = None,
            max_dynamic_instructions: int = 100_000) -> ExecResult:
        """Execute one warp; mirrors the reference loop step for step."""
        width = self.width
        exit_pc = self.exit_pc
        table = self.table

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
                        or not count_nonzero(active):
                    stack.pop()
                    continue
                kind, gidx, gsense, handler, opcode, target, reconv = table[pc]
                if gidx >= 0 and kind != _BRA:
                    guard_values = preds[gidx]
                    effective = (active & guard_values if gsense
                                 else active & ~guard_values)
                else:
                    effective = active

                count = count_nonzero(effective)
                record = TraceOp(opcode, pc, count)
                append(record)

                if kind == _EXEC:
                    if count:
                        handler(regs, preds, effective, record, env)
                    entry.pc = pc + 1
                    continue
                if kind == _BRA:
                    if gidx < 0:
                        entry.pc = target
                        continue
                    cond = preds[gidx]
                    if not gsense:
                        cond = ~cond
                    taken = active & cond
                    fall = active & ~cond
                    if not count_nonzero(taken):
                        entry.pc = pc + 1
                    elif not count_nonzero(fall):
                        entry.pc = target
                    else:
                        if reconv is None:
                            raise RuntimeError(
                                "divergent branch without reconvergence: "
                                f"pc={pc}")
                        entry.pc = reconv   # current entry becomes the join
                        stack.append(_StackEntry(pc + 1, reconv, fall))
                        stack.append(_StackEntry(target, reconv, taken))
                    continue
                if kind == _EXIT:
                    completed |= active
                    entry.pc = pc + 1
                    dead = ~active          # materialized before mutation
                    for frame in stack:
                        frame.mask &= dead
                    continue
                # _DISCARD
                discarded |= effective
                entry.pc = pc + 1
                dead = ~effective
                for frame in stack:
                    frame.mask &= dead
                continue

        return ExecResult(trace=trace, discarded=discarded,
                          completed=completed)

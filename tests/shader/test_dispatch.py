"""Compiled-dispatch equivalence: the dispatch table vs a reference loop.

:class:`ReferenceInterpreter` is the oracle: a straightforward SIMT loop
that re-decodes every instruction on every dynamic execution.  For every
opcode family the compiled program (what :class:`WarpInterpreter` runs)
must produce bit-identical environment side effects, discard/complete
masks and recorded traces — not merely "close" results, since the timing
model replays the trace and any drift changes the event schedule.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.shader.compiler import _DISPATCH_CACHE, dispatch_for
from repro.shader.dispatch import _ALU_BINARY, _ALU_UNARY, _SETP, _StackEntry
from repro.shader.interpreter import (ExecResult, TraceOp, WarpInterpreter,
                                      WarpTrace)
from repro.shader.isa import Imm, Opcode, Pred, Reg
from repro.shader.program import assemble

from tests.shader.fake_env import FakeEnv


class ReferenceInterpreter(WarpInterpreter):
    """Decode-every-instruction warp executor (the per-opcode oracle)."""

    def run(self, initial_mask=None):
        width = self.warp_size
        program = self.program
        instructions = program.instructions
        exit_pc = len(instructions)

        regs = np.zeros((max(program.num_regs, 1), width))
        preds = np.zeros((max(program.num_preds, 1), width), dtype=bool)
        if initial_mask is None:
            initial_mask = np.ones(width, dtype=bool)
        else:
            initial_mask = np.asarray(initial_mask, dtype=bool).copy()

        discarded = np.zeros(width, dtype=bool)
        completed = np.zeros(width, dtype=bool)
        stack = [_StackEntry(0, exit_pc, initial_mask.copy())]
        trace = WarpTrace()

        def read(operand, mask):
            if isinstance(operand, Reg):
                return regs[operand.index]
            if isinstance(operand, Imm):
                return np.full(width, operand.value)
            if isinstance(operand, Pred):
                return preds[operand.index]
            raise TypeError(f"cannot read operand {operand!r}")

        def write_reg(operand, values, mask):
            regs[operand.index][mask] = np.asarray(values)[mask]

        def kill_lanes(mask):
            for entry in stack:
                entry.mask &= ~mask

        while stack:
            if trace.dynamic_instructions > self.max_dynamic_instructions:
                raise RuntimeError(
                    f"{program.name}: exceeded {self.max_dynamic_instructions} "
                    "dynamic instructions (diverging loop?)"
                )
            entry = stack[-1]
            if entry.pc == entry.rpc or entry.pc >= exit_pc or not entry.mask.any():
                stack.pop()
                continue
            instr = instructions[entry.pc]
            active = entry.mask
            if instr.guard is not None and instr.op is not Opcode.BRA:
                guard_values = preds[instr.guard.index]
                if not instr.guard_sense:
                    guard_values = ~guard_values
                effective = active & guard_values
            else:
                effective = active

            record = TraceOp(instr.op, entry.pc, int(effective.sum()))
            trace.ops.append(record)

            op = instr.op
            if op is Opcode.BRA:
                self._branch(instr, entry, stack, preds, active)
                continue

            if op is Opcode.EXIT:
                completed |= active
                entry.pc += 1
                kill_lanes(active.copy())
                continue

            if op is Opcode.DISCARD:
                discarded |= effective
                entry.pc += 1
                kill_lanes(effective.copy())
                continue

            if effective.any():
                self._execute(instr, regs, preds, effective, read, write_reg,
                              record)
            entry.pc += 1

        return ExecResult(trace=trace, discarded=discarded, completed=completed)

    def _branch(self, instr, entry, stack, preds, active):
        if instr.guard is None:
            entry.pc = instr.target
            return
        cond = preds[instr.guard.index]
        if not instr.guard_sense:
            cond = ~cond
        taken = active & cond
        fall = active & ~cond
        if not taken.any():
            entry.pc += 1
        elif not fall.any():
            entry.pc = instr.target
        else:
            reconv = instr.reconv
            if reconv is None:
                raise RuntimeError(f"divergent branch without reconvergence: {instr}")
            fall_pc = entry.pc + 1
            entry.pc = reconv           # current entry becomes the join point
            stack.append(_StackEntry(fall_pc, reconv, fall))
            stack.append(_StackEntry(instr.target, reconv, taken))

    def _execute(self, instr, regs, preds, mask, read, write_reg, record):
        op = instr.op
        env = self.env
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if op in _ALU_BINARY:
                a = read(instr.srcs[0], mask)
                b = read(instr.srcs[1], mask)
                write_reg(instr.dsts[0], _ALU_BINARY[op](a, b), mask)
            elif op in _ALU_UNARY:
                a = read(instr.srcs[0], mask)
                write_reg(instr.dsts[0], _ALU_UNARY[op](a), mask)
            elif op is Opcode.MAD:
                a = read(instr.srcs[0], mask)
                b = read(instr.srcs[1], mask)
                c = read(instr.srcs[2], mask)
                write_reg(instr.dsts[0], a * b + c, mask)
            elif op in _SETP:
                a = read(instr.srcs[0], mask)
                b = read(instr.srcs[1], mask)
                preds[instr.dsts[0].index][mask] = _SETP[op](a, b)[mask]
            elif op is Opcode.SEL:
                p = preds[instr.srcs[0].index]
                a = read(instr.srcs[1], mask)
                b = read(instr.srcs[2], mask)
                write_reg(instr.dsts[0], np.where(p, a, b), mask)
            elif op is Opcode.PAND:
                result = preds[instr.srcs[0].index] & preds[instr.srcs[1].index]
                preds[instr.dsts[0].index][mask] = result[mask]
            elif op is Opcode.POR:
                result = preds[instr.srcs[0].index] | preds[instr.srcs[1].index]
                preds[instr.dsts[0].index][mask] = result[mask]
            elif op is Opcode.PNOT:
                preds[instr.dsts[0].index][mask] = ~preds[instr.srcs[0].index][mask]
            elif op is Opcode.LD_ATTR:
                values, record.accesses = env.attribute(instr.slot, mask)
                write_reg(instr.dsts[0], values, mask)
            elif op is Opcode.LD_VARY:
                write_reg(instr.dsts[0], env.varying(instr.slot, mask), mask)
            elif op is Opcode.LD_CONST:
                value, record.accesses = env.constant(instr.slot, mask)
                write_reg(instr.dsts[0], np.full(self.warp_size, value), mask)
            elif op is Opcode.ST_OUT:
                env.store_output(instr.slot, read(instr.srcs[0], mask), mask)
            elif op is Opcode.TEX:
                u = read(instr.srcs[0], mask)
                v = read(instr.srcs[1], mask)
                rgba, record.accesses = env.tex(instr.slot, u, v, mask)
                for i, dst in enumerate(instr.dsts):
                    write_reg(dst, rgba[:, i], mask)
            elif op is Opcode.ZREAD:
                values, record.accesses = env.zread(mask)
                write_reg(instr.dsts[0], values, mask)
            elif op is Opcode.ZWRITE:
                record.accesses = env.zwrite(read(instr.srcs[0], mask), mask)
            elif op is Opcode.SREAD:
                values, record.accesses = env.sread(mask)
                write_reg(instr.dsts[0], values, mask)
            elif op is Opcode.SWRITE:
                record.accesses = env.swrite(read(instr.srcs[0], mask), mask)
            elif op is Opcode.FB_READ:
                rgba, record.accesses = env.fb_read(mask)
                for i, dst in enumerate(instr.dsts):
                    write_reg(dst, rgba[:, i], mask)
            elif op is Opcode.FB_WRITE:
                rgba = np.stack([read(s, mask) for s in instr.srcs], axis=1)
                record.accesses = env.fb_write(rgba, mask)
            elif op is Opcode.LD_GLOBAL:
                addresses = read(instr.srcs[0], mask)
                values, record.accesses = env.ld_global(addresses, mask)
                write_reg(instr.dsts[0], values, mask)
            elif op is Opcode.ST_GLOBAL:
                addresses = read(instr.srcs[0], mask)
                values = read(instr.srcs[1], mask)
                record.accesses = env.st_global(addresses, values, mask)
            else:  # pragma: no cover - opcode table is exhaustive
                raise NotImplementedError(f"unhandled opcode {op}")


def env_pair(**kwargs):
    return FakeEnv(**kwargs), FakeEnv(**kwargs)


def run_both(asm, stage="fragment", env_kwargs=None, initial_mask=None,
             max_dynamic_instructions=100_000):
    program = assemble(asm, stage=stage)
    fast_env, ref_env = env_pair(**(env_kwargs or {}))
    fast = WarpInterpreter(program, fast_env,
                           max_dynamic_instructions).run(initial_mask)
    ref = ReferenceInterpreter(program, ref_env,
                               max_dynamic_instructions).run(initial_mask)
    return fast, ref, fast_env, ref_env


def memory_footprint(op):
    """An op's memory record as ``(space, size, write, address list)``."""
    if op.accesses is None:
        return None
    space, addresses, size, write = op.accesses
    return space, size, write, [int(a) for a in addresses]


def assert_identical(fast, ref, fast_env, ref_env):
    assert np.array_equal(fast.discarded, ref.discarded)
    assert np.array_equal(fast.completed, ref.completed)
    assert len(fast.trace.ops) == len(ref.trace.ops)
    for fop, rop in zip(fast.trace.ops, ref.trace.ops):
        assert fop.op is rop.op
        assert fop.pc == rop.pc
        assert fop.active_lanes == rop.active_lanes
        assert memory_footprint(fop) == memory_footprint(rop)
    assert sorted(fast_env.outputs) == sorted(ref_env.outputs)
    for slot, values in fast_env.outputs.items():
        assert values.tobytes() == ref_env.outputs[slot].tobytes()
    assert fast_env.depth.tobytes() == ref_env.depth.tobytes()
    assert fast_env.color.tobytes() == ref_env.color.tobytes()
    assert np.array_equal(fast_env.stencil, ref_env.stencil)
    assert fast_env.global_memory == ref_env.global_memory


class TestEquivalence:
    def test_straight_line_alu(self):
        fast, ref, fe, re_ = run_both("""
            mov r0, 2.0
            add r1, r0, 3.0
            mul r2, r1, r1
            mad r3, r2, r0, r1
            rsqrt r4, r2
            min r5, r3, r4
            st.out o0, r5
            exit
        """)
        assert_identical(fast, ref, fe, re_)

    def test_divergent_branch_reconverges(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            setp.lt p0, r0, 4.0
            @p0 bra small
            mul r1, r0, 2.0
            bra join
        small:
            add r1, r0, 100.0
        join:
            st.out o0, r1
            exit
        """, env_kwargs={"varyings": {0: np.arange(8.0)}})
        assert_identical(fast, ref, fe, re_)

    def test_predicated_discard(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            setp.ge p0, r0, 5.0
            @p0 discard
            st.out o0, r0
            exit
        """, env_kwargs={"varyings": {0: np.arange(8.0)}})
        assert fast.discarded.sum() == 3
        assert_identical(fast, ref, fe, re_)

    def test_memory_ops_and_trace_addresses(self):
        fast, ref, fe, re_ = run_both("""
            zread r0
            mov r1, 0.25
            zwrite r1
            fb.read r2, r3, r4, r5
            fb.write r1, r1, r1, r1
            exit
        """)
        assert_identical(fast, ref, fe, re_)

    def test_partial_initial_mask(self):
        mask = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=bool)
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            add r0, r0, 1.0
            st.out o0, r0
            exit
        """, env_kwargs={"varyings": {0: np.arange(8.0)}},
            initial_mask=mask)
        assert fast.trace.ops[0].active_lanes == 4
        assert_identical(fast, ref, fe, re_)


    def test_remaining_opcode_families(self):
        """Predicate logic, guarded ALU ops, every ALU opcode, constants,
        textures, stencil and global memory: the families the cases above
        do not reach."""
        fast, ref, fe, re_ = run_both("""
            .vary uv 2
            .tex albedo
            .uniform k 1
            ld.vary r0, v0
            ld.vary r1, v1
            ld.const r2, c0
            setp.le p0, r0, 3.0
            setp.gt p1, r0, 5.0
            setp.eq p2, r0, 4.0
            setp.ne p3, r0, 2.0
            pand p4, p0, p3
            por p5, p1, p2
            pnot p6, p5
            sel r3, p4, r0, r1
            @p6 sub r4, r0, r2
            @!p6 pow r4, r0, 0.5
            div r5, r4, r0
            exp2 r6, r1
            log2 r7, r6
            sin r8, r0
            cos r9, r0
            abs r10, r8
            neg r11, r9
            floor r12, r5
            frac r13, r5
            rcp r14, r1
            sqrt r15, r1
            max r16, r14, r15
            tex r17, r18, r19, r20, t0, r0, r1
            sread r21
            add r22, r21, 1.0
            swrite r22
            mul r23, r0, 4.0
            st.global r23, r16
            ld.global r24, r23
            add r25, r3, r4
            add r25, r25, r5
            add r25, r25, r7
            add r25, r25, r10
            add r25, r25, r11
            add r25, r25, r12
            add r25, r25, r13
            add r25, r25, r19
            add r25, r25, r20
            st.out o0, r25
            st.out o1, r24
            st.out o2, r17
            st.out o3, r18
            exit
        """, env_kwargs={
            "varyings": {0: np.arange(1.0, 9.0), 1: np.linspace(0.5, 2.0, 8)},
            "constants": {0: 1.5},
            "textures": {0: lambda u, v: (u, v, u * v, 1.0)}})
        assert {record.op for record in ref.trace.ops} >= {
            Opcode.PAND, Opcode.POR, Opcode.PNOT, Opcode.SEL, Opcode.POW,
            Opcode.TEX, Opcode.SREAD, Opcode.SWRITE, Opcode.LD_GLOBAL,
            Opcode.ST_GLOBAL, Opcode.LD_CONST}
        assert_identical(fast, ref, fe, re_)
        assert np.array_equal(fe.stencil, re_.stencil)


LANES = {"varyings": {0: np.arange(8.0), 1: np.arange(8.0)[::-1] / 2}}
HALF = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=bool)


class TestBlockEdges:
    """Cases where a basic block ends or a stack entry changes inside a
    run of ops: the compiled program counts the mask once per block, so
    these are where it could part from the per-op reference."""

    def test_reconvergence_inside_an_alu_run(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            mov r1, 1.0
            setp.lt p0, r0, 4.0
            @!p0 bra skip
            add r1, r1, r0
            mul r1, r1, 2.0
        skip:
            add r1, r1, 0.5
            sub r2, r1, r0
            st.out o0, r2
            exit
        """, env_kwargs=LANES)
        program = assemble("ld.vary r0, v0\nmov r1, 1.0\n"
                           "setp.lt p0, r0, 4.0\n@!p0 bra skip\n"
                           "add r1, r1, r0\nmul r1, r1, 2.0\n"
                           "skip:\nadd r1, r1, 0.5\nexit")
        assert program.instructions[3].reconv == 6   # mid-run of ALU ops
        assert [op.active_lanes for op in ref.trace.ops] == [
            8, 8, 8, 8, 4, 4, 8, 8, 8, 8]
        assert_identical(fast, ref, fe, re_)

    def test_a_reconvergence_pc_alone_starts_a_block(self):
        """A reconvergence pc that is no branch target still splits the
        block (set by hand here: the IPDOM analysis puts joins at targets
        or after branches)."""
        program = assemble("""
            ld.vary r0, v0
            setp.lt p0, r0, 4.0
            @p0 bra join
            add r1, r0, 1.0
            add r1, r1, 1.0
        join:
            mul r2, r1, 2.0
            add r2, r2, 1.0
            st.out o0, r2
            exit
        """, stage="fragment", name="handset")
        assert program.instructions[2].reconv == 5
        program.instructions[2].reconv = 6
        fast_env, ref_env = env_pair(**LANES)
        fast = WarpInterpreter(program, fast_env).run()
        ref = ReferenceInterpreter(program, ref_env).run()
        assert [op.pc for op in ref.trace.ops] == [
            0, 1, 2, 5, 3, 4, 5, 6, 7, 8]
        assert_identical(fast, ref, fast_env, ref_env)

    def test_loop_with_a_back_edge(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v1
            mov r1, 0.0
            mov r2, 0.0
        loop:
            add r1, r1, 1.0
            add r2, r2, r1
            setp.lt p0, r1, r0
            @p0 bra loop
            st.out o0, r1
            st.out o1, r2
            exit
        """, env_kwargs=LANES)
        assert len(ref.trace.ops) > 20          # several trips, diverging
        assert_identical(fast, ref, fe, re_)

    def test_discard_under_a_partial_mask_then_more_ops(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            setp.ge p0, r0, 5.0
            @p0 discard
            add r1, r0, 1.0
            mul r1, r1, r1
            st.out o0, r1
            zwrite r1
            exit
        """, env_kwargs=LANES, initial_mask=HALF)
        assert fast.discarded.tolist() == [False] * 5 + [True, False, True]
        assert ref.trace.ops[3].active_lanes == 3
        assert_identical(fast, ref, fe, re_)

    def test_discard_inside_a_divergent_path(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            setp.lt p0, r0, 4.0
            setp.eq p1, r0, 1.0
            @p0 bra low
            add r1, r0, 10.0
            bra join
        low:
            @p1 discard
            add r1, r0, 20.0
        join:
            st.out o0, r1
            exit
        """, env_kwargs=LANES, initial_mask=HALF)
        assert_identical(fast, ref, fe, re_)

    def test_guard_reads_a_predicate_written_in_the_same_block(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            mov r1, 0.0
            mov r2, 0.0
            setp.lt p0, r0, 3.0
            @p0 add r1, r0, 10.0
            setp.gt p0, r0, 5.0
            @!p0 mul r1, r1, 2.0
            @p0 mov r2, 7.0
            pnot p1, p0
            @p1 sel r2, p0, r0, r1
            st.out o0, r1
            st.out o1, r2
            exit
        """, env_kwargs=LANES, initial_mask=HALF)
        assert [op.active_lanes for op in ref.trace.ops[4:10]] == [
            2, 5, 4, 1, 5, 4]
        assert_identical(fast, ref, fe, re_)

    def test_exit_inside_a_divergent_path(self):
        fast, ref, fe, re_ = run_both("""
            ld.vary r0, v0
            setp.lt p0, r0, 4.0
            setp.eq p1, r0, 5.0
            @p0 bra early
            @p1 exit
            add r1, r0, 1.0
            st.out o0, r1
            bra done
        early:
            mov r1, 9.0
            st.out o0, r1
            exit
        done:
            st.out o1, r0
            exit
        """, env_kwargs=LANES, initial_mask=HALF)
        assert fast.completed.tolist() == HALF.tolist()
        assert_identical(fast, ref, fe, re_)


LOOP = """
    mov r0, 0.0
loop:
    add r0, r0, 1.0
    setp.lt p0, r0, 1000.0
    @p0 bra loop
    exit
"""


class TestDynamicInstructionLimit:
    def test_a_loop_past_the_limit_raises_the_reference_error(self):
        program = assemble(LOOP, stage="fragment", name="spin")
        messages = []
        for interpreter in (WarpInterpreter, ReferenceInterpreter):
            with pytest.raises(RuntimeError) as excinfo:
                interpreter(program, FakeEnv(), 50).run()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1] == (
            "spin: exceeded 50 dynamic instructions (diverging loop?)")

    @pytest.mark.parametrize("limit", [6, 7])
    def test_a_run_of_exactly_the_limit_does_not_raise(self, limit):
        asm = "\n".join(["mov r0, 1.0"] * (limit - 1) + ["exit"])
        fast, ref, fe, re_ = run_both(asm, max_dynamic_instructions=limit)
        assert len(fast.trace.ops) == limit
        assert_identical(fast, ref, fe, re_)
        with pytest.raises(RuntimeError, match="exceeded"):
            run_both(asm, max_dynamic_instructions=limit - 1)


_BINARY = ("add", "sub", "mul", "div", "min", "max", "pow")
_UNARY = ("mov", "abs", "neg", "floor", "frac", "rcp", "rsqrt", "sqrt",
          "sin", "cos", "exp2", "log2")
_COMPARE = ("lt", "le", "gt", "ge", "eq", "ne")


@st.composite
def straight_line_op(draw):
    """One random branch-free instruction over r0-r3 and p0-p2."""
    reg = st.sampled_from(["r0", "r1", "r2", "r3"])
    pred = st.sampled_from(["p0", "p1", "p2"])
    source = st.one_of(reg, st.sampled_from(["-1.5", "0.0", "0.5", "3.0"]))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        text = f"{draw(st.sampled_from(_BINARY))} {draw(reg)}, " \
               f"{draw(source)}, {draw(source)}"
    elif kind == 1:
        text = f"{draw(st.sampled_from(_UNARY))} {draw(reg)}, {draw(source)}"
    elif kind == 2:
        text = f"mad {draw(reg)}, {draw(source)}, {draw(source)}, " \
               f"{draw(source)}"
    elif kind == 3:
        text = f"setp.{draw(st.sampled_from(_COMPARE))} {draw(pred)}, " \
               f"{draw(source)}, {draw(source)}"
    elif kind == 4:
        text = f"sel {draw(reg)}, {draw(pred)}, {draw(source)}, " \
               f"{draw(source)}"
    elif kind == 5:
        op = draw(st.sampled_from(["pand", "por"]))
        text = f"{op} {draw(pred)}, {draw(pred)}, {draw(pred)}"
    elif kind == 6:
        text = f"pnot {draw(pred)}, {draw(pred)}"
    elif kind == 7:
        text = f"ld.vary {draw(reg)}, v{draw(st.integers(0, 1))}"
    elif kind == 8:
        text = f"ld.const {draw(reg)}, c0"
    else:
        text = draw(st.sampled_from(["discard", "exit",
                                     f"st.out o{draw(st.integers(0, 3))}, "
                                     f"{draw(reg)}"]))
        if text in ("discard", "exit"):   # guarded, or they end the run
            return f"@{draw(st.sampled_from(['', '!']))}{draw(pred)} {text}"
    if draw(st.booleans()):
        text = f"@{draw(st.sampled_from(['', '!']))}{draw(pred)} {text}"
    return text


class TestStraightLineProperty:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(straight_line_op(), min_size=1, max_size=24),
           mask=st.lists(st.booleans(), min_size=8, max_size=8))
    def test_compiled_matches_reference(self, ops, mask):
        stores = [f"st.out o{i + 4}, r{i}" for i in range(4)]
        asm = "\n".join(ops + stores + ["exit"])
        fast, ref, fe, re_ = run_both(
            asm, env_kwargs={**LANES, "constants": {0: -2.25}},
            initial_mask=np.array(mask))
        assert_identical(fast, ref, fe, re_)


class TestDispatchCache:
    def test_cache_hit_keyed_by_digest_and_width(self):
        asm = "mov r0, 1.0\nst.out o0, r0\nexit"
        a = assemble(asm, stage="fragment")
        b = assemble(asm, stage="fragment")
        first = dispatch_for(a, 8)
        assert dispatch_for(b, 8) is first          # same digest, same table
        assert dispatch_for(a, 16) is not first     # width is part of the key

    def test_distinct_programs_get_distinct_tables(self):
        a = assemble("mov r0, 1.0\nexit", stage="fragment")
        b = assemble("mov r0, 2.0\nexit", stage="fragment")
        assert a.digest != b.digest
        assert dispatch_for(a, 8) is not dispatch_for(b, 8)

    def test_cache_backstop_clears_instead_of_growing(self):
        from repro.shader import compiler
        saved = dict(_DISPATCH_CACHE)
        try:
            _DISPATCH_CACHE.clear()
            _DISPATCH_CACHE.update({
                ("fake", i): None for i in range(compiler._DISPATCH_CACHE_MAX)
            })
            program = assemble("exit", stage="fragment")
            dispatch_for(program, 8)
            assert len(_DISPATCH_CACHE) == 1
        finally:
            _DISPATCH_CACHE.clear()
            _DISPATCH_CACHE.update(saved)

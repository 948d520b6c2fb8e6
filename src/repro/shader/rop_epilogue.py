"""In-shader raster operations: depth test and blending epilogues.

Emerald performs depth testing and blending *inside* the fragment shader
program (paper §3.3.1, stages L/M/N) rather than in atomic units by the
memory controllers; the TC stage guarantees only one tile per screen
location is in flight, which makes the read-modify-write race-free.

:func:`attach_rop` builds a copy of a compiled fragment program, once per
program and render state, with these spliced in:

* **Early-Z** (stage L) — when the shader neither discards nor writes
  depth: a prologue that reads the depth buffer, compares, and discards
  dead fragments before the expensive shading work.
* **Late-Z** (stage N) — otherwise: the same sequence after the shader
  body, using the shader's own depth output when present.
* **Blend** (stage M) — when blending is enabled: read the framebuffer,
  apply the configured source/destination factors, write back.  Without
  blending, a plain framebuffer write.

The resulting program is what the SIMT cores actually run, so depth/color
traffic shows up in the instruction and memory trace like any other access.
"""

from __future__ import annotations

import copy

from repro.gl.state import BlendFactor, DepthFunc, GLState, StencilOp
from repro.shader.isa import Imm, Instruction, Opcode, Pred, Reg
from repro.shader.program import Program

_DEPTH_SETP = {
    DepthFunc.LESS: Opcode.SETP_LT,
    DepthFunc.LEQUAL: Opcode.SETP_LE,
    DepthFunc.GREATER: Opcode.SETP_GT,
    DepthFunc.GEQUAL: Opcode.SETP_GE,
    DepthFunc.EQUAL: Opcode.SETP_EQ,
    DepthFunc.NOTEQUAL: Opcode.SETP_NE,
}


def uses_late_z(program: Program, state: GLState) -> bool:
    """Late-Z is forced when the shader discards or writes gl_FragDepth —
    or when stencil testing must precede the depth write."""
    return (program.has_discard or program.writes_depth
            or state.stencil_test)


# Keyed by the program's content (digest and name), its interface (the
# slot tables the environments resolve by name) and the frozen GLState:
# both the reference renderer and the GPU draw engine attach a ROP per
# draw per frame, and the deep copy costs milliseconds.
_ROP_CACHE: dict = {}
_ROP_CACHE_MAX = 512


def attach_rop(program: Program, state: GLState) -> Program:
    """Return a copy of ``program`` with the ROP epilogue spliced in.

    The input program must be a finalized fragment program whose epilogue
    ends with ``ST_OUT`` slots 0-3 (color) and optionally 4 (depth), as
    produced by :func:`repro.shader.compiler.compile_shader`.  Memoized,
    like ``compile_shader``: callers share the result and must not mutate
    it.
    """
    if program.stage != "fragment":
        raise ValueError("ROP epilogues apply to fragment programs only")
    key = (program.digest, program.name,
           tuple(tuple(table.items()) for table in (
               program.attributes, program.varyings, program.uniforms)),
           tuple(program.textures.items()), state)
    rop = _ROP_CACHE.get(key)
    if rop is None:
        if len(_ROP_CACHE) >= _ROP_CACHE_MAX:
            _ROP_CACHE.clear()          # unbounded-growth backstop
        rop = _ROP_CACHE[key] = _splice_rop(program, state)
    return rop


def _splice_rop(program: Program, state: GLState) -> Program:
    """The uncached body of :func:`attach_rop`."""
    rop = copy.deepcopy(program)
    rop.name = f"{program.name}+rop"
    # Drop the trailing EXIT; we re-append one at the end.
    if rop.instructions and rop.instructions[-1].op is Opcode.EXIT:
        rop.instructions.pop()

    next_reg = rop.num_regs
    next_pred = rop.num_preds

    def fresh_reg() -> Reg:
        nonlocal next_reg
        reg = Reg(next_reg)
        next_reg += 1
        return reg

    def fresh_pred() -> Pred:
        nonlocal next_pred
        pred = Pred(next_pred)
        next_pred += 1
        return pred

    # The fragment's interpolated depth arrives via the hidden varying
    # "frag_z" (slot allocated here if the shader didn't already use it).
    if "frag_z" in rop.varyings:
        z_base, _ = rop.varyings.lookup("frag_z")
    else:
        z_base = rop.varyings.allocate("frag_z", 1)

    def depth_test_code(depth_src) -> list[Instruction]:
        """ZREAD + compare + predicated DISCARD (+ optional ZWRITE)."""
        code = []
        if state.depth_func is DepthFunc.NEVER:
            return [Instruction(Opcode.DISCARD)]
        if state.depth_func is not DepthFunc.ALWAYS:
            old = fresh_reg()
            keep = fresh_pred()
            code.append(Instruction(Opcode.ZREAD, dsts=[old]))
            code.append(Instruction(_DEPTH_SETP[state.depth_func],
                                    dsts=[keep], srcs=[depth_src, old]))
            code.append(Instruction(Opcode.DISCARD, guard=keep,
                                    guard_sense=False))
        if state.depth_write:
            code.append(Instruction(Opcode.ZWRITE, srcs=[depth_src]))
        return code

    late_z = uses_late_z(rop, state)

    if state.depth_test and not late_z:
        # Early-Z prologue: interpolated depth is ready before shading.
        # Branch targets in the body must shift by the prologue length.
        z_reg = fresh_reg()
        prologue = [Instruction(Opcode.LD_VARY, dsts=[z_reg], slot=z_base)]
        prologue.extend(depth_test_code(z_reg))
        for instr in rop.instructions:
            if instr.target is not None:
                instr.target += len(prologue)
        rop.instructions[:0] = prologue

    # Locate the color ST_OUTs the compiler emitted; their sources are the
    # final color registers.  Removing instructions shifts every later pc,
    # so branch targets are remapped through an old->new index map.
    color_src: list = [Imm(0.0)] * 4
    depth_out_src = None
    remaining = []
    index_map: dict[int, int] = {}
    for old_pc, instr in enumerate(rop.instructions):
        if instr.op is Opcode.ST_OUT and instr.slot is not None:
            if instr.slot < Program.COLOR_SLOTS:
                color_src[instr.slot] = instr.srcs[0]
                continue
            if instr.slot == Program.DEPTH_SLOT:
                depth_out_src = instr.srcs[0]
                continue
        index_map[old_pc] = len(remaining)
        remaining.append(instr)

    def remap(old_target: int) -> int:
        # A target pointing at (or past) a removed instruction maps to the
        # next surviving one; past-the-end maps to the epilogue start.
        for pc in range(old_target, len(rop.instructions)):
            if pc in index_map:
                return index_map[pc]
        return len(remaining)

    for instr in remaining:
        if instr.target is not None:
            instr.target = remap(instr.target)
    rop.instructions = remaining

    epilogue: list[Instruction] = []

    stencil_reg = None
    if state.stencil_test:
        # Stencil test precedes the depth test (pipeline stage J order):
        # compare ref against the stored value; failures are discarded
        # before any depth traffic.
        stencil_reg = fresh_reg()
        epilogue.append(Instruction(Opcode.SREAD, dsts=[stencil_reg]))
        if state.stencil_func is DepthFunc.NEVER:
            epilogue.append(Instruction(Opcode.DISCARD))
        elif state.stencil_func is not DepthFunc.ALWAYS:
            keep = fresh_pred()
            epilogue.append(Instruction(
                _DEPTH_SETP[state.stencil_func], dsts=[keep],
                srcs=[Imm(float(state.stencil_ref)), stencil_reg]))
            epilogue.append(Instruction(Opcode.DISCARD, guard=keep,
                                        guard_sense=False))

    if state.depth_test and late_z:
        if depth_out_src is None:
            z_reg = fresh_reg()
            epilogue.append(Instruction(Opcode.LD_VARY, dsts=[z_reg],
                                        slot=z_base))
            depth_src = z_reg
        else:
            depth_src = depth_out_src
        epilogue.extend(depth_test_code(depth_src))

    if state.stencil_test and state.stencil_pass_op is not StencilOp.KEEP:
        # Fragments alive here passed both tests: apply the pass op.
        op = state.stencil_pass_op
        if op is StencilOp.REPLACE:
            epilogue.append(Instruction(
                Opcode.SWRITE, srcs=[Imm(float(state.stencil_ref))]))
        elif op is StencilOp.ZERO:
            epilogue.append(Instruction(Opcode.SWRITE, srcs=[Imm(0.0)]))
        else:
            new_value = fresh_reg()
            if op is StencilOp.INCR:
                epilogue.append(Instruction(Opcode.ADD, dsts=[new_value],
                                            srcs=[stencil_reg, Imm(1.0)]))
            elif op is StencilOp.DECR:
                epilogue.append(Instruction(Opcode.SUB, dsts=[new_value],
                                            srcs=[stencil_reg, Imm(1.0)]))
            else:   # INVERT (8-bit complement)
                epilogue.append(Instruction(Opcode.SUB, dsts=[new_value],
                                            srcs=[Imm(255.0), stencil_reg]))
            epilogue.append(Instruction(Opcode.SWRITE, srcs=[new_value]))

    if state.blend:
        dst_regs = [fresh_reg() for _ in range(4)]
        epilogue.append(Instruction(Opcode.FB_READ, dsts=dst_regs))
        src_alpha = color_src[3]
        src_factor = _factor_operand(state.blend_src, src_alpha, epilogue,
                                     fresh_reg)
        dst_factor = _factor_operand(state.blend_dst, src_alpha, epilogue,
                                     fresh_reg)
        out_regs = []
        for i in range(4):
            # out = src*src_factor + dst*dst_factor
            src_term = fresh_reg()
            epilogue.append(Instruction(Opcode.MUL, dsts=[src_term],
                                        srcs=[color_src[i], src_factor]))
            out = fresh_reg()
            epilogue.append(Instruction(Opcode.MAD, dsts=[out],
                                        srcs=[dst_regs[i], dst_factor,
                                              src_term]))
            out_regs.append(out)
        epilogue.append(Instruction(Opcode.FB_WRITE, srcs=out_regs))
    else:
        epilogue.append(Instruction(Opcode.FB_WRITE, srcs=color_src))

    rop.instructions.extend(epilogue)
    rop.instructions.append(Instruction(Opcode.EXIT))
    return rop.finalize()


def _factor_operand(factor: BlendFactor, src_alpha, epilogue: list,
                    fresh_reg) -> object:
    """Materialize a blend factor as an operand (emits code if needed)."""
    if factor is BlendFactor.ZERO:
        return Imm(0.0)
    if factor is BlendFactor.ONE:
        return Imm(1.0)
    if factor is BlendFactor.SRC_ALPHA:
        return src_alpha
    one_minus = fresh_reg()
    epilogue.append(Instruction(Opcode.SUB, dsts=[one_minus],
                                srcs=[Imm(1.0), src_alpha]))
    return one_minus

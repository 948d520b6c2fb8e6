"""Tests for the in-shader raster-operations epilogue."""

import numpy as np
import pytest

from repro.gl.state import BlendFactor, DepthFunc, GLState, StencilOp
from repro.shader.compiler import compile_shader
from repro.shader.interpreter import WarpInterpreter
from repro.shader.isa import Opcode
from repro.shader.rop_epilogue import attach_rop, uses_late_z

from tests.shader.fake_env import FakeEnv

SIMPLE_FS = """
void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 0.5); }
"""

DISCARD_FS = """
in float v_a;
void main() {
    if (v_a < 0.5) { discard; }
    gl_FragColor = vec4(1.0, 1.0, 1.0, 1.0);
}
"""

DEPTH_FS = """
void main() {
    gl_FragColor = vec4(1.0, 1.0, 1.0, 1.0);
    gl_FragDepth = 0.2;
}
"""


def run_rop(fs_source, state, env, name="rop_test"):
    base = compile_shader(fs_source, "fragment", name=name)
    program = attach_rop(base, state)
    z_base, _ = program.varyings.lookup("frag_z")
    result = WarpInterpreter(program, env).run()
    return program, result


class TestEarlyVsLateZ:
    def test_simple_shader_uses_early_z(self):
        program = compile_shader(SIMPLE_FS, "fragment", name="z1")
        assert not uses_late_z(program, GLState())

    def test_discard_forces_late_z(self):
        program = compile_shader(DISCARD_FS, "fragment", name="z2")
        assert uses_late_z(program, GLState())

    def test_depth_write_forces_late_z(self):
        program = compile_shader(DEPTH_FS, "fragment", name="z3")
        assert uses_late_z(program, GLState())

    def test_early_z_prologue_comes_first(self):
        base = compile_shader(SIMPLE_FS, "fragment", name="z4")
        program = attach_rop(base, GLState())
        # First instructions: LD_VARY frag_z, ZREAD, compare, discard.
        ops = [i.op for i in program.instructions[:4]]
        assert ops == [Opcode.LD_VARY, Opcode.ZREAD, Opcode.SETP_LT,
                       Opcode.DISCARD]

    def test_late_z_epilogue_comes_after_body(self):
        base = compile_shader(DISCARD_FS, "fragment", name="z5")
        program = attach_rop(base, GLState())
        zread_pc = next(i for i, ins in enumerate(program.instructions)
                        if ins.op is Opcode.ZREAD)
        tex_like_pc = next(i for i, ins in enumerate(program.instructions)
                           if ins.op is Opcode.DISCARD)
        assert zread_pc > tex_like_pc


class TestDepthFunctional:
    def test_depth_test_kills_occluded_fragments(self):
        env = FakeEnv(depth=np.array([0.3, 0.9] * 4))
        env.varyings = {0: np.full(8, 0.5)}    # frag_z = 0.5
        program, result = run_rop(SIMPLE_FS, GLState(), env, name="d1")
        # Fragments with buffer depth 0.3 fail LESS(0.5, 0.3).
        assert result.discarded.tolist() == [True, False] * 4
        # Survivors write color and depth.
        assert np.allclose(env.color[1, 0], 1.0)
        assert np.allclose(env.depth[1], 0.5)
        # Killed fragments leave buffers alone.
        assert np.allclose(env.color[0, 0], 0.0)
        assert np.allclose(env.depth[0], 0.3)

    def test_depth_write_disabled(self):
        env = FakeEnv(depth=np.full(8, 0.9))
        env.varyings = {0: np.full(8, 0.5)}
        run_rop(SIMPLE_FS, GLState(depth_write=False), env, name="d2")
        assert np.allclose(env.depth, 0.9)     # untouched

    def test_depth_test_disabled_writes_all(self):
        env = FakeEnv(depth=np.array([0.1] * 8))
        env.varyings = {0: np.full(8, 0.5)}
        program, result = run_rop(
            SIMPLE_FS, GLState(depth_test=False), env, name="d3")
        assert not result.discarded.any()
        assert np.allclose(env.color[:, 0], 1.0)
        # No depth traffic at all when the test is off.
        assert not any(i.op in (Opcode.ZREAD, Opcode.ZWRITE)
                       for i in program.instructions)

    def test_greater_func(self):
        env = FakeEnv(depth=np.array([0.3, 0.9] * 4))
        env.varyings = {0: np.full(8, 0.5)}
        _, result = run_rop(SIMPLE_FS,
                            GLState(depth_func=DepthFunc.GREATER), env,
                            name="d4")
        assert result.discarded.tolist() == [False, True] * 4

    def test_never_discards_everything(self):
        env = FakeEnv()
        env.varyings = {0: np.full(8, 0.5)}
        _, result = run_rop(SIMPLE_FS,
                            GLState(depth_func=DepthFunc.NEVER), env,
                            name="d5")
        assert result.discarded.all()

    def test_shader_written_depth_used_for_test(self):
        # gl_FragDepth = 0.2; buffer = 0.25 -> passes LESS; buffer 0.1 fails.
        env = FakeEnv(depth=np.array([0.25, 0.1] * 4))
        env.varyings = {0: np.full(8, 0.9)}    # interpolated z would fail
        _, result = run_rop(DEPTH_FS, GLState(), env, name="d6")
        assert result.discarded.tolist() == [False, True] * 4
        assert np.allclose(env.depth[0], 0.2)


class TestBlending:
    def test_alpha_blend(self):
        env = FakeEnv(color=np.tile([0.0, 1.0, 0.0, 1.0], (8, 1)))
        env.varyings = {0: np.full(8, 0.5)}
        state = GLState(depth_test=False, blend=True)
        run_rop(SIMPLE_FS, state, env, name="b1")
        # src=(1,0,0,.5): out.r = 1*0.5 + 0*0.5 = 0.5; out.g = 0+1*0.5 = 0.5
        assert np.allclose(env.color[:, 0], 0.5)
        assert np.allclose(env.color[:, 1], 0.5)

    def test_additive_blend(self):
        env = FakeEnv(color=np.full((8, 4), 0.25))
        env.varyings = {0: np.full(8, 0.5)}
        state = GLState(depth_test=False, blend=True,
                        blend_src=BlendFactor.ONE, blend_dst=BlendFactor.ONE)
        run_rop(SIMPLE_FS, state, env, name="b2")
        assert np.allclose(env.color[:, 0], 1.25)

    def test_no_blend_overwrites(self):
        env = FakeEnv(color=np.full((8, 4), 0.9))
        env.varyings = {0: np.full(8, 0.5)}
        run_rop(SIMPLE_FS, GLState(depth_test=False), env, name="b3")
        assert np.allclose(env.color[:, 0], 1.0)
        assert np.allclose(env.color[:, 1], 0.0)

    def test_blend_reads_framebuffer(self):
        base = compile_shader(SIMPLE_FS, "fragment", name="b4")
        blended = attach_rop(base, GLState(blend=True))
        plain = attach_rop(base, GLState(blend=False))
        assert any(i.op is Opcode.FB_READ for i in blended.instructions)
        assert not any(i.op is Opcode.FB_READ for i in plain.instructions)


class TestAttachRopStructure:
    def test_original_program_unmodified(self):
        base = compile_shader(SIMPLE_FS, "fragment", name="s1")
        before = len(base.instructions)
        attach_rop(base, GLState())
        assert len(base.instructions) == before

    def test_st_out_color_replaced_by_fb_write(self):
        base = compile_shader(SIMPLE_FS, "fragment", name="s2")
        program = attach_rop(base, GLState(depth_test=False))
        color_outs = [i for i in program.instructions
                      if i.op is Opcode.ST_OUT and i.slot < 4]
        assert not color_outs
        assert any(i.op is Opcode.FB_WRITE for i in program.instructions)

    def test_vertex_program_rejected(self):
        vs = compile_shader("in vec3 position;\n"
                            "void main() { gl_Position = vec4(position, 1.0); }",
                            "vertex", name="s3")
        with pytest.raises(ValueError):
            attach_rop(vs, GLState())

    def test_frag_z_varying_allocated(self):
        base = compile_shader(SIMPLE_FS, "fragment", name="s4")
        program = attach_rop(base, GLState())
        assert "frag_z" in program.varyings


class TestAttachRopCache:
    """attach_rop is memoized like compile_shader: one ROP program per
    fragment program and render state."""

    # A state under which every ROP-relevant field shapes the epilogue.
    STATE = GLState(blend=True, stencil_test=True,
                    stencil_func=DepthFunc.LESS, stencil_ref=1,
                    stencil_pass_op=StencilOp.INCR)
    CHANGES = {
        "depth_test": False,
        "depth_write": False,
        "depth_func": DepthFunc.GREATER,
        "blend": False,
        "blend_src": BlendFactor.ONE,
        "blend_dst": BlendFactor.ZERO,
        "stencil_test": False,
        "stencil_func": DepthFunc.GEQUAL,
        "stencil_ref": 2,
        "stencil_pass_op": StencilOp.REPLACE,
    }

    def test_a_repeat_call_returns_the_same_program(self):
        base = compile_shader(SIMPLE_FS, "fragment", name="c1")
        assert attach_rop(base, self.STATE) is attach_rop(base, self.STATE)
        assert attach_rop(base, GLState()) is attach_rop(base, GLState())

    @pytest.mark.parametrize("field", sorted(CHANGES))
    def test_every_rop_field_gets_its_own_program(self, field):
        base = compile_shader(SIMPLE_FS, "fragment", name="c2")
        before = attach_rop(base, self.STATE)
        after = attach_rop(base, self.STATE.with_(
            **{field: self.CHANGES[field]}))
        assert after is not before
        assert [repr(i) for i in after.instructions] \
            != [repr(i) for i in before.instructions]
        assert after.digest != before.digest

    def test_the_rop_program_digests_its_own_instructions(self):
        """The copy must not inherit the digest the cache key computed on
        the base program: the dispatch cache is keyed on it."""
        base = compile_shader(SIMPLE_FS, "fragment", name="c3")
        rop = attach_rop(base, GLState())
        assert rop.digest != base.digest
        assert rop.has_discard

    def test_same_code_under_other_names_gets_its_own_program(self):
        """Two shaders that compile to the same instructions but read
        differently named varyings resolve them by name."""
        first = compile_shader(
            "in vec4 v_a;\nvoid main() { gl_FragColor = v_a; }",
            "fragment", name="c4")
        second = compile_shader(
            "in vec4 v_b;\nvoid main() { gl_FragColor = v_b; }",
            "fragment", name="c4")
        assert first.digest == second.digest
        rop_a, rop_b = attach_rop(first, GLState()), attach_rop(second,
                                                                GLState())
        assert "v_a" in rop_a.varyings and "v_b" in rop_b.varyings

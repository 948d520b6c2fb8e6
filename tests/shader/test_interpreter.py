"""Tests for the SIMT warp interpreter."""

import numpy as np
import pytest

from repro.shader.interpreter import WarpInterpreter
from repro.shader.isa import LatencyClass, MemSpace, Opcode
from repro.shader.program import assemble

from tests.shader.fake_env import FakeEnv


def run(asm, env=None, stage="fragment", **kwargs):
    env = env or FakeEnv()
    program = assemble(asm, stage=stage)
    interp = WarpInterpreter(program, env, **kwargs)
    result = interp.run()
    return result, env


class TestALU:
    def test_mov_imm_and_add(self):
        result, env = run("""
            mov r0, 2.0
            add r1, r0, 3.0
            st.out o0, r1
            exit
        """)
        assert np.allclose(env.outputs[0], 5.0)

    def test_mad(self):
        _, env = run("""
            mov r0, 2.0
            mov r1, 3.0
            mov r2, 4.0
            mad r3, r0, r1, r2
            st.out o0, r3
            exit
        """)
        assert np.allclose(env.outputs[0], 10.0)

    def test_transcendentals(self):
        _, env = run("""
            mov r0, 4.0
            sqrt r1, r0
            rsqrt r2, r0
            rcp r3, r0
            st.out o0, r1
            st.out o1, r2
            st.out o2, r3
            exit
        """)
        assert np.allclose(env.outputs[0], 2.0)
        assert np.allclose(env.outputs[1], 0.5)
        assert np.allclose(env.outputs[2], 0.25)

    def test_min_max_abs_neg(self):
        _, env = run("""
            mov r0, -3.0
            abs r1, r0
            neg r2, r0
            min r3, r1, 1.0
            max r4, r1, 5.0
            st.out o0, r1
            st.out o1, r2
            st.out o2, r3
            st.out o3, r4
            exit
        """)
        assert np.allclose(env.outputs[0], 3.0)
        assert np.allclose(env.outputs[1], 3.0)
        assert np.allclose(env.outputs[2], 1.0)
        assert np.allclose(env.outputs[3], 5.0)

    def test_floor_frac(self):
        _, env = run("""
            mov r0, 2.75
            floor r1, r0
            frac r2, r0
            st.out o0, r1
            st.out o1, r2
        """)
        assert np.allclose(env.outputs[0], 2.0)
        assert np.allclose(env.outputs[1], 0.75)

    def test_sel(self):
        env = FakeEnv(attributes={0: np.array([0, 1, 2, 3, 4, 5, 6, 7.0])})
        _, env = run("""
            .attr x 1
            ld.attr r0, a0
            setp.lt p0, r0, 4.0
            sel r1, p0, 10.0, 20.0
            st.out o0, r1
        """, env=env, stage="vertex")
        assert env.outputs[0].tolist() == [10, 10, 10, 10, 20, 20, 20, 20]

    def test_division_by_zero_yields_inf(self):
        _, env = run("""
            mov r0, 1.0
            mov r1, 0.0
            div r2, r0, r1
            st.out o0, r2
        """)
        assert np.all(np.isinf(env.outputs[0]))


class TestPerLaneValues:
    def test_attribute_values_are_per_lane(self):
        env = FakeEnv(attributes={0: np.arange(8.0)})
        _, env = run("""
            .attr x 1
            ld.attr r0, a0
            mul r1, r0, 2.0
            st.out o0, r1
        """, env=env, stage="vertex")
        assert env.outputs[0].tolist() == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_constants_broadcast(self):
        env = FakeEnv(constants={3: 7.5})
        _, env = run("""
            .uniform k 4
            ld.const r0, c3
            st.out o0, r0
        """, env=env)
        assert np.allclose(env.outputs[0], 7.5)

    def test_varyings(self):
        env = FakeEnv(varyings={1: np.linspace(0, 1, 8)})
        _, env = run("""
            .vary v_uv 2
            ld.vary r0, v1
            st.out o0, r0
        """, env=env)
        assert np.allclose(env.outputs[0], np.linspace(0, 1, 8))


class TestDivergence:
    def test_divergent_if_both_paths_execute(self):
        env = FakeEnv(attributes={0: np.array([1.0, 1, 1, 1, 9, 9, 9, 9])})
        _, env = run("""
            .attr x 1
            ld.attr r0, a0
            setp.lt p0, r0, 5.0
            @!p0 bra ELSE
            mov r1, 100.0
            bra END
            ELSE:
            mov r1, 200.0
            END:
            st.out o0, r1
        """, env=env, stage="vertex")
        assert env.outputs[0].tolist() == [100, 100, 100, 100,
                                           200, 200, 200, 200]

    def test_divergence_serializes_instruction_stream(self):
        """Divergent warp executes both sides; uniform warp only one."""
        divergent_env = FakeEnv(
            attributes={0: np.array([1.0, 9, 1, 9, 1, 9, 1, 9])})
        uniform_env = FakeEnv(attributes={0: np.full(8, 1.0)})
        asm = """
            .attr x 1
            ld.attr r0, a0
            setp.lt p0, r0, 5.0
            @!p0 bra ELSE
            mov r1, 100.0
            bra END
            ELSE:
            mov r1, 200.0
            END:
            st.out o0, r1
        """
        divergent, _ = run(asm, env=divergent_env, stage="vertex")
        uniform, _ = run(asm, env=uniform_env, stage="vertex")
        assert (divergent.trace.dynamic_instructions
                > uniform.trace.dynamic_instructions)

    def test_active_lane_counts_in_trace(self):
        env = FakeEnv(attributes={0: np.array([1.0, 1, 9, 9, 9, 9, 9, 9])})
        result, _ = run("""
            .attr x 1
            ld.attr r0, a0
            setp.lt p0, r0, 5.0
            @!p0 bra END
            mov r1, 7.0
            END:
            st.out o0, r1
        """, env=env, stage="vertex")
        mov_ops = [op for op in result.trace.ops if op.op is Opcode.MOV]
        assert mov_ops[0].active_lanes == 2    # only the then-branch lanes

    def test_nested_divergence(self):
        env = FakeEnv(attributes={0: np.array([1.0, 3, 6, 9, 1, 3, 6, 9])})
        _, env = run("""
            .attr x 1
            ld.attr r0, a0
            mov r1, 0.0
            setp.lt p0, r0, 5.0
            @!p0 bra OUTER_END
            setp.lt p1, r0, 2.0
            @!p1 bra INNER_END
            add r1, r1, 1.0
            INNER_END:
            add r1, r1, 10.0
            OUTER_END:
            add r1, r1, 100.0
            st.out o0, r1
        """, env=env, stage="vertex")
        assert env.outputs[0].tolist() == [111, 110, 100, 100,
                                           111, 110, 100, 100]

    def test_divergent_loop(self):
        """Lanes iterate different trip counts; all reconverge."""
        env = FakeEnv(attributes={0: np.array([1.0, 2, 3, 4, 1, 2, 3, 4])})
        _, env = run("""
            .attr n 1
            ld.attr r0, a0
            mov r1, 0.0
            LOOP:
            add r1, r1, 1.0
            setp.lt p0, r1, r0
            @p0 bra LOOP
            st.out o0, r1
        """, env=env, stage="vertex")
        assert env.outputs[0].tolist() == [1, 2, 3, 4, 1, 2, 3, 4]

    def test_runaway_loop_detected(self):
        with pytest.raises(RuntimeError):
            run("""
                LOOP:
                mov r0, 1.0
                bra LOOP
            """, max_dynamic_instructions=500)


class TestDiscard:
    def test_discard_kills_lanes(self):
        env = FakeEnv(varyings={0: np.array([0.1, 0.9, 0.1, 0.9,
                                             0.1, 0.9, 0.1, 0.9])})
        result, env = run("""
            .vary alpha 1
            ld.vary r0, v0
            setp.lt p0, r0, 0.5
            @!p0 bra KEEP
            discard
            KEEP:
            mov r1, 1.0
            fb.write r1, r1, r1, r1
        """, env=env)
        assert result.discarded.tolist() == [True, False] * 4
        # Discarded lanes must not write the framebuffer.
        assert np.allclose(env.color[1], 1.0)
        assert np.allclose(env.color[0], 0.0)

    def test_predicated_discard(self):
        env = FakeEnv(varyings={0: np.array([0.1, 0.9] * 4)})
        result, _ = run("""
            .vary alpha 1
            ld.vary r0, v0
            setp.lt p0, r0, 0.5
            @p0 discard
            mov r1, 2.0
        """, env=env)
        assert result.discarded.tolist() == [True, False] * 4

    def test_all_discarded_terminates(self):
        result, env = run("""
            discard
            mov r0, 1.0
            fb.write r0, r0, r0, r0
        """)
        assert result.discarded.all()
        assert np.allclose(env.color, 0.0)


class TestMemoryOps:
    def test_global_roundtrip(self):
        env = FakeEnv()
        _, env = run("""
            mov r0, 64.0
            mov r1, 42.0
            st.global r0, r1
            ld.global r2, r0
            st.out o0, r2
        """, env=env)
        assert np.allclose(env.outputs[0], 42.0)

    def test_zread_zwrite(self):
        env = FakeEnv(depth=np.full(8, 0.7))
        _, env = run("""
            zread r0
            mul r1, r0, 0.5
            zwrite r1
        """, env=env)
        assert np.allclose(env.depth, 0.35)

    def test_fb_read_modify_write(self):
        env = FakeEnv(color=np.full((8, 4), 0.5))
        _, env = run("""
            fb.read r0, r1, r2, r3
            mul r0, r0, 0.5
            fb.write r0, r1, r2, r3
        """, env=env)
        assert np.allclose(env.color[:, 0], 0.25)
        assert np.allclose(env.color[:, 1], 0.5)

    def test_texture_sampling(self):
        env = FakeEnv(textures={0: lambda u, v: (u, v, 0.0, 1.0)})
        env.varyings = {0: np.linspace(0, 1, 8), 1: np.full(8, 0.5)}
        _, env = run("""
            .vary uv 2
            .tex albedo
            ld.vary r0, v0
            ld.vary r1, v1
            tex r2, r3, r4, r5, t0, r0, r1
            st.out o0, r2
            st.out o1, r3
        """, env=env)
        assert np.allclose(env.outputs[0], np.linspace(0, 1, 8))
        assert np.allclose(env.outputs[1], 0.5)

    def test_memory_accesses_recorded_in_trace(self):
        env = FakeEnv(constants={0: 1.0})
        result, _ = run("""
            .uniform k 1
            ld.const r0, c0
            st.out o0, r0
        """, env=env)
        records = [op.accesses for op in result.trace.ops
                   if op.accesses is not None]
        assert len(records) == 1
        space, addresses, size, write = records[0]
        assert space is MemSpace.CONST
        assert list(addresses) == [0x2000]
        assert (size, write) == (4, False)

    def test_trace_latency_classes(self):
        result, _ = run("""
            mov r0, 1.0
            sqrt r1, r0
            zread r2
        """)
        trace = result.trace
        assert trace.count_class(LatencyClass.ALU) >= 1
        assert trace.count_class(LatencyClass.SFU) == 1
        assert trace.count_class(LatencyClass.MEM) == 1


class TestMasks:
    def test_initial_mask_restricts_lanes(self):
        env = FakeEnv()
        program = assemble("""
            mov r0, 9.0
            st.out o0, r0
        """)
        mask = np.array([True, False] * 4)
        WarpInterpreter(program, env).run(initial_mask=mask)
        assert env.outputs[0].tolist() == [9, 0] * 4

    def test_completed_mask(self):
        result, _ = run("mov r0, 1.0\nexit")
        assert result.completed.all()

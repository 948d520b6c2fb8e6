"""Tests for the event-count energy model."""

import numpy as np
import pytest

from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.gpu.energy import (
    EnergyBreakdown,
    EnergyModel,
    frame_energy,
    gpu_activity_snapshot,
    measure_frame_energy,
)
from repro.gpu.gpu import EmeraldGPU, GPUFrameStats
from repro.memory.builders import build_memory_by_name

from tests.pipeline.helpers import FLAT_COLOR_FS, FLAT_VS, fullscreen_quad
from repro.gl.context import GLContext
from repro.gl.state import CullMode


def make_gpu():
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    return EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=2)), 48, 48,
                      memory=memory)


def flat_frame(width=48, height=48):
    ctx = GLContext(width, height)
    ctx.use_program(FLAT_VS, FLAT_COLOR_FS)
    ctx.set_state(cull=CullMode.NONE)
    ctx.set_uniform("flat_color", [1.0, 0.0, 0.0, 1.0])
    ctx.draw_mesh(fullscreen_quad())
    return ctx.end_frame()


class TestFrameEnergy:
    def test_components_positive_for_real_frame(self):
        gpu = make_gpu()
        stats, energy = measure_frame_energy(gpu, flat_frame())
        assert energy.execution > 0
        assert energy.l1 > 0
        assert energy.l2 > 0
        assert energy.dram > 0
        assert energy.fixed_function > 0
        assert energy.leakage > 0
        assert energy.total_pj == pytest.approx(
            sum(v for k, v in energy.as_dict().items() if k != "total"))

    def test_total_uj_conversion(self):
        breakdown = EnergyBreakdown(execution=1e6)
        assert breakdown.total_uj == pytest.approx(1.0)

    def test_leakage_scales_with_cycles(self):
        stats = GPUFrameStats(start_tick=0, end_tick=1000)
        a = frame_energy(stats, issued_ops=0, l1_accesses=0)
        stats2 = GPUFrameStats(start_tick=0, end_tick=2000)
        b = frame_energy(stats2, issued_ops=0, l1_accesses=0)
        assert b.leakage == pytest.approx(2 * a.leakage)

    def test_custom_model_coefficients(self):
        stats = GPUFrameStats(start_tick=0, end_tick=100)
        model = EnergyModel(leakage_pj_per_cycle=1.0, dram_byte_pj=0.0)
        stats.dram_bytes = 1_000_000
        energy = frame_energy(stats, 0, 0, model=model)
        assert energy.dram == 0.0
        assert energy.leakage == 100.0

    def test_activity_snapshot_monotonic(self):
        gpu = make_gpu()
        before = gpu_activity_snapshot(gpu)
        gpu.run_frame(flat_frame())
        after = gpu_activity_snapshot(gpu)
        assert after["issued"] > before["issued"]
        assert after["l1_accesses"] > before["l1_accesses"]

    def test_bigger_frame_costs_more(self):
        gpu_small = make_gpu()
        _, small = measure_frame_energy(gpu_small, flat_frame())
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
        gpu_big = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=2)),
                             96, 96, memory=memory)
        _, big = measure_frame_energy(gpu_big, flat_frame(96, 96))
        assert big.total_pj > small.total_pj

    def test_faster_frame_leaks_less(self):
        """The DFSL energy argument: same work, fewer cycles, less leakage."""
        fast = GPUFrameStats(start_tick=0, end_tick=10_000)
        slow = GPUFrameStats(start_tick=0, end_tick=15_000)
        e_fast = frame_energy(fast, issued_ops=1000, l1_accesses=500)
        e_slow = frame_energy(slow, issued_ops=1000, l1_accesses=500)
        assert e_fast.total_pj < e_slow.total_pj

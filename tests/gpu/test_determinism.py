"""Determinism: identical runs produce identical cycles and statistics."""

import numpy as np
import pytest

from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.gpu.gpu import EmeraldGPU
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_memory_by_name


def run_once(model="teapot", frames=2):
    session = SceneSession(model, 64, 48)
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=3)), 64, 48,
                     memory=memory)
    stats = [gpu.run_frame(session.frame(i)) for i in range(frames)]
    return gpu, stats


class TestDeterminism:
    def test_cycles_and_counters_identical(self):
        gpu_a, stats_a = run_once()
        gpu_b, stats_b = run_once()
        for a, b in zip(stats_a, stats_b):
            assert a.cycles == b.cycles
            assert a.fragment_cycles == b.fragment_cycles
            assert a.fragments == b.fragments
            assert a.l1_misses == b.l1_misses
            assert a.l2_misses == b.l2_misses
            assert a.dram_bytes == b.dram_bytes
            assert a.tc_tiles == b.tc_tiles

    def test_images_identical(self):
        gpu_a, _ = run_once()
        gpu_b, _ = run_once()
        assert np.array_equal(gpu_a.fb.color, gpu_b.fb.color)
        assert np.array_equal(gpu_a.fb.depth, gpu_b.fb.depth)

    def test_event_counts_identical(self):
        gpu_a, _ = run_once()
        gpu_b, _ = run_once()
        assert gpu_a.events.events_fired == gpu_b.events.events_fired

    def test_per_core_stats_identical(self):
        gpu_a, _ = run_once()
        gpu_b, _ = run_once()
        for core_a, core_b in zip(gpu_a.cores, gpu_b.cores):
            assert core_a.stats.dump() == core_b.stats.dump()
            assert core_a.cache_misses() == core_b.cache_misses()

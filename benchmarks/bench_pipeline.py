"""Figs. 2/3 sanity bench: the full pipeline, timing model vs reference.

Not a paper figure with numbers, but the foundation every figure rests
on: all pipeline stages execute, and the timing model's framebuffer is
pixel-identical to the functional reference renderer.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.common.config import DRAMConfig, GPUConfig
from repro.common.events import EventQueue
from repro.gpu.gpu import EmeraldGPU
from repro.harness.report import format_table
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_memory_by_name
from repro.pipeline.renderer import ReferenceRenderer

WIDTH, HEIGHT = 128, 96


def test_pipeline_equivalence(benchmark):
    session = SceneSession("teapot", WIDTH, HEIGHT)
    frame = session.frame(0)

    def run():
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
        gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), WIDTH, HEIGHT,
                         memory=memory)
        stats = gpu.run_frame(frame)
        return gpu, stats

    gpu, stats = run_once(benchmark, run)
    reference, ref_stats = ReferenceRenderer(WIDTH, HEIGHT).render(frame)

    rows = [
        ["cycles", stats.cycles, "-"],
        ["fragment cycles", stats.fragment_cycles, "-"],
        ["vertices shaded", "-", ref_stats.vertices_shaded],
        ["prims rasterized", stats.prims_rasterized,
         ref_stats.rasterized_primitives],
        ["fragments shaded", stats.fragments, ref_stats.fragments_shaded],
        ["TC tiles", stats.tc_tiles, "-"],
        ["L2 accesses", stats.l2_accesses, "-"],
        ["DRAM bytes", stats.dram_bytes, "-"],
    ]
    print()
    print(format_table(["metric", "timing model", "reference"], rows,
                       title="Pipeline equivalence (teapot frame)"))

    assert np.allclose(gpu.fb.color, reference.color), \
        "timing model image must match the reference renderer exactly"
    assert np.allclose(gpu.fb.depth, reference.depth)
    # Hi-Z may cull occluded fragments the (Hi-Z-less) reference shades and
    # then kills in-shader; work is conserved modulo that cull.
    assert (stats.fragments + stats.hiz_culled_fragments
            == ref_stats.fragments_shaded)
    assert stats.cycles > 0 and stats.tc_tiles > 0

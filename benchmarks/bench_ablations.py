"""Ablations of the design choices DESIGN.md calls out.

Beyond the paper's figures: quantify the mechanisms individually.

* **Hi-Z**: disable the hierarchical-Z stage and measure the extra
  fragment shading on a depth-complex scene (paper Fig. 3 stage J).
* **TC coalescing**: shrink the TCE staging bins to 1 (every raster tile
  its own shading batch) and measure warp-count/time inflation
  (Fig. 7's motivation).
* **Energy**: the DFSL energy argument — a faster WT choice burns less
  leakage for the same shaded work (§6.3's motivation).
"""

import numpy as np
import pytest
from dataclasses import replace

from benchmarks.conftest import run_once
from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.gl.context import GLContext
from repro.gl.state import CullMode, DepthFunc
from repro.gpu.energy import measure_frame_energy
from repro.gpu.gpu import EmeraldGPU
from repro.harness.case_study2 import CS2Config, make_gpu as cs2_gpu
from repro.harness.report import format_table
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_memory_by_name

WIDTH, HEIGHT = 96, 96

FLAT_VS = "in vec3 position;\nvoid main() { gl_Position = vec4(position, 1.0); }"
FLAT_FS = ("uniform vec4 flat_color;\n"
           "void main() { gl_FragColor = flat_color; }")


def depth_complex_frame():
    """Five stacked full-screen layers drawn front to back."""
    from repro.geometry.mesh import Mesh
    ctx = GLContext(WIDTH, HEIGHT)
    ctx.use_program(FLAT_VS, FLAT_FS)
    ctx.set_state(cull=CullMode.NONE, depth_func=DepthFunc.LEQUAL)
    for i, z in enumerate(np.linspace(-0.8, 0.8, 5)):
        ctx.set_uniform("flat_color", [0.2 * (i + 1), 0.2, 0.2, 1.0])
        quad = Mesh(
            positions=np.array([[-1.0, -1.0, z], [1.0, -1.0, z],
                                [-1.0, 1.0, z], [1.0, 1.0, z]]),
            indices=np.array([0, 1, 2, 1, 3, 2]), name=f"layer{i}")
        ctx.draw_mesh(quad)
    return ctx.end_frame()


def build_gpu(hiz_enabled=True, tc_bins=4):
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    config = scaled_gpu(GPUConfig(num_clusters=2))
    raster = replace(config.raster, hiz_enabled=hiz_enabled,
                     tc_bins_per_engine=tc_bins)
    config = replace(config, raster=raster)
    return EmeraldGPU(events, config, WIDTH, HEIGHT, memory=memory)


def test_ablation_hiz(benchmark):
    def run():
        frame = depth_complex_frame()
        with_hiz = build_gpu(hiz_enabled=True).run_frame(frame)
        without = build_gpu(hiz_enabled=False).run_frame(frame)
        return with_hiz, without

    with_hiz, without = run_once(benchmark, run)
    rows = [
        ["hiz_on", with_hiz.fragments, with_hiz.hiz_culled_fragments,
         with_hiz.cycles],
        ["hiz_off", without.fragments, without.hiz_culled_fragments,
         without.cycles],
    ]
    print()
    print(format_table(["config", "fragments_shaded", "hiz_culled",
                        "cycles"], rows,
                       title="Ablation — hierarchical-Z on a 5-layer "
                             "front-to-back scene"))
    assert with_hiz.hiz_culled_fragments > 0, "Hi-Z should cull something"
    assert without.hiz_culled_fragments == 0
    assert with_hiz.fragments < without.fragments, \
        "Hi-Z must reduce shaded fragments on occluded layers"


def test_ablation_tc_coalescing(benchmark):
    session = SceneSession("teapot", WIDTH, HEIGHT)
    frame = session.frame(0)

    def run():
        coalesced = build_gpu(tc_bins=4).run_frame(frame)
        uncoalesced = build_gpu(tc_bins=1).run_frame(frame)
        return coalesced, uncoalesced

    coalesced, uncoalesced = run_once(benchmark, run)
    rows = [
        ["bins=4", coalesced.tc_tiles, coalesced.cycles],
        ["bins=1", uncoalesced.tc_tiles, uncoalesced.cycles],
    ]
    print()
    print(format_table(["config", "tc_tiles", "cycles"], rows,
                       title="Ablation — TC staging capacity (teapot: many "
                             "micro-primitives)"))
    assert uncoalesced.tc_tiles > coalesced.tc_tiles, \
        "without staging capacity every raster tile becomes its own batch"


def test_ablation_dfsl_energy(benchmark):
    """DFSL's energy story: a better WT renders faster -> less leakage."""
    config = CS2Config()
    session = SceneSession("spot", config.width, config.height,
                           texture_size=config.texture_size)
    frames = [session.frame(i) for i in range(3)]

    def run():
        results = {}
        for wt in (1, 2, 10):
            gpu = cs2_gpu(config, wt)
            gpu.run_frame(frames[0])               # warm caches
            _, energy = measure_frame_energy(gpu, frames[1])
            stats = gpu.frame_history[-1]
            results[wt] = (stats, energy)
        return results

    results = run_once(benchmark, run)
    rows = []
    for wt, (stats, energy) in results.items():
        rows.append([wt, stats.fragment_cycles, stats.fragments,
                     round(energy.leakage * 1e-6, 3),
                     round(energy.total_uj, 3)])
    print()
    print(format_table(
        ["WT", "frag_cycles", "fragments", "leakage_uJ", "total_uJ"],
        rows, title="Ablation — energy vs WT size (W2, frame 1)"))

    # Same shaded work across WT sizes; slower distributions burn more.
    fragments = {wt: stats.fragments for wt, (stats, _) in results.items()}
    assert len(set(fragments.values())) == 1, "WT must not change the work"
    times = {wt: stats.fragment_cycles for wt, (stats, _) in results.items()}
    energies = {wt: e.total_pj for wt, (_, e) in results.items()}
    best_wt = min(times, key=times.get)
    worst_wt = max(times, key=times.get)
    assert energies[best_wt] < energies[worst_wt], \
        "the faster distribution must consume less energy (leakage)"

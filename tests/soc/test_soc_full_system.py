"""Full-system smoke tests: render loop, dependencies, checkpointing."""

import numpy as np
import pytest

from repro.common.config import DRAMConfig, GPUConfig, SoCTopology, scaled_gpu
from repro.harness.scenes import SceneSession
from repro.memory.builders import memory_topology_by_name
from repro.soc.checkpoint import GraphicsCheckpoint, capture
from repro.soc.soc import EmeraldSoC, SoCRunConfig


#: The machine the checkpoint tests stamp their snapshots with.
MACHINE = SoCRunConfig().topology.topology_hash()


def run_soc(memory_config="BAS", frames=2, width=64, height=48,
            data_rate=1333, **overrides):
    session = SceneSession("cube", width, height)
    dram = DRAMConfig(channels=2, data_rate_mbps=data_rate)
    config = SoCRunConfig(
        width=width, height=height, num_frames=frames,
        topology=SoCTopology(
            name=memory_config, gpu=scaled_gpu(GPUConfig(num_clusters=2)),
            memory=(memory_topology_by_name(memory_config, dram),)),
        gpu_frame_period_ticks=150_000,
        display_period_ticks=75_000,
        cpu_work_per_frame=60,
        **overrides,
    )
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    return soc, soc.run()


class TestFullSystem:
    @pytest.mark.parametrize("name", ["BAS", "DCB", "DTB", "HMC"])
    def test_all_memory_configs_run(self, name):
        soc, results = run_soc(memory_config=name)
        assert len(results.frames) == 2
        assert results.mean_gpu_time > 0
        assert results.mean_total_time > results.mean_gpu_time
        assert results.dram_bytes["gpu"] > 0
        assert results.dram_bytes["cpu"] > 0
        assert results.dram_bytes["display"] > 0

    def test_frame_lifecycle_ordering(self):
        soc, results = run_soc()
        for record in results.frames:
            assert record.start <= record.cpu_done <= record.gpu_done

    def test_cpu_idles_while_gpu_renders(self):
        """The app core issues no requests during the GPU phase."""
        soc, results = run_soc()
        # App core requests = cpu_work_per_frame * frames exactly: it only
        # works during the prepare phase.
        app_requests = soc.cpus.app_core.stats.counter("requests").value
        assert app_requests == 60 * 2

    def test_display_scanout_active(self):
        soc, results = run_soc()
        assert results.display_requests > 0
        assert results.display_completed > 0

    def test_gpu_image_rendered(self):
        soc, results = run_soc()
        assert soc.gpu.fb.coverage() > 0.01

    def test_hmc_partitions_traffic(self):
        soc, results = run_soc(memory_config="HMC")
        cpu_channel = soc.memory.channels[0]
        ip_channel = soc.memory.channels[1]
        assert cpu_channel.stats.counter("bytes.gpu").value == 0
        assert cpu_channel.stats.counter("bytes.display").value == 0
        assert ip_channel.stats.counter("bytes.cpu").value == 0

    def test_dash_sees_gpu_progress(self):
        soc, results = run_soc(memory_config="DCB", frames=3)
        from repro.memory.request import SourceType
        state = soc.dash_state.ip_state(SourceType.GPU)
        assert state is not None
        assert state.progress > 0.0

    def test_deterministic(self):
        _, a = run_soc()
        _, b = run_soc()
        assert a.mean_gpu_time == b.mean_gpu_time
        assert a.end_tick == b.end_tick
        assert a.dram_bytes == b.dram_bytes


class TestCheckpoint:
    def test_roundtrip(self):
        session = SceneSession("cube", 32, 32)
        frames = [session.frame(i) for i in range(2)]
        checkpoint = capture(frames, tick=12345, frame_index=2,
                             topology=MACHINE)
        restored = GraphicsCheckpoint.from_json(checkpoint.to_json())
        assert restored.tick == 12345
        assert restored.frame_index == 2
        replayed = restored.restore_frames()
        assert len(replayed) == 2
        assert replayed[0].num_primitives == frames[0].num_primitives

    def test_restored_frames_render_identically(self):
        from repro.pipeline.renderer import ReferenceRenderer
        session = SceneSession("cube", 32, 32)
        original = session.frame(0)
        checkpoint = capture([original], tick=0, frame_index=1,
                             topology=MACHINE)
        restored = GraphicsCheckpoint.from_json(
            checkpoint.to_json()).restore_frames()[0]
        fb_a, _ = ReferenceRenderer(32, 32).render(original)
        fb_b, _ = ReferenceRenderer(32, 32).render(restored)
        assert np.allclose(fb_a.color, fb_b.color)

    def test_bad_version(self):
        with pytest.raises(ValueError):
            GraphicsCheckpoint.from_json('{"version": 2}')

"""Tests for the Android-like render loop."""

import pytest

from repro.common.config import DRAMConfig, GPUConfig, scaled_gpu
from repro.common.events import EventQueue
from repro.gpu.gpu import EmeraldGPU
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_memory_by_name
from repro.memory.request import SourceType
from repro.soc.android import RenderLoop
from repro.soc.cpu import CPUCore, CPUCoreConfig


def make_loop(num_frames=3, period=200_000, dash=False, cpu_work=20,
              cpu_fixed=0):
    events = EventQueue()
    if dash:
        memory, dash_state = build_memory_by_name("DCB", events, DRAMConfig(channels=2))
        dash_state.register_ip(SourceType.GPU, period)
    else:
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
        dash_state = None
    gpu = EmeraldGPU(events, scaled_gpu(GPUConfig(num_clusters=2)), 64, 48,
                     memory=memory)
    app_core = CPUCore(events, 0, memory,
                       CPUCoreConfig(active=False), base_address=0x9000_0000)
    session = SceneSession("cube", 64, 48)
    loop = RenderLoop(events, gpu, app_core, session.frame,
                      num_frames=num_frames, frame_period_ticks=period,
                      cpu_work_per_frame=cpu_work,
                      cpu_fixed_ticks=cpu_fixed, dash_state=dash_state)
    return events, loop, dash_state


class TestRenderLoop:
    def test_runs_requested_frames(self):
        events, loop, _ = make_loop(num_frames=3)
        loop.start()
        events.run()
        assert loop.finished
        assert len(loop.records) == 3
        assert all(r.gpu_done > r.cpu_done > r.start for r in loop.records)

    def test_frame_pacing_to_period(self):
        events, loop, _ = make_loop(num_frames=3, period=150_000)
        loop.start()
        events.run()
        starts = [r.start for r in loop.records]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(g == 150_000 for g in gaps), \
            "a fast app must pace frames to its period"

    def test_behind_schedule_starts_immediately(self):
        events, loop, _ = make_loop(num_frames=3, period=100)
        loop.start()
        events.run()
        assert loop.stats.counter("missed_periods").value >= 2

    def test_cpu_fixed_ticks_lengthen_cpu_phase(self):
        events_a, loop_a, _ = make_loop(num_frames=2, cpu_fixed=0)
        loop_a.start()
        events_a.run()
        events_b, loop_b, _ = make_loop(num_frames=2, cpu_fixed=30_000)
        loop_b.start()
        events_b.run()
        assert (loop_b.records[0].cpu_time
                >= loop_a.records[0].cpu_time + 30_000)

    def test_mean_metrics_skip_warmup(self):
        events, loop, _ = make_loop(num_frames=3)
        loop.start()
        events.run()
        assert loop.mean_gpu_time(skip=1) > 0
        assert loop.mean_total_time(skip=1) >= loop.mean_gpu_time(skip=1)
        assert 0.0 <= loop.achieved_fps_fraction() <= 1.0

    def test_gpu_progress_reported_to_dash(self):
        events, loop, dash_state = make_loop(num_frames=3, dash=True)
        loop.start()
        events.run()
        state = dash_state.ip_state(SourceType.GPU)
        assert state is not None
        assert state.progress == 1.0       # final report at frame end

    def test_first_frame_reports_on_track(self):
        """Without history the driver must not let the GPU look stalled."""
        events, loop, dash_state = make_loop(num_frames=1, dash=True)
        progress_seen = []
        original = dash_state.report_ip_progress

        def spy(source, fraction, now):
            if source is SourceType.GPU:
                progress_seen.append(fraction)
            original(source, fraction, now)

        dash_state.report_ip_progress = spy
        loop.start()
        events.run()
        assert progress_seen[0] == 1.0

    def test_on_finished_callback(self):
        called = []
        events, loop, _ = make_loop(num_frames=1)
        loop.on_finished = lambda: called.append(True)
        loop.start()
        events.run()
        assert called == [True]

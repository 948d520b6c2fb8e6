"""Tests for the CPU traffic model."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.memory.builders import build_baseline_memory
from repro.memory.request import SourceType
from repro.soc.cpu import CPUCluster, CPUCore, CPUCoreConfig


def make_system():
    events = EventQueue()
    memory = build_baseline_memory(events, DRAMConfig(channels=1))
    return events, memory


class TestCPUCore:
    def test_job_completes_and_fires_callback(self):
        events, memory = make_system()
        core = CPUCore(events, 0, memory,
                       CPUCoreConfig(active=False), base_address=0)
        done = []
        core.start_job(20, on_done=lambda: done.append(events.now))
        events.run()
        assert len(done) == 1
        assert core.stats.counter("requests").value == 20

    def test_zero_work_job_fires_immediately(self):
        events, memory = make_system()
        core = CPUCore(events, 0, memory,
                       CPUCoreConfig(active=False), base_address=0)
        done = []
        core.start_job(0, on_done=lambda: done.append(True))
        assert done == [True]

    def test_concurrent_jobs_rejected(self):
        events, memory = make_system()
        core = CPUCore(events, 0, memory,
                       CPUCoreConfig(active=False), base_address=0)
        core.start_job(10, on_done=lambda: None)
        with pytest.raises(RuntimeError):
            core.start_job(5, on_done=lambda: None)

    def test_outstanding_window_respected(self):
        events, memory = make_system()
        config = CPUCoreConfig(outstanding=2, active=False)
        core = CPUCore(events, 0, memory, config, base_address=0)
        core.start_job(10, on_done=lambda: None)
        # Before any completion, only the window has issued.
        assert core.stats.counter("requests").value == 2
        events.run()
        assert core.stats.counter("requests").value == 10

    def test_job_duration_depends_on_memory_latency(self):
        """Feedback: slower DRAM -> slower CPU job (the trace-based blind spot)."""
        def run_with(data_rate):
            events = EventQueue()
            memory = build_baseline_memory(
                events, DRAMConfig(channels=1, data_rate_mbps=data_rate))
            core = CPUCore(events, 0, memory,
                           CPUCoreConfig(active=False), base_address=0)
            done = []
            core.start_job(50, on_done=lambda: done.append(events.now))
            events.run()
            return done[0]

        assert run_with(133) > run_with(1333) * 1.5

    def test_locality_pattern(self):
        """Run-length sequential accesses produce row-buffer hits."""
        events, memory = make_system()
        core = CPUCore(events, 0, memory,
                       CPUCoreConfig(run_length=16, active=False),
                       base_address=0)
        core.start_job(64, on_done=lambda: None)
        events.run()
        assert memory.row_hit_rate() > 0.4

    def test_deterministic_with_seed(self):
        def run_once():
            events, memory = make_system()
            core = CPUCore(events, 0, memory,
                           CPUCoreConfig(active=False), base_address=0,
                           seed=3)
            done = []
            core.start_job(30, on_done=lambda: done.append(events.now))
            events.run()
            return done[0]

        assert run_once() == run_once()

    def test_background_mode_runs_until_stopped(self):
        events, memory = make_system()
        core = CPUCore(events, 1, memory,
                       CPUCoreConfig(think_time=10), base_address=0)
        core.start_background()
        events.run_until(5_000)
        issued = core.stats.counter("requests").value
        assert issued > 10
        core.stop_background()
        events.run()
        final = core.stats.counter("requests").value
        assert final - issued <= core.config.outstanding


class TestCPUCluster:
    def test_cluster_profile_grading(self):
        """Background cores have distinct intensities for TCM to classify."""
        events, memory = make_system()
        cluster = CPUCluster(events, memory, num_cores=4)
        cluster.start_background()
        events.run_until(30_000)
        cluster.stop_background()
        requests = [core.stats.counter("requests").value
                    for core in cluster.cores]
        assert requests[0] == 0          # app core idle without a job
        assert requests[1] > requests[3] * 2   # heavy vs light thread

    def test_app_core_accessor(self):
        events, memory = make_system()
        cluster = CPUCluster(events, memory)
        assert cluster.app_core is cluster.cores[0]

    def test_needs_one_core(self):
        events, memory = make_system()
        with pytest.raises(ValueError):
            CPUCluster(events, memory, num_cores=0)

    def test_total_requests(self):
        events, memory = make_system()
        cluster = CPUCluster(events, memory)
        cluster.app_core.start_job(10, on_done=lambda: None)
        events.run()
        assert cluster.total_requests() == 10

"""Tests for TCM clustering and the DASH scheduler."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.memory.builders import build_memory_by_name
from repro.memory.dash import DashConfig, DashScheduler, DashState, IPDeadlineState
from repro.memory.request import MemRequest, SourceType
from repro.memory.tcm import IntensityClassifier


class TestIntensityClassifier:
    def test_initial_state_nonintensive(self):
        c = IntensityClassifier()
        assert not c.is_intensive(0)

    def test_heavy_thread_becomes_intensive(self):
        c = IntensityClassifier(cluster_threshold=0.15, quantum_ticks=100)
        c.note_traffic(SourceType.CPU, 0, 100)       # light
        c.note_traffic(SourceType.CPU, 1, 10_000)    # heavy
        assert c.maybe_advance_quantum(now=100)
        assert c.is_intensive(1)
        assert not c.is_intensive(0)

    def test_quantum_not_elapsed(self):
        c = IntensityClassifier(quantum_ticks=1000)
        c.note_traffic(SourceType.CPU, 0, 10_000)
        assert not c.maybe_advance_quantum(now=10)
        assert not c.is_intensive(0)

    def test_ip_bandwidth_changes_classification(self):
        """DTB: huge IP traffic inflates the budget, CPUs stay non-intensive."""
        def classify(include_ip):
            c = IntensityClassifier(cluster_threshold=0.15, quantum_ticks=10,
                                    include_ip_bandwidth=include_ip)
            c.note_traffic(SourceType.CPU, 0, 1000)
            c.note_traffic(SourceType.CPU, 1, 1200)
            c.note_traffic(SourceType.GPU, 0, 100_000)
            c.maybe_advance_quantum(now=10)
            return c.intensive_threads

        dcb = classify(include_ip=False)   # budget 0.15*2200 -> both intensive-ish
        dtb = classify(include_ip=True)    # budget 0.15*102200 -> all light
        assert len(dtb) < len(dcb)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            IntensityClassifier(cluster_threshold=0.0)

    def test_empty_quantum_resets(self):
        c = IntensityClassifier(quantum_ticks=10)
        c.note_traffic(SourceType.CPU, 0, 10_000)
        c.maybe_advance_quantum(now=10)
        assert c.is_intensive(0)
        c.maybe_advance_quantum(now=20)
        assert not c.is_intensive(0)


class TestIPDeadlineState:
    def test_on_schedule_not_urgent(self):
        state = IPDeadlineState(period_ticks=1000, emergent_threshold=0.8)
        state.start_period(0)
        state.report_progress(0.5, now=500)   # exactly on schedule
        assert not state.urgent

    def test_behind_schedule_urgent(self):
        state = IPDeadlineState(period_ticks=1000, emergent_threshold=0.8)
        state.start_period(0)
        state.report_progress(0.2, now=500)   # expected 0.5, 0.2 < 0.8*0.5
        assert state.urgent

    def test_fresh_period_never_urgent(self):
        """A frame that just started has expected progress ~0 (Fig. 14-6)."""
        state = IPDeadlineState(period_ticks=1000, emergent_threshold=0.8)
        state.start_period(1000)
        state.report_progress(0.0, now=1000)
        assert not state.urgent

    def test_progress_clamped(self):
        state = IPDeadlineState(period_ticks=100, emergent_threshold=0.8)
        state.report_progress(3.0, now=50)
        assert state.progress == 1.0


def run_dash_system(reports=None, include_ip_bandwidth=False):
    """Queue CPU + GPU requests against a DASH memory system."""
    events = EventQueue()
    system, state = build_memory_by_name(
        "DTB" if include_ip_bandwidth else "DCB", events,
        DRAMConfig(channels=1),
        dash_config=DashConfig(switching_unit=100, quantum=500))
    gpu_ip = state.register_ip(SourceType.GPU, period_ticks=100_000)
    if reports:
        for fraction, time in reports:
            gpu_ip.start_period(0)
            gpu_ip.report_progress(fraction, time)
    return events, system, state


class TestDashScheduler:
    def _completion_order(self, state_progress, now=50_000):
        """Submit one GPU and one CPU request; report GPU progress first."""
        events = EventQueue()
        system, state = build_memory_by_name(
            "DCB", events, DRAMConfig(channels=1))
        state.register_ip(SourceType.GPU, period_ticks=100_000)
        state.start_ip_period(SourceType.GPU, 0)
        events.run_until(now)
        state.report_ip_progress(SourceType.GPU, state_progress, now)
        order = []
        row_stride = 16 * 8 * 128
        # Same bank, different rows: scheduling order decides completion.
        gpu = MemRequest(address=0, size=128, write=False,
                        source=SourceType.GPU,
                        callback=lambda r: order.append("gpu"))
        cpu = MemRequest(address=row_stride, size=128, write=False,
                        source=SourceType.CPU,
                        callback=lambda r: order.append("cpu"))
        port = RequestPort("test.sender").connect(system)
        port.send(gpu)
        port.send(cpu)
        events.run()
        return order

    def test_urgent_gpu_beats_cpu(self):
        # Progress 0.05 at half period -> urgent.
        order = self._completion_order(state_progress=0.05)
        assert order[0] == "gpu"

    def test_nonurgent_gpu_loses_to_nonintensive_cpu(self):
        # On-schedule GPU: CPU threads (non-intensive by default) win.
        order = self._completion_order(state_progress=0.99)
        assert order[0] == "cpu"

    def test_probability_update_balances_service(self):
        state = DashState(DashConfig())
        state.probability = 0.5
        state._served_intensive = 10
        state._served_nonurgent_ip = 0
        state._update_probability()
        assert state.probability < 0.5
        state._served_intensive = 0
        state._served_nonurgent_ip = 10
        before = state.probability
        state._update_probability()
        assert state.probability > before

    def test_switching_is_deterministic_with_seed(self):
        def run_once():
            state = DashState(DashConfig(seed=42, switching_unit=10))
            outcomes = []
            for now in range(0, 200, 10):
                state.advance(now)
                outcomes.append(state.intensive_cpu_first)
            return outcomes

        assert run_once() == run_once()

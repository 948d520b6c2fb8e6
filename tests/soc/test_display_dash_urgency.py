"""Display + DASH urgency interplay under starvation."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.memory.builders import build_memory_by_name
from repro.memory.request import SourceType
from repro.soc.display import DisplayController
from tests.fake_memory import send


def starved_display(period=20_000, competing_gpu_requests=600):
    events = EventQueue()
    memory, state = build_memory_by_name(
        "DCB", events, DRAMConfig(channels=1, data_rate_mbps=400))
    state.register_ip(SourceType.DISPLAY, period)
    state.register_ip(SourceType.GPU, period * 2)
    display = DisplayController(events, memory,
                                framebuffer_address=0x1000_0000,
                                frame_bytes=96 * 96 * 4,
                                period_ticks=period, dash_state=state)
    # GPU floods the channel, paced over the run so the queue stays mixed.
    state.start_ip_period(SourceType.GPU, 0)
    state.report_ip_progress(SourceType.GPU, 1.0, 0)    # GPU never urgent
    for i in range(competing_gpu_requests):
        events.schedule(i * 50, send, memory, 0x4000_0000 + i * 128)
    return events, display, state


class TestDisplayUrgency:
    def test_display_becomes_urgent_when_behind(self):
        events, display, state = starved_display()
        display.start()
        urgency_seen = []
        ip = state.ip_state(SourceType.DISPLAY)
        original = state.report_ip_progress

        def spy(source, fraction, now):
            original(source, fraction, now)
            if source is SourceType.DISPLAY:
                urgency_seen.append(ip.urgent)

        state.report_ip_progress = spy
        events.run_until(4 * 20_000)
        display.stop()
        events.run()
        assert any(urgency_seen), \
            "a starved display must eventually be classified urgent"

    def test_fresh_display_frame_not_urgent(self):
        """Fig. 14-6's observation: a frame that just started is
        non-urgent even if the previous one was aborted."""
        events, display, state = starved_display()
        display.start()
        events.run_until(100)      # just after the first vsync
        ip = state.ip_state(SourceType.DISPLAY)
        assert not ip.urgent

    def test_display_progress_monotone_within_frame(self):
        events, display, state = starved_display(competing_gpu_requests=0)
        display.start()
        fractions = []
        original = state.report_ip_progress

        def spy(source, fraction, now):
            original(source, fraction, now)
            if source is SourceType.DISPLAY:
                fractions.append(fraction)

        state.report_ip_progress = spy
        events.run_until(15_000)
        display.stop()
        events.run()
        assert fractions == sorted(fractions)

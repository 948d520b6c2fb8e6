"""Tests for the display controller."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.memory.builders import build_memory_by_name
from repro.memory.request import SourceType
from repro.soc.display import DisplayController


def make_display(period=50_000, frame_bytes=64 * 64 * 4, data_rate=1333,
                 dash=False):
    events = EventQueue()
    if dash:
        memory, state = build_memory_by_name(
            "DCB", events, DRAMConfig(channels=1, data_rate_mbps=data_rate))
        state.register_ip(SourceType.DISPLAY, period)
    else:
        memory, _ = build_memory_by_name(
            "BAS", events, DRAMConfig(channels=1, data_rate_mbps=data_rate))
        state = None
    display = DisplayController(events, memory,
                                framebuffer_address=0x1000_0000,
                                frame_bytes=frame_bytes,
                                period_ticks=period, dash_state=state)
    return events, display, memory


class TestScanout:
    def test_completes_frames_under_light_load(self):
        events, display, memory = make_display()
        display.start()
        events.run_until(3 * 50_000)
        display.stop()
        events.run()
        assert display.frames_completed >= 2
        assert display.frames_aborted == 0

    def test_sequential_addresses_hit_rows(self):
        events, display, memory = make_display()
        display.start()
        events.run_until(50_000)
        display.stop()
        events.run()
        assert memory.row_hit_rate() > 0.8     # scanout is sequential

    def test_bytes_accounted(self):
        events, display, memory = make_display(frame_bytes=32 * 32 * 4)
        display.start()
        events.run_until(50_000)
        display.stop()
        events.run()
        assert display.stats.counter("bytes").value >= 32 * 32 * 4

    def test_starved_display_aborts(self):
        """At a tiny DRAM rate the scanout cannot keep up and aborts."""
        events, display, memory = make_display(
            period=5_000, frame_bytes=256 * 256 * 4, data_rate=133)
        display.start()
        events.run_until(10 * 5_000)
        display.stop()
        events.run()
        assert display.frames_aborted > 0

    def test_abort_then_retry_next_vsync(self):
        events, display, memory = make_display(
            period=5_000, frame_bytes=256 * 256 * 4, data_rate=133)
        display.start()
        events.run_until(20 * 5_000)
        display.stop()
        events.run()
        # Several vsyncs happened; each aborted frame was retried.
        assert display.stats.counter("vsyncs").value >= 15
        assert display.frames_aborted >= 2

    def test_validation(self):
        events = EventQueue()
        with pytest.raises(ValueError):
            DisplayController(events, lambda r: None, 0, frame_bytes=0,
                              period_ticks=100)

    def test_progress_reported_to_dash(self):
        events, display, memory = make_display(dash=True)
        display.start()
        events.run_until(25_000)
        state = display.dash_state.ip_state(SourceType.DISPLAY)
        assert state is not None
        assert 0.0 < state.progress <= 1.0

    def test_requests_serviced_counter(self):
        events, display, _ = make_display(frame_bytes=16 * 16 * 4)
        display.start()
        events.run_until(50_000)
        display.stop()
        events.run()
        assert display.requests_serviced >= (16 * 16 * 4) // 256

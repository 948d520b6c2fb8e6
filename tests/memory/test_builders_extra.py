"""Extra coverage for memory builders and DASH edge cases."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.memory.builders import build_memory_by_name
from repro.memory.dash import DashConfig, DashState
from repro.memory.request import MemRequest, SourceType


class TestDashConfigPlumbing:
    def test_custom_dash_config_applied(self):
        events = EventQueue()
        config = DashConfig(quantum=12345, switching_unit=77)
        _, state = build_memory_by_name("DCB", events, DRAMConfig(),
                                        dash_config=config)
        assert state.config.quantum == 12345
        assert state.config.switching_unit == 77
        assert not state.config.include_ip_bandwidth

    def test_dtb_overrides_bandwidth_flag(self):
        events = EventQueue()
        config = DashConfig(include_ip_bandwidth=False)
        _, state = build_memory_by_name("DTB", events, DRAMConfig(),
                                        dash_config=config)
        assert state.config.include_ip_bandwidth

    def test_dash_shared_across_channels(self):
        """Both channels' schedulers share one DashState (global view)."""
        events = EventQueue()
        system, state = build_memory_by_name("DCB", events, DRAMConfig(channels=2))
        assert system.channels[0].scheduler.state is state
        assert system.channels[1].scheduler.state is state


class TestDashUnregisteredIP:
    def test_unknown_ip_treated_as_nonurgent(self):
        """Traffic from an IP nobody registered must still be schedulable."""
        events = EventQueue()
        system, state = build_memory_by_name("DCB", events, DRAMConfig(channels=1))
        done = []
        RequestPort("display.mem").connect(system).send(MemRequest(
            address=0, size=128, write=False, source=SourceType.DISPLAY,
            callback=done.append))
        events.run()
        assert len(done) == 1

    def test_progress_report_for_unregistered_ip_ignored(self):
        state = DashState(DashConfig())
        state.report_ip_progress(SourceType.GPU, 0.5, 100)   # no crash
        assert state.ip_state(SourceType.GPU) is None

    def test_start_period_for_unregistered_ip_ignored(self):
        state = DashState(DashConfig())
        state.start_ip_period(SourceType.DISPLAY, 5)         # no crash

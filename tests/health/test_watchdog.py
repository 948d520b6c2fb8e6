"""Watchdog unit tests: lifecycle tracking, deadlines, hang detection."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.health.interpose import WatchdogTap
from repro.health.watchdog import Watchdog, WatchdogReport, WatchdogTimeout
from repro.memory.builders import build_memory_by_name
from repro.memory.request import MemRequest, SourceType


def _request(address=0x1000, source=SourceType.CPU, source_id=1,
             callback=None, deadline=None):
    return MemRequest(address=address, size=128, write=False, source=source,
                      source_id=source_id, callback=callback,
                      deadline=deadline)


class TestLifecycle:
    def test_track_and_retire(self):
        events = EventQueue()
        wd = Watchdog(events, request_timeout=1000, check_period=100)
        request = _request()
        wd.track(request)
        assert wd.in_flight == 1
        wd.retire(request)
        assert wd.in_flight == 0
        assert wd.stats.counter("retired").value == 1

    def test_idle_watchdog_lets_queue_drain(self):
        """The check ticker only runs while requests are in flight —
        an armed watchdog must not keep an idle simulation alive."""
        events = EventQueue()
        wd = Watchdog(events, request_timeout=1000, check_period=100)
        request = _request()
        wd.track(request)
        events.schedule(50, wd.retire, request)
        result = events.run(max_events=100)
        assert result.drained
        assert wd.in_flight == 0

    def test_retire_unknown_request_is_noop(self):
        events = EventQueue()
        wd = Watchdog(events, request_timeout=1000, check_period=100)
        wd.retire(_request())
        assert wd.stats.counter("retired").value == 0


class TestTimeouts:
    def test_stuck_request_detected_within_bounded_ticks(self):
        """A request whose reply never arrives is reported — with owner
        and age — no later than timeout + one check period."""
        events = EventQueue()
        wd = Watchdog(events, request_timeout=1000, check_period=100)
        request = _request(address=0xBEEF, source=SourceType.CPU,
                           source_id=2)
        wd.track(request)
        # Keep the clock moving (the hang scenario: unrelated events fire).
        for t in range(0, 3000, 50):
            events.schedule(t, lambda: None)
        with pytest.raises(WatchdogTimeout) as excinfo:
            events.run()
        report = excinfo.value.report
        assert report.kind == "request-timeout"
        assert report.owner == "cpu2"
        assert report.address == 0xBEEF
        assert report.age >= 1000
        assert events.now <= 1000 + 100     # bounded detection latency
        assert "cpu2" in str(excinfo.value)

    def test_per_request_deadline_overrides_default(self):
        events = EventQueue()
        wd = Watchdog(events, request_timeout=100_000, check_period=50)
        wd.track(_request(deadline=200))
        for t in range(0, 1000, 10):
            events.schedule(t, lambda: None)
        with pytest.raises(WatchdogTimeout):
            events.run()
        assert events.now <= 300

    def test_on_timeout_collects_instead_of_raising(self):
        events = EventQueue()
        reports: list[WatchdogReport] = []
        wd = Watchdog(events, request_timeout=500, check_period=100,
                      on_timeout=reports.append)
        wd.track(_request())
        for t in range(0, 2000, 50):
            events.schedule(t, lambda: None)
        result = events.run()
        assert result.drained
        assert len(reports) == 1            # reported once, not per check
        assert wd.reports == reports

    def test_no_progress_stall_detected(self):
        """Livelock: requests keep entering, none retire."""
        events = EventQueue()
        wd = Watchdog(events, request_timeout=100_000, check_period=100,
                      stall_window=1000)
        wd.track(_request())

        def keep_busy(t):
            events.schedule(t, lambda: None)

        for t in range(0, 5000, 50):
            keep_busy(t)
        with pytest.raises(WatchdogTimeout) as excinfo:
            events.run()
        assert excinfo.value.report.kind == "no-progress"
        assert events.now <= 1000 + 100


class TestStandaloneAttachment:
    def test_memory_system_attach_watchdog(self):
        """Standalone (no-NoC) runs track lifecycles with a WatchdogTap in
        front of the memory; a serviced request retires normally."""
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
        wd = Watchdog(events, request_timeout=100_000, check_period=1000)
        tap = WatchdogTap(wd, name="memory.watchdog").connect(memory)
        done = []
        RequestPort("cpu1.mem").connect(tap).send(
            _request(callback=done.append))
        result = events.run()
        assert result.drained
        assert done and done[0].complete_time is not None
        assert wd.in_flight == 0
        assert wd.stats.counter("tracked").value == 1

"""Resource-leak and liveness sweeps over registered components."""

import pytest

from repro.common.config import CacheConfig
from repro.common.events import EventQueue
from repro.common.ports import Link, RequestPort, ResponsePort
from repro.gpu.caches import Cache
from repro.health.watchdog import Watchdog
from repro.memory.dram import QueuedRequest
from repro.memory.request import MemRequest, SourceType
from repro.sanitize import (
    LivenessViolation,
    ResourceLeakViolation,
    SanitizeConfig,
    Sanitizer,
)
from tests.fake_memory import send


def make_request(address=0x1000):
    return MemRequest(address=address, size=64, write=False,
                      source=SourceType.CPU)


class RefusingSink:
    def __init__(self):
        self.ingress = ResponsePort("sink.in", lambda request: False,
                                    owner=self)


class SwallowingSink:
    """Accepts every packet and never answers."""

    def __init__(self):
        self.ingress = ResponsePort("sink.in", lambda request: True,
                                    owner=self)


class FakeChannel:
    """Duck-typed DRAM channel: the two attributes the sweep reads."""

    channel_id = 0

    def __init__(self):
        self.pending = []


class TestMSHRLeak:
    def make_leaky_cache(self, events):
        # The next level swallows fills and never replies: every miss's
        # MSHR entry is allocated and never freed.
        return Cache(events, CacheConfig(1024, ways=2), "l1",
                     SwallowingSink())

    def test_aged_entry_raises(self):
        events = EventQueue()
        cache = self.make_leaky_cache(events)
        sanitizer = Sanitizer(events, SanitizeConfig(mshr_age=1_000))
        sanitizer.register_cache(cache)
        send(cache, 0, done=lambda _: None)
        sanitizer.sweep(500)                    # in flight, young: fine
        with pytest.raises(ResourceLeakViolation) as excinfo:
            sanitizer.sweep(5_000)
        assert excinfo.value.details["resource"] == "mshr"
        assert excinfo.value.details["occupancy"] == 1
        assert excinfo.value.owner == "l1"

    def test_entry_allocation_tick_is_stamped(self):
        events = EventQueue()
        cache = self.make_leaky_cache(events)
        events.schedule(750, send, cache, 0)
        events.run()
        (entry,) = cache._mshrs.values()
        assert entry.allocated_at == 750

    def test_drain_audit_flags_young_entries_too(self):
        events = EventQueue()
        cache = self.make_leaky_cache(events)
        sanitizer = Sanitizer(events, SanitizeConfig(mshr_age=10**9,
                                                     mode="record"))
        sanitizer.register_cache(cache)
        send(cache, 0, done=lambda _: None)
        stranded = sanitizer.check_drained()
        assert [v.kind for v in stranded] == ["resource-leak"]


class TestDRAMQueueLeak:
    def test_aged_queue_entry_raises(self):
        events = EventQueue()
        channel = FakeChannel()
        channel.pending.append(
            QueuedRequest(make_request(0xbeef00), None, 100))
        sanitizer = Sanitizer(events, SanitizeConfig(dram_queue_age=1_000))
        sanitizer.register_dram_channel(channel)
        sanitizer.sweep(800)
        with pytest.raises(ResourceLeakViolation) as excinfo:
            sanitizer.sweep(2_000)
        assert excinfo.value.details["resource"] == "dram-queue"
        assert excinfo.value.details["address"] == 0xbeef00
        assert excinfo.value.owner == "dram.ch0"


class TestInflightLeak:
    def test_aged_watchdog_tracked_request_raises(self):
        events = EventQueue()
        watchdog = Watchdog(events, request_timeout=10**9)
        watchdog.track(make_request(0xcafe00))
        sanitizer = Sanitizer(events, SanitizeConfig(inflight_age=1_000))
        sanitizer.register_watchdog(watchdog)
        with pytest.raises(ResourceLeakViolation) as excinfo:
            sanitizer.sweep(5_000)
        assert excinfo.value.details["resource"] == "inflight-request"
        assert excinfo.value.details["in_flight"] == 1

    def test_retired_request_stops_counting(self):
        events = EventQueue()
        watchdog = Watchdog(events, request_timeout=10**9)
        request = make_request()
        watchdog.track(request)
        watchdog.retire(request)
        sanitizer = Sanitizer(events, SanitizeConfig(inflight_age=1_000))
        sanitizer.register_watchdog(watchdog)
        sanitizer.sweep(10**6)
        assert sanitizer.violations == []


class TestLinkBufferLeak:
    def test_parked_packet_raises_after_window(self):
        events = EventQueue()
        link = Link(events, "l", latency=1, capacity=4)
        link.connect(RefusingSink())
        RequestPort("p").connect(link).try_send(make_request(0xabc00))
        events.run()                            # packet parked in ready queue
        assert link.occupancy == 1
        sanitizer = Sanitizer(events, SanitizeConfig(link_age=1_000))
        sanitizer.register_link(link)
        with pytest.raises(ResourceLeakViolation) as excinfo:
            sanitizer.sweep(events.now + 2_000)
        assert excinfo.value.details["resource"] == "link-buffer"
        assert excinfo.value.details["occupancy"] == 1


class TestLiveness:
    def test_outstanding_work_with_no_progress_raises(self):
        events = EventQueue()
        sanitizer = Sanitizer(events, SanitizeConfig(
            liveness_window=1_000, max_block_age=10**9)).install()
        try:
            sink = RefusingSink()
            RequestPort("p").connect(sink.ingress).try_send(make_request())
            with pytest.raises(LivenessViolation) as excinfo:
                sanitizer.sweep(5_000)
            assert excinfo.value.details["outstanding"] == 1
        finally:
            sanitizer.uninstall()

    def test_progress_resets_the_window(self):
        events = EventQueue()
        sanitizer = Sanitizer(events, SanitizeConfig(
            liveness_window=1_000, max_block_age=10**9)).install()
        try:
            sink = RefusingSink()
            port = RequestPort("p").connect(sink.ingress)
            port.try_send(make_request())
            sanitizer.port_delivered(RequestPort("q"), object())  # progress
            sanitizer._last_progress = events.now
            sanitizer.sweep(500)
            assert sanitizer.violations == []
        finally:
            sanitizer.uninstall()

    def test_idle_system_never_trips_liveness(self):
        events = EventQueue()
        sanitizer = Sanitizer(events, SanitizeConfig(liveness_window=10))
        sanitizer.sweep(10**9)                  # nothing outstanding
        assert sanitizer.violations == []


class TestSweepCadence:
    def test_event_count_cadence(self):
        events = EventQueue()
        sanitizer = Sanitizer(events, SanitizeConfig(
            check_every_events=4, check_every_ticks=0))
        sanitizer.on_event(now=1, events_fired=3)
        assert sanitizer.checks_run == 0
        sanitizer.on_event(now=2, events_fired=4)
        assert sanitizer.checks_run == 1

    def test_tick_cadence_covers_near_idle_systems(self):
        """A hung system fires few events; the tick cadence rides whatever
        event does fire so age scans still happen."""
        events = EventQueue()
        sanitizer = Sanitizer(events, SanitizeConfig(
            check_every_events=10**9, check_every_ticks=1_000))
        sanitizer.on_event(now=500, events_fired=1)
        assert sanitizer.checks_run == 0        # not yet a window
        sanitizer.on_event(now=1_500, events_fired=2)
        assert sanitizer.checks_run == 1
        sanitizer.on_event(now=1_600, events_fired=3)
        assert sanitizer.checks_run == 1        # window restarts at sweep

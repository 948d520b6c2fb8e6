"""Unit tests for the timing-port fabric (repro.common.ports)."""

import pytest

from repro.common.events import EventQueue
from repro.common.ports import (
    Link,
    PortProtocolError,
    PortTap,
    RequestPort,
    ResponsePort,
    as_response_port,
    respond,
)
from repro.memory.request import MemRequest, SourceType


def make_request(callback=None, size=64, address=0x1000):
    return MemRequest(address=address, size=size, write=False,
                      source=SourceType.CPU, callback=callback)


class Sink:
    """Scripted receiver: accepts until told not to."""

    def __init__(self, accept=True):
        self.accept = accept
        self.received = []
        self.ingress = ResponsePort("sink.in", self._recv, owner=self)

    def _recv(self, request):
        if not self.accept:
            return False
        self.received.append(request)
        return True


# -- handshake -----------------------------------------------------------------


def test_try_send_delivers_when_accepted():
    sink = Sink()
    port = RequestPort("p").connect(sink)
    request = make_request()
    assert port.try_send(request)
    assert sink.received == [request]


def test_try_send_busy_returns_false_and_registers_for_retry():
    sink = Sink(accept=False)
    port = RequestPort("p").connect(sink)
    request = make_request()
    assert not port.try_send(request)
    assert port.waiting
    # The rejected hop must not linger on the response route.
    assert request.route == []


def test_send_retry_wakes_exactly_one_sender_fifo():
    sink = Sink(accept=False)
    woken = []
    a = RequestPort("a", on_retry=lambda: woken.append("a")).connect(sink)
    b = RequestPort("b", on_retry=lambda: woken.append("b")).connect(sink)
    a.try_send(make_request())
    b.try_send(make_request())
    sink.ingress.send_retry()
    assert woken == ["a"]
    sink.ingress.send_retry()
    assert woken == ["a", "b"]
    sink.ingress.send_retry()       # no one left: no-op
    assert woken == ["a", "b"]


def test_double_block_registers_once():
    sink = Sink(accept=False)
    woken = []
    port = RequestPort("p", on_retry=lambda: woken.append(1)).connect(sink)
    request = make_request()
    port.try_send(request)
    port.try_send(request)          # still busy; must not double-register
    sink.ingress.send_retry()
    sink.ingress.send_retry()
    assert woken == [1]


def test_send_raises_on_busy():
    sink = Sink(accept=False)
    port = RequestPort("p").connect(sink)
    with pytest.raises(PortProtocolError) as excinfo:
        port.send(make_request(), tick=4_200)
    error = excinfo.value
    # The error carries enough provenance to triage without a debugger:
    # who sent, when, and how deep the blocked queue behind the peer is.
    assert error.owner == "p"
    assert error.tick == 4_200
    assert error.blocked_depth == 1
    assert "owner=p" in str(error)
    assert "tick=4200" in str(error)
    assert "blocked_queue_depth=1" in str(error)


def test_send_error_owner_prefers_the_owning_component():
    class Component:
        name = "noc"

    sink = Sink(accept=False)
    port = RequestPort("noc.out", owner=Component()).connect(sink)
    with pytest.raises(PortProtocolError) as excinfo:
        port.send(make_request())
    assert excinfo.value.owner == "noc"
    assert excinfo.value.tick is None       # caller didn't know the time


def test_unconnected_port_raises():
    with pytest.raises(PortProtocolError):
        RequestPort("p").try_send(make_request())


# -- response unwind -----------------------------------------------------------


def test_respond_unwinds_route_lifo_then_callback():
    order = []
    done = []
    inner = RequestPort("inner",
                        on_response=lambda r: order.append("inner") or True)
    outer = RequestPort("outer",
                        on_response=lambda r: order.append("outer") or True)
    sink = Sink()
    inner.connect(sink)
    outer.connect(inner.peer)       # arbitrary: both land on sink
    request = make_request(callback=done.append)
    # Simulate a two-hop traversal: outer first, then inner.
    outer.try_send(request)
    request.route.append(inner)
    respond(request)
    assert order == ["inner", "outer"]
    assert done == [request]
    assert request.route == []


def test_on_response_false_consumes_the_unwind():
    done = []
    tap = RequestPort("tap", on_response=lambda r: False)
    request = make_request(callback=done.append)
    request.route.append(tap)
    respond(request)
    assert done == []


# -- connection targets --------------------------------------------------------


def test_as_response_port_prefers_ingress():
    sink = Sink()
    assert as_response_port(sink) is sink.ingress


def test_as_response_port_rejects_garbage():
    with pytest.raises(TypeError):
        as_response_port(42)


class AccessLevel:
    """An ``access(address, size, write, callback)`` level: no ingress."""

    def access(self, address, size, write, callback):
        raise AssertionError("never reached")


@pytest.mark.parametrize("target", [AccessLevel(), print],
                         ids=["access-level", "callable"])
def test_connect_refuses_targets_without_an_ingress_port(target):
    with pytest.raises(TypeError) as excinfo:
        RequestPort("p").connect(target)
    assert repr(target) in str(excinfo.value)


# -- PortTap -------------------------------------------------------------------


def test_tap_forwards_and_observes_both_directions():
    sink = Sink()
    seen = {"req": [], "rsp": []}

    class Probe(PortTap):
        def on_request(self, request):
            seen["req"].append(request)

        def on_response(self, request):
            seen["rsp"].append(request)
            return True

    tap = Probe("probe").connect(sink)
    done = []
    port = RequestPort("p").connect(tap)
    request = make_request(callback=done.append)
    assert port.try_send(request)
    assert seen["req"] == [request]
    respond(request)
    assert seen["rsp"] == [request]
    assert done == [request]


def test_tap_propagates_backpressure_and_retry():
    sink = Sink(accept=False)
    tap = PortTap("t").connect(sink)
    woken = []
    port = RequestPort("p", on_retry=lambda: woken.append(1)).connect(tap)
    request = make_request()
    assert not port.try_send(request)
    sink.accept = True
    sink.ingress.send_retry()       # tap relays the retry upstream
    assert woken == [1]
    assert port.try_send(request)
    assert sink.received == [request]


def test_tap_on_request_fires_only_after_downstream_accepts():
    sink = Sink(accept=False)
    seen = []

    class Probe(PortTap):
        def on_request(self, request):
            seen.append(request)

    tap = Probe("probe").connect(sink)
    port = RequestPort("p").connect(tap)
    assert not port.try_send(make_request())
    assert seen == []


# -- Link: unbounded -----------------------------------------------------------


def test_unbounded_link_is_a_pure_latency_hop():
    events = EventQueue()
    sink = Sink()
    link = Link(events, "l", latency=7).connect(sink)
    port = RequestPort("p").connect(link)
    request = make_request()
    assert port.try_send(request)
    assert sink.received == []      # in flight
    events.run()
    assert sink.received == [request]
    assert events.now == 7
    assert events.events_fired == 1     # exactly one event per packet
    assert link.stats.counter("packets").value == 1


def test_unbounded_link_extra_latency_hook():
    events = EventQueue()
    sink = Sink()
    link = Link(events, "l", latency=5,
                extra_latency=lambda r: 10).connect(sink)
    RequestPort("p").connect(link).try_send(make_request())
    events.run()
    assert events.now == 15


# -- Link: bounded -------------------------------------------------------------


def test_bounded_link_rejects_at_capacity_and_retries_fifo():
    events = EventQueue()
    sink = Sink()
    link = Link(events, "l", latency=2, capacity=1).connect(sink)
    woken = []
    port = RequestPort("p", on_retry=lambda: woken.append(1)).connect(link)
    first, second = make_request(), make_request(address=0x2000)
    assert port.try_send(first)
    assert not port.try_send(second)            # queue full
    assert link.stats.counter("rejected").value == 1
    events.run()
    assert sink.received == [first]
    assert woken == [1]                         # slot freed -> retry
    assert port.try_send(second)
    events.run()
    assert sink.received == [first, second]
    # Sender-blocked time is accounted against the link.
    assert link.stats.counter("stall_ticks").value == 2


def test_bounded_link_serializes_by_bytes_per_cycle():
    events = EventQueue()
    arrivals = []
    sink = ResponsePort(
        "sink.in", lambda request: arrivals.append((events.now, request))
        or True)
    link = Link(events, "l", latency=10, bytes_per_cycle=8.0).connect(sink)
    port = RequestPort("p").connect(link)
    # 64B at 8 B/cycle = 8 ticks on the line; back-to-back packets queue
    # behind the busy line.
    port.try_send(make_request(size=64))
    port.try_send(make_request(size=64, address=0x2000))
    events.run()
    assert [tick for tick, _ in arrivals] == [18, 26]
    traversal = link.stats.histogram("traversal")
    assert traversal.count == 2
    assert traversal.maximum == 26


def test_bounded_link_holds_packets_while_downstream_busy():
    events = EventQueue()
    sink = Sink(accept=False)
    link = Link(events, "l", latency=1, capacity=4).connect(sink)
    port = RequestPort("p").connect(link)
    port.try_send(make_request())
    events.run()
    assert sink.received == []
    assert link.occupancy == 1      # parked in the ready queue
    sink.accept = True
    sink.ingress.send_retry()
    assert sink.received != []
    assert link.occupancy == 0


def test_tap_keeps_relaying_retries_while_senders_remain_blocked():
    """A tap with several senders queued behind it must stay subscribed
    downstream: one freed slot wakes one sender, and the *next* freed
    slot must still reach the others (regression: the tap dropped off the
    downstream retry list after its first successful re-send, stranding
    every remaining sender)."""
    slots = {"free": 0}

    class CountingSink(Sink):
        def _recv(self, request):
            if slots["free"] <= 0:
                return False
            slots["free"] -= 1
            self.received.append(request)
            return True

    sink = CountingSink()
    tap = PortTap("t").connect(sink)
    senders = []
    for i in range(3):
        request = make_request(address=0x1000 * (i + 1))
        port = RequestPort(f"p{i}")
        port.connect(tap)
        port.on_retry = (lambda p=port, r=request: p.try_send(r))
        senders.append(port)
        assert not port.try_send(request)

    for _ in range(3):                      # free slots one at a time
        slots["free"] += 1
        sink.ingress.send_retry()

    assert len(sink.received) == 3
    assert sorted(r.address for r in sink.received) == [0x1000, 0x2000,
                                                        0x3000]


def test_await_retry_registers_once_and_requires_connection():
    sink = Sink()
    port = RequestPort("p")
    with pytest.raises(PortProtocolError):
        port.await_retry()
    port.connect(sink)
    port.await_retry()
    port.await_retry()                      # idempotent while waiting
    assert len(sink.ingress._blocked) == 1
    woken = []
    port.on_retry = lambda: woken.append(1)
    sink.ingress.send_retry()
    assert woken == [1] and not port.waiting

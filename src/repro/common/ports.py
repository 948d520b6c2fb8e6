"""Timing-port fabric: typed request/response ports with flow control.

This is the gem5-shaped port protocol (Lowe-Power et al.) adapted to this
simulator's single-callback completion style.  Components exchange
:class:`~repro.memory.request.MemRequest` packets through paired ports:

* a **RequestPort** is the sending side.  ``try_send(request)`` either
  hands the packet to the connected :class:`ResponsePort` (returns True)
  or reports the receiver *busy* (returns False).  After a busy result the
  sender must hold the packet and wait for its ``on_retry`` hook — sending
  again before the retry arrives is a protocol error on real hardware and
  simply fails again here.
* a **ResponsePort** is the receiving side; its handler accepts or
  refuses each packet.  When capacity frees up the receiver calls
  :meth:`ResponsePort.send_retry`, which wakes exactly one blocked sender
  (FIFO order), mirroring gem5's ``sendRetryReq``.

This is the only way onto the memory path: every sender connects a
RequestPort to a component's ``ingress``, and every observer of the
traffic (watchdog, fault injection, tracing, trace recording) is a
:class:`PortTap` interposed on it.

**Response path.**  Every RequestPort a packet traverses is pushed onto
the packet's ``route`` stack by ``try_send``.  When the terminal component
completes the request it calls :func:`respond`, which unwinds the stack
LIFO — synchronously, in the same event — giving every hop's owner a
chance to observe or consume the response (see ``on_response``), and
finally invokes ``request.callback``.  Because the unwind adds no events,
a port-connected path schedules exactly the same events as the bare
callback chain it replaced: the default (unbounded) fabric reproduces the
seed's event schedule bit-identically.

**Links.**  :class:`Link` is a buffered conduit between two components.
Unbounded (the default) it is a pure latency hop — one scheduled event per
packet.  With ``capacity`` and/or ``bytes_per_cycle`` set it becomes a
finite queue with a serializing output line, so sustained overload
produces genuine queueing delay and backpressure (MGSim-style buffered
links), with queue-occupancy and stall-cycle statistics per link.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.common.stats import StatGroup


class PortProtocolError(RuntimeError):
    """A component violated the try_send/busy/retry handshake.

    Carries enough context to be actionable without a debugger: the
    owning component of the offending port, the simulation tick (when the
    raising site knows it), and the depth of the receiver's blocked-sender
    queue at the moment of the violation.
    """

    def __init__(self, message: str, *, owner: Optional[str] = None,
                 tick: Optional[int] = None,
                 blocked_depth: Optional[int] = None) -> None:
        context = []
        if owner is not None:
            context.append(f"owner={owner}")
        if tick is not None:
            context.append(f"tick={tick}")
        if blocked_depth is not None:
            context.append(f"blocked_queue_depth={blocked_depth}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)
        self.owner = owner
        self.tick = tick
        self.blocked_depth = blocked_depth


# Module-level sanitizer hook (repro.sanitize installs itself here).  A
# single None check per protocol action when disarmed; the armed hooks
# observe only — they schedule no events and draw no randomness — so an
# armed-but-quiet run stays bit-identical to a bare one.
_SANITIZER = None


def set_sanitizer(sanitizer) -> None:
    """Install (or, with None, remove) the fabric-wide sanitizer hook."""
    global _SANITIZER
    _SANITIZER = sanitizer


def get_sanitizer():
    """The currently installed sanitizer hook, or None."""
    return _SANITIZER


def respond(request) -> None:
    """Unwind a completed request's response path.

    Pops the route stack LIFO; each hop's ``on_response`` hook may consume
    the response (return False) to stop the unwind — used by the health
    taps for fault-injected drops, delayed replies and retry
    deduplication.  When the stack is empty the issuer's ``callback``
    fires with the completed request.
    """
    route = request.route
    while route:
        port = route.pop()
        if not port._recv_response(request):
            return
    if request.callback is not None:
        if _SANITIZER is not None:
            _SANITIZER.request_completed(request)
        request.callback(request)


class ResponsePort:
    """Receiving side of a port pair; wraps a ``handler(request) -> bool``."""

    def __init__(self, name: str, handler: Callable[[Any], bool],
                 owner: Optional[object] = None) -> None:
        self.name = name
        self.handler = handler
        self.owner = owner
        self._blocked: deque = deque()      # RequestPorts awaiting retry

    def _recv(self, request) -> bool:
        return self.handler(request)

    def send_retry(self) -> None:
        """Wake the oldest blocked sender (one slot freed up)."""
        if self._blocked:
            self._blocked.popleft()._recv_retry()

    def __repr__(self) -> str:
        return f"ResponsePort({self.name})"


class RequestPort:
    """Sending side of a port pair."""

    def __init__(self, name: str, owner: Optional[object] = None,
                 on_response: Optional[Callable[[Any], bool]] = None,
                 on_retry: Optional[Callable[[], None]] = None) -> None:
        self.name = name
        self.owner = owner
        self.on_response = on_response
        self.on_retry = on_retry
        self.peer: Optional[ResponsePort] = None
        self.waiting = False                # blocked, awaiting a retry
        # Multiplexing egresses (PortTap) relay several logical senders'
        # flows through one port, so offering a *different* packet while
        # blocked is expected there; on a leaf sender port it is a
        # protocol violation the sanitizer flags.
        self.multiplexed = False

    def connect(self, target) -> "RequestPort":
        """Bind to a ResponsePort or to a component's ``ingress``."""
        self.peer = as_response_port(target)
        return self

    def try_send(self, request) -> bool:
        """Offer a packet; False means busy — hold it and await retry."""
        if self.peer is None:
            raise PortProtocolError(f"{self.name} is not connected",
                                    owner=self._owner_name())
        if self.waiting and _SANITIZER is not None:
            _SANITIZER.port_resend_while_blocked(self, request)
        request.route.append(self)
        if self.peer._recv(request):
            if _SANITIZER is not None:
                _SANITIZER.port_delivered(self, request)
            return True
        request.route.pop()
        if not self.waiting:
            self.waiting = True
            self.peer._blocked.append(self)
            if _SANITIZER is not None:
                _SANITIZER.port_blocked(self, request)
        return False

    def send(self, request, tick: Optional[int] = None) -> None:
        """try_send that treats busy as a protocol error.

        For senders whose receiver never refuses (an unbounded link's
        delivery, the memory system's channel ports, open-loop replay).
        ``tick`` (when the caller knows the current simulation time)
        enriches the error report.
        """
        if not self.try_send(request):
            raise PortProtocolError(
                f"{self.name}: receiver busy — use try_send and honor "
                f"the retry handshake",
                owner=self._owner_name(), tick=tick,
                blocked_depth=len(self.peer._blocked))

    def await_retry(self) -> None:
        """Register for a retry wake without offering a packet.

        Interposition stages relay retries one-for-one; a stage whose own
        senders are still blocked uses this to stay subscribed to the
        next freed slot even though its last forward succeeded."""
        if self.peer is None:
            raise PortProtocolError(f"{self.name} is not connected",
                                    owner=self._owner_name())
        if not self.waiting:
            self.waiting = True
            self.peer._blocked.append(self)
            if _SANITIZER is not None:
                _SANITIZER.port_blocked(self, None)

    def _owner_name(self) -> str:
        if self.owner is None:
            return self.name
        name = getattr(self.owner, "name", None)
        return name if isinstance(name, str) else type(self.owner).__name__

    def _recv_retry(self) -> None:
        was_waiting = self.waiting
        self.waiting = False
        if _SANITIZER is not None:
            _SANITIZER.port_retry(self, was_waiting)
        if self.on_retry is not None:
            self.on_retry()

    def _recv_response(self, request) -> bool:
        if self.on_response is not None:
            return self.on_response(request)
        return True

    def __repr__(self) -> str:
        peer = self.peer.name if self.peer is not None else None
        return f"RequestPort({self.name} -> {peer})"


def as_response_port(target) -> ResponsePort:
    """Coerce a connection target into a ResponsePort.

    Accepts a ResponsePort or anything exposing an ``ingress`` one (caches,
    links, taps, the NoC, the memory system, a DRAM channel).
    """
    if isinstance(target, ResponsePort):
        return target
    ingress = getattr(target, "ingress", None)
    if isinstance(ingress, ResponsePort):
        return ingress
    raise TypeError(f"cannot connect a port to {target!r}: it is neither a "
                    f"ResponsePort nor has an ingress one")


class PortTap:
    """A synchronous interposition stage on a request path.

    Forwards packets unchanged (propagating backpressure both ways) and
    exposes two hooks: ``on_request`` fires after a packet is accepted
    downstream, ``on_response`` observes the unwind and may consume it
    (return False).  A tap adds no events, so interposing one on an
    unbounded path leaves the event schedule untouched — this is how the
    health subsystem's watchdog/fault/retry hooks attach without
    re-wrapping callbacks.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.ingress = ResponsePort(f"{name}.in", self._recv_request,
                                    owner=self)
        self.egress = RequestPort(f"{name}.out", owner=self,
                                  on_response=self._recv_response,
                                  on_retry=self._recv_retry)
        self.egress.multiplexed = True      # relays several senders' flows

    def connect(self, target) -> "PortTap":
        self.egress.connect(target)
        return self

    def _recv_request(self, request) -> bool:
        if not self.egress.try_send(request):
            return False
        self.on_request(request)
        return True

    def _recv_retry(self) -> None:
        # Downstream freed a slot: wake one of our own blocked senders
        # (one-for-one, mirroring send_retry's slot accounting).
        self.ingress.send_retry()
        # The woken sender's re-send only re-registers our egress if it
        # was itself rejected; with more senders still queued behind this
        # tap we must stay subscribed, or the next freed slot's retry is
        # lost and those senders stall forever.
        if self.ingress._blocked:
            self.egress.await_retry()

    def _recv_response(self, request) -> bool:
        return self.on_response(request)

    # -- hooks -------------------------------------------------------------------

    def on_request(self, request) -> None:
        """Called once per packet accepted downstream."""

    def on_response(self, request) -> bool:
        """Observe a response; return False to consume (stop the unwind)."""
        return True


class Link:
    """A conduit between two components: latency, then (optionally) a
    bounded queue draining through a serializing output line.

    Unbounded (``capacity=None, bytes_per_cycle=None``): a pure latency
    hop.  Each accepted packet schedules exactly one delivery event at
    ``latency`` (plus the per-packet ``extra_latency`` hook, used for
    fault-injected spikes) — the same event the seed's fixed-latency
    adapters scheduled, keeping default runs bit-identical.

    Bounded: ``capacity`` limits packets buffered in the link (try_send
    fails when full, engaging the retry handshake) and ``bytes_per_cycle``
    serializes the output (a packet occupies the line for
    ``ceil(size / bytes_per_cycle)`` ticks), so sustained overload builds
    genuine queueing delay.  Per-link stats: ``packets``, ``rejected``,
    ``stall_ticks`` (sender-blocked time), ``queue_occupancy`` and
    ``traversal`` histograms, and a ``bytes`` delivery time series.
    """

    def __init__(self, events, name: str, latency: int = 0,
                 capacity: Optional[int] = None,
                 bytes_per_cycle: Optional[float] = None,
                 extra_latency: Optional[Callable[[Any], int]] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.events = events
        self.name = name
        self.latency = latency
        self.capacity = capacity
        self.bytes_per_cycle = bytes_per_cycle
        self.extra_latency = extra_latency
        self.stats = stats or StatGroup(name)
        # Hot-path handles: the per-packet stats are bound once here so
        # _recv/_deliver_direct skip the StatGroup dict lookup per packet,
        # and the unbounded/int-latency facts are precomputed so the
        # common case is a straight-line schedule.
        self._unbounded = capacity is None and bytes_per_cycle is None
        self._int_latency = int(latency)
        self._ctr_packets = self.stats.counter("packets")
        self._hist_traversal = self.stats.histogram("traversal")
        self._ts_bytes = self.stats.time_series("bytes")
        self.ingress = ResponsePort(f"{name}.in", self._recv, owner=self)
        self.egress = RequestPort(f"{name}.out", owner=self,
                                  on_retry=self._drain_ready)
        self._queue: deque = deque()        # (request, arrival) in transit
        self._ready: deque = deque()        # arrived, refused downstream
        self._line_free = 0                 # when the output line frees
        self._stall_since: dict[int, int] = {}

    @property
    def bounded(self) -> bool:
        return self.capacity is not None or self.bytes_per_cycle is not None

    @property
    def occupancy(self) -> int:
        return len(self._queue) + len(self._ready)

    def connect(self, target) -> "Link":
        self.egress.connect(target)
        return self

    # -- receive side ------------------------------------------------------------

    def _recv(self, request) -> bool:
        if self._unbounded:
            self._ctr_packets.add()
            if self.extra_latency is None:
                # The common case, flat-out: same event (time, callback,
                # owner) as schedule() would create, minus the delay
                # validation the int latency makes redundant.
                self._hist_traversal.record(self.latency)
                events = self.events
                events._push(events._now + self._int_latency,
                             self._deliver_direct, (request,), self.name)
            else:
                extra = self.extra_latency(request)
                self._hist_traversal.record(self.latency + extra)
                self.events.schedule(self.latency + extra,
                                     self._deliver_direct, request,
                                     owner=self.name)
            return True
        now = self.events.now
        if self.capacity is not None and self.occupancy >= self.capacity:
            self.stats.counter("rejected").add()
            self._stall_since.setdefault(id(request), now)
            return False
        stalled = self._stall_since.pop(id(request), None)
        if stalled is not None:
            self.stats.counter("stall_ticks").add(now - stalled)
            self.stats.histogram("stall_cycles").record(now - stalled)
        extra = (self.extra_latency(request)
                 if self.extra_latency is not None else 0)
        serialize = 0
        if self.bytes_per_cycle:
            serialize = -(-request.size // self.bytes_per_cycle)
        start = max(now + self.latency + extra, self._line_free)
        delivery = int(start + serialize)
        self._line_free = delivery
        self._queue.append((request, now))
        self.stats.histogram("queue_occupancy").record(self.occupancy)
        self.events.schedule_at(delivery, self._dequeue, owner=self.name)
        return True

    # -- delivery side -----------------------------------------------------------

    def _deliver_direct(self, request) -> None:
        now = self.events._now
        self._ts_bytes.add(now, request.size)
        self.egress.send(request, tick=now)

    def _dequeue(self) -> None:
        self._ready.append(self._queue.popleft())
        self._drain_ready()

    def _drain_ready(self) -> None:
        while self._ready:
            request, arrival = self._ready[0]
            if not self.egress.try_send(request):
                return                      # downstream busy; its retry
                                            # re-enters here
            self._ready.popleft()
            now = self.events.now
            self._ctr_packets.add()
            self._hist_traversal.record(now - arrival)
            self._ts_bytes.add(now, request.size)
            self.ingress.send_retry()       # one buffer slot freed

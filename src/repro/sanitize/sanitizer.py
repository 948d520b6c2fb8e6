"""Opt-in runtime invariant checking (``repro.sanitize``).

The sanitizer attaches to the simulator through its two observation
seams — the port fabric's module hook (:func:`repro.common.ports.
set_sanitizer`) and the event kernel's per-event hook
(``EventQueue.sanitizer``) — and watches three invariant families:

* **port protocol**: per-port state machines catch send-while-blocked
  (offering a *different* packet while awaiting a retry; re-offering the
  packet that blocked is the fabric's legal re-offer idiom),
  retry-without-block, double delivery, and — via an age scan — lost
  retry wakes (a blocked sender nobody ever wakes: the PR 3 PortTap bug
  class);
* **resource leaks**: age thresholds over MSHR entries, DRAM queue slots,
  watchdog-tracked in-flight requests and bounded-link buffers;
* **liveness**: simulated time advancing past a window with work
  outstanding but no completion anywhere in the system.

Age/liveness scans piggyback on the event hook (every
``check_every_events`` fired events), so the armed sanitizer **schedules
no events and draws no randomness** — an armed-but-quiet run is
bit-identical to a bare run (pinned by the golden test in
``tests/test_paper_tables.py``), the same overhead contract as tracing.

On violation the sanitizer raises a typed
:class:`~repro.sanitize.violations.SanitizerViolation` (``mode="raise"``,
the default) or records it (``mode="record"``); either way the violation
lands in :attr:`Sanitizer.violations` and the SoC harness packages it
into a triage bundle (:mod:`repro.sanitize.triage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common import ports as _ports
from repro.common.events import EventQueue
from repro.common.ports import PortTap, RequestPort
from repro.common.stats import StatGroup
from repro.sanitize.violations import (
    DoubleDeliveryViolation,
    LivenessViolation,
    LostRetryViolation,
    PortProtocolViolation,
    ResourceLeakViolation,
    SanitizerViolation,
)

#: Metadata key marking a request whose completion callback already fired.
DELIVERED_KEY = "sanitize_delivered"

SANITIZE_MODES = ("raise", "record")


@dataclass
class SanitizeConfig:
    """Invariant thresholds (ticks) and sanitizer behavior knobs."""

    max_block_age: int = 100_000        # blocked sender without a retry wake
    mshr_age: int = 150_000             # cache MSHR entry lifetime
    dram_queue_age: int = 150_000       # DRAM controller queue entry
    inflight_age: int = 400_000         # watchdog-tracked request lifetime
    link_age: int = 150_000             # bounded-link buffer entry
    liveness_window: int = 250_000      # no completion with work outstanding
    check_every_events: int = 256       # age-scan cadence (fired events)
    # A hung system fires few events, so a pure event-count cadence can
    # starve; sweeps also trigger when this many ticks pass since the last
    # one (riding whatever event does fire — still zero scheduled events).
    check_every_ticks: int = 20_000
    mode: str = "raise"                 # raise | record
    # Triage bundle emission (used by the SoC harness / chaos runner).
    bundle_dir: Optional[str] = None
    command: Optional[str] = None       # exact repro command line

    def __post_init__(self) -> None:
        if self.mode not in SANITIZE_MODES:
            raise ValueError(f"mode must be one of {SANITIZE_MODES}, "
                             f"got {self.mode!r}")


class Sanitizer:
    """Tracks invariants; see module docstring.

    Use as a context manager (``with sanitizer: ...``) or call
    :meth:`install` / :meth:`uninstall` explicitly — installation is what
    binds the port-fabric and event-kernel hooks to this instance.
    """

    def __init__(self, events: EventQueue,
                 config: Optional[SanitizeConfig] = None) -> None:
        self.events = events
        self.config = config or SanitizeConfig()
        self.stats = StatGroup("sanitizer")
        self.violations: list[SanitizerViolation] = []
        self.checks_run = 0
        # port -> (blocked-since tick, the request that was refused)
        self._blocked: dict[RequestPort, tuple[int, object]] = {}
        self._caches: list = []
        self._dram_channels: list = []
        self._links: list = []
        self._watchdogs: list = []
        self._last_progress = events.now
        self._last_sweep = events.now

    # -- lifecycle ---------------------------------------------------------------

    def install(self) -> "Sanitizer":
        """Bind the port-fabric and event-kernel hooks to this instance."""
        _ports.set_sanitizer(self)
        self.events.sanitizer = self
        self._last_progress = self.events.now
        return self

    def uninstall(self) -> None:
        if _ports.get_sanitizer() is self:
            _ports.set_sanitizer(None)
        if self.events.sanitizer is self:
            self.events.sanitizer = None

    def __enter__(self) -> "Sanitizer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- component registration --------------------------------------------------

    def register_cache(self, cache) -> None:
        self._caches.append(cache)

    def register_dram_channel(self, channel) -> None:
        self._dram_channels.append(channel)

    def register_link(self, link) -> None:
        self._links.append(link)

    def register_watchdog(self, watchdog) -> None:
        self._watchdogs.append(watchdog)

    def register_gpu(self, gpu) -> None:
        """Every leakable resource inside an :class:`EmeraldGPU`."""
        self.register_cache(gpu.l2)
        for core in gpu.cores:
            self.register_link(core.link)
            for l1 in (core.l1i, core.l1d, core.l1t, core.l1z, core.l1c):
                self.register_cache(l1)

    def register_soc(self, soc) -> None:
        """Every leakable resource inside an :class:`EmeraldSoC`."""
        self.register_link(soc.noc.link)
        self.register_gpu(soc.gpu)
        for channel in soc.memory.channels:
            self.register_dram_channel(channel)
        if soc.watchdog is not None:
            self.register_watchdog(soc.watchdog)

    # -- port-fabric hooks (called from repro.common.ports) ----------------------

    def port_blocked(self, port: RequestPort, request) -> None:
        """``try_send`` was refused and the port registered for a retry."""
        self._blocked.setdefault(port, (self.events.now, request))
        self.stats.counter("blocks_observed").add()

    def port_retry(self, port: RequestPort, was_waiting: bool) -> None:
        """The port received a retry wake."""
        if not was_waiting:
            self._emit(PortProtocolViolation(
                f"retry delivered to {port.name}, which never blocked",
                tick=self.events.now, owner=_owner_name(port),
                details={"port": port.name, "event": "retry-without-block"}))
            return
        self._blocked.pop(port, None)

    def port_resend_while_blocked(self, port: RequestPort, request) -> None:
        """``try_send`` called on a port still awaiting its retry.

        Re-offering the *same* packet that blocked is the fabric's legal
        re-offer idiom (links and caches re-offer their queue head when a
        new delivery event fires), and multiplexing egresses (PortTap)
        legitimately carry several senders' flows; a *leaf* sender port
        offering a different packet is a protocol violation — on
        acceptance it would overtake the blocked packet and scramble the
        FIFO retry accounting.
        """
        if getattr(port, "multiplexed", False):
            return
        record = self._blocked.get(port)
        if record is None or record[1] is None or record[1] is request:
            return
        self._emit(PortProtocolViolation(
            f"{port.name} offered a new packet while blocked awaiting "
            f"retry (addr=0x{getattr(request, 'address', 0):x})",
            tick=self.events.now, owner=_owner_name(port),
            details={"port": port.name, "event": "send-while-blocked",
                     "address": getattr(request, "address", None),
                     "blocked_queue_depth": _peer_depth(port)}))

    def port_delivered(self, port: RequestPort, request) -> None:
        """A packet was accepted downstream — model progress."""
        self._last_progress = self.events.now
        if port in self._blocked and self._blocked[port][1] is request:
            # A successful re-offer of the blocked packet: the port is no
            # longer starving even though its retry subscription stands.
            self._blocked.pop(port, None)

    def request_completed(self, request) -> None:
        """A completion callback is about to fire at the issuer."""
        self._last_progress = self.events.now
        delivered_at = request.metadata.get(DELIVERED_KEY)
        if delivered_at is not None:
            self._emit(DoubleDeliveryViolation(
                f"request addr=0x{request.address:x} from {request.owner} "
                f"completed twice (first at tick {delivered_at})",
                tick=self.events.now, owner=request.owner,
                details={"address": request.address,
                         "first_delivery_tick": delivered_at,
                         "attempt": request.attempt}))
            return
        request.metadata[DELIVERED_KEY] = self.events.now

    # -- event-kernel hook (called from EventQueue.step) -------------------------

    def on_event(self, now: int, events_fired: int) -> None:
        if (events_fired % self.config.check_every_events
                and not (self.config.check_every_ticks
                         and now - self._last_sweep
                         >= self.config.check_every_ticks)):
            return
        self.sweep(now)

    # -- age / liveness scans ----------------------------------------------------

    def sweep(self, now: int, final: bool = False) -> None:
        """Scan every registered resource for age violations.

        ``final=True`` is the post-drain audit: the event queue is empty,
        so *anything* still outstanding can never complete — age windows
        no longer apply.  Harness code calls :meth:`check_drained` for
        this; periodic in-run sweeps come through :meth:`on_event`.
        """
        self.checks_run += 1
        self._last_sweep = now
        self.stats.counter("sweeps").add()
        config = self.config
        outstanding = 0

        for port, (since, request) in self._blocked.items():
            age = now - since
            outstanding += 1
            if final or age > config.max_block_age:
                self._emit(LostRetryViolation(
                    f"{port.name} blocked for {age} ticks with no "
                    f"send_retry wake"
                    + (" (event queue drained)" if final else ""),
                    tick=now, owner=_owner_name(port),
                    details={"port": port.name, "age": age,
                             "blocked_since": since,
                             "address": getattr(request, "address", None),
                             "blocked_queue_depth": _peer_depth(port)}))

        for cache in self._caches:
            for line, entry in cache._mshrs.items():
                age = now - entry.allocated_at
                outstanding += 1
                if final or age > config.mshr_age:
                    self._emit(ResourceLeakViolation(
                        f"{cache.name} MSHR for line 0x{line:x} allocated "
                        f"{age} ticks ago and never filled",
                        tick=now, owner=cache.name,
                        details={"resource": "mshr", "line": line,
                                 "age": age, "waiters": len(entry.waiters),
                                 "occupancy": len(cache._mshrs)}))

        for channel in self._dram_channels:
            for queued in channel.pending:
                age = now - queued.enqueue_time
                outstanding += 1
                if final or age > config.dram_queue_age:
                    self._emit(ResourceLeakViolation(
                        f"dram.ch{channel.channel_id} queue entry "
                        f"addr=0x{queued.request.address:x} waiting "
                        f"{age} ticks unserved",
                        tick=now, owner=f"dram.ch{channel.channel_id}",
                        details={"resource": "dram-queue",
                                 "address": queued.request.address,
                                 "age": age,
                                 "queue_depth": len(channel.pending)}))

        for watchdog in self._watchdogs:
            for tracked in watchdog._inflight.values():
                age = now - tracked.tracked_at
                outstanding += 1
                if final or age > config.inflight_age:
                    self._emit(ResourceLeakViolation(
                        f"request from {tracked.request.owner} "
                        f"addr=0x{tracked.request.address:x} in flight "
                        f"{age} ticks (attempt {tracked.request.attempt})",
                        tick=now, owner=tracked.request.owner,
                        details={"resource": "inflight-request",
                                 "address": tracked.request.address,
                                 "age": age,
                                 "attempt": tracked.request.attempt,
                                 "in_flight": watchdog.in_flight}))

        for link in self._links:
            for request, arrival in list(link._queue) + list(link._ready):
                age = now - arrival
                outstanding += 1
                if final or age > config.link_age:
                    self._emit(ResourceLeakViolation(
                        f"{link.name} buffer entry "
                        f"addr=0x{request.address:x} held {age} ticks",
                        tick=now, owner=link.name,
                        details={"resource": "link-buffer",
                                 "address": request.address, "age": age,
                                 "occupancy": link.occupancy}))

        if (not final and outstanding
                and now - self._last_progress > config.liveness_window):
            self._emit(LivenessViolation(
                f"no completion for {now - self._last_progress} ticks with "
                f"{outstanding} resource entries outstanding",
                tick=now,
                details={"stalled_ticks": now - self._last_progress,
                         "outstanding": outstanding}))

    def check_drained(self) -> list[SanitizerViolation]:
        """Post-drain audit: flag anything still outstanding.

        Call after ``events.run()`` returns ``DRAINED`` in harnesses that
        expect a clean shutdown — a blocked sender or live MSHR at drain
        time is stranded forever.  Returns the violations recorded (in
        ``record`` mode); raises the first one in ``raise`` mode.
        """
        before = len(self.violations)
        self.sweep(self.events.now, final=True)
        return self.violations[before:]

    # -- emission ----------------------------------------------------------------

    def report(self, violation: SanitizerViolation) -> None:
        """Record an externally detected violation (e.g. a checkpoint
        round-trip mismatch) under this sanitizer's mode policy."""
        self._emit(violation)

    def _emit(self, violation: SanitizerViolation) -> None:
        self.violations.append(violation)
        self.stats.counter("violations").add()
        self.stats.counter(f"violations.{violation.kind}").add()
        if self.config.mode == "raise":
            raise violation


def _owner_name(port: RequestPort) -> Optional[str]:
    owner = port.owner
    if owner is None:
        return port.name
    name = getattr(owner, "name", None)
    return name if isinstance(name, str) else type(owner).__name__


def _peer_depth(port: RequestPort) -> int:
    return len(port.peer._blocked) if port.peer is not None else 0


def detection_selftest() -> Optional[SanitizerViolation]:
    """End-to-end proof the sanitizer detects a real historic bug class.

    Re-introduces the PR 3 PortTap regression — a tap that forwards one
    retry wake but forgets to re-subscribe downstream while its own
    senders are still queued — behind a capacity-1 link with three
    senders.  Without the sanitizer the third sender strands silently
    (the run just drains); armed, the post-drain audit raises a
    :class:`LostRetryViolation` naming the stranded port.  Returns the
    violation (``None`` would mean detection failed).
    """
    from repro.common.ports import Link, ResponsePort

    class LossyTap(PortTap):
        """The PR 3 bug, deliberately reintroduced: no re-subscription."""

        def _recv_retry(self) -> None:
            self.ingress.send_retry()   # wakes one sender, loses the rest

    events = EventQueue()
    received = []
    sink = ResponsePort("selftest.sink",
                        lambda request: received.append(request) or True)
    link = Link(events, "selftest.link", latency=1, capacity=1)
    link.connect(sink)
    tap = LossyTap("selftest.tap")
    tap.connect(link)

    from repro.memory.request import MemRequest, SourceType
    sanitizer = Sanitizer(events, SanitizeConfig(max_block_age=10))
    with sanitizer:
        for index in range(3):
            request = MemRequest(address=0x1000 * (index + 1), size=64,
                                 write=False, source=SourceType.CPU)
            port = RequestPort(f"selftest.sender{index}")
            port.connect(tap)
            port.on_retry = (lambda p=port, r=request: p.try_send(r))
            port.try_send(request)
        try:
            events.run()
            sanitizer.check_drained()
        except SanitizerViolation as violation:
            return violation
    return None

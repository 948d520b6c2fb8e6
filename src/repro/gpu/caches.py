"""Set-associative caches with MSHRs, event-driven, port-connected.

Write-back, write-allocate, true-LRU.  Misses allocate an MSHR; secondary
misses to an in-flight line merge into it.  Fills may evict a dirty line,
which emits a writeback to the next level.

The memory side speaks the timing-port protocol
(:mod:`repro.common.ports`): fills and writebacks leave through
``mem_port`` and honor the try_send/busy/retry handshake (refused packets
queue in a send backlog until the downstream link retries).  The
processor side is ``ingress`` — a :class:`~repro.common.ports.ResponsePort`
carrying :class:`~repro.memory.request.MemRequest` packets — and the
legacy ``access(address, size, write, callback)`` shim.  The SIMT cores
use neither: their issue stage hands each coalesced line's request
straight to ``_handle``.  ``next_level`` may be anything a port can
connect to: another cache, a :class:`~repro.common.ports.Link`, the NoC,
the memory system, or a legacy ``access``-style level.

Simplifications vs. GPGPU-Sim, by design (documented per DESIGN.md §4):
no port-contention modeling inside a cache (the DRAM bus and core issue
slots are the modeled bottlenecks) and MSHR occupancy is tracked
statistically rather than back-pressuring (merges absorb secondary
misses, so the processor side always accepts).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.common.config import CacheConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort, ResponsePort, respond
from repro.common.stats import StatGroup
from repro.memory.request import MemRequest, SourceType


class MemoryLevel(Protocol):
    def access(self, address: int, size: int, write: bool,
               callback: Optional[Callable[[], None]]) -> None:
        ...


class LatencyPort:
    """Fixed-latency hop in the legacy ``access`` convention.

    Kept for unit tests and microbenchmarks; new wiring uses
    :class:`~repro.common.ports.Link`, which speaks the port protocol and
    can bound bandwidth.
    """

    def __init__(self, events: EventQueue, latency: int,
                 next_level: MemoryLevel) -> None:
        self.events = events
        self.latency = latency
        self.next_level = next_level

    def access(self, address, size, write, callback):
        self.events.schedule(self.latency, self.next_level.access,
                             address, size, write, callback)


class PerfectMemory:
    """A fixed-latency backstop used by unit tests and microbenchmarks."""

    def __init__(self, events: EventQueue, latency: int = 100) -> None:
        self.events = events
        self.latency = latency
        self.accesses = 0
        self.bytes = 0

    def access(self, address, size, write, callback):
        self.accesses += 1
        self.bytes += size
        if callback is not None:
            self.events.schedule(self.latency, callback)


@dataclass
class _MSHREntry:
    waiters: list = field(default_factory=list)     # MemRequests to answer
    write: bool = False
    allocated_at: int = 0       # tick of allocation (sanitizer leak scans)


class Cache:
    """One cache level; see module docstring."""

    def __init__(self, events: EventQueue, config: CacheConfig, name: str,
                 next_level, stats: Optional[StatGroup] = None,
                 source: SourceType = SourceType.GPU) -> None:
        self.events = events
        self.config = config
        self.name = name
        self.next_level = next_level
        self.source = source
        self.stats = stats or StatGroup(name)
        # Hot-path handles: a cache sees one _handle() per memory access,
        # so the stat objects and config scalars are bound once here
        # rather than looked up through dicts/dataclasses per access.
        self._ctr_accesses = self.stats.counter("accesses")
        self._rate_hit = self.stats.rate("hit")
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._hit_latency = int(config.hit_latency)
        # sets: list of OrderedDict tag -> dirty flag (LRU order: oldest first)
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)]
        self._mshrs: dict[int, _MSHREntry] = {}
        self.ingress = ResponsePort(f"{name}.in", self._recv, owner=self)
        self.mem_port = RequestPort(f"{name}.mem", owner=self,
                                    on_retry=self._drain_backlog)
        self.mem_port.connect(next_level)
        self._backlog: deque = deque()      # sends refused downstream

    # -- address helpers --------------------------------------------------------

    def line_of(self, address: int) -> int:
        return address // self.config.line_bytes

    def _set_index(self, line: int) -> int:
        return line % self.config.num_sets

    # -- main entry ---------------------------------------------------------------

    def _recv(self, request: MemRequest) -> bool:
        self._handle(request)
        return True

    def access(self, address: int, size: int, write: bool,
               callback: Optional[Callable[[], None]] = None) -> None:
        """Legacy entry: one line per call, zero-argument completion."""
        self._handle(MemRequest(
            address=address, size=size, write=write, source=self.source,
            callback=None if callback is None
            else (lambda completed: callback())))

    def _handle(self, request: MemRequest) -> None:
        line = request.address // self._line_bytes
        cache_set = self._sets[line % self._num_sets]
        self._ctr_accesses.add()
        wants_reply = request.callback is not None
        if not wants_reply:
            # Fire-and-forget (writebacks): the transaction terminates
            # here, nobody upstream awaits the unwind.
            request.route.clear()
        if line in cache_set:
            self._rate_hit.record(True)
            dirty = cache_set.pop(line)
            cache_set[line] = dirty or request.write
            if wants_reply:
                # Inlined schedule(hit_latency, respond, request): the
                # same event (owner None) without the delay validation.
                events = self.events
                events._push(events._now + self._hit_latency, respond,
                             (request,), None)
            return
        self._rate_hit.record(False)
        if line in self._mshrs:
            entry = self._mshrs[line]
            self.stats.counter("mshr_merges").add()
            if wants_reply:
                entry.waiters.append(request)
            entry.write |= request.write
            return
        entry = _MSHREntry(write=request.write, allocated_at=self.events.now)
        if wants_reply:
            entry.waiters.append(request)
        self._mshrs[line] = entry
        self.stats.histogram("mshr_occupancy").record(len(self._mshrs))
        self._send(MemRequest(
            address=line * self.config.line_bytes,
            size=self.config.line_bytes, write=False, source=self.source,
            callback=lambda completed, line=line: self._fill(line)))

    def _fill(self, line: int) -> None:
        entry = self._mshrs.pop(line)
        cache_set = self._sets[self._set_index(line)]
        if len(cache_set) >= self.config.ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            self.stats.counter("evictions").add()
            if victim_dirty:
                self.stats.counter("writebacks").add()
                self._send(MemRequest(
                    address=victim_line * self.config.line_bytes,
                    size=self.config.line_bytes, write=True,
                    source=self.source))
        cache_set[line] = entry.write
        for waiter in entry.waiters:
            self.events.schedule(self.config.hit_latency, respond, waiter)

    # -- memory side -------------------------------------------------------------

    def _send(self, request: MemRequest) -> None:
        if not self._backlog and self.mem_port.try_send(request):
            return
        self.stats.counter("blocked_sends").add()
        self._backlog.append(request)

    def _drain_backlog(self) -> None:
        while self._backlog:
            if not self.mem_port.try_send(self._backlog[0]):
                return                      # still busy; next retry resumes
            self._backlog.popleft()

    # -- inspection --------------------------------------------------------------

    @property
    def miss_count(self) -> int:
        return self.stats.rate("hit").misses

    @property
    def hit_rate(self) -> float:
        return self.stats.rate("hit").rate

    def contains(self, address: int) -> bool:
        line = self.line_of(address)
        return line in self._sets[self._set_index(line)]

    def flush_dirty(self) -> int:
        """Write back all dirty lines (end-of-frame); returns count."""
        count = 0
        for cache_set in self._sets:
            for line, dirty in list(cache_set.items()):
                if dirty:
                    self._send(MemRequest(
                        address=line * self.config.line_bytes,
                        size=self.config.line_bytes, write=True,
                        source=self.source))
                    cache_set[line] = False
                    count += 1
        return count

"""The SIMT core timing model (Table 2).

A core holds resident warps (vertex, fragment or compute work — unified
shaders), issues up to ``num_schedulers`` instructions per cycle from ready
warps in loose round-robin order, and replays each warp's recorded
instruction trace:

* ALU/SFU/CTRL ops block the warp for their latency class (in-order issue
  per warp, no intra-warp ILP — a documented simplification);
* MEM ops run through the coalescer and the per-type L1 caches; the warp
  blocks until every coalesced transaction returns;
* every 8th instruction charges an instruction-cache access (one line of
  the program), modeling L1I traffic without per-op fetch bookkeeping.

The core wakes only when it has issueable work: blocked-on-memory warps
re-arm the scheduler from cache callbacks, so idle periods cost no events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.config import SIMTCoreConfig
from repro.common.events import EventQueue, Ticker
from repro.common.ports import Link
from repro.common.stats import StatGroup
from repro.gpu.caches import Cache
from repro.gpu.coalescer import coalesce
from repro.memory.request import MemRequest
from repro.shader.interpreter import WarpTrace
from repro.shader.isa import DEFAULT_LATENCY, LatencyClass, MemSpace

PROGRAM_BASE = 0x0400_0000      # virtual region for instruction fetches
OPS_PER_ILINE = 8


@dataclass
class WarpTask:
    """A warp's recorded trace queued for timing execution."""

    trace: WarpTrace
    kind: str                                   # vertex | fragment | compute
    on_complete: Optional[Callable[["WarpTask"], None]] = None
    program_id: int = 0
    metadata: dict = field(default_factory=dict)


class _ResidentWarp:
    __slots__ = ("task", "op_index", "ready_at", "outstanding", "num_ops")

    def __init__(self, task: WarpTask) -> None:
        self.task = task
        self.op_index = 0
        self.ready_at = 0
        self.outstanding = 0        # pending memory transactions
        self.num_ops = len(task.trace.ops)   # scan-loop bound, len()-free


class SIMTCore:
    """One shader core; see module docstring."""

    def __init__(self, events: EventQueue, config: SIMTCoreConfig,
                 core_id: int, l2_port, noc_latency: int = 8,
                 stats: Optional[StatGroup] = None) -> None:
        self.events = events
        self.config = config
        self.core_id = core_id
        self.stats = stats or StatGroup(f"core{core_id}")
        # One core-to-L2 link, fanned into by all five L1 mem ports.
        self.link = Link(events, f"core{core_id}.link", latency=noc_latency)
        self.link.connect(l2_port)
        self.l1i = Cache(events, config.l1i, f"core{core_id}.l1i", self.link)
        self.l1d = Cache(events, config.l1d, f"core{core_id}.l1d", self.link)
        self.l1t = Cache(events, config.l1t, f"core{core_id}.l1t", self.link)
        self.l1z = Cache(events, config.l1z, f"core{core_id}.l1z", self.link)
        self.l1c = Cache(events, config.l1c, f"core{core_id}.l1c", self.link)
        self._space_routes = {
            MemSpace.TEXTURE: self.l1t,
            MemSpace.DEPTH: self.l1z,
            MemSpace.CONST: self.l1c,
            MemSpace.VERTEX: self.l1c,
            MemSpace.COLOR: self.l1d,
            MemSpace.GLOBAL: self.l1d,
            MemSpace.INSTRUCTION: self.l1i,
        }
        self._resident: list[_ResidentWarp] = []
        self._waiting: list[WarpTask] = []
        self._retire_candidates: list[_ResidentWarp] = []
        self._track = f"core{core_id}"
        self._trace_busy = False    # a "busy" span is open on our track
        self._rr_offset = 0
        self._ticker = Ticker(events, period=1, callback=self._cycle)
        self._latency = dict(DEFAULT_LATENCY)
        self._latency[LatencyClass.ALU] = config.alu_latency
        self._latency[LatencyClass.SFU] = config.sfu_latency
        # Hot-path caches: the scheduler cycle fires every GPU tick while
        # work is resident, so per-cycle dict lookups and attribute chains
        # add up.  Counters are bound lazily (first increment) to keep the
        # stats dump's creation-order contract unchanged.
        self._l1d_line_bytes = config.l1d.line_bytes
        self._l1i_line_bytes = config.l1i.line_bytes
        self._num_schedulers = config.num_schedulers
        self._unblocked = 0         # resident warps with outstanding == 0
        self._next_ready = 0        # lower bound on the next issueable tick
        self._ctr_issued = None
        self._ctr_busy = None
        self._ctr_mem = None
        self._ctr_retired = None
        self._ctr_kinds: dict[str, object] = {}

    # -- submission ---------------------------------------------------------------

    def submit(self, task: WarpTask) -> None:
        counter = self._ctr_kinds.get(task.kind)
        if counter is None:
            counter = self._ctr_kinds[task.kind] = self.stats.counter(
                f"warps.{task.kind}")
        counter.add()
        if len(self._resident) < self.config.max_warps:
            self._install(task)
        else:
            self._waiting.append(task)
        self._trace_activity()
        self._ticker.kick()

    def _install(self, task: WarpTask) -> None:
        warp = _ResidentWarp(task)
        warp.ready_at = now = self.events.now
        self._resident.append(warp)
        self._unblocked += 1
        if now < self._next_ready:
            self._next_ready = now
        if not task.trace.ops:
            self._retire_candidates.append(warp)

    @property
    def resident_warps(self) -> int:
        return len(self._resident)

    @property
    def pending_work(self) -> int:
        return len(self._resident) + len(self._waiting)

    def cache_for(self, space: MemSpace) -> Cache:
        return self._space_routes[space]

    # -- the scheduler cycle --------------------------------------------------------

    def _cycle(self) -> bool:
        now = self.events._now
        issued = 0
        resident = self._resident
        count = len(resident)
        # Idle fast exit: when no retire is pending and either every warp
        # is blocked on memory or none becomes ready before ``_next_ready``
        # (a conservative lower bound), this cycle's scan would issue
        # nothing and touch no stats — only the round-robin offset moves.
        if (count and not self._retire_candidates
                and (self._unblocked == 0 or now < self._next_ready)):
            self._rr_offset = (self._rr_offset + 1) % count
            return self._unblocked > 0
        if count:
            # Loose round-robin without materializing an index list: start
            # at the (normalized) offset and wrap once — same visit order
            # as the seed's ``(offset + i) % count`` construction.
            budget = self._num_schedulers
            index = self._rr_offset % count
            self._rr_offset = (self._rr_offset + 1) % count
            for _ in range(count):
                if issued >= budget:
                    break
                warp = resident[index]
                index += 1
                if index == count:
                    index = 0
                if (warp.outstanding > 0 or warp.ready_at > now
                        or warp.op_index >= warp.num_ops):
                    continue
                self._issue(warp, now)
                issued += 1
        if not issued:
            # The scan proved nothing is issueable right now; tighten the
            # bound so the fast exit covers the wait until the next warp's
            # latency expires (memory wake-ups lower it via _mem_done).
            bound = 1 << 62
            for warp in resident:
                if (warp.outstanding == 0 and warp.op_index < warp.num_ops
                        and warp.ready_at < bound):
                    bound = warp.ready_at
            self._next_ready = bound
        if issued:
            ctr = self._ctr_issued
            if ctr is None:
                ctr = self._ctr_issued = self.stats.counter("issued")
                self._ctr_busy = self.stats.counter("busy_cycles")
            ctr.add(issued)
            self._ctr_busy.add()
        if self._retire_candidates:
            self._retire_finished()
        # Keep ticking while any warp could issue soon; all-blocked cores
        # go idle and are re-kicked by memory callbacks.  ``_unblocked``
        # tracks resident warps with no outstanding transactions, making
        # this a counter check instead of a per-cycle scan.
        return bool(resident) and self._unblocked > 0

    def _issue(self, warp: _ResidentWarp, now: int) -> None:
        task = warp.task
        op = task.trace.ops[warp.op_index]
        warp.op_index += 1
        if warp.op_index >= warp.num_ops:
            self._retire_candidates.append(warp)
        if warp.op_index % OPS_PER_ILINE == 1:
            line_bytes = self._l1i_line_bytes
            iline = (PROGRAM_BASE + task.program_id * 4096
                     + (op.pc // OPS_PER_ILINE) * line_bytes)
            l1i = self.l1i
            l1i._handle(MemRequest(address=iline, size=line_bytes,
                                   write=False, source=l1i.source))
        accesses = op.accesses
        if accesses is not None:
            space, addresses, size, write = accesses
            line_bytes = self._l1d_line_bytes
            lines = coalesce(addresses, size, line_bytes)
            if lines:
                warp.outstanding = len(lines)
                self._unblocked -= 1
                ctr = self._ctr_mem
                if ctr is None:
                    ctr = self._ctr_mem = self.stats.counter(
                        "mem_transactions")
                ctr.add(len(lines))
                cache = self._space_routes[space]
                handle = cache._handle
                source = cache.source
                mem_done = self._mem_done
                # One completion closure per op (every transaction wakes
                # the same warp) handed straight to _handle: the core owns
                # its L1s, which always accept, so it skips their ingress.
                callback = lambda completed, w=warp: mem_done(w)  # noqa: E731
                for line in lines:
                    handle(MemRequest(address=line, size=line_bytes,
                                      write=write, source=source,
                                      callback=callback))
                return
        latency_class = op.op.latency_class
        if latency_class is LatencyClass.MEM:
            latency_class = LatencyClass.ALU         # masked-out memory op
        warp.ready_at = ready = now + self._latency[latency_class]
        if ready < self._next_ready:
            self._next_ready = ready

    def _mem_done(self, warp: _ResidentWarp) -> None:
        warp.outstanding -= 1
        if warp.outstanding == 0:
            self._unblocked += 1
            warp.ready_at = now = self.events._now
            if now < self._next_ready:
                self._next_ready = now
            self._ticker.kick()

    def _retire_finished(self) -> None:
        if not self._retire_candidates:
            return
        now = self.events.now
        still_pending: list[_ResidentWarp] = []
        finished: list[_ResidentWarp] = []
        for warp in self._retire_candidates:
            if warp.outstanding == 0 and warp.ready_at <= now:
                finished.append(warp)
            else:
                still_pending.append(warp)
        self._retire_candidates = still_pending
        if not finished:
            return
        ctr = self._ctr_retired
        if ctr is None:
            ctr = self._ctr_retired = self.stats.counter("warps_retired")
        for warp in finished:
            self._resident.remove(warp)
            self._unblocked -= 1        # finished warps have outstanding == 0
            ctr.add()
            if warp.task.on_complete is not None:
                warp.task.on_complete(warp.task)
        while self._waiting and len(self._resident) < self.config.max_warps:
            self._install(self._waiting.pop(0))
        self._trace_activity()

    def _trace_activity(self) -> None:
        """Maintain the core's busy span + resident-warp occupancy counter."""
        tracer = self.events.tracer
        if tracer is None:
            return
        busy = bool(self._resident)
        if busy != self._trace_busy:
            self._trace_busy = busy
            if busy:
                tracer.begin(self._track, "busy")
            else:
                tracer.end(self._track, "busy")
        tracer.counter(self._track, "resident_warps", len(self._resident))

    # -- aggregate stats ---------------------------------------------------------

    def cache_misses(self) -> dict[str, int]:
        return {
            "l1i": self.l1i.miss_count,
            "l1d": self.l1d.miss_count,
            "l1t": self.l1t.miss_count,
            "l1z": self.l1z.miss_count,
            "l1c": self.l1c.miss_count,
        }

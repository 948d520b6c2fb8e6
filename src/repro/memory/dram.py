"""DRAM channel timing model: banks, row buffers, data-bus serialization.

Timing follows a simplified LPDDR state machine.  Per transaction the
controller pays, in controller cycles:

* row hit:   ``tCAS``;
* bank idle: ``tRCD + tCAS``;
* conflict:  ``tRP + tRCD + tCAS`` (precharge the open row first).

Bank preparation overlaps other banks' data bursts; the data bus serializes
bursts of ``size // peak_bytes_per_ctrl_cycle`` controller cycles per
transaction (at least one): ``128 // peak_bytes_per_ctrl_cycle`` for a
128-byte line.  At each scheduler wake the
channel commits up to :data:`ISSUE_WINDOW` transactions so bank-level
parallelism can hide preparation latency — the effect HMC's bank-striped
IP mapping banks on.

The queue, ``pending``, is one list in enqueue order, and each entry
carries its place in that order (``QueuedRequest.seq``).  A
:class:`Scheduler` sees each entry once as it is queued
(``note_enqueued``), names the next one to commit (``choose``, an index
into ``pending``) and hears of each service (``note_served``).  FR-FCFS
scans ``pending`` itself; DASH keeps its own per-source view of it.

Statistics per channel: row hit rate, activations, bytes per activation,
per-source bandwidth time series and latency histograms — everything
Figs. 10, 11 and 14 plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue, Ticker
from repro.common.ports import ResponsePort, respond
from repro.common.stats import StatGroup
from repro.memory.address_map import AddressMapping, DramCoord
from repro.memory.request import MemRequest

ISSUE_WINDOW = 4            # transactions committed per scheduler wake
DEFAULT_ROWS = 4096


@dataclass(slots=True, eq=False)
class QueuedRequest:
    """One queued transaction.  Compares by identity, so finding a
    scheduler's chosen entry in the queue is one ``list.index``."""

    request: MemRequest
    coord: DramCoord
    enqueue_time: int
    # Resolved once at enqueue so scheduler scans compare two attributes
    # (``bank.open_row == row``) instead of re-deriving bank and row per
    # queue entry per wake.
    bank: "_Bank" = None
    row: int = 0
    seq: int = 0        # the channel's enqueue order, 0, 1, 2, ...


class Scheduler(Protocol):
    """Picks the next queued transaction; notified of each service."""

    def note_enqueued(self, entry: QueuedRequest) -> None:
        """``entry`` was just appended to the channel's queue."""
        ...

    def choose(self, queue: list[QueuedRequest], channel: "DRAMChannel",
               now: int) -> int:
        """Index into ``queue`` of the transaction to commit next."""
        ...

    def note_served(self, entry: QueuedRequest, now: int) -> None:
        ...


class _Bank:
    __slots__ = ("open_row", "ready", "bytes_since_activate")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready: int = 0
        self.bytes_since_activate: int = 0


class DRAMChannel:
    """One channel: a request queue, bank array and a scheduler."""

    def __init__(self, queue: EventQueue, config: DRAMConfig,
                 mapping: AddressMapping, scheduler: Scheduler,
                 channel_id: int, cycle_ticks: int,
                 decode_channels: int = 1, rows: int = DEFAULT_ROWS,
                 stats: Optional[StatGroup] = None) -> None:
        self.events = queue
        self.config = config
        self.mapping = mapping
        self.scheduler = scheduler
        self.channel_id = channel_id
        self.cycle_ticks = max(1, int(cycle_ticks))
        self.decode_channels = decode_channels
        self.rows = rows
        self.columns = max(1, config.row_bytes // mapping.line_bytes)
        self.banks = [_Bank() for _ in range(config.banks * config.ranks)]
        self.bus_free = 0
        self.pending: list[QueuedRequest] = []
        self._enqueued = 0
        self.stats = stats or StatGroup(f"dram.ch{channel_id}")
        self._owner = f"dram.ch{channel_id}"
        self._run_ahead_ticks = ISSUE_WINDOW * max(
            1, 128 // int(config.peak_bytes_per_ctrl_cycle)) * self.cycle_ticks
        self.ingress = ResponsePort(f"{self._owner}.in", self._recv,
                                    owner=self)
        self._ticker = Ticker(queue, period=self.cycle_ticks,
                              callback=self._wake, owner=self._owner)
        # Hot-path handles: one submit/commit/complete per DRAM transaction
        # pays these stats; binding them once skips the StatGroup dict
        # lookup (and f-string key build for the per-source ones) per
        # transaction.  The decoder is specialized to this geometry.
        self._decode = mapping.compiled(
            decode_channels, config.ranks, config.banks, rows, self.columns)
        self._ctr_requests = self.stats.counter("requests")
        self._hist_queue_depth = self.stats.histogram("queue_depth")
        self._rate_row_hit = self.stats.rate("row_hit")
        self._ctr_activations = self.stats.counter("activations")
        self._hist_bytes_per_act = self.stats.histogram("bytes_per_activation")
        self._timing = config.timing
        self._peak_bytes = int(config.peak_bytes_per_ctrl_cycle)
        self._ctr_bytes: dict[str, object] = {}
        self._hist_latency: dict[str, object] = {}
        self._ts_bandwidth: dict[str, object] = {}

    # -- public -------------------------------------------------------------

    def _recv(self, request: MemRequest) -> bool:
        self.submit(request)
        return True

    def submit(self, request: MemRequest) -> None:
        coord = self._decode(request.address)
        entry = QueuedRequest(request, coord, self.events._now,
                              self.bank_of(coord), coord.row, self._enqueued)
        self._enqueued += 1
        self.pending.append(entry)
        self.scheduler.note_enqueued(entry)
        self._ctr_requests.add()
        self._hist_queue_depth.record(len(self.pending))
        tracer = self.events.tracer
        if tracer is not None:
            tracer.counter(self._owner, "queue_depth", len(self.pending))
        self._ticker.kick()

    @property
    def queue_length(self) -> int:
        return len(self.pending)

    def bank_of(self, coord: DramCoord) -> _Bank:
        return self.banks[coord.rank * self.config.banks + coord.bank]

    # -- internals ------------------------------------------------------------

    def _wake(self) -> bool:
        now = self.events.now
        committed = 0
        # Bounded run-ahead: commit only while the data bus is within a few
        # bursts of "now".  Committing the whole queue eagerly would freeze
        # the service order and make scheduler priorities meaningless for
        # anything arriving during a burst.
        max_ahead = now + self._run_ahead_ticks
        while (self.pending and committed < ISSUE_WINDOW
               and self.bus_free <= max_ahead):
            index = self.scheduler.choose(self.pending, self, now)
            entry = self.pending.pop(index)
            self._commit(entry, now)
            committed += 1
        if not self.pending:
            return False     # go idle; submit() re-kicks
        # Wake again when the bus frees up.
        delay = max(self.bus_free - max_ahead, self.cycle_ticks)
        self._ticker.stop()
        self.events.schedule(delay, self._rekick, owner=self._owner)
        return False

    def _rekick(self) -> None:
        self._ticker.kick()

    def _commit(self, entry: QueuedRequest, now: int) -> None:
        timing = self._timing
        bank = entry.bank
        request = entry.request
        hit = bank.open_row == entry.row
        if hit:
            prep_cycles = timing.t_cas
        elif bank.open_row is None:
            prep_cycles = timing.t_rcd + timing.t_cas
        else:
            prep_cycles = timing.t_rp + timing.t_rcd + timing.t_cas
        burst_cycles = max(1, request.size // self._peak_bytes)
        cycle_ticks = self.cycle_ticks
        prep_done = max(now, bank.ready) + prep_cycles * cycle_ticks
        data_start = max(prep_done, self.bus_free)
        done = data_start + burst_cycles * cycle_ticks
        extra = timing.t_wr * cycle_ticks if request.write else 0
        bank.ready = done + extra
        self.bus_free = done

        # Row-buffer bookkeeping.
        self._rate_row_hit.record(hit)
        if not hit:
            if bank.bytes_since_activate:
                self._hist_bytes_per_act.record(bank.bytes_since_activate)
            bank.bytes_since_activate = 0
            bank.open_row = entry.row
            self._ctr_activations.add()
        bank.bytes_since_activate += request.size

        source = request.source.value
        ctr = self._ctr_bytes.get(source)
        if ctr is None:
            ctr = self._ctr_bytes[source] = self.stats.counter(
                f"bytes.{source}")
        ctr.add(request.size)
        tracer = self.events.tracer
        if tracer is not None:
            # The data bus serializes bursts, so these X spans never
            # overlap on the channel's track.
            tracer.complete(self._owner, source, data_start, done,
                            cat="dram",
                            args={"address": entry.request.address,
                                  "row_hit": hit})
        self.events.schedule_at(done, self._complete, entry,
                                owner=self._owner)
        self.scheduler.note_served(entry, now)

    def _complete(self, entry: QueuedRequest) -> None:
        request = entry.request
        now = self.events._now
        request.complete_time = now
        source = request.source.value
        hist = self._hist_latency.get(source)
        if hist is None:
            hist = self._hist_latency[source] = self.stats.histogram(
                f"latency.{source}")
            self._ts_bandwidth[source] = self.stats.time_series(
                f"bandwidth.{source}", window=1000)
        hist.record(now - request.issue_time)
        self._ts_bandwidth[source].add(now, request.size)
        # Unwind the port route (health taps, links, the issuer's port) and
        # fire the completion callback — all synchronous, zero extra events.
        respond(request)

    def drain_flush_stats(self) -> None:
        """Flush per-bank open-row byte counts into the histogram."""
        for bank in self.banks:
            if bank.bytes_since_activate:
                self.stats.histogram("bytes_per_activation").record(
                    bank.bytes_since_activate)
                bank.bytes_since_activate = 0

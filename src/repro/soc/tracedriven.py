"""Trace-driven memory simulation — the methodology the paper argues against.

GemDroid-style evaluation records per-IP memory traces once and replays
them open-loop against candidate memory systems.  The paper's case study I
exists to show what that misses: inter-IP dependencies, feedback from
missed deadlines, and load-dependent traffic timing (§5.2.3).

This module implements that methodology *inside* the reproduction so the
gap is measurable:

* :class:`MemoryTraceTap` is a port tap that :func:`record_soc_trace`
  places between each NoC link and its memory endpoint in an
  execution-driven run; it records every request (time, address, size,
  source, rw) as the memory receives it;
* :class:`TraceReplayer` replays a recorded trace into a fresh memory
  system at the recorded issue times — no dependencies, no feedback —
  and reports per-source latency/bandwidth, the quantities trace-driven
  studies optimize.

`benchmarks/bench_trace_vs_execution.py` runs both methodologies over the
same memory-configuration change and prints where they disagree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.common.events import EventQueue
from repro.common.ports import PortTap, RequestPort
from repro.memory.request import MemRequest, SourceType
from repro.memory.system import MemorySystem


@dataclass(frozen=True)
class TraceEntry:
    time: int
    address: int
    size: int
    write: bool
    source: SourceType
    source_id: int


@dataclass
class MemoryTrace:
    """An ordered record of one run's memory traffic."""

    entries: list[TraceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def bytes_by_source(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.entries:
            key = entry.source.value
            out[key] = out.get(key, 0) + entry.size
        return out

    def duration(self) -> int:
        return self.entries[-1].time - self.entries[0].time if self.entries else 0

    def digest(self) -> str:
        """SHA-256 over the entry stream (the determinism fingerprint)."""
        hasher = hashlib.sha256()
        for entry in self.entries:
            hasher.update(
                f"{entry.time},{entry.address},{entry.size},"
                f"{int(entry.write)},{entry.source.value},"
                f"{entry.source_id};".encode())
        return hasher.hexdigest()


class MemoryTraceTap(PortTap):
    """Records every request it forwards into ``trace``; adds no events."""

    def __init__(self, events: EventQueue, trace: MemoryTrace,
                 name: str) -> None:
        super().__init__(name)
        self.events = events
        self.trace = trace

    def on_request(self, request: MemRequest) -> None:
        self.trace.entries.append(TraceEntry(
            time=self.events.now, address=request.address,
            size=request.size, write=request.write,
            source=request.source, source_id=request.source_id))


def record_soc_trace(soc) -> MemoryTrace:
    """Tap an (un-run) EmeraldSoC's memory traffic; returns the live trace.

    Call before ``soc.run()``; the trace fills as the system executes.
    One :class:`MemoryTraceTap` sits between each NoC link and its memory
    endpoint (post-NoC), so every IP's traffic to every endpoint is
    recorded, in delivery order.
    """
    trace = MemoryTrace()
    for link in soc.noc.links:
        tap = MemoryTraceTap(soc.events, trace, f"{link.name}.trace")
        tap.connect(link.egress.peer)
        link.connect(tap)
    return trace


@dataclass
class ReplayResults:
    """What a trace-driven study can measure: latencies and bandwidth."""

    mean_latency: dict[str, float]
    total_bytes: dict[str, int]
    end_tick: int
    row_hit_rate: float


class TraceReplayer:
    """Open-loop replay of a recorded trace into a memory system."""

    def __init__(self, trace: MemoryTrace) -> None:
        self.trace = trace

    def replay(self, events: EventQueue, memory: MemorySystem,
               dash_state=None,
               gpu_period: Optional[int] = None,
               display_period: Optional[int] = None) -> ReplayResults:
        """Feed the trace at recorded times; no dependencies, no feedback.

        When a DASH state is supplied, IPs report the *recorded* pacing as
        progress (the trace-driven analog of GemDroid's event markers):
        progress ramps linearly over each period — exactly the
        "independent traces, no missed-deadline feedback" setup the paper
        quotes Usui et al. on.
        """
        if not self.trace.entries:
            raise ValueError("empty trace")
        base = self.trace.entries[0].time
        if dash_state is not None:
            def pace(source, period):
                """Report linear on-schedule progress (no feedback)."""
                if not period:
                    return
                for k in range(10 * (self.trace.duration() // period + 1)):
                    t = k * period // 10
                    if k % 10 == 0:
                        events.schedule(t, dash_state.start_ip_period,
                                        source, t)
                    events.schedule(t, dash_state.report_ip_progress,
                                    source, (k % 10) / 10.0, t)

            pace(SourceType.GPU, gpu_period)
            pace(SourceType.DISPLAY, display_period)
        port = RequestPort("replay", owner=self).connect(memory)
        for entry in self.trace.entries:
            request = MemRequest(address=entry.address, size=entry.size,
                                 write=entry.write, source=entry.source,
                                 source_id=entry.source_id)
            events.schedule_at(entry.time - base, port.send, request)
        result = events.run()
        # An unbudgeted run only stops when drained; assert the contract so
        # a future budgeted caller cannot mistake truncation for completion.
        assert result.drained, "trace replay stopped before draining"
        return ReplayResults(
            mean_latency={src.value: memory.mean_latency(src)
                          for src in SourceType},
            total_bytes={src.value: memory.total_bytes(src)
                         for src in SourceType},
            end_tick=events.now,
            row_hit_rate=memory.row_hit_rate(),
        )

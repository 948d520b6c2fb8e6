"""DASH: deadline-aware memory scheduler for heterogeneous systems.

Re-implemented from Usui et al. (TACO 2016) as described in the paper's
§5.1.1 with the Table 3 parameters.  Request priority classes, highest
first:

1. **Urgent IPs** — an IP whose reported progress lags its expected
   progress by more than its emergent threshold.
2. **Memory non-intensive CPU threads** (TCM clustering).
3. **Non-urgent IPs** *or* **memory-intensive CPU threads** — the winner
   alternates probabilistically: with probability ``P`` the intensive
   CPU cluster is prioritized, and ``P`` is adjusted every switching unit
   to balance service between the two groups.

Within a class, FR-FCFS.  The clustering bandwidth ambiguity the paper
dissects is exposed as ``include_ip_bandwidth`` (False = DCB, True = DTB).

Classes are never stored: every entry of one source shares its class, so
each pick ranks the channel's sources (the GPU, the display and each CPU
core) afresh and scans only the winning class's entries.  A TCM
recluster or an urgency flip therefore needs no bookkeeping, and a pick
costs O(sources) plus the class's row-hit scan, not O(queue).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

from repro.memory.dram import DRAMChannel, QueuedRequest
from repro.memory.request import SourceType
from repro.memory.tcm import IntensityClassifier


@dataclass
class IPDeadlineState:
    """Deadline tracking for one IP (GPU, display controller)."""

    period_ticks: int
    emergent_threshold: float
    period_start: int = 0
    progress: float = 0.0            # fraction of the unit of work done
    urgent: bool = False

    def start_period(self, now: int) -> None:
        self.period_start = now
        self.progress = 0.0
        self.urgent = False

    def report_progress(self, fraction: float, now: int) -> None:
        self.progress = min(max(fraction, 0.0), 1.0)
        self.update_urgency(now)

    def expected_progress(self, now: int) -> float:
        if self.period_ticks <= 0:
            return 1.0
        return min((now - self.period_start) / self.period_ticks, 1.0)

    def update_urgency(self, now: int) -> None:
        expected = self.expected_progress(now)
        self.urgent = self.progress < self.emergent_threshold * expected


@dataclass
class DashConfig:
    """Table 3 parameters, in ticks (1 tick = 1 GPU cycle by default)."""

    scheduling_unit: int = 1000
    switching_unit: int = 500
    quantum: int = 1_000_000
    cluster_threshold: float = 0.15
    emergent_threshold_default: float = 0.8
    emergent_threshold_gpu: float = 0.9
    include_ip_bandwidth: bool = False     # False = DCB, True = DTB
    seed: int = 1


class DashScheduler:
    """One channel's DASH picker over the shared :class:`DashState`.

    The channel's queued entries are also kept here in one list per
    source key ``(source, source_id)``, each in queue order, so a pick
    classifies each source once instead of each entry.
    """

    def __init__(self, state: "DashState") -> None:
        self.state = state
        self._sources: dict[tuple, list[QueuedRequest]] = defaultdict(list)

    def note_enqueued(self, entry: QueuedRequest) -> None:
        request = entry.request
        self._sources[request.source, request.source_id].append(entry)

    def choose(self, queue: list[QueuedRequest], channel: DRAMChannel,
               now: int) -> int:
        state = self.state
        state.advance(now)
        # Class ranks, highest priority first: urgent IPs, non-intensive
        # CPU threads, then non-urgent IPs and intensive CPU threads in
        # the order the last switching draw chose.
        intensive_rank, ip_rank = ((2, 3) if state.intensive_cpu_first
                                   else (3, 2))
        cpu, is_intensive = SourceType.CPU, state.classifier.is_intensive
        best_rank, best = 4, []
        for (source, source_id), entries in self._sources.items():
            if not entries:
                continue
            if source is cpu:
                rank = intensive_rank if is_intensive(source_id) else 1
            else:
                ip = state.ip_state(source)
                rank = 0 if ip is not None and ip.urgent else ip_rank
            if rank < best_rank:
                best_rank, best = rank, [entries]
            elif rank == best_rank:
                best.append(entries)
        # FR-FCFS within the class: each source offers its first row hit,
        # else its oldest entry; a row hit beats a miss, then age decides.
        chosen = None
        for entries in best:
            for entry in entries:
                if entry.bank.open_row == entry.row:
                    offer = (0, entry.seq)
                    break
            else:
                entry = entries[0]
                offer = (1, entry.seq)
            if chosen is None or offer < chosen[0]:
                chosen = (offer, entries, entry)
        _, entries, entry = chosen
        entries.remove(entry)
        return queue.index(entry)

    def note_served(self, entry: QueuedRequest, now: int) -> None:
        self.state.note_served(entry.request, now)


class DashState:
    """Shared DASH bookkeeping: clustering, urgency, switching probability."""

    def __init__(self, config: DashConfig) -> None:
        self.config = config
        self.classifier = IntensityClassifier(
            cluster_threshold=config.cluster_threshold,
            quantum_ticks=config.quantum,
            include_ip_bandwidth=config.include_ip_bandwidth,
        )
        self._ips: dict[SourceType, IPDeadlineState] = {}
        self._rng = random.Random(config.seed)
        self.probability = 0.5
        self.intensive_cpu_first = False
        self._last_switch = 0
        self._served_intensive = 0
        self._served_nonurgent_ip = 0

    # -- IP registration / feedback --------------------------------------------

    def register_ip(self, source: SourceType, period_ticks: int,
                    emergent_threshold: float | None = None) -> IPDeadlineState:
        if emergent_threshold is None:
            if source is SourceType.GPU:
                emergent_threshold = self.config.emergent_threshold_gpu
            else:
                emergent_threshold = self.config.emergent_threshold_default
        state = IPDeadlineState(period_ticks, emergent_threshold)
        self._ips[source] = state
        return state

    def ip_state(self, source: SourceType) -> IPDeadlineState | None:
        return self._ips.get(source)

    def start_ip_period(self, source: SourceType, now: int) -> None:
        state = self._ips.get(source)
        if state is not None:
            state.start_period(now)

    def report_ip_progress(self, source: SourceType, fraction: float,
                           now: int) -> None:
        state = self._ips.get(source)
        if state is not None:
            state.report_progress(fraction, now)

    # -- periodic updates ----------------------------------------------------

    def advance(self, now: int) -> None:
        self.classifier.maybe_advance_quantum(now)
        for state in self._ips.values():
            state.update_urgency(now)
        if now - self._last_switch >= self.config.switching_unit:
            self._update_probability()
            self.intensive_cpu_first = self._rng.random() < self.probability
            self._last_switch = now

    def _update_probability(self) -> None:
        """Nudge P toward balancing intensive-CPU vs non-urgent-IP service."""
        if self._served_intensive < self._served_nonurgent_ip:
            self.probability = min(1.0, self.probability + 0.05)
        elif self._served_intensive > self._served_nonurgent_ip:
            self.probability = max(0.0, self.probability - 0.05)
        self._served_intensive = 0
        self._served_nonurgent_ip = 0

    def note_served(self, request, now: int) -> None:
        self.classifier.note_traffic(request.source, request.source_id,
                                     request.size)
        if request.source is SourceType.CPU:
            if self.classifier.is_intensive(request.source_id):
                self._served_intensive += 1
        else:
            state = self._ips.get(request.source)
            if state is not None and not state.urgent:
                self._served_nonurgent_ip += 1

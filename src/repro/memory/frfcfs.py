"""FR-FCFS: first-ready, first-come-first-served (the baseline scheduler).

Row hits are serviced before row misses; ties break by arrival order.
This is the ``BAS`` configuration of case study I (Table 6).

The queue is append-only between pops, so list order is enqueue order.
"Oldest" is therefore always the *first* entry, and the scan can return
the first row hit it meets — identical choices to the reference
min-scan, in one early-exit pass.  Row hit tests compare the bank/row
pair resolved at enqueue (see ``QueuedRequest``).  FR-FCFS reads the
channel's queue itself, so it keeps no per-entry state of its own.
"""

from __future__ import annotations

from repro.memory.dram import DRAMChannel, QueuedRequest


class FRFCFSScheduler:
    """Oldest row hit first, otherwise oldest request."""

    def choose(self, queue: list[QueuedRequest], channel: DRAMChannel,
               now: int) -> int:
        for index, entry in enumerate(queue):
            if entry.bank.open_row == entry.row:
                return index
        return 0

    def note_enqueued(self, entry: QueuedRequest) -> None:
        pass

    def note_served(self, entry: QueuedRequest, now: int) -> None:
        pass

"""The O(queue) DASH pick, kept as the reference oracle for DashScheduler.

Every pick re-buckets the whole queue into DASH's four priority classes,
with one classifier or ``ip_state`` call per entry, then runs FR-FCFS
over the winning class's queue indices.  ``DashScheduler`` ranks sources
instead of entries and must choose the same entry on every pick;
``test_dash_oracle.py`` drives the two in lockstep.
"""

from repro.memory.request import SourceType


def frfcfs_within(queue, channel, candidates):
    """FR-FCFS restricted to an ascending candidate subset (DASH classes)."""
    for index in candidates:
        entry = queue[index]
        if entry.bank.open_row == entry.row:
            return index
    return candidates[0]


class ReferenceDashScheduler:
    """DASH's pick by re-bucketing the queue; needs no enqueue hook."""

    def __init__(self, state):
        self.state = state

    def choose(self, queue, channel, now):
        self.state.advance(now)
        urgent, nonintensive, nonurgent_ip, intensive = [], [], [], []
        for index, entry in enumerate(queue):
            request = entry.request
            if request.source is SourceType.CPU:
                if self.state.classifier.is_intensive(request.source_id):
                    intensive.append(index)
                else:
                    nonintensive.append(index)
            else:
                ip = self.state.ip_state(request.source)
                if ip is not None and ip.urgent:
                    urgent.append(index)
                else:
                    nonurgent_ip.append(index)
        for candidates in self._class_order(urgent, nonintensive,
                                            nonurgent_ip, intensive):
            if candidates:
                return frfcfs_within(queue, channel, candidates)
        return 0

    def _class_order(self, urgent, nonintensive, nonurgent_ip, intensive):
        if self.state.intensive_cpu_first:
            return (urgent, nonintensive, intensive, nonurgent_ip)
        return (urgent, nonintensive, nonurgent_ip, intensive)

    def note_served(self, entry, now):
        self.state.note_served(entry.request, now)

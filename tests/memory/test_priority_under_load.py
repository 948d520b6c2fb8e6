"""Regression tests: scheduler priority must matter under saturation.

An earlier implementation eagerly committed the whole queue to the DRAM
timing pipeline, freezing the service order — DASH's priorities then had
no effect on anything arriving during a burst.  These tests pin the fixed
behavior: a prioritized request entering a saturated queue overtakes the
backlog.
"""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.memory.builders import build_memory_by_name
from repro.memory.request import MemRequest, SourceType


def flood(system, count, source=SourceType.GPU, start=0):
    done = {}
    port = RequestPort("test.flood").connect(system)
    for i in range(count):
        port.send(MemRequest(
            address=start + i * 128, size=128, write=False, source=source,
            callback=lambda r, i=i: done.__setitem__(i, r.complete_time)))
    return done


class TestPriorityUnderLoad:
    def test_dash_cpu_overtakes_gpu_backlog(self):
        """A CPU request arriving into 64 queued GPU requests completes
        far earlier under DASH than its arrival order implies."""
        events = EventQueue()
        system, state = build_memory_by_name("DCB", events, DRAMConfig(channels=1))
        state.register_ip(SourceType.GPU, period_ticks=1_000_000)
        state.start_ip_period(SourceType.GPU, 0)
        state.report_ip_progress(SourceType.GPU, 1.0, 0)   # never urgent
        gpu_done = flood(system, 64, SourceType.GPU)
        cpu_done = []
        RequestPort("cpu0.mem").connect(system).send(MemRequest(
            address=0x800_0000, size=128, write=False, source=SourceType.CPU,
            callback=lambda r: cpu_done.append(r.complete_time)))
        events.run()
        finished_before_cpu = sum(1 for t in gpu_done.values()
                                  if t < cpu_done[0])
        assert finished_before_cpu < 16, \
            "the prioritized CPU request should jump most of the GPU backlog"

    def test_frfcfs_keeps_arrival_order_for_misses(self):
        """Under FR-FCFS the same CPU request waits behind the backlog."""
        events = EventQueue()
        system, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
        # All to distinct rows of one bank: no row hits to reorder.
        gpu_done = flood(system, 32, SourceType.GPU)
        row_stride = 16 * 8 * 128
        cpu_done = []
        RequestPort("cpu0.mem").connect(system).send(MemRequest(
            address=50 * row_stride, size=128, write=False,
            source=SourceType.CPU,
            callback=lambda r: cpu_done.append(r.complete_time)))
        events.run()
        finished_before_cpu = sum(1 for t in gpu_done.values()
                                  if t < cpu_done[0])
        # Sequential GPU stream = row hits; FR-FCFS serves them first.
        assert finished_before_cpu > 24

    def test_bounded_runahead_limits_committed_backlog(self):
        """New arrivals wait O(bursts), not O(queue), for a decision."""
        events = EventQueue()
        system, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
        flood(system, 64, SourceType.GPU)
        events.run_until(5)      # let the first wake commit its window
        channel = system.channels[0]
        # Pending queue must still hold most of the flood (not committed).
        assert channel.queue_length > 48

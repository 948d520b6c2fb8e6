"""Tests for the SIMT core timing model."""

import numpy as np
import pytest

from repro.common.config import CacheConfig, SIMTCoreConfig
from repro.common.events import EventQueue
from repro.gpu.simt_core import SIMTCore, WarpTask
from repro.shader.interpreter import TraceOp, WarpTrace
from repro.shader.isa import MemSpace, Opcode
from tests.fake_memory import FixedLatencyMemory


def small_core_config(**kwargs):
    defaults = dict(
        l1i=CacheConfig(1024, ways=2), l1d=CacheConfig(1024, ways=2),
        l1t=CacheConfig(1024, ways=2), l1z=CacheConfig(1024, ways=2),
        l1c=CacheConfig(1024, ways=2), alu_latency=4, sfu_latency=16,
        num_schedulers=2, max_warps=8,
    )
    defaults.update(kwargs)
    return SIMTCoreConfig(**defaults)


def make_core(config=None, mem_latency=100):
    events = EventQueue()
    memory = FixedLatencyMemory(events, latency=mem_latency)
    core = SIMTCore(events, config or small_core_config(), core_id=0,
                    l2_port=memory, noc_latency=4)
    return events, core, memory


def alu_trace(n):
    return WarpTrace(ops=[TraceOp(Opcode.ADD, pc=i, active_lanes=32)
                          for i in range(n)])


def mem_trace(addresses, space=MemSpace.GLOBAL, write=False):
    record = (space, np.array(addresses, dtype=np.int64), 4, write)
    op = TraceOp(Opcode.LD_GLOBAL, pc=0, active_lanes=32, accesses=record)
    return WarpTrace(ops=[op])


class TestWarpExecution:
    def test_single_alu_warp_latency(self):
        events, core, _ = make_core()
        done = []
        core.submit(WarpTask(alu_trace(10), "compute",
                             on_complete=lambda t: done.append(events.now)))
        events.run()
        # In-order per warp: ~10 ops x 4-cycle ALU latency.
        assert len(done) == 1
        assert 10 * 4 <= done[0] <= 10 * 4 + 16

    def test_two_warps_overlap_latency(self):
        """Two warps interleave: far less than 2x single-warp time."""
        events, core, _ = make_core()
        done = []
        for _ in range(2):
            core.submit(WarpTask(alu_trace(20), "compute",
                                 on_complete=lambda t: done.append(events.now)))
        events.run()
        single_events, single_core, _ = make_core()
        single_done = []
        single_core.submit(WarpTask(alu_trace(20), "compute",
                                    on_complete=lambda t: single_done.append(
                                        single_events.now)))
        single_events.run()
        assert max(done) < 2 * single_done[0] * 0.8

    def test_memory_blocks_warp(self):
        events, core, memory = make_core(mem_latency=200)
        done = []
        core.submit(WarpTask(mem_trace([0]), "compute",
                             on_complete=lambda t: done.append(events.now)))
        events.run()
        assert done[0] >= 200
        assert memory.accesses >= 1

    def test_memory_latency_hidden_by_other_warps(self):
        """ALU warps keep issuing while another warp waits on memory."""
        events, core, _ = make_core(mem_latency=500)
        completion = {}
        core.submit(WarpTask(mem_trace([0]), "compute",
                             on_complete=lambda t: completion.setdefault(
                                 "mem", events.now)))
        core.submit(WarpTask(alu_trace(10), "compute",
                             on_complete=lambda t: completion.setdefault(
                                 "alu", events.now)))
        events.run()
        assert completion["alu"] < completion["mem"]

    def test_coalesced_traffic_single_transaction(self):
        events, core, memory = make_core()
        core.submit(WarpTask(mem_trace([i * 4 for i in range(32)]),
                             "compute"))
        events.run()
        assert core.stats.counter("mem_transactions").value == 1

    def test_scattered_traffic_many_transactions(self):
        events, core, memory = make_core()
        core.submit(WarpTask(mem_trace([i * 256 for i in range(32)]),
                             "compute"))
        events.run()
        assert core.stats.counter("mem_transactions").value == 32

    def test_space_routing(self):
        events, core, _ = make_core()
        core.submit(WarpTask(mem_trace([0], space=MemSpace.TEXTURE),
                             "fragment"))
        core.submit(WarpTask(mem_trace([0], space=MemSpace.DEPTH),
                             "fragment"))
        events.run()
        assert core.l1t.stats.counter("accesses").value == 1
        assert core.l1z.stats.counter("accesses").value == 1
        assert core.l1d.stats.counter("accesses").value == 0

    def test_read_and_write_of_one_line_stay_distinct(self):
        events, core, _ = make_core()
        ops = [TraceOp(Opcode.LD_GLOBAL, pc=0, active_lanes=1,
                       accesses=(MemSpace.GLOBAL, np.array([0]), 4, False)),
               TraceOp(Opcode.ST_GLOBAL, pc=1, active_lanes=1,
                       accesses=(MemSpace.GLOBAL, np.array([4]), 4, True))]
        core.submit(WarpTask(WarpTrace(ops=ops), "compute"))
        events.run()
        assert core.stats.counter("mem_transactions").value == 2
        assert core.l1d.stats.counter("accesses").value == 2
        assert core.l1d.flush_dirty() == 1      # the store dirtied the line

    def test_memory_op_without_lanes_takes_alu_latency(self):
        events, core, _ = make_core(mem_latency=200)
        done = []
        core.submit(WarpTask(mem_trace([]), "compute",
                             on_complete=lambda t: done.append(events.now)))
        events.run()
        # Only the instruction fetch misses; the op itself issues nothing.
        assert core.stats.counter("mem_transactions").value == 0
        assert core.l1d.stats.counter("accesses").value == 0
        assert done[0] < 200

    def test_empty_trace_retires(self):
        events, core, _ = make_core()
        done = []
        core.submit(WarpTask(WarpTrace(ops=[]), "vertex",
                             on_complete=lambda t: done.append(True)))
        events.run()
        assert done == [True]


class TestOccupancy:
    def test_waiting_queue_when_full(self):
        config = small_core_config(max_warps=2)
        events, core, _ = make_core(config)
        done = []
        for i in range(5):
            core.submit(WarpTask(alu_trace(5), "compute",
                                 on_complete=lambda t, i=i: done.append(i)))
        assert core.resident_warps == 2
        assert core.pending_work == 5
        events.run()
        assert sorted(done) == list(range(5))
        assert core.resident_warps == 0

    def test_sfu_slower_than_alu(self):
        def run_with(op):
            events, core, _ = make_core()
            trace = WarpTrace(ops=[TraceOp(op, pc=i, active_lanes=32)
                                   for i in range(10)])
            done = []
            core.submit(WarpTask(trace, "compute",
                                 on_complete=lambda t: done.append(events.now)))
            events.run()
            return done[0]

        assert run_with(Opcode.SIN) > run_with(Opcode.ADD)

    def test_icache_traffic_charged(self):
        events, core, _ = make_core()
        core.submit(WarpTask(alu_trace(32), "compute"))
        events.run()
        assert core.l1i.stats.counter("accesses").value >= 4

    def test_warp_kind_stats(self):
        events, core, _ = make_core()
        core.submit(WarpTask(alu_trace(1), "vertex"))
        core.submit(WarpTask(alu_trace(1), "fragment"))
        events.run()
        assert core.stats.counter("warps.vertex").value == 1
        assert core.stats.counter("warps.fragment").value == 1

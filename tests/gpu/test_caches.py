"""Tests for the cache model and coalescer."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.common.events import EventQueue
from repro.gpu.caches import Cache, LatencyPort, PerfectMemory
from repro.gpu.coalescer import coalesce
from repro.shader.isa import MemSpace


def make_cache(size=1024, ways=2, line=128, mem_latency=100):
    events = EventQueue()
    memory = PerfectMemory(events, latency=mem_latency)
    cache = Cache(events, CacheConfig(size, line_bytes=line, ways=ways),
                  "test", memory)
    return events, cache, memory


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        events, cache, memory = make_cache()
        times = []
        cache.access(0, 128, False, lambda: times.append(events.now))
        events.run()
        cache.access(0, 128, False, lambda: times.append(events.now))
        start = events.now
        events.run()
        assert times[0] >= 100                      # went to memory
        assert times[1] - start == cache.config.hit_latency
        assert cache.hit_rate == 0.5
        assert memory.accesses == 1

    def test_different_lines_miss_separately(self):
        events, cache, memory = make_cache()
        cache.access(0, 128, False, None)
        cache.access(128, 128, False, None)
        events.run()
        assert memory.accesses == 2

    def test_mshr_merges_secondary_miss(self):
        events, cache, memory = make_cache()
        done = []
        cache.access(0, 128, False, lambda: done.append("a"))
        cache.access(0, 128, False, lambda: done.append("b"))
        events.run()
        assert sorted(done) == ["a", "b"]
        assert memory.accesses == 1
        assert cache.stats.counter("mshr_merges").value == 1

    def test_lru_eviction(self):
        # 2-way, line 128, 1024 bytes -> 4 sets. Same set: stride 512.
        events, cache, memory = make_cache(size=1024, ways=2)
        for address in (0, 512, 1024):    # third line evicts the first
            cache.access(address, 128, False, None)
            events.run()
        assert not cache.contains(0)
        assert cache.contains(512)
        assert cache.contains(1024)

    def test_lru_touch_refreshes(self):
        events, cache, memory = make_cache(size=1024, ways=2)
        for address in (0, 512):
            cache.access(address, 128, False, None)
            events.run()
        cache.access(0, 128, False, None)     # touch 0: now MRU
        events.run()
        cache.access(1024, 128, False, None)  # evicts 512, not 0
        events.run()
        assert cache.contains(0)
        assert not cache.contains(512)

    def test_dirty_eviction_writes_back(self):
        events, cache, memory = make_cache(size=1024, ways=2)
        cache.access(0, 128, True, None)      # dirty line
        events.run()
        reads_before = memory.accesses
        cache.access(512, 128, False, None)
        cache.access(1024, 128, False, None)  # evicts dirty line 0
        events.run()
        assert cache.stats.counter("writebacks").value == 1
        # fills for 512 & 1024 plus one writeback
        assert memory.accesses == reads_before + 3

    def test_flush_dirty(self):
        events, cache, memory = make_cache()
        cache.access(0, 128, True, None)
        cache.access(128, 128, True, None)
        cache.access(256, 128, False, None)
        events.run()
        before = memory.accesses
        assert cache.flush_dirty() == 2
        events.run()
        assert memory.accesses == before + 2
        assert cache.flush_dirty() == 0       # idempotent

    def test_write_allocate(self):
        events, cache, memory = make_cache()
        cache.access(0, 128, True, None)
        events.run()
        assert cache.contains(0)
        assert memory.accesses == 1           # fill on write miss


class TestMSHREdgeCases:
    def test_secondary_write_miss_merges_dirty_into_read_fill(self):
        """A write merging into a read miss's MSHR must dirty the filled
        line, or the write is silently lost at eviction time."""
        events, cache, memory = make_cache(size=1024, ways=2)
        done = []
        cache.access(0, 128, False, lambda: done.append("read"))
        cache.access(0, 128, True, lambda: done.append("write"))
        assert cache._mshrs[0].write        # the merge dirtied the entry
        events.run()
        assert sorted(done) == ["read", "write"]
        assert cache.stats.counter("mshr_merges").value == 1
        # Evict line 0 (2-way set, stride 512): the merged write must
        # surface as a writeback.
        cache.access(512, 128, False, None)
        cache.access(1024, 128, False, None)
        events.run()
        assert cache.stats.counter("writebacks").value == 1

    def test_concurrent_fills_racing_eviction_in_one_set(self):
        """Three outstanding misses to a 2-way set: the last fill evicts a
        line installed by an earlier fill of the same burst, and every
        waiter still completes exactly once."""
        events, cache, memory = make_cache(size=1024, ways=2)
        done = []
        for address in (0, 512, 1024):      # all map to set 0
            cache.access(address, 128, False,
                         lambda a=address: done.append(a))
        assert len(cache._mshrs) == 3       # all in flight at once
        events.run()
        assert sorted(done) == [0, 512, 1024]
        assert cache._mshrs == {}
        assert cache.stats.counter("evictions").value == 1
        resident = [a for a in (0, 512, 1024) if cache.contains(a)]
        assert len(resident) == 2           # ways bound still holds

    def test_mshr_occupancy_histogram_tracks_full_occupancy(self):
        events, cache, memory = make_cache()
        for index in range(8):
            cache.access(index * 128, 128, False, None)
        assert len(cache._mshrs) == 8
        occupancy = cache.stats.histogram("mshr_occupancy")
        assert occupancy.count == 8         # one sample per allocation
        assert occupancy.maximum == 8       # recorded at peak
        events.run()
        assert cache._mshrs == {}           # all fills drained

    def test_mshr_allocation_tick_is_current_time(self):
        events, cache, memory = make_cache()
        cache.access(0, 128, False, None)
        events.run()
        assert events.now >= 100
        cache.access(4096, 128, False, None)
        assert cache._mshrs[cache.line_of(4096)].allocated_at == events.now


class TestLatencyPort:
    def test_adds_latency(self):
        events = EventQueue()
        memory = PerfectMemory(events, latency=10)
        port = LatencyPort(events, latency=5, next_level=memory)
        done = []
        port.access(0, 128, False, lambda: done.append(events.now))
        events.run()
        assert done == [15]


class LaneAccess(NamedTuple):
    """One lane's access: the reference coalescer's input."""

    space: MemSpace
    address: int
    size: int
    write: bool = False


def coalesce_lanes(accesses, line_bytes=128):
    """Reference coalescer, one lane at a time: ``(space, line address,
    write)`` per transaction, in first-touch order.  A lane straddling a
    line boundary touches each of its lines in address order."""
    seen = {}
    for access in accesses:
        first_line = access.address // line_bytes
        last_line = (access.address + max(access.size, 1) - 1) // line_bytes
        for line in range(first_line, last_line + 1):
            seen[(access.space, line * line_bytes, access.write)] = None
    return list(seen)


@st.composite
def memory_records(draw):
    """A warp memory instruction: ``(addresses, size, write, line_bytes)``,
    with addresses as an int64 array or a tuple, aligned to the access
    size or not."""
    size = draw(st.sampled_from((1, 4, 16, 256)))
    addresses = draw(st.lists(st.integers(0, 100_000), min_size=1,
                              max_size=64))
    if draw(st.booleans()):
        addresses = [a - a % size for a in addresses]
    if draw(st.booleans()):
        addresses = np.array(addresses, dtype=np.int64)
    else:
        addresses = tuple(addresses)
    return (addresses, size, draw(st.booleans()),
            draw(st.sampled_from((32, 64, 128))))


class TestCoalescer:
    def test_sequential_warp_coalesces_to_one_line(self):
        assert coalesce(np.arange(32, dtype=np.int64) * 4, 4, 128) == [0]

    def test_strided_warp_spans_lines(self):
        addresses = np.arange(32, dtype=np.int64) * 128
        assert coalesce(addresses, 4, 128) == addresses.tolist()

    def test_access_straddling_lines(self):
        assert coalesce((120,), 16, 128) == [0, 128]

    def test_empty_record_touches_no_lines(self):
        assert coalesce(np.empty(0, dtype=np.int64), 4, 128) == []

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=64))
    def test_coalesced_lines_unique(self, addresses):
        lines = coalesce(np.array(addresses, dtype=np.int64), 4, 128)
        assert len(lines) == len(set(lines))
        for line in lines:
            assert line % 128 == 0

    @settings(max_examples=300, deadline=None)
    @given(memory_records())
    def test_matches_the_per_lane_reference(self, record):
        """Same lines in the same order as coalescing lane by lane,
        including unaligned and line-straddling accesses."""
        addresses, size, write, line_bytes = record
        lanes = [LaneAccess(MemSpace.GLOBAL, int(a), size, write)
                 for a in addresses]
        expected = [line for _, line, _ in coalesce_lanes(lanes, line_bytes)]
        assert coalesce(addresses, size, line_bytes) == expected

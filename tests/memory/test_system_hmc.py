"""Tests for the memory-system facade and the HMC configuration."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.memory.builders import (
    MEMORY_CONFIG_NAMES,
    build_baseline_memory,
    build_memory_by_name,
)
from repro.memory.hmc import build_hmc_memory
from repro.memory.request import MemRequest, SourceType
from repro.memory.system import SourceTypeRouter, dram_cycle_ticks


def submit_and_run(system, events, requests):
    port = RequestPort("test.sender").connect(system)
    for request in requests:
        port.send(request)
    events.run()


def req(address, source=SourceType.CPU, done=None):
    return MemRequest(address=address, size=128, write=False, source=source,
                      callback=done)


class TestCycleTicks:
    def test_nominal_rate(self):
        assert dram_cycle_ticks(DRAMConfig(data_rate_mbps=1333), 1.0) == 2

    def test_low_frequency_high_load(self):
        assert dram_cycle_ticks(DRAMConfig(data_rate_mbps=133), 1.0) == 15

    def test_minimum_one(self):
        assert dram_cycle_ticks(DRAMConfig(data_rate_mbps=100_000), 1.0) == 1


class TestBaselineRouting:
    def test_channel_interleaving(self):
        events = EventQueue()
        system = build_baseline_memory(events, DRAMConfig(channels=2))
        submit_and_run(system, events,
                       [req(i * 128) for i in range(8)])
        ch0 = system.channels[0].stats.counter("requests").value
        ch1 = system.channels[1].stats.counter("requests").value
        assert ch0 == 4
        assert ch1 == 4

    def test_gpu_and_cpu_share_channels(self):
        events = EventQueue()
        system = build_baseline_memory(events, DRAMConfig(channels=2))
        submit_and_run(system, events, [
            req(0, SourceType.CPU), req(128, SourceType.GPU),
        ])
        assert system.channels[0].stats.counter("bytes.cpu").value == 128
        assert system.channels[1].stats.counter("bytes.gpu").value == 128


class TestHMC:
    def test_source_partitioning(self):
        events = EventQueue()
        system = build_hmc_memory(events, DRAMConfig(channels=2))
        submit_and_run(system, events, [
            req(0, SourceType.CPU), req(128, SourceType.CPU),
            req(0, SourceType.GPU), req(128, SourceType.DISPLAY),
        ])
        assert system.channels[0].stats.counter("requests").value == 2
        assert system.channels[1].stats.counter("requests").value == 2
        assert system.channels[1].stats.counter("bytes.cpu").value == 0
        assert system.channels[0].stats.counter("bytes.gpu").value == 0

    def test_ip_channel_uses_bank_striping(self):
        """Sequential IP addresses on HMC spread across banks."""
        events = EventQueue()
        system = build_hmc_memory(events, DRAMConfig(channels=2))
        submit_and_run(system, events,
                       [req(i * 128, SourceType.DISPLAY) for i in range(8)])
        # All 8 land on the IP channel and open 8 different banks.
        ip_channel = system.channels[1]
        assert ip_channel.stats.counter("activations").value == 8

    def test_cpu_channel_keeps_page_striping(self):
        events = EventQueue()
        system = build_hmc_memory(events, DRAMConfig(channels=2))
        submit_and_run(system, events,
                       [req(i * 128, SourceType.CPU) for i in range(8)])
        cpu_channel = system.channels[0]
        assert cpu_channel.stats.counter("activations").value == 1
        assert cpu_channel.stats.rate("row_hit").hits == 7

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            build_hmc_memory(EventQueue(), DRAMConfig(channels=1))

    def test_router_validation(self):
        with pytest.raises(ValueError):
            SourceTypeRouter([], [1])


class TestAggregateStats:
    def test_row_hit_rate(self):
        events = EventQueue()
        system = build_baseline_memory(events, DRAMConfig(channels=1))
        submit_and_run(system, events, [req(i * 128) for i in range(16)])
        assert system.row_hit_rate() == pytest.approx(15 / 16)

    def test_bytes_per_activation(self):
        events = EventQueue()
        system = build_baseline_memory(events, DRAMConfig(channels=1))
        submit_and_run(system, events, [req(i * 128) for i in range(16)])
        assert system.bytes_per_activation() == 16 * 128

    def test_total_bytes_by_source(self):
        events = EventQueue()
        system = build_baseline_memory(events, DRAMConfig(channels=2))
        submit_and_run(system, events, [
            req(0, SourceType.CPU), req(128, SourceType.GPU),
            req(256, SourceType.GPU),
        ])
        assert system.total_bytes(SourceType.GPU) == 256
        assert system.total_bytes() == 384

    def test_mean_latency(self):
        events = EventQueue()
        system = build_baseline_memory(events, DRAMConfig(channels=1))
        submit_and_run(system, events, [req(0, SourceType.GPU)])
        assert system.mean_latency(SourceType.GPU) > 0

    def test_bandwidth_series_merged_across_channels(self):
        events = EventQueue()
        system = build_baseline_memory(events, DRAMConfig(channels=2))
        submit_and_run(system, events, [req(i * 128) for i in range(4)])
        series = system.bandwidth_series(SourceType.CPU)
        assert sum(v for _, v in series) == 4 * 128


class TestBuilders:
    @pytest.mark.parametrize("name", MEMORY_CONFIG_NAMES)
    def test_all_configs_build_and_service(self, name):
        events = EventQueue()
        system, dash_state = build_memory_by_name(
            name, events, DRAMConfig(channels=2))
        done = []
        submit_and_run(system, events,
                       [req(0, SourceType.CPU, done=done.append),
                        req(128, SourceType.GPU, done=done.append)])
        assert len(done) == 2
        assert all(r.complete_time is not None for r in done)
        if name in ("DCB", "DTB"):
            assert dash_state is not None
        else:
            assert dash_state is None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_memory_by_name("XYZ", EventQueue(), DRAMConfig())

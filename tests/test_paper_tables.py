"""Conformance to the paper's configuration tables (3, 4, 5, 7).

These tests pin the *documented* configurations — the values the paper
prints — and that the case-study harness assembles them, up to the
resolution-scaled cache capacities.
"""

from dataclasses import replace

import pytest

from repro.common.config import (
    DRAMConfig,
    case_study1_gpu_config,
    case_study2_gpu_config,
)
from repro.memory.address_map import BASELINE_MAPPING, IP_CHANNEL_MAPPING
from repro.memory.dash import DashConfig


class TestTable3DashConfig:
    def test_defaults_match_table3(self):
        config = DashConfig()
        assert config.scheduling_unit == 1000
        assert config.switching_unit == 500
        assert config.quantum == 1_000_000
        assert config.cluster_threshold == 0.15
        assert config.emergent_threshold_default == 0.8
        assert config.emergent_threshold_gpu == 0.9


class TestTable4AddressMappings:
    def test_baseline_mapping_order(self):
        assert BASELINE_MAPPING.order == ("row", "rank", "bank", "column",
                                          "channel")

    def test_ip_channel_mapping_order(self):
        assert IP_CHANNEL_MAPPING.order == ("row", "column", "rank", "bank",
                                            "channel")

    def test_two_channels_default(self):
        assert DRAMConfig().channels == 2


class TestTable5CaseStudy1System:
    def test_system_configuration(self):
        config = case_study1_gpu_config()
        assert config.num_clusters == 4               # 4 SIMT cores
        assert config.core.warp_size == 32            # 32 lanes (warp size)
        assert config.clock_ghz == 0.95               # 950 MHz
        assert config.core.l1d.size_bytes == 16 * 1024
        assert config.core.l1t.size_bytes == 64 * 1024
        assert config.core.l1z.size_bytes == 32 * 1024
        assert config.l2.size_bytes == 128 * 1024
        assert DRAMConfig().data_rate_mbps == 1333

    def test_cache_line_sizes(self):
        config = case_study1_gpu_config()
        for cache in (config.core.l1d, config.core.l1t, config.core.l1z,
                      config.l2):
            assert cache.line_bytes == 128

    def test_case_study1_assembles_table5(self):
        """``make_cs1_setup``'s machine is Table 5's GPU with only the L1
        and L2 capacities scaled, beside 4 CPU cores and 2 channels."""
        from repro.harness.case_study1 import make_cs1_setup

        run_config, _ = make_cs1_setup("M1", "BAS")
        topology = run_config.topology
        preset = case_study1_gpu_config()
        gpu = topology.gpu
        l1s = {name: replace(getattr(preset.core, name),
                             size_bytes=getattr(gpu.core, name).size_bytes)
               for name in ("l1i", "l1d", "l1t", "l1z", "l1c")}
        assert gpu == replace(
            preset, core=replace(preset.core, **l1s),
            l2=replace(preset.l2, size_bytes=gpu.l2.size_bytes))
        assert gpu != preset
        assert topology.cpu.num_cores == 4
        assert [endpoint.dram.channels
                for endpoint in topology.memory] == [2]


class TestTable7CaseStudy2GPU:
    def test_gpu_configuration(self):
        config = case_study2_gpu_config()
        assert config.num_clusters == 6               # 6 SIMT clusters
        assert config.num_clusters * config.core.warp_size == 192
        assert config.clock_ghz == 1.0
        assert config.core.l1d.size_bytes == 32 * 1024
        assert config.core.l1d.ways == 8
        assert config.core.l1t.size_bytes == 48 * 1024
        assert config.core.l1t.ways == 24
        assert config.core.l1z.size_bytes == 32 * 1024
        assert config.l2.size_bytes == 2 * 1024 * 1024
        assert config.l2.ways == 32

    def test_raster_parameters(self):
        raster = case_study2_gpu_config().raster
        assert raster.raster_tile_px == 4             # 4x4-pixel raster tile
        assert raster.tc_tile_raster_tiles == 2       # TC tile = 2x2
        assert raster.tc_engines_per_cluster == 2
        assert raster.tc_bins_per_engine == 4
        assert raster.coarse_tiles_per_cycle == 1
        assert raster.fine_tiles_per_cycle == 1

    def test_dram(self):
        # 4-channel LPDDR3-1600 per Table 7.
        config = DRAMConfig(channels=4, data_rate_mbps=1600)
        assert config.channels == 4
        assert config.data_rate_mbps == 1600


@pytest.mark.slow
@pytest.mark.full_system
class TestTracingDeterminism:
    """Tracing is a pure observer: with a tracer attached, a run must
    reproduce the golden paper-table stats, the framebuffer CRC and the
    exact event count captured on the seed tree (the overhead contract of
    DESIGN.md §8)."""

    def test_traced_run_matches_the_golden_pins(self):
        import zlib

        from repro.harness.scenes import SceneSession
        from repro.soc.soc import EmeraldSoC
        from repro.trace import TraceConfig, validate_trace
        from tests.health.full_system import HEIGHT, WIDTH, tiny_config
        from tests.soc.test_port_fabric import GOLDEN

        session = SceneSession("cube", WIDTH, HEIGHT)
        config = tiny_config(num_frames=2)
        config.trace = TraceConfig()
        soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
        results = soc.run()

        assert results.end_tick == GOLDEN["end_tick"]
        assert results.mean_gpu_time == GOLDEN["mean_gpu_time"]
        assert results.mean_total_time == GOLDEN["mean_total_time"]
        assert results.dram_bytes == GOLDEN["dram_bytes"]
        assert results.row_hit_rate == GOLDEN["row_hit_rate"]
        assert results.bytes_per_activation == GOLDEN["bytes_per_activation"]
        assert results.display_requests == GOLDEN["display_requests"]
        assert results.display_completed == GOLDEN["display_completed"]
        assert results.display_aborted == GOLDEN["display_aborted"]
        assert results.mean_latency == GOLDEN["mean_latency"]
        assert zlib.crc32(soc.gpu.fb.color.tobytes()) == GOLDEN["fb_crc"]
        assert soc.events.events_fired == GOLDEN["events_fired"]

        # The recorded trace is itself well-formed, and its per-owner
        # fired counts account for every event of the golden total.
        trace = soc.tracer.to_dict()
        warnings = validate_trace(trace)
        assert all("async" in w for w in warnings)
        assert (sum(trace["otherData"]["events_fired"].values())
                == GOLDEN["events_fired"])


@pytest.mark.slow
@pytest.mark.full_system
class TestSanitizerDeterminism:
    """The sanitizer is a pure observer: armed but quiet, a run must
    reproduce the golden paper-table stats, the framebuffer CRC and the
    exact event count bit-identically (the overhead contract of
    DESIGN.md §9 — zero scheduled events, zero RNG draws)."""

    def test_armed_quiet_run_matches_the_golden_pins(self):
        import zlib

        from repro.harness.scenes import SceneSession
        from repro.sanitize import SanitizeConfig
        from repro.soc.soc import EmeraldSoC
        from tests.health.full_system import HEIGHT, WIDTH, tiny_config
        from tests.soc.test_port_fabric import GOLDEN

        session = SceneSession("cube", WIDTH, HEIGHT)
        config = tiny_config(num_frames=2, sanitize=SanitizeConfig())
        soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
        results = soc.run()

        assert results.end_tick == GOLDEN["end_tick"]
        assert results.mean_gpu_time == GOLDEN["mean_gpu_time"]
        assert results.mean_total_time == GOLDEN["mean_total_time"]
        assert results.dram_bytes == GOLDEN["dram_bytes"]
        assert results.row_hit_rate == GOLDEN["row_hit_rate"]
        assert results.bytes_per_activation == GOLDEN["bytes_per_activation"]
        assert results.display_requests == GOLDEN["display_requests"]
        assert results.display_completed == GOLDEN["display_completed"]
        assert results.display_aborted == GOLDEN["display_aborted"]
        assert results.mean_latency == GOLDEN["mean_latency"]
        assert zlib.crc32(soc.gpu.fb.color.tobytes()) == GOLDEN["fb_crc"]
        assert soc.events.events_fired == GOLDEN["events_fired"]

        # The sanitizer genuinely watched the run — and found it healthy.
        assert results.sanitizer_checks > 0
        assert results.sanitizer_violations == 0
        assert (soc.sanitizer.stats.counter("sweeps").value
                == results.sanitizer_checks)

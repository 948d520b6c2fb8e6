"""Port-fabric acceptance tests (the ISSUE's two hard gates).

1. The default (unbounded) fabric reproduces the seed's paper-table
   statistics — and its *event schedule* — bit-identically.  The golden
   numbers below were captured on the pre-port-fabric tree; any drift
   means the refactor changed timing, which is a regression by
   definition.  ``DTB_GOLDEN`` pins the same run under DASH,
   ``CS2_GOLDEN`` the standalone GPU's schedule, ``FIG14_PINS`` /
   ``PIPELINE_PINS`` the Fig. 14 unit and the GPU teapot frame at three
   scales, and ``DASH_PINS`` the default-scale Fig. 14 unit under both
   DASH cells, the same way.
2. Bounded-bandwidth mode exhibits genuine queueing delay: under the
   Fig. 12 high-load configuration, mean link traversal latency rises
   strictly as the link's service rate falls.
"""

import zlib
from dataclasses import replace

import pytest

from repro.common.config import DRAMConfig, GPUConfig
from repro.common.events import EventQueue
from repro.gpu.gpu import EmeraldGPU
from repro.harness.case_study1 import CS1Config, make_cs1_soc
from repro.harness.case_study2 import CS2Config, make_gpu
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_baseline_memory
from repro.soc.soc import EmeraldSoC
from tests.health.full_system import HEIGHT, WIDTH, build_soc, tiny_config

# Captured on the seed tree (commit 28c03a6) with build_soc(num_frames=2).
GOLDEN = {
    "end_tick": 240_000,
    "mean_gpu_time": 2599.0,
    "mean_total_time": 5289.0,
    "dram_bytes": {"cpu": 393_984, "gpu": 35_072, "display": 27_648},
    "row_hit_rate": 0.15115606936416184,
    "bytes_per_activation": 155.50017024174326,
    "display_requests": 108,
    "display_completed": 4,
    "display_aborted": 0,
    "mean_latency": {"cpu": 179.08452535760728,
                     "gpu": 1143.653284671533,
                     "display": 505.8703703703704},
    "fb_crc": 1444291790,
    "events_fired": 28_060,
}

# The GOLDEN run under DASH with system-bandwidth clustering (Case
# Study I's DTB cell), captured at commit 4b8bc38.
DTB_GOLDEN = {
    "end_tick": 240_000,
    "mean_gpu_time": 1763.0,
    "mean_total_time": 5053.0,
    "dram_bytes": {"cpu": 406_016, "gpu": 35_072, "display": 27_648},
    "row_hit_rate": 0.15053460889138998,
    "fb_crc": 1444291790,
    "events_fired": 28_271,
}

# Case study II (standalone GPU): one 64x48 cube frame at WT size 4,
# captured at commit e8bea44.
CS2_GOLDEN = {
    "cycles": 3_400,
    "fragment_cycles": 2_810,
    "fragments": 634,
    "dram_bytes": 34_944,
    "events_fired": 8_986,
    "fb_crc": 1362813562,
}


# The Fig. 14 unit (case study I: M1 under BAS, high load) at three
# scales; the default-scale end tick and event count date from commit
# f9eb076.
FIG14_PINS = {
    "default": {"end_tick": 1_357_432, "events_fired": 274_152,
                "fb_crc": 967344438,
                "row_hit_rate": 0.7729785508955553,
                "mean_gpu_time": 206497.33333333334},
    "smoke": {"end_tick": 240_000, "events_fired": 46_972,
              "fb_crc": 723212397, "row_hit_rate": 0.2994871794871795,
              "mean_gpu_time": 7703.0},
    "micro": {"end_tick": 120_000, "events_fired": 25_446,
              "fb_crc": 511478711, "row_hit_rate": 0.3783783783783784,
              "mean_gpu_time": 0.0},
}

_SMALL_CS1 = dict(width=48, height=36, texture_size=64,
                  gpu_frame_period_ticks=120_000,
                  display_period_ticks=60_000,
                  cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
FIG14_CONFIGS = {
    # The benchmarks/conftest.py quick-mode operating point.
    "default": CS1Config(num_frames=4),
    "smoke": CS1Config(num_frames=2, **_SMALL_CS1),
    "micro": CS1Config(num_frames=1, **_SMALL_CS1),
}

# One EmeraldGPU teapot frame (4 clusters, 2-channel baseline DRAM) at
# three resolutions; the default-scale cycles and event count date from
# commit f9eb076.
PIPELINE_PINS = {
    "default": {"cycles": 35_612, "fragments": 6_650,
                "events_fired": 125_678, "fb_crc": 2197508556,
                "dram_bytes": 146_944},
    "smoke": {"cycles": 14_433, "fragments": 1_690,
              "events_fired": 58_735, "fb_crc": 4187011321,
              "dram_bytes": 55_424},
    "micro": {"cycles": 9_863, "fragments": 417,
              "events_fired": 42_027, "fb_crc": 554418416,
              "dram_bytes": 35_456},
}

PIPELINE_SIZES = {"default": (256, 192), "smoke": (128, 96),
                  "micro": (64, 48)}

# The default-scale Fig. 14 unit under case study I's two DASH cells
# (DTB clusters on system bandwidth, DCB on CPU bandwidth), captured at
# commit c7911f4.  Unlike DTB_GOLDEN's tiny run, the two cells differ.
DASH_PINS = {
    "DTB": {"end_tick": 1_695_633, "events_fired": 308_696,
            "fb_crc": 967344438, "row_hit_rate": 0.5449806534823731,
            "mean_gpu_time": 256657.66666666666},
    "DCB": {"end_tick": 1_756_841, "events_fired": 307_758,
            "fb_crc": 967344438, "row_hit_rate": 0.5687183586464162,
            "mean_gpu_time": 250185.66666666666},
}


@pytest.mark.slow
@pytest.mark.full_system
class TestSeedIdentity:
    def test_unbounded_fabric_reproduces_seed_bit_identically(self):
        soc = build_soc(num_frames=2)
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
        # The strongest schedule-identity checks: the functional output
        # and the exact number of events the run fired.
        assert (zlib.crc32(soc.gpu.fb.color.tobytes())
                == GOLDEN["fb_crc"])
        assert soc.events.events_fired == GOLDEN["events_fired"]

    def test_unbounded_link_reports_no_queueing(self):
        soc = build_soc(num_frames=1)
        results = soc.run()
        link = results.link_stats["noc.link"]
        assert link["packets"] > 0
        assert "rejected" not in link        # bounded-only counters absent
        assert "stall_ticks" not in link


class TestDashGolden:
    def test_dtb_reproduces_its_golden(self):
        """DTB's GPU time and event count differ from GOLDEN's, so this
        pins DASH arbitration, not FR-FCFS.  There is no DCB case: DCB
        gives the same numbers at this scale.  The two differ only in
        whether TCM's clustering counts IP bandwidth.  TCM reclusters 4
        times in this 240k-tick run (``SoCRunConfig.dash_quantum_ticks``
        is 50,000), and DCB calls CPU core 1 intensive in two of those
        quanta where DTB does not, yet both cells make the same 3,554
        picks in the same order.  ``DASH_PINS`` tells them apart."""
        session = SceneSession("cube", WIDTH, HEIGHT)
        config = replace(tiny_config(num_frames=2), memory_config="DTB")
        soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
        results = soc.run()
        assert {
            "end_tick": results.end_tick,
            "mean_gpu_time": results.mean_gpu_time,
            "mean_total_time": results.mean_total_time,
            "dram_bytes": results.dram_bytes,
            "row_hit_rate": results.row_hit_rate,
            "fb_crc": zlib.crc32(soc.gpu.fb.color.tobytes()),
            "events_fired": soc.events.events_fired,
        } == DTB_GOLDEN

    @pytest.mark.parametrize("cell", sorted(DASH_PINS))
    def test_fig14_cell_reproduces_its_pin(self, cell):
        soc = make_cs1_soc("M1", cell, "high",
                           config=CS1Config(num_frames=4))
        results = soc.run()
        assert {
            "end_tick": results.end_tick,
            "events_fired": soc.events.events_fired,
            "fb_crc": zlib.crc32(soc.gpu.fb.color.tobytes()),
            "row_hit_rate": results.row_hit_rate,
            "mean_gpu_time": results.mean_gpu_time,
        } == DASH_PINS[cell]


class TestCS2Golden:
    def test_standalone_gpu_frame_reproduces_its_golden(self):
        config = CS2Config(width=64, height=48, texture_size=64)
        session = SceneSession("cube", config.width, config.height,
                               texture_size=config.texture_size)
        gpu = make_gpu(config, wt_size=4)
        stats = gpu.run_frame(session.frame(0))
        assert {
            "cycles": stats.cycles,
            "fragment_cycles": stats.fragment_cycles,
            "fragments": stats.fragments,
            "dram_bytes": stats.dram_bytes,
            "events_fired": gpu.events.events_fired,
            "fb_crc": zlib.crc32(gpu.fb.color.tobytes()),
        } == CS2_GOLDEN


class TestBenchPins:
    @pytest.mark.parametrize("scale", sorted(FIG14_PINS))
    def test_fig14_reproduces_its_pins(self, scale):
        soc = make_cs1_soc("M1", "BAS", "high", config=FIG14_CONFIGS[scale])
        results = soc.run()
        assert {
            "end_tick": results.end_tick,
            "events_fired": soc.events.events_fired,
            "fb_crc": zlib.crc32(soc.gpu.fb.color.tobytes()),
            "row_hit_rate": results.row_hit_rate,
            "mean_gpu_time": results.mean_gpu_time,
        } == FIG14_PINS[scale]

    @pytest.mark.parametrize("scale", sorted(PIPELINE_PINS))
    def test_pipeline_reproduces_its_pins(self, scale):
        width, height = PIPELINE_SIZES[scale]
        session = SceneSession("teapot", width, height)
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=2))
        gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), width, height,
                         memory=memory)
        stats = gpu.run_frame(session.frame(0))
        assert {
            "cycles": stats.cycles,
            "fragments": stats.fragments,
            "events_fired": events.events_fired,
            "fb_crc": zlib.crc32(gpu.fb.color.tobytes()),
            "dram_bytes": stats.dram_bytes,
        } == PIPELINE_PINS[scale]


def _bounded_run(bytes_per_cycle):
    session = SceneSession("cube", WIDTH, HEIGHT)
    config = tiny_config(num_frames=2)
    config.noc_capacity = 32
    config.noc_bytes_per_cycle = bytes_per_cycle
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    return soc.run()


@pytest.mark.slow
@pytest.mark.full_system
class TestBoundedBandwidth:
    def test_queueing_delay_rises_as_service_rate_falls(self):
        """Fig. 12 high-load regime: narrower links mean longer queues.

        Mean traversal (queueing + serialization + wire latency) must be
        strictly monotone in the service rate; the issuer-side latency
        histograms can't show this because ``issue_time`` is stamped at
        memory entry — the link stats are the point of the exercise.
        """
        means = []
        for bytes_per_cycle in (8.0, 4.0, 2.0):
            results = _bounded_run(bytes_per_cycle)
            link = results.link_stats["noc.link"]
            means.append(link["traversal.mean"])
            assert link["stall_ticks"] > 0          # senders were held
            assert link["queue_occupancy.mean"] > 0
        assert means[0] < means[1] < means[2]

    def test_bounded_run_still_completes_frames(self):
        results = _bounded_run(4.0)
        assert results.end_tick == GOLDEN["end_tick"]
        assert results.display_completed > 0

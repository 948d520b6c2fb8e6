"""Declarative assembly: Table 6 presets vs written-out descriptors,
hetero boots.

A Table 6 name is only a preset over :class:`SoCTopology`: the system
assembled from it is *bit-identical* to the same machine written out
field by field — same stats, same framebuffer CRC, same event count.
And a genuinely non-default topology (two GPU clusters, two
NoC-separated memory stacks, an asymmetric big/little CPU cluster)
boots, renders, and identifies itself with a distinct topology hash /
fleet cache key.
"""

import zlib

import pytest

from repro.common.config import (CPUClusterTopology, DRAMConfig, GPUConfig,
                                 MemoryTopology, NoCTopology, SoCTopology,
                                 scaled_gpu)
from repro.harness.scenes import SceneSession
from repro.soc.soc import EmeraldSoC, tiny_run_config

WIDTH, HEIGHT = 48, 36


def _run(config):
    session = SceneSession("cube", WIDTH, HEIGHT)
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    results = soc.run()
    return soc, results


#: The Table 6 presets under test, written out field by field.
_WRITTEN_OUT = {
    "BAS": MemoryTopology(name="BAS", dram=DRAMConfig(channels=2),
                          scheduler="frfcfs", router="address"),
    "HMC": MemoryTopology(name="HMC", dram=DRAMConfig(channels=2),
                          scheduler="frfcfs", router="source"),
}


def _preset_config(memory_config, num_frames=1):
    return tiny_run_config(memory_config, num_frames=num_frames)


def _descriptor_config(memory_config, num_frames=1):
    config = _preset_config(memory_config, num_frames)
    config.topology = SoCTopology(
        name=memory_config,
        gpu=scaled_gpu(GPUConfig(num_clusters=2)),
        cpu=CPUClusterTopology(num_cores=4),
        memory=(_WRITTEN_OUT[memory_config],),
        noc=NoCTopology(latency=12))
    return config


def _fingerprint(soc, results):
    return (results.end_tick,
            results.dram_bytes,
            results.row_hit_rate,
            results.mean_latency,
            zlib.crc32(soc.gpu.fb.color.tobytes()),
            soc.events.events_fired)


class TestDescriptorBitIdentity:
    @pytest.mark.parametrize("memory_config", sorted(_WRITTEN_OUT))
    def test_descriptor_matches_preset(self, memory_config):
        preset = _fingerprint(*_run(_preset_config(memory_config)))
        declared = _fingerprint(*_run(_descriptor_config(memory_config)))
        assert declared == preset

    def test_derived_and_explicit_topologies_hash_equal(self):
        derived = _preset_config("BAS")
        explicit = _descriptor_config("BAS")
        assert (derived.topology.topology_hash()
                == explicit.topology.topology_hash())

    def test_results_name_follows_descriptor(self):
        config = _descriptor_config("BAS")
        config.topology = SoCTopology(
            name="my-soc", gpu=config.topology.gpu,
            cpu=config.topology.cpu, memory=config.topology.memory,
            noc=config.topology.noc)
        _, results = _run(config)
        assert results.config_name == "my-soc"


def _hetero_topology():
    return SoCTopology(
        name="hetero",
        gpu=scaled_gpu(GPUConfig(num_clusters=2)),
        cpu=CPUClusterTopology(
            num_cores=4, core_types=("app", "big", "little", "little")),
        memory=(
            MemoryTopology(name="dram0", dram=DRAMConfig(channels=1)),
            MemoryTopology(name="dram1", dram=DRAMConfig(channels=1)),
        ),
        noc=NoCTopology())


def _hetero_config(num_frames=1):
    return tiny_run_config(num_frames=num_frames,
                           topology=_hetero_topology())


class TestHeterogeneousTopology:
    def test_boots_and_renders_a_frame(self):
        soc, results = _run(_hetero_config())
        assert len(results.frames) == 1
        assert soc.gpu.fb.coverage() > 0
        # Two NoC links, one per memory stack, behind the router.
        assert len(soc.noc.links) == 2
        assert soc.noc.router is not None
        # Both stacks actually served traffic (interleaved addresses).
        assert all(system.total_bytes() > 0
                   for system in soc.memory_endpoints)

    def test_run_is_deterministic(self):
        first = _fingerprint(*_run(_hetero_config()))
        second = _fingerprint(*_run(_hetero_config()))
        assert first == second

    def test_big_little_cores_assembled(self):
        soc, _ = _run(_hetero_config())
        assert soc.cpus.core_types == ("app", "big", "little", "little")
        # The big core is frame-coupled; the littles run continuously.
        assert [c.core_id for c in soc.cpus.frame_coupled_cores] == [1]

    def test_stats_dump_carries_topology_block(self, tmp_path):
        from repro.harness.report import write_stats_json
        soc, _ = _run(_hetero_config())
        path = tmp_path / "stats.json"
        payload = write_stats_json(soc.stat_groups(), str(path),
                                   topology=soc.topology)
        assert payload["topology"]["hash"] == soc.topology.topology_hash()
        parameters = payload["topology"]["parameters"]
        assert len(parameters["memory"]) == 2
        # Per-endpoint channel groups are disambiguated in the dump.
        assert "dram0.ch0" in payload and "dram1.ch0" in payload

    def test_cache_key_differs_from_preset(self):
        from repro.fleet import JobSpec, cache_key
        preset = JobSpec(name="preset", frames=1)
        hetero = JobSpec(name="hetero", frames=1,
                         topology=_hetero_topology().to_dict())
        assert cache_key(preset) != cache_key(hetero)
        # ...and from a *different* non-default topology.
        other = _hetero_topology().to_dict()
        other["gpu"]["num_clusters"] = 4
        assert cache_key(hetero) != cache_key(
            JobSpec(name="hetero4", frames=1, topology=other))

"""Topology descriptor layer: round-trips, validation, hashing."""

import pytest

from repro.common.config import (CHANNEL_MAPPING_NAMES, CPU_CORE_TYPES,
                                 ConfigError, CPUClusterTopology, DRAMConfig,
                                 GPUConfig, MemoryTopology, NoCLinkBudget,
                                 NoCTopology, SoCTopology,
                                 case_study1_gpu_config,
                                 case_study2_gpu_config, config_from_dict,
                                 config_to_dict, scaled_gpu)


class TestConfigRoundTrips:
    """Every preset serializes -> parses -> compares equal."""

    def test_case_study1_round_trips(self):
        config = case_study1_gpu_config()
        doc = config_to_dict(config)
        assert config_from_dict(GPUConfig, doc) == config

    def test_case_study1_scaled_round_trips(self):
        config = scaled_gpu(case_study1_gpu_config())
        doc = config_to_dict(config)
        assert config_from_dict(GPUConfig, doc) == config

    def test_case_study2_gpu_round_trips(self):
        config = case_study2_gpu_config()
        doc = config_to_dict(config)
        assert config_from_dict(GPUConfig, doc) == config

    def test_case_study2_scaled_round_trips(self):
        config = scaled_gpu(case_study2_gpu_config())
        doc = config_to_dict(config)
        assert config_from_dict(GPUConfig, doc) == config

    def test_unknown_key_rejected_with_known_list(self):
        doc = config_to_dict(DRAMConfig())
        doc["chanels"] = 2
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(DRAMConfig, doc)
        assert "chanels" in str(excinfo.value)
        assert "channels" in str(excinfo.value)       # names what IS valid

    def test_wrong_type_names_dotted_path(self):
        doc = config_to_dict(case_study1_gpu_config())
        doc["core"]["l1d"]["ways"] = "two"
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(GPUConfig, doc)
        assert "core.l1d.ways" in str(excinfo.value)

    @pytest.mark.parametrize("path,value", [
        ("gpu.core.l1d.ways", 0),
        ("gpu.core.max_warps", 0),
        ("gpu.clock_ghz", 0.0),
        ("memory[0].dram.banks", 0),
        ("memory[0].dram.timing.t_cas", -1),
        ("memory[0].scheduler", "fcfs"),
        ("noc.latency", -1),
    ])
    def test_refusal_names_the_dotted_path(self, path, value):
        doc = SoCTopology().to_dict()
        *parents, leaf = path.replace("[0]", ".0").split(".")
        node = doc
        for step in parents:
            node = node[int(step)] if step.isdigit() else node[step]
        node[leaf] = value
        with pytest.raises(ConfigError) as excinfo:
            SoCTopology.from_dict(doc)
        assert excinfo.value.path == path

    def test_cache_config_error_is_actionable(self):
        from repro.common.config import CacheConfig
        doc = config_to_dict(CacheConfig(16 * 1024))
        doc["ways"] = True       # bool is not an int here
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(CacheConfig, doc)
        assert "ways" in str(excinfo.value)


class TestSoCTopology:
    def test_default_round_trips_via_json(self):
        topo = SoCTopology()
        assert SoCTopology.from_json(topo.to_json()) == topo

    def test_heterogeneous_round_trips(self):
        topo = SoCTopology(
            name="hetero",
            gpu=GPUConfig(num_clusters=2),
            cpu=CPUClusterTopology(
                num_cores=4, core_types=("app", "big", "little", "little")),
            memory=(
                MemoryTopology(name="dram0", dram=DRAMConfig(channels=1)),
                MemoryTopology(name="dram1", dram=DRAMConfig(channels=1)),
            ),
            noc=NoCTopology(links=(NoCLinkBudget(capacity=8),
                                   NoCLinkBudget(capacity=8))))
        restored = SoCTopology.from_json(topo.to_json())
        assert restored == topo
        assert restored.cpu.core_types == ("app", "big", "little", "little")

    def test_unknown_field_rejected(self):
        doc = SoCTopology().to_dict()
        doc["gpus"] = doc.pop("gpu")
        with pytest.raises(ConfigError) as excinfo:
            SoCTopology.from_dict(doc)
        assert "gpus" in str(excinfo.value)

    def test_hash_excludes_name_only(self):
        a = SoCTopology(name="one")
        b = SoCTopology(name="two")
        assert a.topology_hash() == b.topology_hash()
        c = SoCTopology(name="one", noc=NoCTopology(latency=13))
        assert c.topology_hash() != a.topology_hash()

    def test_hash_is_stable_16_hex(self):
        digest = SoCTopology().topology_hash()
        assert len(digest) == 16
        int(digest, 16)         # hex

    def test_bad_scheduler_lists_valid_names(self):
        with pytest.raises(ConfigError) as excinfo:
            MemoryTopology(scheduler="fcfs")
        message = str(excinfo.value)
        assert "frfcfs" in message and "dash-cpu" in message

    def test_source_router_needs_two_channels(self):
        with pytest.raises(ConfigError):
            MemoryTopology(router="source", dram=DRAMConfig(channels=1))

    def test_channel_mappings_validated(self):
        with pytest.raises(ConfigError):
            MemoryTopology(channel_mappings=("baseline",))   # 2 channels
        with pytest.raises(ConfigError):
            MemoryTopology(channel_mappings=("baseline", "diagonal"))
        topo = MemoryTopology(channel_mappings=("baseline", "ip"))
        assert topo.channel_mappings == ("baseline", "ip")
        assert set(topo.channel_mappings) <= set(CHANNEL_MAPPING_NAMES)

    def test_multi_endpoint_requires_frfcfs(self):
        with pytest.raises(ConfigError):
            SoCTopology(memory=(
                MemoryTopology(name="a", scheduler="dash-cpu"),
                MemoryTopology(name="b")))

    def test_endpoint_names_must_be_unique(self):
        with pytest.raises(ConfigError):
            SoCTopology(memory=(MemoryTopology(name="dram"),
                                MemoryTopology(name="dram")))

    def test_link_budget_count_must_match_endpoints(self):
        with pytest.raises(ConfigError):
            SoCTopology(noc=NoCTopology(links=(NoCLinkBudget(capacity=4),
                                               NoCLinkBudget(capacity=4))))

    def test_core_types_match_cpu_profiles_registry(self):
        from repro.soc.cpu import CORE_PROFILES
        assert tuple(CORE_PROFILES) == CPU_CORE_TYPES

    def test_cpu_cluster_validates_core_types(self):
        with pytest.raises(ConfigError):
            CPUClusterTopology(num_cores=2, core_types=("app",))
        with pytest.raises(ConfigError):
            CPUClusterTopology(num_cores=2, core_types=("app", "huge"))
        with pytest.raises(ConfigError):
            # core 0 must stay the app thread (the render loop's partner)
            CPUClusterTopology(num_cores=2, core_types=("big", "app"))

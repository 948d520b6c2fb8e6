"""Topology-hash pins for the machines the repo's run configs assemble.

Checkpoints stamp these hashes and the fleet cache and the design-space
sweep key on them, so a refactor of how a run config names its machine
may change how the config below is built, never an expected hash.

An expected hash changes only when the descriptor's set of fields
changes, and then with a proof: each new hash equals, computed on the
tree before the change, the first 16 hex digits of the sha256 of the
canonical ``to_dict()`` (``sort_keys``, compact separators) with
``name`` and the deleted keys removed.
"""

import pytest

from repro.harness.case_study1 import CS1Config, make_cs1_setup
from repro.soc.soc import EmeraldSoC, SoCRunConfig

from tests.health.full_system import tiny_config

#: Hash of the default run config's machine (the BAS preset).
DEFAULT_HASH = "8175394759c556ae"
#: Case study I at the Fig. 14 scale, one machine per Table 6 name.
CS1_HASHES = {
    "BAS": "49a68442e6fa05e6",
    "DCB": "a2a2f80345665f55",
    "DTB": "7fc89875d90f1274",
    "HMC": "d88cb005308332f1",
}
#: The 48x36 two-cluster machine of selftest, chaos and the fleet worker.
TINY_HASH = "e64c23b54e79ddff"


def _assembled_hash(config) -> str:
    soc = EmeraldSoC(config, lambda index: None, framebuffer_address=0)
    return soc.topology.topology_hash()


def _fleet_worker_config(tmp_path):
    from repro.fleet import JobSpec
    from repro.fleet.worker import _run_config

    return _run_config(JobSpec(name="x"), str(tmp_path), None, None)


class TestTopologyPins:
    def test_default_run_config(self):
        assert _assembled_hash(SoCRunConfig()) == DEFAULT_HASH

    @pytest.mark.parametrize("cell", sorted(CS1_HASHES))
    def test_case_study1_cell(self, cell):
        run_config, _ = make_cs1_setup("M1", cell, "high",
                                       CS1Config(num_frames=4))
        assert _assembled_hash(run_config) == CS1_HASHES[cell]

    def test_tiny_config(self):
        assert _assembled_hash(tiny_config()) == TINY_HASH

    def test_fleet_worker_default_job(self, tmp_path):
        assert _assembled_hash(_fleet_worker_config(tmp_path)) == TINY_HASH

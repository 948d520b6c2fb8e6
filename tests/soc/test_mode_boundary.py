"""Functional <-> detailed checkpoint restores across topology presets.

The mode-switch contract (DESIGN.md §13) says a snapshot is pure
architectural state, restorable by either engine regardless of which one
wrote it.  This matrix pins that across the four memory-organization
presets.
"""

from dataclasses import replace

import pytest

from repro.harness.scenes import SceneSession
from repro.health import HealthConfig
from repro.health.recovery import resume_run
from repro.memory.builders import MEMORY_CONFIG_NAMES
from repro.sampling.ffwd import switch_fingerprint
from repro.sampling.functional import FunctionalSim
from repro.soc.checkpoint import GraphicsCheckpoint
from repro.soc.soc import EmeraldSoC

from tests.health.full_system import HEIGHT, WIDTH, tiny_config

BOUNDARY = 2      # switch after frame 2
TOTAL = 3         # one detailed frame after the switch


def preset_config(name, num_frames=TOTAL):
    return replace(tiny_config(num_frames=num_frames), memory_config=name)


def session():
    return SceneSession("cube", WIDTH, HEIGHT)


def functional_checkpoint(config):
    sim = FunctionalSim(config, session().frame, render="none")
    sim.run(BOUNDARY)
    return sim.checkpoint()


def detailed_checkpoint(config):
    boundary_config = replace(
        config, num_frames=BOUNDARY,
        health=HealthConfig(checkpoint_every=BOUNDARY))
    s = session()
    soc = EmeraldSoC(boundary_config, s.frame, s.framebuffer_address)
    soc.run()
    return soc.checkpoints.last


def resume_fingerprint(checkpoint, config):
    s = session()
    soc, results = resume_run(checkpoint, config, s.frame,
                              s.framebuffer_address)
    return switch_fingerprint(soc, results)


@pytest.mark.slow
@pytest.mark.full_system
@pytest.mark.parametrize("preset", MEMORY_CONFIG_NAMES)
class TestPresetMatrix:
    def test_functional_and_detailed_snapshots_resume_identically(self,
                                                                  preset):
        config = preset_config(preset)
        func_ckpt = functional_checkpoint(config)
        det_ckpt = detailed_checkpoint(config)
        # The snapshots themselves agree on the architectural payload...
        assert func_ckpt.trace_json == det_ckpt.trace_json
        assert func_ckpt.frame_index == det_ckpt.frame_index == BOUNDARY
        assert (func_ckpt.mode, det_ckpt.mode) == ("functional", "detailed")
        # ...and the detailed phases entered from either are bit-identical.
        assert resume_fingerprint(func_ckpt, config) \
            == resume_fingerprint(det_ckpt, config)

    def test_functional_engine_resumes_a_detailed_snapshot(self, preset):
        # The reverse direction: a detailed-mode snapshot continued
        # functionally reaches the same architectural state as a run that
        # was functional all along.
        config = preset_config(preset)
        det_ckpt = detailed_checkpoint(config)
        continued = FunctionalSim.from_checkpoint(
            det_ckpt, config, session().frame, render="none")
        continued.run(TOTAL)
        pure = FunctionalSim(config, session().frame, render="none")
        pure.run(TOTAL)
        assert continued.checkpoint().trace_json \
            == pure.checkpoint().trace_json


class TestModeField:
    def test_mode_survives_serialization(self):
        config = preset_config("BAS")
        checkpoint = functional_checkpoint(config)
        restored = GraphicsCheckpoint.from_json(checkpoint.to_json())
        assert restored.mode == "functional"
        assert restored == checkpoint

    def test_unknown_mode_rejected(self):
        from repro.soc.checkpoint import CheckpointError, capture
        with pytest.raises(CheckpointError):
            capture([], tick=0, frame_index=1, mode="hybrid")

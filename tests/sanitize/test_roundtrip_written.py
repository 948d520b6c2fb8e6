"""The checkpoint round trip checks the text that was written, once.

An armed SoC writing checkpoint files hands the sanitizer the text it
wrote: a serializer that writes the wrong bytes is caught although the
snapshot in memory is right.  Checking a captured snapshot against that
text parses it once, replays the restored trace once and re-records only
the shadow: the snapshot's own encoding is the trace it already holds.
"""

import json

import pytest

import repro.gl.trace as gl_trace
from repro.harness.scenes import SceneSession
from repro.health import HealthConfig
from repro.sanitize import CheckpointMismatchViolation, SanitizeConfig
from repro.sanitize.roundtrip import verify_roundtrip
from repro.soc.checkpoint import GraphicsCheckpoint, _payload_crc, capture
from repro.soc.soc import EmeraldSoC

from tests.health.full_system import HEIGHT, WIDTH, tiny_config
from tests.sampling.test_handoff import count_encodes_and_replays


@pytest.mark.full_system
def test_run_checks_the_bytes_written_not_the_snapshot_in_memory(
        tmp_path, monkeypatch):
    honest = GraphicsCheckpoint.to_json

    def misnumbered(self):
        doc = json.loads(honest(self))
        doc["frame_index"] += 1
        doc["crc"] = _payload_crc(doc)
        return json.dumps(doc)

    monkeypatch.setattr(GraphicsCheckpoint, "to_json", misnumbered)
    session = SceneSession("cube", WIDTH, HEIGHT)
    config = tiny_config(
        num_frames=1, sanitize=SanitizeConfig(),
        health=HealthConfig(checkpoint_every=1,
                            checkpoint_path=str(tmp_path / "ckpt.json")))
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    with pytest.raises(CheckpointMismatchViolation) as excinfo:
        soc.run()
    assert excinfo.value.details["field"] == "frame_index"
    assert soc.checkpoints.written == (tmp_path / "ckpt.json").read_text()


def test_verifying_written_text_replays_once_and_encodes_once(
        monkeypatch):
    session = SceneSession("cube", WIDTH, HEIGHT)
    checkpoint = capture([session.frame(index) for index in range(2)],
                         tick=2_000, frame_index=2,
                         topology=tiny_config().topology.topology_hash())
    written = checkpoint.to_json()
    counts = count_encodes_and_replays(monkeypatch)
    calls = {"recorder": 0, "snapshot": 0}

    def counting(key, original):
        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(gl_trace.TraceRecorder, "to_json",
                        counting("recorder", gl_trace.TraceRecorder.to_json))
    monkeypatch.setattr(GraphicsCheckpoint, "to_json",
                        counting("snapshot", GraphicsCheckpoint.to_json))
    summary = verify_roundtrip(checkpoint, written=written)
    assert summary["frames"] == 2
    assert counts == {"encode": 1, "replay": 1}
    assert calls == {"recorder": 1, "snapshot": 0}

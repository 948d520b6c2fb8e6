"""Tests for the system NoC and checkpoint edge cases."""

import json

import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.memory.builders import build_baseline_memory
from repro.memory.request import MemRequest, SourceType
from repro.soc.checkpoint import (CheckpointError, GraphicsCheckpoint,
                                  capture)
from repro.soc.noc import SystemNoC
from tests.fake_memory import send


class TestSystemNoC:
    def test_adds_latency(self):
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=1))
        noc = SystemNoC(events, memory, latency=25)
        done = []
        send(noc, 0, source=SourceType.CPU, done=done.append)
        events.run()
        assert len(done) == 1
        # issue_time is stamped by the memory system after the NoC hop.
        assert done[0].issue_time >= 25

    def test_cache_port_interface(self):
        """A GPU request reaches DRAM through the NoC's ingress port, the
        way the GPU L2's misses do."""
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=1))
        noc = SystemNoC(events, memory, latency=5)
        times = []
        send(noc, 0, done=lambda _: times.append(events.now))
        events.run()
        assert times and times[0] > 5
        assert memory.total_bytes(SourceType.GPU) == 128

    def test_write_without_callback(self):
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=1))
        noc = SystemNoC(events, memory, latency=5)
        send(noc, 0, write=True)
        events.run()
        assert memory.total_bytes(SourceType.GPU) == 128

    def test_access_passes_completed_request_through(self):
        """The callback receives the completed MemRequest, so latency and
        fault markers flow back to the issuer."""
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=1))
        noc = SystemNoC(events, memory, latency=5)
        seen = []
        send(noc, 0x400, done=seen.append)
        events.run()
        assert len(seen) == 1
        request = seen[0]
        assert isinstance(request, MemRequest)
        assert request.address == 0x400
        assert request.complete_time is not None
        assert request.complete_time > request.issue_time


def _valid_doc() -> dict:
    doc = json.loads(capture([], tick=123, frame_index=2).to_json())
    # Schema-validation tests below mutate one field at a time; drop the
    # integrity CRC so the mutation reaches the validator under test
    # instead of tripping the corruption check first (covered separately
    # by TestCheckpointCorruption).
    doc.pop("crc")
    return doc


class TestCheckpointValidation:
    """from_json must reject damaged snapshots, naming the bad field."""

    def test_not_json(self):
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json("{truncated")
        assert excinfo.value.field == "$"

    def test_not_an_object(self):
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json("[1, 2]")
        assert excinfo.value.field == "$"

    def test_wrong_version(self):
        doc = _valid_doc()
        doc["version"] = 99
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == "version"

    @pytest.mark.parametrize("key", ["tick", "frame_index"])
    def test_missing_int_field(self, key):
        doc = _valid_doc()
        del doc[key]
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == key

    @pytest.mark.parametrize("bad", ["12", 3.5, True, None])
    def test_non_integer_tick(self, bad):
        doc = _valid_doc()
        doc["tick"] = bad
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == "tick"

    def test_negative_frame_index(self):
        doc = _valid_doc()
        doc["frame_index"] = -1
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == "frame_index"
        assert "frame_index" in str(excinfo.value)

    def test_missing_trace(self):
        doc = _valid_doc()
        del doc["trace"]
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == "trace"

    def test_trace_frames_not_a_list(self):
        doc = _valid_doc()
        doc["trace"]["frames"] = {"oops": 1}
        with pytest.raises(CheckpointError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == "trace.frames"

    def test_error_is_a_value_error(self):
        """Callers catching ValueError keep working."""
        with pytest.raises(ValueError):
            GraphicsCheckpoint.from_json("null")


class TestCheckpointCorruption:
    """The integrity layer: truncation and bit rot die typed, with CRC
    detail, before schema validation even runs."""

    def test_truncated_snapshot_is_corruption_not_schema(self):
        from repro.soc.checkpoint import CheckpointCorruptError
        text = capture([], tick=1, frame_index=1).to_json()
        with pytest.raises(CheckpointCorruptError) as excinfo:
            GraphicsCheckpoint.from_json(text[: len(text) // 2])
        assert excinfo.value.field == "$"
        assert "truncated" in str(excinfo.value)
        assert excinfo.value.expected_crc is None    # no CRC readable

    def test_bit_rot_trips_the_crc_with_both_digests(self):
        from repro.soc.checkpoint import (CheckpointCorruptError,
                                          _payload_crc)
        doc = json.loads(capture([], tick=123, frame_index=2).to_json())
        doc["tick"] = 124                            # one flipped value
        with pytest.raises(CheckpointCorruptError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == "crc"
        assert excinfo.value.expected_crc == doc["crc"]
        assert excinfo.value.actual_crc == _payload_crc(doc)
        # The message carries both digests for the post-mortem.
        assert f"0x{doc['crc']:08x}" in str(excinfo.value)

    def test_non_integer_crc_is_corruption(self):
        from repro.soc.checkpoint import CheckpointCorruptError
        doc = json.loads(capture([], tick=1, frame_index=1).to_json())
        doc["crc"] = "abc"
        with pytest.raises(CheckpointCorruptError) as excinfo:
            GraphicsCheckpoint.from_json(json.dumps(doc))
        assert excinfo.value.field == "crc"

    def test_pre_crc_snapshots_still_load(self):
        """Snapshots written before the CRC existed have no field; they
        skip the integrity check and rely on schema validation."""
        doc = json.loads(capture([], tick=7, frame_index=1).to_json())
        doc.pop("crc")
        restored = GraphicsCheckpoint.from_json(json.dumps(doc))
        assert restored.tick == 7

    def test_corruption_is_a_checkpoint_error(self):
        """Callers catching CheckpointError (the recovery path) also see
        corruption — the subclass only adds detail."""
        from repro.soc.checkpoint import CheckpointCorruptError
        assert issubclass(CheckpointCorruptError, CheckpointError)

    def test_crc_is_format_independent(self):
        """Reformatting (indentation, key order) does not trip the CRC —
        it digests the canonical serialization."""
        doc = json.loads(capture([], tick=9, frame_index=1).to_json())
        reformatted = json.dumps(doc, indent=2, sort_keys=True)
        assert GraphicsCheckpoint.from_json(reformatted).tick == 9


class TestCheckpointRoundTrip:
    def test_round_trip_preserves_fields(self):
        from repro.harness.scenes import SceneSession
        session = SceneSession("cube", 32, 24)
        original = capture([session.frame(0), session.frame(1)],
                           tick=5_000, frame_index=2)
        restored = GraphicsCheckpoint.from_json(original.to_json())
        assert restored.tick == original.tick
        assert restored.frame_index == original.frame_index
        assert len(restored.restore_frames()) == 2

    def test_round_trip_replays_identical_draws(self):
        from repro.harness.scenes import SceneSession
        session = SceneSession("cube", 32, 24)
        original = capture([session.frame(0)], tick=1, frame_index=1)
        [frame] = GraphicsCheckpoint.from_json(
            original.to_json()).restore_frames()
        reference = session.frame(0)
        assert len(frame.draw_calls) == len(reference.draw_calls)
        assert frame.num_primitives == reference.num_primitives
        assert frame.color_base == reference.color_base


class TestDisplayDashRegistration:
    def test_display_without_dash_runs(self):
        from repro.soc.display import DisplayController
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=1))
        display = DisplayController(events, memory,
                                    framebuffer_address=0,
                                    frame_bytes=16 * 16 * 4,
                                    period_ticks=10_000, dash_state=None)
        display.start()
        events.run_until(25_000)
        display.stop()
        events.run()
        assert display.frames_completed >= 2

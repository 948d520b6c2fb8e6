"""Snapshot documents keep their bytes, and move their trace cheaply.

The golden digests were taken from ``to_json`` of the same snapshots
when the writer still decoded and re-encoded the trace: writing splices
the encoded trace into the document instead, so every byte (and the
payload CRC) must stay where it was.  Writing a snapshot parses its
trace zero times; reading one back and restoring it parses it once and
never encodes it again.

The snapshots carry the tiny machine's topology hash, so a digest
changes only with that hash (``tests/soc/test_topology_pins.py``), and
then only to the previous writer's digest of the same snapshot stamped
with the new hash.
"""

import hashlib
import json

import pytest

from repro.harness.scenes import SceneSession
from repro.soc.checkpoint import GraphicsCheckpoint, capture

from tests.health.full_system import HEIGHT, WIDTH, tiny_config

#: sha256 of ``to_json()`` of the 2-frame 48x36 cube snapshot below.
GOLDEN_FULL = \
    "3b270673f1c988b2db0583c01516787f62f10c30b3ba09b2007b631eccd40d9c"
GOLDEN_BARE = \
    "54a1b4a506d3e9315efb86ae402fbf25de8124745ecd057de7521b5c6c2d6f98"
GOLDEN_REWOUND = \
    "a8273d04fdc1024bc6cd565161bbe7d5ea90844567277e24d0b6370bd363ac17"


def snapshot(**fields):
    session = SceneSession("cube", WIDTH, HEIGHT)
    return capture([session.frame(index) for index in range(2)],
                   tick=12_345, frame_index=2,
                   topology=tiny_config().topology.topology_hash(),
                   **fields)


def full_snapshot():
    return snapshot(rng={"dram": [1, 2]}, job="job-key", mode="detailed",
                    claim="srv:1")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_trace_parses_and_encodes(monkeypatch) -> dict:
    """``loads``: every ``json.loads``; ``trace_dumps``: every
    ``json.dumps`` of a trace document (one with a ``buffers`` table)."""
    counts = {"loads": 0, "trace_dumps": 0}
    loads, dumps = json.loads, json.dumps

    def counting_loads(*args, **kwargs):
        counts["loads"] += 1
        return loads(*args, **kwargs)

    def counting_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "buffers" in obj:
            counts["trace_dumps"] += 1
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    return counts


class TestSnapshotBytes:
    def test_captured_snapshot_writes_the_golden_bytes(self):
        assert digest(full_snapshot().to_json()) == GOLDEN_FULL
        assert digest(snapshot().to_json()) == GOLDEN_BARE

    def test_encoded_before_writing_writes_the_same_bytes(self):
        captured = full_snapshot()
        encoded = captured.trace_json
        written = captured.to_json()
        assert digest(written) == GOLDEN_FULL
        assert f'"trace": {encoded}, ' in written

    def test_read_back_snapshot_writes_the_same_bytes(self):
        text = full_snapshot().to_json()
        restored = GraphicsCheckpoint.from_json(text)
        assert restored.to_json() == text
        assert digest(restored.rewind(1).to_json()) == GOLDEN_REWOUND


class TestTraceParsedFewestTimes:
    def test_writing_parses_nothing_and_encodes_the_trace_once(
            self, monkeypatch):
        captured = full_snapshot()
        counts = count_trace_parses_and_encodes(monkeypatch)
        captured.to_json()
        assert counts == {"loads": 0, "trace_dumps": 1}
        captured.to_json()
        assert counts == {"loads": 0, "trace_dumps": 1}

    def test_reading_and_restoring_parse_once_and_encode_nothing(
            self, monkeypatch):
        text = full_snapshot().to_json()
        counts = count_trace_parses_and_encodes(monkeypatch)
        frames = GraphicsCheckpoint.from_json(text).restore_frames()
        assert len(frames) == 2
        assert counts == {"loads": 1, "trace_dumps": 0}

    @pytest.mark.parametrize("count", [1, 2])
    def test_rewinding_a_read_back_snapshot_parses_nothing_more(
            self, monkeypatch, count):
        restored = GraphicsCheckpoint.from_json(full_snapshot().to_json())
        counts = count_trace_parses_and_encodes(monkeypatch)
        assert len(restored.rewind(count).restore_frames()) == 2 - count
        assert counts == {"loads": 0, "trace_dumps": 0}

"""Tests for the trace-driven (GemDroid-style) replay methodology."""

import pytest

from repro.common.config import (DRAMConfig, GPUConfig, MemoryTopology,
                                 NoCTopology, SoCTopology, scaled_gpu)
from repro.common.events import EventQueue
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_baseline_memory, build_memory_by_name
from repro.memory.request import SourceType
from repro.soc.soc import EmeraldSoC, SoCRunConfig
from repro.soc.tracedriven import (
    MemoryTrace,
    MemoryTraceError,
    TraceEntry,
    TraceReplayer,
    record_soc_trace,
)


def run_recorded_soc(memory_config="BAS", frames=2, topology=None):
    session = SceneSession("cube", 64, 48)
    config = SoCRunConfig(
        width=64, height=48, num_frames=frames,
        memory_config=memory_config,
        dram=DRAMConfig(channels=2),
        gpu=scaled_gpu(GPUConfig(num_clusters=2)),
        gpu_frame_period_ticks=150_000, display_period_ticks=75_000,
        cpu_work_per_frame=40, topology=topology)
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    trace = record_soc_trace(soc)
    results = soc.run()
    return soc, results, trace


class TestRecording:
    def test_trace_captures_all_sources(self):
        _, results, trace = run_recorded_soc()
        by_source = trace.bytes_by_source()
        assert by_source["cpu"] > 0
        assert by_source["gpu"] > 0
        assert by_source["display"] > 0

    def test_trace_bytes_match_execution(self):
        _, results, trace = run_recorded_soc()
        by_source = trace.bytes_by_source()
        for source in ("cpu", "gpu", "display"):
            # Recorded at NoC ingress == serviced by DRAM (minus in-flight
            # tail at stop time).
            assert by_source[source] >= results.dram_bytes[source] * 0.95

    def test_entries_time_ordered(self):
        _, _, trace = run_recorded_soc()
        times = [e.time for e in trace.entries]
        assert times == sorted(times)

    def test_duration(self):
        _, _, trace = run_recorded_soc()
        assert trace.duration() > 0

    def test_two_endpoint_trace_bytes_match_execution(self):
        """With several memory endpoints every NoC link is recorded, so
        the trace still carries each source's DRAM traffic, in order."""
        topology = SoCTopology(
            name="two-stacks",
            gpu=scaled_gpu(GPUConfig(num_clusters=2)),
            memory=(MemoryTopology(name="dram0", dram=DRAMConfig(channels=1)),
                    MemoryTopology(name="dram1", dram=DRAMConfig(channels=1))),
            noc=NoCTopology())
        _, results, trace = run_recorded_soc(topology=topology)
        by_source = trace.bytes_by_source()
        for source in ("cpu", "gpu", "display"):
            assert by_source[source] >= results.dram_bytes[source] * 0.95
        times = [e.time for e in trace.entries]
        assert times == sorted(times)


# The one-frame BAS recording: entry count, digest, events fired and end
# tick.  Recording observes only, so the run itself is unchanged too.
RECORDED_GOLDEN = (
    2279,
    "9798ac97e14a827774cc7f1829bed23a878da98bbf3012ff4926c2e3c6cedaff",
    20327,
    150_000,
)


class TestRecordedGolden:
    def test_one_frame_recording_reproduces_its_golden(self):
        soc, results, trace = run_recorded_soc("BAS", frames=1)
        assert (len(trace), trace.digest(), soc.events.events_fired,
                results.end_tick) == RECORDED_GOLDEN


class TestReplay:
    def test_replay_reproduces_traffic_volume(self):
        _, _, trace = run_recorded_soc()
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=2))
        replay = TraceReplayer(trace).replay(events, memory)
        assert replay.total_bytes["gpu"] == trace.bytes_by_source()["gpu"]
        assert replay.mean_latency["cpu"] > 0
        assert 0.0 < replay.row_hit_rate <= 1.0

    def test_replay_under_alternative_config(self):
        """The GemDroid workflow: record once, evaluate HMC by replay."""
        _, _, trace = run_recorded_soc("BAS")
        events = EventQueue()
        memory, _ = build_memory_by_name("HMC", events,
                                         DRAMConfig(channels=2))
        replay = TraceReplayer(trace).replay(events, memory)
        # Source partitioning still observable in replay.
        assert memory.channels[0].stats.counter("bytes.gpu").value == 0

    def test_empty_trace_rejected(self):
        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=1))
        with pytest.raises(ValueError):
            TraceReplayer(MemoryTrace()).replay(events, memory)

    def test_replay_is_open_loop(self):
        """Replay end time tracks the recorded schedule, not the memory
        system: slower DRAM barely stretches the replay (no feedback) —
        whereas the execution-driven run visibly slows down."""
        _, _, trace = run_recorded_soc("BAS")

        def replay_with(rate):
            events = EventQueue()
            memory = build_baseline_memory(
                events, DRAMConfig(channels=2, data_rate_mbps=rate))
            return TraceReplayer(trace).replay(events, memory)

        fast = replay_with(1333)
        slow = replay_with(267)
        # Latencies explode under slow DRAM...
        assert slow.mean_latency["gpu"] > fast.mean_latency["gpu"] * 2
        # ...but the injection schedule is fixed: only the drain tail grows
        # (no component slows down to wait, unlike execution-driven mode).
        assert slow.end_tick < fast.end_tick * 1.8

    def test_dash_replay_with_synthetic_progress(self):
        _, _, trace = run_recorded_soc("BAS")
        events = EventQueue()
        memory, dash_state = build_memory_by_name(
            "DTB", events, DRAMConfig(channels=2))
        dash_state.register_ip(SourceType.GPU, 150_000)
        dash_state.register_ip(SourceType.DISPLAY, 75_000)
        replay = TraceReplayer(trace).replay(
            events, memory, dash_state=dash_state,
            gpu_period=150_000, display_period=75_000)
        assert replay.mean_latency["gpu"] > 0


class TestDeterminism:
    """Capture and replay are deterministic; corrupt traces die typed."""

    def test_two_captures_of_the_same_run_digest_identically(self):
        _, _, first = run_recorded_soc("BAS")
        _, _, second = run_recorded_soc("BAS")
        assert first.digest() == second.digest()
        assert first.to_json() == second.to_json()

    def test_two_replays_of_one_trace_are_identical(self):
        _, _, trace = run_recorded_soc("BAS")

        def replay_once():
            events = EventQueue()
            memory = build_baseline_memory(events, DRAMConfig(channels=2))
            return TraceReplayer(trace).replay(events, memory)

        first = replay_once()
        second = replay_once()
        assert first.end_tick == second.end_tick
        assert first.total_bytes == second.total_bytes
        assert first.mean_latency == second.mean_latency
        assert first.row_hit_rate == second.row_hit_rate

    def test_serialization_round_trip_preserves_the_digest(self):
        _, _, trace = run_recorded_soc("BAS")
        restored = MemoryTrace.from_json(trace.to_json())
        assert restored.digest() == trace.digest()
        assert restored.entries == trace.entries


class TestCorruptTraces:
    def trace_json(self):
        _, _, trace = run_recorded_soc("BAS", frames=1)
        return trace.to_json()

    def test_truncated_file_rejected(self):
        text = self.trace_json()
        with pytest.raises(MemoryTraceError):
            MemoryTrace.from_json(text[:len(text) // 2])

    def test_non_object_root_rejected(self):
        with pytest.raises(MemoryTraceError):
            MemoryTrace.from_json("[1, 2]")

    def test_bad_version_rejected(self):
        with pytest.raises(MemoryTraceError) as excinfo:
            MemoryTrace.from_json('{"version": 99, "entries": []}')
        assert excinfo.value.detail == "version"

    def test_malformed_entry_names_its_index(self):
        import json
        doc = json.loads(self.trace_json())
        doc["entries"][3] = [1, 2, 3]     # wrong arity
        with pytest.raises(MemoryTraceError) as excinfo:
            MemoryTrace.from_json(json.dumps(doc))
        assert excinfo.value.detail == "entries[3]"

    def test_unknown_source_names_its_entry(self):
        import json
        doc = json.loads(self.trace_json())
        doc["entries"][0][4] = "dma"
        with pytest.raises(MemoryTraceError) as excinfo:
            MemoryTrace.from_json(json.dumps(doc))
        assert excinfo.value.detail == "entries[0].source"

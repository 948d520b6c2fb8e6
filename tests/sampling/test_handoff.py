"""Window handoffs stay in memory; a snapshot encodes only to leave.

A snapshot captured in this process holds its frames: the sampler hands
it to the next window without encoding or replaying a trace.  Whatever
takes a snapshot out of the process (``to_json``, ``==``, the sanitizer's
round trip) still sees the bytes an encoding at capture time would give,
and a resume from the snapshot's text twin runs the same simulation.
"""

from dataclasses import replace

import pytest

import repro.gl.trace as gl_trace
import repro.health.recovery as recovery
import repro.soc.checkpoint as checkpoint_module
import repro.soc.soc as soc_module
from repro.bench import _ffwd_operating_point
from repro.harness.case_study1 import make_cs1_setup
from repro.harness.scenes import SceneSession
from repro.health import HealthConfig
from repro.health.recovery import resume_soc
from repro.sampling import (FunctionalSim, fb_crc, parse_sample_spec,
                            run_sampled)
from repro.sanitize import SanitizeConfig
from repro.soc.checkpoint import GraphicsCheckpoint, capture
from repro.soc.soc import EmeraldSoC

from tests.health.full_system import HEIGHT, WIDTH, tiny_config

MACHINE = tiny_config().topology.topology_hash()


def session():
    return SceneSession("cube", WIDTH, HEIGHT)


def micro_point():
    config, spec, _, _ = _ffwd_operating_point("micro")
    run_config, factory = make_cs1_setup("M1", "BAS", "high", config=config)
    return run_config, factory, parse_sample_spec(spec, config.num_frames)


def count_encodes_and_replays(monkeypatch) -> dict:
    """Count every trace encode and replay, wherever ``replay`` is bound.

    Every encode builds its document through ``TraceRecorder.to_doc``
    (``TraceRecorder.to_json`` and ``GraphicsCheckpoint.to_json`` alike).
    """
    counts = {"encode": 0, "replay": 0}

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(gl_trace.TraceRecorder, "to_doc",
                        counting("encode", gl_trace.TraceRecorder.to_doc))
    replay = counting("replay", gl_trace.replay)
    for module in (gl_trace, checkpoint_module):
        monkeypatch.setattr(module, "replay", replay)
    return counts


def captured_and_text_twin():
    s = session()
    frames = [s.frame(index) for index in range(3)]
    captured = capture(frames, tick=7_000, frame_index=3, topology=MACHINE,
                       rng={"dram": [1, 2]}, job="job-key",
                       mode="detailed", claim="server:1")
    return captured, GraphicsCheckpoint.from_json(captured.to_json())


class TestSampledHandoff:
    def test_micro_run_encodes_and_replays_no_trace(self, monkeypatch):
        counts = count_encodes_and_replays(monkeypatch)
        run_config, factory, schedule = micro_point()
        sampled = run_sampled(run_config, factory, schedule)
        assert len(sampled.samples) == 2
        assert counts == {"encode": 0, "replay": 0}

    def test_sanitized_micro_run_round_trips_every_snapshot(self,
                                                            monkeypatch):
        # The armed sanitizer sends every snapshot a SoC takes through
        # verify_roundtrip (from_json, replay); mode "raise"
        # would abort the run on the first mismatch.  Detailed windows
        # take no snapshot: each starts from one the functional pass
        # took, so nothing reaches the round trip, yet every window
        # still runs armed.
        verified = []
        original = soc_module.verify_roundtrip

        def recording(checkpoint, **kwargs):
            verified.append(checkpoint.frame_index)
            return original(checkpoint, **kwargs)

        monkeypatch.setattr(soc_module, "verify_roundtrip", recording)
        run_config, factory, schedule = micro_point()
        sampled = run_sampled(
            replace(run_config, sanitize=SanitizeConfig()), factory,
            schedule)
        # 3:4:2 over 8 frames: detailed [0, 3) and [4, 7).
        assert verified == []
        assert len(sampled.window_results) == 2
        for result in sampled.window_results:
            assert result.sanitizer_checks > 0
            assert result.sanitizer_violations == 0


class TestCapturedAndTextTwinAgree:
    def test_equal_and_same_trace(self):
        captured, text = captured_and_text_twin()
        assert captured == text
        assert captured.trace_json == text.trace_json

    def test_restored_frames_recapture_to_the_same_trace(self):
        captured, text = captured_and_text_twin()

        def recaptured(checkpoint):
            return capture(checkpoint.restore_frames(), tick=0,
                           frame_index=3, topology=MACHINE).trace_json

        assert recaptured(captured) == recaptured(text) == text.trace_json

    def test_rewind_writes_the_same_snapshot(self):
        captured, text = captured_and_text_twin()
        assert captured.rewind(1).to_json() == text.rewind(1).to_json()

    def test_only_the_text_twin_replays(self, monkeypatch):
        captured, _ = captured_and_text_twin()
        written = captured.to_json()
        counts = count_encodes_and_replays(monkeypatch)
        text = GraphicsCheckpoint.from_json(written)
        assert counts["replay"] == 1
        assert len(captured.restore_frames()) == 3
        assert len(text.restore_frames()) == 3
        assert counts["replay"] == 1

    def test_restore_hands_out_a_new_list(self):
        captured, _ = captured_and_text_twin()
        captured.restore_frames().clear()
        assert len(captured.restore_frames()) == 3


class TestLateEncodingIsExact:
    def test_functional_snapshot_encoded_after_running_on(self):
        config = tiny_config(num_frames=4)
        sim = FunctionalSim(config, session().frame, render="boundary")
        sim.run(2)
        early = sim.checkpoint()
        at_capture = sim.checkpoint().to_json()
        sim.run(4)
        assert early.to_json() == at_capture

    @pytest.mark.full_system
    def test_detailed_snapshot_encoded_after_the_run(self, monkeypatch):
        taken = []
        original = recovery.capture

        def recording(frames, **kwargs):
            snapshot = original(frames, **kwargs)
            taken.append((snapshot, original(frames, **kwargs).trace_json))
            return snapshot

        monkeypatch.setattr(recovery, "capture", recording)
        s = session()
        config = tiny_config(num_frames=3,
                             health=HealthConfig(checkpoint_every=1))
        EmeraldSoC(config, s.frame, s.framebuffer_address).run()
        assert len(taken) == 3
        for snapshot, at_capture in taken:
            assert snapshot.trace_json == at_capture


@pytest.mark.full_system
class TestResumeFromEitherTwin:
    def test_same_run_and_same_next_snapshot(self):
        s = session()
        boundary = tiny_config(num_frames=1,
                               health=HealthConfig(checkpoint_every=1))
        first = EmeraldSoC(boundary, s.frame, s.framebuffer_address)
        first.run()
        captured = first.checkpoints.last
        text = GraphicsCheckpoint.from_json(captured.to_json())

        def resumed(checkpoint):
            s = session()
            config = tiny_config(num_frames=3,
                                 health=HealthConfig(checkpoint_every=1))
            soc = resume_soc(checkpoint, config, s.frame,
                             s.framebuffer_address)
            results = soc.run()
            return (results.end_tick, soc.events.events_fired, fb_crc(soc),
                    soc.checkpoints.last.to_json())

        assert resumed(captured) == resumed(text)

"""The worker's loud-death contract, in-process (no pool, no supervisor)."""

import json
import os

import pytest

from repro.fleet.job import JobSpec
from repro.fleet.worker import (CHECKPOINT_FILE, PREEMPT_FLAG, RESULT_FILE,
                                _load_resume_checkpoint, run_job,
                                worker_entry)


def read_result(jobdir):
    with open(os.path.join(jobdir, RESULT_FILE)) as handle:
        return json.load(handle)


class TestResumeOwnership:
    """A snapshot left behind by a *different* job (reused workdir) is
    set aside, never resumed — resuming it would publish a wrong payload
    under the new job's cache key."""

    def _plant(self, jobdir, job):
        from repro.soc.checkpoint import capture
        from repro.soc.soc import tiny_run_config
        path = os.path.join(jobdir, CHECKPOINT_FILE)
        machine = tiny_run_config().topology.topology_hash()
        with open(path, "w") as handle:
            handle.write(capture([], tick=9, frame_index=1, topology=machine,
                                 job=job).to_json())
        return path

    def test_foreign_checkpoint_is_set_aside(self, tmp_path):
        path = self._plant(str(tmp_path), job="somebody-else")
        checkpoint, fallback = _load_resume_checkpoint(str(tmp_path), "me")
        assert checkpoint is None
        assert "does not match" in fallback
        assert not os.path.exists(path)            # no longer resumable
        assert os.path.exists(path + ".foreign")   # evidence kept

    def test_unowned_checkpoint_is_set_aside_too(self, tmp_path):
        """Pre-ownership snapshots carry no token; with the job key
        expected they are just as untrustworthy in a reused directory."""
        self._plant(str(tmp_path), job=None)
        checkpoint, fallback = _load_resume_checkpoint(str(tmp_path), "me")
        assert checkpoint is None
        assert "does not match" in fallback

    def test_matching_checkpoint_is_resumed(self, tmp_path):
        self._plant(str(tmp_path), job="me")
        checkpoint, fallback = _load_resume_checkpoint(str(tmp_path), "me")
        assert checkpoint is not None
        assert fallback is None
        assert checkpoint.frame_index == 1


@pytest.mark.slow
@pytest.mark.full_system
class TestRunJob:
    def test_clean_run_publishes_ok_result(self, tmp_path):
        jobdir = str(tmp_path)
        doc = run_job(JobSpec(name="clean", frames=1), jobdir)
        assert doc == read_result(jobdir)      # returned == persisted
        assert doc["outcome"] == "ok"
        assert doc["resumed_from"] == 0
        assert doc["payload"]["fb_crc"].startswith("0x")
        assert doc["checkpoints"] == 1
        # The resume substrate was exercised: a loadable checkpoint exists.
        assert os.path.exists(os.path.join(jobdir, CHECKPOINT_FILE))

    def test_corrupt_checkpoint_falls_back_to_scratch(self, tmp_path):
        """A damaged snapshot is quarantined (typed, not a traceback) and
        the attempt reruns from tick 0 — same payload either way."""
        jobdir = str(tmp_path)
        spec = JobSpec(name="fallback", frames=1)
        clean = run_job(spec, jobdir)

        checkpoint = os.path.join(jobdir, CHECKPOINT_FILE)
        with open(checkpoint) as handle:
            snapshot = handle.read()
        with open(checkpoint, "w") as handle:
            handle.write(snapshot[: len(snapshot) // 2])   # torn write

        doc = run_job(spec, jobdir)
        assert doc["outcome"] == "ok"
        assert doc["resumed_from"] == 0
        assert "CheckpointCorruptError" in doc["fallback"]
        assert os.path.exists(checkpoint + ".corrupt")     # evidence kept
        assert doc["payload"] == clean["payload"]

    def test_unreplayable_checkpoint_falls_back_to_scratch(self, tmp_path):
        """A snapshot whose CRC holds but whose trace cannot be replayed
        (a draw names a buffer its table lacks) is refused when read: it
        is quarantined like a torn one and the attempt reruns from tick
        0, publishing the same framebuffer."""
        from repro.soc.checkpoint import _payload_crc
        jobdir = str(tmp_path)
        spec = JobSpec(name="x", frames=2)
        clean = run_job(spec, jobdir)

        checkpoint = os.path.join(jobdir, CHECKPOINT_FILE)
        with open(checkpoint) as handle:
            snapshot = json.load(handle)
        draw = snapshot["trace"]["frames"][0]["draw_calls"][0]
        draw["indices"] = "missing"
        snapshot["crc"] = _payload_crc(snapshot)
        with open(checkpoint, "w") as handle:
            json.dump(snapshot, handle)

        doc = run_job(spec, jobdir)
        assert doc["outcome"] == "ok", doc["detail"]
        assert doc["resumed_from"] == 0
        assert doc["fallback"].startswith("CheckpointError")
        assert os.path.exists(checkpoint + ".corrupt")     # evidence kept
        assert doc["payload"]["fb_crc"] == clean["payload"]["fb_crc"]

    def test_checkpoint_missing_a_draw_key_falls_back_to_scratch(
            self, tmp_path):
        """A CRC-consistent snapshot whose first draw lacks its ``state``
        is quarantined and the attempt reruns from tick 0, where a bare
        ``KeyError`` used to end the job ``error``."""
        from repro.soc.checkpoint import _payload_crc
        jobdir = str(tmp_path)
        spec = JobSpec(name="x", frames=2)
        clean = run_job(spec, jobdir)

        checkpoint = os.path.join(jobdir, CHECKPOINT_FILE)
        with open(checkpoint) as handle:
            snapshot = json.load(handle)
        del snapshot["trace"]["frames"][0]["draw_calls"][0]["state"]
        snapshot["crc"] = _payload_crc(snapshot)
        with open(checkpoint, "w") as handle:
            json.dump(snapshot, handle)

        doc = run_job(spec, jobdir)
        assert doc["outcome"] == "ok", doc["detail"]
        assert doc["resumed_from"] == 0
        assert doc["fallback"].startswith("CheckpointError")
        assert os.path.exists(checkpoint + ".corrupt")     # evidence kept
        assert doc["payload"]["fb_crc"] == clean["payload"]["fb_crc"]

    def test_checkpoint_with_an_undecodable_draw_falls_back_to_scratch(
            self, tmp_path):
        """A CRC-consistent snapshot whose first draw has an unknown
        primitive mode is quarantined and the attempt reruns from tick 0,
        where a plain ``ValueError`` used to end the job ``error``."""
        from repro.soc.checkpoint import _payload_crc
        jobdir = str(tmp_path)
        spec = JobSpec(name="x", frames=2)
        clean = run_job(spec, jobdir)

        checkpoint = os.path.join(jobdir, CHECKPOINT_FILE)
        with open(checkpoint) as handle:
            snapshot = json.load(handle)
        snapshot["trace"]["frames"][0]["draw_calls"][0]["mode"] = 99
        snapshot["crc"] = _payload_crc(snapshot)
        with open(checkpoint, "w") as handle:
            json.dump(snapshot, handle)

        doc = run_job(spec, jobdir)
        assert doc["outcome"] == "ok", doc["detail"]
        assert doc["resumed_from"] == 0
        assert doc["fallback"].startswith("CheckpointError")
        assert os.path.exists(checkpoint + ".corrupt")     # evidence kept
        assert doc["payload"]["fb_crc"] == clean["payload"]["fb_crc"]

    def test_preempt_flag_stops_at_checkpoint_boundary(self, tmp_path):
        jobdir = str(tmp_path)
        with open(os.path.join(jobdir, PREEMPT_FLAG), "w") as handle:
            handle.write("test\n")
        doc = run_job(JobSpec(name="stopme", frames=2), jobdir)
        assert doc["outcome"] == "preempted"
        assert doc["checkpoint_frame"] == 1
        # ...and the resume attempt finishes the remaining frame.
        os.remove(os.path.join(jobdir, PREEMPT_FLAG))
        resumed = run_job(JobSpec(name="stopme", frames=2), jobdir)
        assert resumed["outcome"] == "ok"
        assert resumed["resumed_from"] == 1

    def test_stale_checkpoint_from_other_job_reruns_from_scratch(
            self, tmp_path):
        """The reviewer's reused-workdir scenario, worker side: a
        leftover snapshot with a different physical config must not be
        resumed for the new job."""
        jobdir = str(tmp_path)
        first = run_job(JobSpec(name="first", frames=2), jobdir)
        assert first["outcome"] == "ok"
        doc = run_job(JobSpec(name="second", frames=1, seed=3), jobdir)
        assert doc["outcome"] == "ok"
        assert doc["resumed_from"] == 0
        assert "does not match" in doc["fallback"]

    def test_final_frame_snapshot_resumes_to_the_identical_payload(
            self, tmp_path):
        """A worker orphaned by a server SIGKILL can die after writing
        its final per-frame snapshot but before its result is consumed.
        The next attempt then resumes with zero frames left to render —
        it must rewind and re-render the last frame, not hash a
        never-drawn framebuffer (the server-drill divergence bug)."""
        jobdir = str(tmp_path)
        spec = JobSpec(name="lastframe", frames=2)
        clean = run_job(spec, jobdir)
        assert clean["outcome"] == "ok"
        # The final snapshot covers the whole run...
        from repro.health import load_checkpoint
        snap = load_checkpoint(os.path.join(jobdir, CHECKPOINT_FILE))
        assert snap.frame_index == spec.frames
        # ...and the result vanishes with the dead server's bookkeeping.
        os.remove(os.path.join(jobdir, RESULT_FILE))
        resumed = run_job(spec, jobdir)
        assert resumed["outcome"] == "ok"
        assert resumed["resumed_from"] == spec.frames - 1
        assert resumed["payload"] == clean["payload"]

    def test_event_budget_exhaustion_is_detected(self, tmp_path):
        doc = run_job(JobSpec(name="tiny-budget", frames=1),
                      str(tmp_path), budget_events=2_000)
        assert doc["outcome"] == "detected"
        assert doc["detail"]                   # names the budget error

    def test_worker_entry_reports_bad_specs_as_typed_errors(self, tmp_path):
        """The process target never raises: even a spec that fails
        validation becomes a typed error result."""
        jobdir = str(tmp_path)
        worker_entry({"name": "bad", "frames": -1}, jobdir)
        doc = read_result(jobdir)
        assert doc["outcome"] == "error"
        assert "JobSpecError" in doc["detail"]


@pytest.mark.slow
@pytest.mark.full_system
class TestSampledJobs:
    """ffwd/sampled jobs through the worker: equivalence + determinism."""

    def test_ffwd_job_matches_full_detail_fb_crc(self, tmp_path):
        full = run_job(JobSpec(name="full", frames=3),
                       str(tmp_path / "full"))
        ffwd = run_job(JobSpec(name="ffwd", frames=3, ffwd=2),
                       str(tmp_path / "ffwd"))
        assert full["outcome"] == ffwd["outcome"] == "ok"
        # The fleet-level form of the equivalence contract: skipping
        # frames functionally must not change the published pixels.
        assert ffwd["payload"]["fb_crc"] == full["payload"]["fb_crc"]
        # But the runs are distinct cache identities.
        assert ffwd["payload"] != full["payload"]

    def test_sampled_job_publishes_extrapolated_metrics(self, tmp_path):
        spec = JobSpec(name="sampled", frames=10, sample="2:5:1")
        doc = run_job(spec, str(tmp_path))
        assert doc["outcome"] == "ok"
        sampled = doc["payload"]["metrics"]["sampled"]
        assert sampled["total_frames"] == 10
        assert len(sampled["windows"]) == 2
        for est in sampled["estimates"].values():
            assert est["windows"] == 2
        # Wall times live outside the deterministic payload.
        assert "wall_total" not in sampled
        assert doc["wall_functional"] >= 0
        assert doc["wall_detailed"] >= 0
        assert doc["frames_functional"] + doc["frames_detailed"] == 10

    def test_sampled_payload_is_deterministic(self, tmp_path):
        from repro.fleet.manifest import payload_bytes
        spec = JobSpec(name="det", frames=10, sample="2:5:1")
        first = run_job(spec, str(tmp_path / "a"))
        second = run_job(spec, str(tmp_path / "b"))
        assert payload_bytes(first["payload"]) \
            == payload_bytes(second["payload"])

    def test_bad_sample_spec_is_a_typed_error_result(self, tmp_path):
        worker_entry({"name": "bad", "frames": 8, "sample": "2:8:1"},
                     str(tmp_path))
        doc = read_result(str(tmp_path))
        assert doc["outcome"] == "error"
        assert "JobSpecError" in doc["detail"]

"""Checkpoint cadence and the crash-recovery acceptance scenario."""

import numpy as np
import pytest

from repro.common.events import SimulationError
from repro.harness.scenes import SceneSession
from repro.health import (CheckpointManager, HealthConfig, load_checkpoint,
                          resume_run)
from repro.soc.checkpoint import GraphicsCheckpoint
from tests.health.full_system import HEIGHT, WIDTH, build_soc, tiny_config

#: The machine every snapshot below is stamped with (and resumes onto).
MACHINE = tiny_config().topology.topology_hash()


class TestCheckpointManager:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointManager(every=0, topology=MACHINE)

    def test_cadence(self):
        manager = CheckpointManager(every=2, topology=MACHINE)
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        for index in range(4):
            source(index)
            manager.on_frame_done(index, tick=1_000 * (index + 1))
        assert manager.checkpoints_taken == 2       # after frames 1 and 3
        assert manager.last.frame_index == 4
        assert manager.last.tick == 4_000

    def test_path_receives_loadable_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        manager = CheckpointManager(every=1, topology=MACHINE, path=str(path))
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        manager.on_frame_done(0, tick=777)
        restored = load_checkpoint(str(path))
        assert isinstance(restored, GraphicsCheckpoint)
        assert restored.frame_index == 1
        assert restored.tick == 777
        assert len(restored.restore_frames()) == 1


class TestCheckpointRNGCapture:
    def test_checkpoints_carry_injector_streams(self):
        from repro.health.faults import FaultConfig, FaultInjector

        injector = FaultInjector(FaultConfig(seed=9, dram_drop=0.5))
        manager = CheckpointManager(every=1, topology=MACHINE,
                                    injector=injector)
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        manager.on_frame_done(0, tick=500)
        assert manager.last.rng is not None
        assert sorted(manager.last.rng) == ["delay", "display", "drop",
                                            "spike"]
        # And the state survives the on-disk JSON format.
        restored = GraphicsCheckpoint.from_json(manager.last.to_json())
        assert restored.rng == manager.last.rng

    def test_injector_free_checkpoints_omit_rng(self):
        manager = CheckpointManager(every=1, topology=MACHINE)
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        manager.on_frame_done(0, tick=500)
        assert manager.last.rng is None
        assert "rng" not in manager.last.to_json()


class TestCheckpointOwnership:
    """Snapshots carry their owning job's identity token (the fleet's
    cache key) so a reused directory can't leak one job's state into
    another's resume."""

    def _snapshot(self, job=None):
        manager = CheckpointManager(every=1, topology=MACHINE, job=job)
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        manager.on_frame_done(0, tick=500)
        return manager.last

    def test_job_token_survives_the_on_disk_format(self):
        snapshot = self._snapshot(job="cafe0123")
        assert snapshot.job == "cafe0123"
        restored = GraphicsCheckpoint.from_json(snapshot.to_json())
        assert restored.job == "cafe0123"

    def test_unowned_snapshots_omit_the_field(self):
        snapshot = self._snapshot()
        assert snapshot.job is None
        assert "job" not in snapshot.to_json()
        assert GraphicsCheckpoint.from_json(snapshot.to_json()).job is None

    def test_non_string_job_rejected(self):
        import json

        from repro.soc.checkpoint import CheckpointError, _payload_crc
        doc = json.loads(self._snapshot(job="x").to_json())
        doc["job"] = 7
        doc["crc"] = _payload_crc(doc)       # keep the CRC consistent
        with pytest.raises(CheckpointError, match="job"):
            GraphicsCheckpoint.from_json(json.dumps(doc))

    def test_resume_run_restores_injector_streams(self, monkeypatch):
        """resume_run must hand the snapshot's RNG state to the new SoC's
        injector before any event runs."""
        from repro.health.faults import FaultConfig, FaultInjector

        donor = FaultInjector(FaultConfig(seed=4, display_underrun=0.5))
        for _ in range(25):                     # mid-stream state
            donor.display_underrun_now()
        state = donor.rng_state()

        applied = []
        original = FaultInjector.restore_rng
        monkeypatch.setattr(
            FaultInjector, "restore_rng",
            lambda self, rng: applied.append(rng) or original(self, rng))

        source = SceneSession("cube", WIDTH, HEIGHT)
        manager = CheckpointManager(every=1, topology=MACHINE)
        wrapped = manager.wrap_source(source.frame)
        wrapped(0)
        manager.on_frame_done(0, tick=500)
        checkpoint = manager.last
        checkpoint.rng = state

        health = HealthConfig(checkpoint_every=1,
                              faults=FaultConfig(seed=4, dram_delay=0.05))
        resume_run(checkpoint, tiny_config(num_frames=1, health=health),
                   source.frame, source.framebuffer_address)
        assert applied == [state]


class TestAtomicSnapshotWrites:
    """A process killed between serialize and rename must never leave a
    torn snapshot at ``path`` — the previous complete one survives."""

    def _manager_with_one_snapshot(self, path):
        manager = CheckpointManager(every=1, topology=MACHINE, path=str(path))
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        manager.on_frame_done(0, tick=1_000)
        return manager, source

    def test_death_before_rename_keeps_previous_snapshot(self, tmp_path,
                                                         monkeypatch):
        import os as os_module

        path = tmp_path / "snap.json"
        manager, source = self._manager_with_one_snapshot(path)

        # SIGKILL lands after the serialize, before the rename: model it
        # by making the rename itself die.  The destination must still
        # hold the frame-1 snapshot, intact.
        def killed(src, dst):
            raise KeyboardInterrupt("SIGKILL between write and rename")
        monkeypatch.setattr("repro.health.recovery.os.replace", killed)
        source(1)
        with pytest.raises(KeyboardInterrupt):
            manager.on_frame_done(1, tick=2_000)
        monkeypatch.setattr("repro.health.recovery.os.replace",
                            os_module.replace)

        survivor = load_checkpoint(str(path))
        assert survivor.frame_index == 1       # the pre-crash snapshot
        assert survivor.tick == 1_000
        assert len(survivor.restore_frames()) == 1

    def test_torn_tmp_never_shadows_the_snapshot(self, tmp_path):
        """Resume reads ``path``; a stale ``.tmp`` from a killed writer is
        invisible to it."""
        path = tmp_path / "snap.json"
        self._manager_with_one_snapshot(path)
        (tmp_path / "snap.json.tmp").write_text('{"version": 1, "tick"')
        assert load_checkpoint(str(path)).frame_index == 1

    def test_interleaved_publishes_of_one_path_both_land(self, tmp_path,
                                                         monkeypatch):
        """Two processes publish one path, the second entirely inside the
        first's rename: neither renames the other's temp file, so both
        renames succeed and the later one's text stays."""
        import os as os_module

        from repro.health.recovery import publish_text

        path = str(tmp_path / "doc.json")
        getpid, replace = os_module.getpid, os_module.replace
        nested = []

        def interleaved(src, dst):
            if not nested:
                nested.append(src)
                monkeypatch.setattr("repro.health.recovery.os.getpid",
                                    lambda: getpid() + 1)
                publish_text(path, "second\n")
                monkeypatch.setattr("repro.health.recovery.os.getpid",
                                    getpid)
            replace(src, dst)
        monkeypatch.setattr("repro.health.recovery.os.replace", interleaved)
        publish_text(path, "first\n")

        assert nested
        with open(path) as handle:
            assert handle.read() == "first\n"
        assert os_module.listdir(tmp_path) == ["doc.json"]


class TestPreemption:
    def test_preempt_check_consulted_after_snapshot_lands(self, tmp_path):
        """The order is the contract: by the time PreemptionRequested
        propagates, the resume point is already on disk."""
        from repro.health import PreemptionRequested

        path = tmp_path / "snap.json"
        manager = CheckpointManager(every=1, topology=MACHINE,
                                    path=str(path),
                                    preempt_check=lambda done: done >= 1)
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        with pytest.raises(PreemptionRequested) as excinfo:
            manager.on_frame_done(0, tick=900)
        assert excinfo.value.frame_index == 1
        assert load_checkpoint(str(path)).frame_index == 1

    def test_preemption_is_a_simulation_error(self):
        """The event loop's wrap policy re-raises SimulationError
        subclasses unchanged, so preemption crosses the loop intact."""
        from repro.health import PreemptionRequested

        assert issubclass(PreemptionRequested, SimulationError)

    def test_no_preempt_check_means_no_preemption(self, tmp_path):
        manager = CheckpointManager(every=1, topology=MACHINE,
                                    path=str(tmp_path / "s.json"))
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        manager.on_frame_done(0, tick=100)     # no raise
        assert manager.checkpoints_taken == 1


@pytest.mark.full_system
class TestCrashRecovery:
    def test_killed_run_resumes_to_same_final_frame(self):
        """A run killed mid-frame resumes from its last periodic checkpoint
        and produces the same final framebuffer as an uninterrupted run."""
        frames = 3
        health = HealthConfig(checkpoint_every=1)

        # Reference: the uninterrupted run.
        soc_full = build_soc(num_frames=frames, health=health)
        full_results = soc_full.run()
        full_fb = soc_full.gpu.fb.color.copy()
        total_events = soc_full.events.events_fired
        assert full_results.checkpoints_taken == frames

        # The same run, killed partway through (the event budget stands in
        # for a crashed process).
        soc_killed = build_soc(num_frames=frames, health=health)
        with pytest.raises(SimulationError):
            soc_killed.run(max_events=int(total_events * 0.8))
        checkpoint = soc_killed.checkpoints.last
        assert checkpoint is not None
        assert 0 < checkpoint.frame_index < frames      # died mid-run

        # Resume from the snapshot and finish the remaining frames.
        session = SceneSession("cube", WIDTH, HEIGHT)
        soc_resumed, resumed_results = resume_run(
            checkpoint, tiny_config(num_frames=frames, health=health),
            session.frame, session.framebuffer_address)
        assert soc_resumed.loop.finished
        assert len(resumed_results.frames) == frames - checkpoint.frame_index
        assert resumed_results.frames[0].index == checkpoint.frame_index
        # Simulated time re-entered at the snapshot tick, not at zero.
        assert resumed_results.end_tick > checkpoint.tick
        assert np.array_equal(soc_resumed.gpu.fb.color, full_fb)

    def test_killed_faulted_run_resumes_to_same_final_frame(self):
        """Crash recovery still holds with fault injection armed: the
        snapshot carries the injector's RNG streams, so the resumed run
        faces the checkpointed fault pattern rather than a fresh one."""
        from repro.health.faults import FaultConfig

        frames = 3
        health = HealthConfig(
            checkpoint_every=1,
            faults=FaultConfig(seed=5, dram_delay=0.05, noc_spike=0.05))

        soc_full = build_soc(num_frames=frames, health=health)
        soc_full.run()
        full_fb = soc_full.gpu.fb.color.copy()
        total_events = soc_full.events.events_fired
        # The faults actually fired, and every snapshot carries RNG state.
        assert (soc_full.injector.stats.counter("replies_delayed").value
                + soc_full.injector.stats.counter("noc_spikes").value) > 0
        assert soc_full.checkpoints.last.rng is not None

        soc_killed = build_soc(num_frames=frames, health=health)
        with pytest.raises(SimulationError):
            soc_killed.run(max_events=int(total_events * 0.8))
        checkpoint = soc_killed.checkpoints.last
        assert 0 < checkpoint.frame_index < frames
        assert checkpoint.rng is not None

        session = SceneSession("cube", WIDTH, HEIGHT)
        soc_resumed, resumed_results = resume_run(
            checkpoint, tiny_config(num_frames=frames, health=health),
            session.frame, session.framebuffer_address)
        assert soc_resumed.loop.finished
        assert np.array_equal(soc_resumed.gpu.fb.color, full_fb)

    def test_resumed_run_checkpoints_cover_whole_trace(self):
        """Snapshots taken after a resume include the replayed prefix, so a
        second crash can still recover the full run."""
        frames = 2
        health = HealthConfig(checkpoint_every=1)
        # A one-frame run stands in for a run that crashed after frame 0.
        soc_partial = build_soc(num_frames=1, health=health)
        soc_partial.run()
        checkpoint_one = soc_partial.checkpoints.last
        assert checkpoint_one.frame_index == 1

        session = SceneSession("cube", WIDTH, HEIGHT)
        soc_resumed, _ = resume_run(
            checkpoint_one, tiny_config(num_frames=frames, health=health),
            session.frame, session.framebuffer_address)
        final = soc_resumed.checkpoints.last
        assert final.frame_index == frames
        # The final snapshot's trace replays *all* frames, including the
        # ones rendered before the crash.
        assert len(final.restore_frames()) == frames


class TestCheckpointClaimProvenance:
    """Snapshots carry the fleet server's claim token (incarnation +
    attempt) as pure provenance: it round-trips through the on-disk
    format, but ownership decisions still key on ``job`` alone — a new
    incarnation resuming an old claim's snapshot is the crash-recovery
    contract, not a conflict."""

    def _snapshot(self, claim=None, job=None):
        manager = CheckpointManager(every=1, topology=MACHINE, job=job,
                                    claim=claim)
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        source(0)
        manager.on_frame_done(0, tick=500)
        return manager.last

    def test_claim_token_survives_the_on_disk_format(self):
        snapshot = self._snapshot(claim="srv-1a2b-i3#7", job="cafe0123")
        assert snapshot.claim == "srv-1a2b-i3#7"
        restored = GraphicsCheckpoint.from_json(snapshot.to_json())
        assert restored.claim == "srv-1a2b-i3#7"
        assert restored.job == "cafe0123"

    def test_unclaimed_snapshots_omit_the_field(self):
        snapshot = self._snapshot()
        assert snapshot.claim is None
        assert "claim" not in snapshot.to_json()

    def test_non_string_claim_rejected(self):
        import json

        from repro.soc.checkpoint import CheckpointError, _payload_crc
        doc = json.loads(self._snapshot(claim="srv-1#1").to_json())
        doc["claim"] = 11
        doc["crc"] = _payload_crc(doc)
        with pytest.raises(CheckpointError, match="claim"):
            GraphicsCheckpoint.from_json(json.dumps(doc))

    def test_resume_accepts_a_foreign_claims_snapshot(self):
        """Same job, different claim: exactly what a restarted server
        produces. The resume path must not treat it as foreign state."""
        from repro.health import resume_run

        source = SceneSession("cube", WIDTH, HEIGHT)
        manager = CheckpointManager(every=1, topology=MACHINE,
                                    job="cafe0123", claim="srv-dead-i1#4")
        wrapped = manager.wrap_source(source.frame)
        wrapped(0)
        manager.on_frame_done(0, tick=500)
        health = HealthConfig(checkpoint_every=1,
                              checkpoint_job="cafe0123",
                              checkpoint_claim="srv-rebirth-i2#1")
        soc, results = resume_run(manager.last,
                                  tiny_config(num_frames=2, health=health),
                                  source.frame,
                                  source.framebuffer_address)
        assert soc.loop.finished
        assert len(results.frames) == 1          # resumed past frame 0
        # And the snapshots the resumed run writes carry the *new*
        # incarnation's claim.
        assert soc.checkpoints.last.claim == "srv-rebirth-i2#1"


class TestCheckpointRewind:
    """Rewinding a final-frame snapshot so a resume re-renders pixels."""

    def _snapshot(self, frames=3, tick=9_000, job="jk"):
        manager = CheckpointManager(every=frames, topology=MACHINE, job=job)
        source = manager.wrap_source(
            SceneSession("cube", WIDTH, HEIGHT).frame)
        for index in range(frames):
            source(index)
        manager.on_frame_done(frames - 1, tick=tick)
        return manager.last

    def test_rewind_drops_trace_frames_and_backs_up_the_index(self):
        snapshot = self._snapshot(frames=3)
        rewound = snapshot.rewind(1)
        assert rewound.frame_index == 2
        assert len(rewound.restore_frames()) == 2
        # Everything else is preserved — tick monotonicity, ownership.
        assert rewound.tick == snapshot.tick
        assert rewound.job == snapshot.job
        # The original is untouched (rewind returns a copy).
        assert snapshot.frame_index == 3
        assert len(snapshot.restore_frames()) == 3

    def test_rewound_snapshot_survives_the_json_roundtrip(self):
        rewound = self._snapshot(frames=2).rewind(1)
        restored = GraphicsCheckpoint.from_json(rewound.to_json())
        assert restored.frame_index == 1
        assert len(restored.restore_frames()) == 1

    def test_rewind_count_must_be_positive(self):
        snapshot = self._snapshot(frames=2)
        for count in (0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                snapshot.rewind(count)

    def test_rewind_past_the_recorded_trace_is_refused(self):
        snapshot = self._snapshot(frames=2)
        with pytest.raises(ValueError, match="cannot rewind 3"):
            snapshot.rewind(3)

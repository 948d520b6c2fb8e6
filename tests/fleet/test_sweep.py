"""One-shot sweeps on the fleet server: backoff, shedding, heartbeats,
crash recovery, and resuming a sweep in its own workdir."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro
import repro.fleet.manifest as manifest_module
import repro.fleet.server as server_module
from repro.fleet import (BackoffPolicy, FleetConfig, FleetServer, JobSpec,
                         JobSubmission, ResultCache, ServerConfig,
                         SubmissionError, cache_key, replay_journal,
                         run_sweep)
from repro.fleet.heartbeat import (HeartbeatMonitor, read_heartbeat,
                                   write_heartbeat)
from repro.fleet.server import EXIT_DRAINED, JOURNAL_DIR

#: Fast backoff for tests: same ladder shape, milliseconds not seconds.
FAST_BACKOFF = BackoffPolicy(base=0.01, factor=2.0, cap=0.04)


def tiny_spec(name, seed=1, frames=2, **kwargs):
    return JobSpec(name=name, frames=frames, seed=seed, **kwargs)


class TestBackoffPolicy:
    def test_capped_exponential_ladder(self):
        policy = BackoffPolicy(base=0.25, factor=2.0, cap=4.0)
        assert policy.ladder(6) == [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]

    def test_deterministic(self):
        policy = BackoffPolicy()
        assert [policy.delay_for(i) for i in range(8)] == policy.ladder(8)


class TestHeartbeat:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "hb.json")
        write_heartbeat(path, frame=3, tick=9000, beats=4, resumed_from=2)
        doc = read_heartbeat(path)
        assert doc["frame"] == 3 and doc["beats"] == 4
        assert doc["resumed_from"] == 2
        assert doc["pid"] == os.getpid()

    def test_torn_write_reads_as_absent(self, tmp_path):
        path = tmp_path / "hb.json"
        path.write_text('{"frame": 3, "tick"')
        assert read_heartbeat(str(path)) is None

    def test_monitor_tracks_changes(self, tmp_path):
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=0.05)
        assert monitor.poll() is None
        write_heartbeat(path, frame=0, tick=1, beats=1)
        assert monitor.poll()["frame"] == 0
        assert not monitor.stale()
        time.sleep(0.08)                       # no new beat
        monitor.poll()
        assert monitor.stale()
        write_heartbeat(path, frame=1, tick=2, beats=2)
        monitor.poll()                         # fresh beat resets the clock
        assert not monitor.stale()

    def test_never_beating_worker_goes_stale(self, tmp_path):
        monitor = HeartbeatMonitor(str(tmp_path / "none.json"),
                                   timeout=0.01)
        time.sleep(0.03)
        monitor.poll()
        assert monitor.stale()

    def test_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatMonitor(str(tmp_path / "hb.json"), timeout=0)


class TestSubmission:
    def test_name_reused_for_a_different_spec_is_refused(self, tmp_path):
        workdir = str(tmp_path / "work")
        with pytest.raises(SubmissionError, match="already taken"):
            run_sweep([tiny_spec("a", seed=1), tiny_spec("a", seed=2)],
                      FleetConfig(), workdir=workdir)
        # Refused before anything was journaled: the grid can be fixed
        # and rerun in the same workdir.
        replay = replay_journal(os.path.join(workdir, JOURNAL_DIR))
        assert replay.jobs == {}

    def test_queue_limit_records_the_overflow_as_shed(self, tmp_path):
        report = run_sweep(
            [tiny_spec("a", frames=1), tiny_spec("b", seed=2, frames=1)],
            FleetConfig(workers=1, queue_limit=1), workdir=str(tmp_path))
        assert {r.spec.name: r.outcome for r in report.records} \
            == {"a": "ok", "b": "shed"}
        assert report.executed == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers=0)
        with pytest.raises(ValueError, match="queue_limit"):
            FleetConfig(queue_limit=0)
        with pytest.raises(ValueError, match="max_attempts"):
            FleetConfig(max_attempts=-1)

    def test_empty_sweep_completes(self, tmp_path):
        report = run_sweep([], FleetConfig(), workdir=str(tmp_path))
        assert report.ok
        assert report.records == []
        assert report.executed == 0

    def test_sweep_keeps_the_callers_signal_handlers(self, tmp_path):
        def handler(signum, frame):
            pass

        sigint = signal.getsignal(signal.SIGINT)
        previous = signal.signal(signal.SIGTERM, handler)
        try:
            run_sweep([], FleetConfig(), workdir=str(tmp_path))
            assert signal.getsignal(signal.SIGTERM) is handler
            assert signal.getsignal(signal.SIGINT) is sigint
        finally:
            signal.signal(signal.SIGTERM, previous)


@pytest.mark.slow
@pytest.mark.full_system
class TestFleetEndToEnd:
    """The acceptance contract: injected crashes and hangs, nothing lost,
    cache-served reruns bit-identical to a fault-free pass."""

    def test_sweep_with_injected_kill_completes_and_caches(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = FleetConfig(
            workers=2, backoff=FAST_BACKOFF, cache_dir=cache_dir,
            # SIGKILL cube-s1's first attempt after frame 1: attempt 2
            # consumes no control and resumes from the checkpoint.
            inject={"cube-s1": [{"kill_at_frame": 1}]})
        specs = [tiny_spec("cube-s1", seed=1), tiny_spec("cube-s2", seed=2)]
        report = run_sweep(specs, config, workdir=str(tmp_path / "work"))

        assert report.ok
        assert report.counts() == {"ok": 2}
        killed = next(r for r in report.records if r.spec.name == "cube-s1")
        assert [a.outcome for a in killed.attempts] == ["crashed", "ok"]
        assert killed.attempts[0].bundle            # triage for the crash
        assert os.path.isdir(killed.attempts[0].bundle)
        assert killed.attempts[1].resumed_from == 1  # checkpoint, not tick 0
        assert killed.attempts[1].backoff_delay == FAST_BACKOFF.delay_for(0)

        # Rerun: everything served from cache, zero workers spawned.
        rerun = run_sweep(specs,
                          FleetConfig(workers=2, cache_dir=cache_dir),
                          workdir=str(tmp_path / "work2"))
        assert rerun.ok
        assert rerun.executed == 0
        assert rerun.cached == 2
        assert [r.payload for r in rerun.records] \
            == [r.payload for r in report.records]

    def test_crash_bundle_reproduces_the_job(self, tmp_path):
        """A crash bundle's ``repro.sh`` reruns the job that died (every
        spec field, not the defaults) alone, in a fresh workdir."""
        spec = tiny_spec("odd", seed=3, width=40, height=30,
                         memory_config="HMC")
        config = FleetConfig(workers=1, backoff=FAST_BACKOFF,
                             cache_dir=str(tmp_path / "cache"),
                             inject={"odd": [{"kill_at_frame": 0}]})
        [record] = run_sweep([spec], config,
                             workdir=str(tmp_path / "work")).records
        assert [a.outcome for a in record.attempts] == ["crashed", "ok"]
        script = os.path.join(record.attempts[0].bundle, "repro.sh")

        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, TMPDIR=str(tmp_path),
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   PATH=os.path.dirname(sys.executable) + os.pathsep
                   + os.environ.get("PATH", ""))
        rerun = subprocess.run(["sh", script], cwd=str(tmp_path), env=env,
                               capture_output=True, text=True, timeout=300)
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert record.payload["fb_crc"] in rerun.stdout
        assert "1 jobs: 1 ok; 1 worker processes" in rerun.stdout

    def test_retry_backoff_result_bit_identical_to_fault_free(self,
                                                              tmp_path):
        """Fail twice (SIGKILL), succeed on attempt 3; recorded delays
        follow the capped exponential ladder and the cached bytes equal a
        fault-free run's exactly."""
        spec = tiny_spec("cube-s5", seed=5)
        clean_cache = str(tmp_path / "clean-cache")
        clean = run_sweep([spec],
                          FleetConfig(workers=1, cache_dir=clean_cache),
                          workdir=str(tmp_path / "clean"))
        assert clean.ok and not clean.records[0].attempts[0].resumed_from

        bumpy_cache = str(tmp_path / "bumpy-cache")
        config = FleetConfig(
            workers=1, max_attempts=3, backoff=FAST_BACKOFF,
            cache_dir=bumpy_cache,
            inject={"cube-s5": [{"kill_at_frame": 0},
                                {"kill_at_frame": 1}]})
        bumpy = run_sweep([spec], config, workdir=str(tmp_path / "bumpy"))
        record = bumpy.records[0]
        assert record.ok
        assert [a.outcome for a in record.attempts] \
            == ["crashed", "crashed", "ok"]
        assert [a.backoff_delay for a in record.attempts] \
            == [0.0] + FAST_BACKOFF.ladder(2)

        key = record.key
        clean_entry = os.path.join(clean_cache, key[:2], key, "result.json")
        bumpy_entry = os.path.join(bumpy_cache, key[:2], key, "result.json")
        with open(clean_entry, "rb") as handle:
            clean_bytes = handle.read()
        with open(bumpy_entry, "rb") as handle:
            bumpy_bytes = handle.read()
        assert clean_bytes == bumpy_bytes      # bit-identical, post-crash

    def test_each_retry_resumes_from_the_last_attempts_snapshot(
            self, tmp_path):
        """Killed after frame 1, then after frame 2: each attempt starts
        where the one before it last snapshotted, and a crashed
        attempt's detail names the frame it had resumed from."""
        config = FleetConfig(
            workers=1, max_attempts=3, backoff=FAST_BACKOFF,
            cache_dir=str(tmp_path / "cache"),
            inject={"cube-s3": [{"kill_at_frame": 1},
                                {"kill_at_frame": 2}]})
        [record] = run_sweep([tiny_spec("cube-s3", seed=3, frames=3)],
                             config, workdir=str(tmp_path / "work")).records
        assert [a.outcome for a in record.attempts] \
            == ["crashed", "crashed", "ok"]
        assert [a.resumed_from for a in record.attempts] == [0, 1, 2]
        assert "(resume point: frame 0)" in record.attempts[0].detail
        assert "(resume point: frame 1)" in record.attempts[1].detail

    def test_journaled_claims_reach_the_snapshots(self, tmp_path):
        """Every snapshot carries the claim of the attempt that wrote it:
        the job's snapshot the resuming attempt's (the job's last
        journaled claim), the crash bundle's the killed attempt's."""
        from repro.health import load_checkpoint
        workdir = str(tmp_path / "work")
        config = FleetConfig(workers=1, backoff=FAST_BACKOFF,
                             cache_dir=str(tmp_path / "cache"),
                             inject={"cube-s1": [{"kill_at_frame": 1}]})
        [record] = run_sweep([tiny_spec("cube-s1", seed=1)], config,
                             workdir=workdir).records
        assert [a.outcome for a in record.attempts] == ["crashed", "ok"]
        claims = [entry["data"]["claim"] for entry in
                  replay_journal(os.path.join(workdir, JOURNAL_DIR)).records
                  if entry["type"] == "claim"
                  and entry["data"]["name"] == "cube-s1"]
        assert len(claims) == 2 and claims[0] != claims[1]
        snapshot = load_checkpoint(
            os.path.join(workdir, "jobs", "cube-s1", "checkpoint.json"))
        assert snapshot.claim == claims[-1]
        bundled = load_checkpoint(
            os.path.join(record.attempts[0].bundle, "checkpoint.json"))
        assert bundled.claim == claims[0]

    def test_server_parses_a_snapshot_only_for_the_crash_bundle(
            self, tmp_path, monkeypatch):
        """Starting an attempt parses no snapshot in the server process:
        the retry's resume point comes from the killed attempt's last
        heartbeat, and only the crash bundle loads the snapshot.  Forked
        workers count their own parses in their own memory."""
        from repro.soc.checkpoint import GraphicsCheckpoint
        parses = []
        from_json = GraphicsCheckpoint.from_json.__func__

        def counted(cls, text):
            parses.append(len(text))
            return from_json(cls, text)
        monkeypatch.setattr(GraphicsCheckpoint, "from_json",
                            classmethod(counted))
        config = FleetConfig(workers=1, backoff=FAST_BACKOFF,
                             cache_dir=str(tmp_path / "cache"),
                             inject={"cube-s1": [{"kill_at_frame": 1}]})
        [record] = run_sweep([tiny_spec("cube-s1", seed=1)], config,
                             workdir=str(tmp_path / "work")).records
        assert [a.outcome for a in record.attempts] == ["crashed", "ok"]
        assert record.attempts[1].resumed_from == 1
        assert len(parses) == 1, parses

    def test_retries_exhausted_is_failed_not_lost(self, tmp_path):
        config = FleetConfig(
            workers=1, max_attempts=2, backoff=FAST_BACKOFF,
            inject={"doomed": [{"kill_at_frame": 0},
                               {"kill_at_frame": 0}]})
        report = run_sweep([tiny_spec("doomed", frames=1)], config,
                           workdir=str(tmp_path))
        record = report.records[0]
        assert record.outcome == "failed"
        assert len(record.attempts) == 2
        assert all(a.outcome == "crashed" for a in record.attempts)
        assert all(a.bundle for a in record.attempts)

    def test_hung_worker_is_detected_killed_and_retried(self, tmp_path):
        config = FleetConfig(
            workers=1, heartbeat_timeout=1.0, backoff=FAST_BACKOFF,
            inject={"sleepy": [{"hang_at_frame": 0}]})
        report = run_sweep([tiny_spec("sleepy", frames=1)], config,
                           workdir=str(tmp_path))
        record = report.records[0]
        assert record.ok
        assert [a.outcome for a in record.attempts] == ["hung", "ok"]
        assert "no heartbeat" in record.attempts[0].detail

    def test_preemption_resumes_and_costs_no_attempt(self, tmp_path):
        config = FleetConfig(workers=1, preempt_after=0.0,
                             cache_dir=str(tmp_path / "cache"))
        report = run_sweep([tiny_spec("long", frames=2)], config,
                           workdir=str(tmp_path / "work"))
        record = report.records[0]
        assert record.ok
        assert record.preemptions >= 1
        assert len(record.attempts) == 1       # preemptions aren't attempts
        assert record.attempts[-1].resumed_from >= 1

    def test_reused_workdir_does_not_resume_a_stale_checkpoint(
            self, tmp_path):
        """A sweep in a reused workdir (the CLI's default ``fleet-work``)
        must never resume a previous sweep's checkpoint for different
        physics, nor poison the cache with the previous config's
        payload."""
        workdir = str(tmp_path / "work")
        first = run_sweep([tiny_spec("wd-job", frames=2)],
                          FleetConfig(workers=1), workdir=workdir)
        assert first.ok

        # (a) Same job name, same workdir, different physics: the
        # journal knows the name, so the sweep is refused and publishes
        # nothing to its cache.
        cached = str(tmp_path / "cache")
        other = tiny_spec("wd-job", frames=1)
        with pytest.raises(SubmissionError, match="already taken"):
            run_sweep([other], FleetConfig(workers=1, cache_dir=cached),
                      workdir=workdir)
        assert ResultCache(cached).lookup(cache_key(other)) is None

        # (b) A workdir without a journal (as written before sweeps kept
        # one) still holds jobs/wd-job/checkpoint.json: it is not resumed.
        shutil.rmtree(os.path.join(workdir, JOURNAL_DIR))
        assert os.path.exists(
            os.path.join(workdir, "jobs", "wd-job", "checkpoint.json"))
        second = run_sweep([other], FleetConfig(workers=1, cache_dir=cached),
                           workdir=workdir)
        record = second.records[0]
        assert record.ok
        assert record.attempts[0].resumed_from == 0

        # The cached payload equals a clean-workdir run's, bit-for-bit.
        clean = run_sweep([other],
                          FleetConfig(workers=1,
                                      cache_dir=str(tmp_path / "cache2")),
                          workdir=str(tmp_path / "fresh"))
        assert record.payload == clean.records[0].payload

    def test_finished_sweep_reruns_in_its_workdir_without_a_worker(
            self, tmp_path):
        """The workdir's journal and default cache serve a rerun of a
        finished sweep: no worker, the first run's payloads."""
        specs = [tiny_spec("again-s1", frames=1),
                 tiny_spec("again-s2", seed=2, frames=1)]
        workdir = str(tmp_path / "work")
        first = run_sweep(specs, FleetConfig(workers=2), workdir=workdir)
        assert first.ok and first.executed == 2

        rerun = run_sweep(specs, FleetConfig(workers=2), workdir=workdir)
        assert rerun.ok
        assert rerun.exit_code == EXIT_DRAINED
        assert rerun.executed == 0
        assert [r.payload for r in rerun.records] \
            == [r.payload for r in first.records]

    def test_code_change_reruns_the_sweep_in_its_workdir(self, tmp_path,
                                                         monkeypatch):
        """The cache key hashes the code version: after a source edit the
        same grid in the same workdir runs again instead of being
        refused as a name clash."""
        spec = tiny_spec("edited", frames=1)
        workdir = str(tmp_path / "work")
        first = run_sweep([spec], FleetConfig(workers=1), workdir=workdir)
        assert first.ok and first.executed == 1

        monkeypatch.setattr(manifest_module, "code_version",
                            lambda: "edited-source")
        rerun = run_sweep([spec], FleetConfig(workers=1), workdir=workdir)
        assert rerun.ok
        assert rerun.executed == 1
        assert rerun.records[0].key == cache_key(spec) \
            != first.records[0].key
        replay = replay_journal(os.path.join(workdir, JOURNAL_DIR))
        assert replay.jobs["edited"].key == cache_key(spec)

    def test_rerun_fails_when_the_cache_lost_a_finished_payload(
            self, tmp_path):
        """The journal says ok but the default cache was deleted: the
        rerun reports an error naming the cache, not ok without a
        payload."""
        spec = tiny_spec("gone", frames=1)
        workdir = str(tmp_path / "work")
        assert run_sweep([spec], FleetConfig(workers=1),
                         workdir=workdir).ok
        shutil.rmtree(os.path.join(workdir, "cache"))

        rerun = run_sweep([spec], FleetConfig(workers=1), workdir=workdir)
        record = rerun.records[0]
        assert not rerun.ok
        assert rerun.executed == 0
        assert record.outcome == "error" and record.payload is None
        assert os.path.join(workdir, "cache") in record.cache_error

    def test_unhealthy_pool_sheds_and_a_rerun_retries(self, tmp_path):
        """Five consecutive crashes flip the sweep to cache-only serving:
        the rest of the grid ends shed.  Rerunning the grid in its
        workdir runs the shed and the failed jobs again."""
        specs = [tiny_spec(f"flaky-{i}", seed=i, frames=1)
                 for i in range(3)]
        workdir = str(tmp_path / "work")
        kills = [{"kill_at_frame": 0}, {"kill_at_frame": 0}]
        config = FleetConfig(workers=1, max_attempts=2,
                             backoff=FAST_BACKOFF,
                             inject={spec.name: kills for spec in specs})
        first = run_sweep(specs, config, workdir=workdir)
        assert first.counts() == {"failed": 2, "shed": 1}
        assert first.executed == 5

        rerun = run_sweep(specs, FleetConfig(workers=1), workdir=workdir)
        assert rerun.ok
        assert rerun.executed == 3

    def test_preemption_ceiling_fails_the_job(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_PREEMPTIONS", 1)
        report = run_sweep([tiny_spec("spinner", frames=3)],
                           FleetConfig(workers=1, preempt_after=0.0),
                           workdir=str(tmp_path))
        record = report.records[0]
        assert record.outcome == "failed"
        assert record.preemptions == 1
        assert record.attempts == []

    def test_published_result_supersedes_staleness_verdict(self, tmp_path):
        """A worker that publishes its result and only then goes silent
        was *done*: the result is accepted, not discarded for a wasted
        retry."""
        config = FleetConfig(
            workers=1, heartbeat_timeout=1.0, backoff=FAST_BACKOFF,
            inject={"racer": [{"hang_after_result": True}]})
        report = run_sweep([tiny_spec("racer", frames=1)], config,
                           workdir=str(tmp_path))
        record = report.records[0]
        assert record.ok
        assert [a.outcome for a in record.attempts] == ["ok"]
        assert report.executed == 1            # no retry burned

    def test_cache_publish_failure_keeps_job_ok_and_sweep_alive(
            self, tmp_path):
        """An OSError from the cache publish (disk full) is recorded on
        the record; the job stays ok and later jobs still run — the
        server's slot loop never dies mid-sweep."""
        server = FleetServer(
            ServerConfig(fleet=FleetConfig(workers=1), expect=2,
                         enable_socket=False),
            str(tmp_path / "work"))

        def out_of_space(key, manifest, payload):
            raise OSError(28, "No space left on device")

        server.cache.store = out_of_space
        specs = [tiny_spec("nospace", frames=1),
                 tiny_spec("after", frames=1, seed=2)]
        for spec in specs:
            server.submit(JobSubmission(spec=spec))
        assert server.serve(install_signals=False) == EXIT_DRAINED
        records = [server._jobs[spec.name].record for spec in specs]
        assert [r.outcome for r in records] == ["ok", "ok"]
        assert all("No space left" in r.cache_error for r in records)

    def test_report_to_dict_is_json_shaped(self, tmp_path):
        report = run_sweep([tiny_spec("one", frames=1)],
                           FleetConfig(workers=1),
                           workdir=str(tmp_path))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "repro-fleet-report/1"
        assert doc["ok"] is True
        assert doc["exit_code"] == EXIT_DRAINED
        assert doc["jobs"][0]["spec"]["name"] == "one"

    def test_job_latency_does_not_wait_out_the_monitor_cadence(
            self, tmp_path):
        """The supervisor wakes when the worker exits and the server
        drains when the job turns terminal: a 30 s monitor cadence
        costs a finished job nothing."""
        started = time.monotonic()
        report = run_sweep(
            [tiny_spec("quick", width=16, height=12, frames=2)],
            FleetConfig(workers=1, poll_interval=30.0),
            workdir=str(tmp_path))
        assert report.counts() == {"ok": 1}
        assert time.monotonic() - started < 10.0


class TestMonotonicProgressClock:
    """Staleness keys on the monotonic progress counter under a mocked
    clock: wall-clock rewrites without progress still time out, and
    wall-clock jumps never expire a worker that is making progress."""

    def _clock(self, monkeypatch):
        import repro.fleet.heartbeat as hb

        class Clock:
            mono = 1_000.0
            wall = 5_000_000.0

            @classmethod
            def monotonic(cls):
                return cls.mono

            @classmethod
            def time(cls):
                return cls.wall

        monkeypatch.setattr(hb, "time", Clock)
        return Clock

    def test_frozen_progress_with_fresh_timestamps_times_out(
            self, tmp_path, monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        write_heartbeat(path, frame=3, tick=30, beats=7)
        monitor.poll()
        assert monitor.age() == 0.0
        for _ in range(5):
            clock.mono += 4.0
            clock.wall += 4.0
            write_heartbeat(path, frame=3, tick=30, beats=7)
            monitor.poll()
        # The file is fresh by wall clock, but the counter never moved.
        assert monitor.last["time"] == clock.wall
        assert monitor.age() == 20.0
        assert monitor.stale()

    def test_progress_advance_resets_the_deadline(self, tmp_path,
                                                  monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        for beat in range(4):
            clock.mono += 8.0
            write_heartbeat(path, frame=beat, tick=beat * 10,
                            beats=beat + 1)
            monitor.poll()
            assert monitor.age() == 0.0
        clock.mono += 9.9
        assert not monitor.stale()
        clock.mono += 0.2
        assert monitor.stale()

    def test_wall_clock_jumps_cannot_expire_a_live_worker(
            self, tmp_path, monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        for beat in range(3):
            clock.mono += 5.0
            clock.wall -= 40_000.0           # NTP step / suspend-resume
            write_heartbeat(path, frame=0, tick=0, beats=beat + 1)
            monitor.poll()
        assert not monitor.stale()

    def test_explicit_progress_counter_overrides_beats(self, tmp_path,
                                                       monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        write_heartbeat(path, frame=0, tick=0, beats=1, progress=5)
        monitor.poll()
        clock.mono += 6.0
        # beats moved but the declared progress counter did not: hung.
        write_heartbeat(path, frame=0, tick=0, beats=2, progress=5)
        monitor.poll()
        assert monitor.age() == 6.0

    def test_doc_without_a_progress_counter_is_no_progress(self, tmp_path,
                                                           monkeypatch):
        """``write_heartbeat`` always writes ``progress``; a doc without
        one shows no progress, however much else in it changes."""
        clock = self._clock(monkeypatch)
        path = tmp_path / "hb.json"
        monitor = HeartbeatMonitor(str(path), timeout=10.0)
        for beat in range(3):
            clock.mono += 4.0
            path.write_text(json.dumps({"frame": beat, "tick": beat * 10,
                                        "beats": beat + 1}))
            monitor.poll()
        assert monitor.last["beats"] == 3
        assert monitor.age() == 12.0
        assert monitor.stale()

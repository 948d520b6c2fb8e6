"""The write-ahead job journal: CRC records, rotation, replay, recovery."""

import json
import os

import pytest

from repro.fleet.journal import (ACTIVE_NAME, JobJournal, _record_crc,
                                 replay_journal)
from repro.sanitize import JournalConsistencyViolation


def submit(journal, name, **extra):
    journal.append("submit", name=name, key=f"key-{name}",
                   spec={"name": name, "seed": 1}, priority=0,
                   owner="anonymous", deadline=None, **extra)


class TestAppendReplayRoundTrip:
    def test_empty_journal_replays_empty(self, tmp_path):
        replay = replay_journal(str(tmp_path / "journal"))
        assert replay.records == []
        assert replay.jobs == {}
        assert replay.last_seq == 0

    def test_full_job_lifecycle(self, tmp_path):
        journal, replay = JobJournal.open(str(tmp_path / "j"))
        assert replay.jobs == {}
        journal.append("server-start", server="srv-1", pid=1, workdir=".")
        submit(journal, "a")
        journal.append("claim", name="a", key="key-a", claim="srv-1#1",
                       attempt=1)
        journal.append("attempt-end", name="a", outcome="ok", detail="")
        journal.append("done", name="a", key="key-a", outcome="ok",
                       cache_hit=False, payload_sha="abc", detail="")
        journal.append("clean-shutdown", server="srv-1", terminal=1,
                       pending=0)
        journal.close()

        replay = replay_journal(str(tmp_path / "j"))
        assert replay.last_seq == 6
        assert replay.clean_shutdown
        assert replay.incarnations == 1
        job = replay.jobs["a"]
        assert job.terminal and job.outcome == "ok"
        assert job.claims == 1 and job.last_claim == "srv-1#1"
        assert not job.cache_hit
        assert replay.executed_claims() == 1
        assert replay.cache_hits() == 0

    def test_pending_jobs_are_the_recovery_set(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        submit(journal, "done-job")
        journal.append("done", name="done-job", key="key-done-job",
                       outcome="ok", cache_hit=True, payload_sha="abc",
                       detail="")
        submit(journal, "inflight")
        journal.append("claim", name="inflight", key="key-inflight",
                       claim="srv-1#2", attempt=1)
        submit(journal, "queued")
        journal.close()

        replay = replay_journal(str(tmp_path / "j"))
        pending = [job.name for job in replay.pending]
        assert pending == ["inflight", "queued"]
        assert replay.cache_hits() == 1
        assert not replay.clean_shutdown

    def test_retryable_attempt_ends_count_as_failures(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        submit(journal, "a")
        for outcome in ("crashed", "hung", "preempted"):
            journal.append("claim", name="a", key="key-a", claim="c",
                           attempt=1)
            journal.append("attempt-end", name="a", outcome=outcome,
                           detail="")
        journal.close()
        replay = replay_journal(str(tmp_path / "j"))
        assert replay.jobs["a"].failures == 2    # preempted is not a failure
        assert replay.jobs["a"].claims == 3


class TestRotationAndSealing:
    def test_rotation_seals_segments_atomically(self, tmp_path):
        root = str(tmp_path / "j")
        journal, _ = JobJournal.open(root, segment_records=3)
        for index in range(7):
            submit(journal, f"job{index}")
        journal.close()
        names = sorted(os.listdir(root))
        assert "segment-000001.jsonl" in names
        assert "segment-000002.jsonl" in names
        assert ACTIVE_NAME in names
        replay = replay_journal(root)
        assert replay.last_seq == 7
        assert len(replay.jobs) == 7

    def test_reopen_seals_previous_active(self, tmp_path):
        root = str(tmp_path / "j")
        journal, _ = JobJournal.open(root)
        submit(journal, "a")
        journal.close()
        journal2, replay = JobJournal.open(root)
        assert "a" in replay.jobs
        # The old active is now a sealed segment; the new active is fresh.
        assert os.path.getsize(os.path.join(root, ACTIVE_NAME)) == 0
        submit(journal2, "b")
        journal2.close()
        final = replay_journal(root)
        assert final.last_seq == 2
        assert set(final.jobs) == {"a", "b"}

    def test_seq_continues_across_incarnations(self, tmp_path):
        root = str(tmp_path / "j")
        journal, _ = JobJournal.open(root)
        submit(journal, "a")
        journal.close()
        journal2, _ = JobJournal.open(root)
        record = journal2.append("server-start", server="s2", pid=2,
                                 workdir=".")
        assert record["seq"] == 2
        journal2.close()


class TestTornTailAndCorruption:
    def _write_lines(self, root, lines):
        os.makedirs(root, exist_ok=True)
        with open(os.path.join(root, ACTIVE_NAME), "w") as handle:
            handle.write("\n".join(lines))

    def _valid_records(self, count):
        lines = []
        for seq in range(1, count + 1):
            record = {"seq": seq, "type": "quarantine", "t": 0.0,
                      "data": {"source": f"s{seq}", "reason": "r"}}
            record["crc"] = _record_crc(record)
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
        return lines

    def test_torn_tail_is_tolerated(self, tmp_path):
        root = str(tmp_path / "j")
        lines = self._valid_records(3)
        lines[-1] = lines[-1][: len(lines[-1]) // 2]     # SIGKILL mid-append
        self._write_lines(root, lines)
        replay = replay_journal(root)
        assert replay.torn_tail
        assert replay.last_seq == 2

    def test_reopen_after_torn_tail_seals_the_valid_prefix(self, tmp_path):
        root = str(tmp_path / "j")
        lines = self._valid_records(3)
        lines[-1] = lines[-1][:-5]
        self._write_lines(root, lines)
        journal, replay = JobJournal.open(root)
        assert replay.torn_tail and replay.last_seq == 2
        journal.append("server-start", server="s", pid=1, workdir=".")
        journal.close()
        # The sealed segment must now replay clean forever (no torn line
        # buried mid-stream).
        final = replay_journal(root)
        assert not final.torn_tail
        assert final.last_seq == 3

    def test_mid_stream_corruption_is_a_violation(self, tmp_path):
        root = str(tmp_path / "j")
        lines = self._valid_records(3)
        lines[1] = lines[1].replace('"r"', '"X"')        # CRC now wrong
        self._write_lines(root, lines)
        with pytest.raises(JournalConsistencyViolation) as caught:
            replay_journal(root)
        assert caught.value.details["check"] == "crc"
        assert caught.value.details["line"] == 2

    def test_sequence_gap_is_a_violation(self, tmp_path):
        root = str(tmp_path / "j")
        lines = self._valid_records(3)
        self._write_lines(root, [lines[0], lines[2]])    # seq 2 lost
        with pytest.raises(JournalConsistencyViolation) as caught:
            replay_journal(root)
        assert caught.value.details["check"] == "seq"

    def test_corruption_in_sealed_segment_is_a_violation(self, tmp_path):
        root = str(tmp_path / "j")
        os.makedirs(root)
        lines = self._valid_records(2)
        torn = lines[1][:-4]
        with open(os.path.join(root, "segment-000001.jsonl"), "w") as h:
            h.write(lines[0] + "\n" + torn + "\n")
        # A torn line is only forgiven at the END of the ACTIVE segment;
        # inside a sealed one it means the seal itself is untrustworthy.
        with pytest.raises(JournalConsistencyViolation):
            replay_journal(root)


class TestTransitionValidation:
    def test_claim_after_done_is_a_violation(self, tmp_path):
        """The no-rework guarantee: completed work is never re-claimed."""
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        submit(journal, "a")
        journal.append("done", name="a", key="key-a", outcome="ok",
                       cache_hit=False, payload_sha="x", detail="")
        journal.append("claim", name="a", key="key-a", claim="c",
                       attempt=2)
        journal.close()
        with pytest.raises(JournalConsistencyViolation) as caught:
            replay_journal(str(tmp_path / "j"))
        assert caught.value.details["check"] == "transition"
        assert "terminal" in str(caught.value)

    def test_duplicate_submit_is_a_violation(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        submit(journal, "a")
        submit(journal, "a")
        journal.close()
        with pytest.raises(JournalConsistencyViolation):
            replay_journal(str(tmp_path / "j"))

    def test_claim_without_submit_is_a_violation(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        journal.append("claim", name="ghost", key="k", claim="c", attempt=1)
        journal.close()
        with pytest.raises(JournalConsistencyViolation):
            replay_journal(str(tmp_path / "j"))

    def test_resubmit_after_shed_is_legal(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        journal.append("shed", name="a", key="key-a", spec={"name": "a"},
                       detail="queue full")
        submit(journal, "a")                 # queue freed; retry accepted
        journal.append("done", name="a", key="key-a", outcome="ok",
                       cache_hit=False, payload_sha="x", detail="")
        journal.close()
        replay = replay_journal(str(tmp_path / "j"))
        assert replay.jobs["a"].outcome == "ok"

    def test_resubmit_replaces_only_a_job_without_a_result(self, tmp_path):
        def done(name, key, outcome):
            journal.append("done", name=name, key=key, outcome=outcome,
                           cache_hit=False, payload_sha=None, detail="")

        journal, _ = JobJournal.open(str(tmp_path / "j"))
        submit(journal, "a")
        done("a", "key-a", "failed")
        submit(journal, "a")                 # retries ran out: run again
        done("a", "key-a", "ok")
        journal.append("submit", name="a", key="key-a2",
                       spec={"name": "a", "seed": 1})   # code changed
        journal.close()
        replay = replay_journal(str(tmp_path / "j"))
        assert replay.jobs["a"].key == "key-a2"
        assert replay.jobs["a"].outcome is None

        journal, _ = JobJournal.open(str(tmp_path / "j"))
        done("a", "key-a2", "ok")
        journal.append("submit", name="a", key="key-a2",
                       spec={"name": "a", "seed": 1})   # same result
        journal.close()
        with pytest.raises(JournalConsistencyViolation,
                           match="duplicate submit"):
            replay_journal(str(tmp_path / "j"))

    def test_cancel_folds_to_cancelled(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        submit(journal, "a")
        journal.append("cancel", name="a", reason="deadline", bundle=None)
        journal.close()
        replay = replay_journal(str(tmp_path / "j"))
        assert replay.jobs["a"].outcome == "cancelled"
        assert replay.jobs["a"].detail == "deadline"

    def test_unknown_record_type_rejected_at_append(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j"))
        with pytest.raises(ValueError, match="unknown journal record"):
            journal.append("not-a-type", name="a")
        journal.close()

"""The fleet engine: a crash-recoverable, journal-backed job server.

:class:`FleetServer` owns a worker pool, the deterministic result cache
and a write-ahead job journal, and its entire state is reconstructible
after ``kill -9``:

* every scheduling transition — submit, claim, attempt end, terminal
  outcome, cancel — is appended to the write-ahead
  :mod:`~repro.fleet.journal` *before* the server acts on it;
* a restarted server replays the journal, reconciles against the result
  cache and any ``result.json`` a worker published before the crash, and
  resumes the pending jobs from their on-disk checkpoints — completed
  work is never executed twice (the journal's replay validator raises a
  :class:`~repro.sanitize.violations.JournalConsistencyViolation` on a
  ``claim`` after ``done``, so the no-rework guarantee is checkable from
  the journal alone);
* each attempt is one worker process (:mod:`~repro.fleet.worker`)
  whose inputs are its spawn arguments (the spec, the claim token and
  the attempt's injected fault control), and it ends when that process
  exits: the supervisor waits on the process's sentinel through the
  event loop, and checks heartbeat staleness, the per-attempt deadline
  and a drain or abort every ``poll_interval`` meanwhile.  Every stop
  request (drain, ``preempt_after``, deadline, cancel) goes through
  :func:`_request_stop`.  The serve loop and idle slots sleep
  until a job state changes (submission, requeue, attempt end, terminal
  outcome, drain, abort), so no job waits out a poll.  A
  worker that dies without a result, or whose heartbeats go stale, is
  retried with capped exponential backoff and resumes from its last
  checkpoint (its last heartbeat names the frame it resumed from, so
  starting an attempt parses no snapshot); typed deterministic failures
  (``violation`` / ``detected`` / ``error``) are terminal on the first
  attempt; cooperative preemption at a checkpoint boundary costs no
  attempt (capped at :data:`MAX_PREEMPTIONS`);
* the result cache (content-addressed on config hash, seed and code
  version) is consulted on every claim, so finished work is served
  without a worker;
* intake is a **file-drop spool** (drop a JSON spec into
  ``<workdir>/spool/``) and a **Unix socket** (line-delimited JSON ops:
  submit / status / drain / cancel / ping).  Submission is idempotent —
  jobs deduplicate on their content-addressed cache key — and rejection
  is typed: a saturated queue sheds with :class:`FleetSaturated`, a
  malformed spec is quarantined to ``spool/quarantine/`` with a reason
  file, never a server crash;
* scheduling honors per-job **priority**, **fair share** across sweep
  owners (the owner with the fewest claims goes first within a priority
  band), and per-job **deadlines** that cancel overdue jobs through the
  cooperative-preemption path, leaving a triage bundle explaining the
  cancellation;
* degradation is graceful: SIGTERM drains (in-flight attempts stop at a
  checkpoint boundary, the journal gets a ``clean-shutdown`` record),
  a second signal aborts, and a pool that keeps crashing flips the
  server to **cache-only serving** (degraded mode) instead of burning
  retries.

:func:`run_sweep` is the one-shot form (``fleet sweep``, ``dse``): a
server on the sweep's workdir that submits the grid and drains once
every job in its table is terminal.  Rerunning a sweep in the same
workdir resumes it from the journal.

Exit codes (pinned; ``fleet serve``, ``fleet sweep`` and the drill
assert them):

====  ====================================================================
 0    drained cleanly, no pending jobs left
 4    drained cleanly, pending jobs remain (journal resumes them)
 5    aborted (second signal); no clean-shutdown record, next start
      crash-recovers
====  ====================================================================
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import re
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.fleet.cache import ResultCache
from repro.fleet.heartbeat import HeartbeatMonitor
from repro.fleet.job import (RETRYABLE, FleetConfig, FleetReport,
                             FleetSaturated, FleetWorkerFailure, JobAttempt,
                             JobRecord, JobSpec, JobSpecError)
from repro.fleet.journal import (JobJournal, JournalReplay, ReplayedJob,
                                 replaces)
from repro.fleet.manifest import build_manifest, cache_key, payload_bytes
from repro.fleet.worker import (CHECKPOINT_FILE, HEARTBEAT_FILE,
                                PREEMPT_FLAG, RESULT_FILE, TRIAGE_DIR,
                                worker_entry)
from repro.health.recovery import publish_text
from repro.sanitize.violations import JournalConsistencyViolation

SERVER_STATUS_SCHEMA = "repro-fleet-server-status/1"

SOCKET_NAME = "server.sock"
SPOOL_DIR = "spool"
QUARANTINE_DIR = "quarantine"
ACK_DIR = "ack"
JOURNAL_DIR = "journal"
CACHE_DIR = "cache"                  # the default cache root, in the workdir

EXIT_DRAINED = 0
EXIT_DRAINED_PENDING = 4
EXIT_ABORTED = 5

#: Hard ceiling on cooperative preemptions per job.  Every preemption
#: advances the checkpoint by at least one frame, so this is unreachable
#: for sane frame counts — it exists so a server bug can never turn into
#: an infinite preempt/resume loop.
MAX_PREEMPTIONS = 1000


class SubmissionError(ValueError):
    """A submission was refused: a malformed document (quarantined, not
    run), or a job name already taken by a different spec."""


@dataclass(frozen=True)
class JobSubmission:
    """One intake request: a spec plus scheduling policy.

    Policy fields are deliberately *not* part of the job's identity —
    the same simulation submitted at a different priority must still hit
    the same cache entry.
    """

    spec: JobSpec
    priority: int = 0                    # higher runs first
    owner: str = "anonymous"             # fair-share bucket
    deadline: Optional[float] = None     # wall seconds from admission

    @classmethod
    def from_dict(cls, doc) -> "JobSubmission":
        """Parse either a bare spec or a ``{"spec": ..., ...}`` envelope."""
        if not isinstance(doc, dict):
            raise SubmissionError(
                f"submission must be an object, got {type(doc).__name__}")
        if "spec" not in doc:
            return cls(spec=_spec_of(doc))
        known = {"spec", "priority", "owner", "deadline"}
        unknown = set(doc) - known
        if unknown:
            raise SubmissionError(
                f"unknown submission fields: {', '.join(sorted(unknown))}")
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise SubmissionError(
                f"priority must be an integer, got {priority!r}")
        owner = doc.get("owner", "anonymous")
        if not isinstance(owner, str) or not owner:
            raise SubmissionError(
                f"owner must be a non-empty string, got {owner!r}")
        deadline = doc.get("deadline")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) \
                    or isinstance(deadline, bool) or deadline <= 0:
                raise SubmissionError(
                    f"deadline must be a positive number of seconds, "
                    f"got {deadline!r}")
            deadline = float(deadline)
        return cls(spec=_spec_of(doc["spec"]), priority=priority,
                   owner=owner, deadline=deadline)


def _spec_of(doc) -> JobSpec:
    try:
        return JobSpec.from_dict(doc)
    except JobSpecError as exc:
        raise SubmissionError(str(exc)) from exc


@dataclass
class ServerConfig:
    """Server knobs on top of the pool's :class:`FleetConfig`."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    spool_poll: float = 0.1          # seconds between spool scans
    segment_records: int = 256       # journal rotation threshold
    unhealthy_after: int = 5         # consecutive infra failures -> degraded
    expect: Optional[int] = None     # drain once N jobs are terminal
    enable_socket: bool = True

    def __post_init__(self) -> None:
        if self.unhealthy_after <= 0:
            raise ValueError(
                f"unhealthy_after must be positive, "
                f"got {self.unhealthy_after}")
        if self.expect is not None and self.expect <= 0:
            raise ValueError(
                f"expect must be positive, got {self.expect}")


@dataclass
class _ServerJob:
    """Server-side job state wrapping the pool's :class:`JobRecord`."""

    record: JobRecord
    seq: int                             # admission order (tie-break)
    priority: int = 0
    owner: str = "anonymous"
    deadline: Optional[float] = None     # seconds from admission
    recovered: bool = False              # rebuilt from the journal
    prior_claims: int = 0                # claims journaled pre-crash
    failures: int = 0                    # retryable failures, all time
    running: bool = False
    cancel_requested: bool = False

    def __post_init__(self) -> None:
        # A deadline counts from admission, or from recovery after a
        # restart.
        self.deadline_at = (None if self.deadline is None
                            else time.monotonic() + self.deadline)

    @property
    def name(self) -> str:
        return self.record.spec.name

    @property
    def terminal(self) -> bool:
        return self.record.outcome != "pending"


def _payload_sha(payload: Optional[dict]) -> Optional[str]:
    if payload is None:
        return None
    return hashlib.sha256(payload_bytes(payload)).hexdigest()[:16]


def _name_taken(name: str) -> SubmissionError:
    return SubmissionError(
        f"job name {name!r} already taken by a different spec")


def _job_dirname(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _spawn_context():
    """Prefer fork (fast, Linux); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _clear(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def _request_stop(jobdir: str, reason: str) -> None:
    """Ask the attempt running in ``jobdir`` to stop at its next
    checkpoint boundary: the worker's preempt check looks for the flag.
    A failed write leaves the attempt running; it never ends the caller.
    """
    try:
        with open(os.path.join(jobdir, PREEMPT_FLAG), "w") as flag:
            flag.write(reason + "\n")
    except OSError:
        pass


def _exitcode_desc(code) -> str:
    if code is None:
        return "with unknown status"
    if code < 0:
        try:
            return f"on signal {signal.Signals(-code).name}"
        except ValueError:
            return f"on signal {-code}"
    return f"with code {code}"


def _load_checkpoint(jobdir: str):
    """The job's on-disk checkpoint for a triage bundle, or None if
    absent or unreadable."""
    from repro.health import load_checkpoint
    from repro.soc.checkpoint import CheckpointError
    try:
        return load_checkpoint(os.path.join(jobdir, CHECKPOINT_FILE))
    except (CheckpointError, OSError):
        return None


class FleetServer:
    """A long-lived fleet service; all state lives in the journal."""

    def __init__(self, config: ServerConfig, workdir: str) -> None:
        self.config = config
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        for sub in (SPOOL_DIR,
                    os.path.join(SPOOL_DIR, QUARANTINE_DIR),
                    os.path.join(SPOOL_DIR, ACK_DIR)):
            os.makedirs(os.path.join(workdir, sub), exist_ok=True)
        self.cache = ResultCache(config.fleet.cache_dir
                                 or os.path.join(workdir, CACHE_DIR))
        self.executed = 0                # worker processes spawned
        self._ctx = _spawn_context()
        self._draining = False           # first signal: drain
        self._aborting = False           # second signal: abort
        self.journal, self.replay = JobJournal.open(
            os.path.join(workdir, JOURNAL_DIR),
            segment_records=config.segment_records)
        self.server_id = (f"srv-{os.getpid():x}"
                         f"-i{self.replay.incarnations + 1}")
        self._jobs: dict = {}            # name -> _ServerJob
        self._by_key: dict = {}          # cache key -> _ServerJob
        self._ready: list = []
        self._seq = 0
        self._claim_seq = 0
        self._owner_share: dict = {}     # owner -> claims consumed
        self._running = 0
        self._terminal = 0
        self._infra_failures = 0         # consecutive, across the pool
        self.degraded = False
        self._wake = asyncio.Event()
        self._timers: set = set()        # backoff / deadline tasks
        self._signals = 0
        self._started = time.monotonic()
        self.journal.append(
            "server-start", server=self.server_id, pid=os.getpid(),
            workdir=os.path.abspath(workdir))
        self._recover(self.replay)

    # -- recovery -----------------------------------------------------------

    def _recover(self, replay: JournalReplay) -> None:
        """Rebuild the job table a killed incarnation left behind."""
        for replayed in replay.jobs.values():
            if replayed.terminal:
                # Register terminal jobs so idempotent resubmission of
                # an already-finished spec dedups instead of re-running.
                job = self._register(replayed, outcome=replayed.outcome)
                self._terminal += 1
                continue
            job = self._register(replayed, outcome=None)
            if self._reconcile(job):
                continue
            self._ready.append(job)

    def _register(self, replayed: ReplayedJob,
                  outcome: Optional[str]) -> _ServerJob:
        try:
            spec = JobSpec.from_dict(replayed.spec)
        except JobSpecError as exc:
            # Journaled by a build that accepted a spec this one refuses.
            self.journal.close()
            raise JournalConsistencyViolation(
                f"job {replayed.name!r} was journaled with a spec this "
                f"build refuses: {exc}",
                details={"check": "spec", "job": replayed.name}) from exc
        record = JobRecord(spec=spec, key=replayed.key or cache_key(spec))
        if outcome is not None:
            record.outcome = outcome
            record.cache_hit = replayed.cache_hit
        self._seq += 1
        job = _ServerJob(
            record=record, seq=self._seq, priority=replayed.priority,
            owner=replayed.owner, deadline=replayed.deadline,
            recovered=True, prior_claims=replayed.claims,
            failures=replayed.failures)
        self._jobs[job.name] = job
        self._by_key[record.key] = job
        return job

    def _reconcile(self, job: _ServerJob) -> bool:
        """Salvage work finished before the crash; True if now terminal.

        Two sources of truth beyond the journal: the result cache (the
        job — or an identical sibling — already published), and the job
        directory's ``result.json`` (the worker finished but the old
        server died before publishing).  Either way the job completes
        here without a worker process, and the journal records how.
        """
        record = job.record
        cached = self.cache.lookup(record.key)
        if cached is not None:
            self._finish(job, "ok", cache_hit=True, payload=cached.payload,
                         detail="recovered from result cache")
            return True
        if job.prior_claims > 0:
            result = self._read_result(self._jobdir(job))
            if result and result.get("outcome") == "ok":
                payload = result.get("payload")
                identity = record.spec.identity()
                if isinstance(payload, dict) and all(
                        payload.get(field) == value
                        for field, value in identity.items()):
                    self._publish(job, payload)
                    self._finish(job, "ok", payload=payload,
                                 detail="recovered from worker result")
                    return True
        return False

    # -- submission ---------------------------------------------------------

    def submit(self, submission: JobSubmission,
               source: str = "api") -> dict:
        """Admit a job (idempotently) or raise a typed rejection.

        Raises :class:`SubmissionError` for a name colliding with a
        different spec, :class:`FleetSaturated` when the pending table
        is full.  Returns an ack document either way work was accepted.
        """
        spec = submission.spec
        key = cache_key(spec)
        existing = self._admission(spec, key)
        if existing is not None:
            return {"ok": True, "name": existing.name,
                    "key": existing.record.key, "dedup": True,
                    "outcome": existing.record.outcome}
        if spec.name in self._jobs:
            self._terminal -= 1          # replacing a terminal job
        pending = sum(1 for job in self._jobs.values() if not job.terminal)
        if pending >= self.config.fleet.queue_limit:
            self.journal.append(
                "shed", name=spec.name, key=key, spec=spec.to_dict(),
                detail=f"{pending} pending (limit "
                       f"{self.config.fleet.queue_limit})")
            shed = _ServerJob(record=JobRecord(spec=spec, key=key),
                              seq=self._next_seq())
            shed.record.outcome = "shed"
            self._jobs[spec.name] = shed
            self._terminal += 1
            raise FleetSaturated(pending, self.config.fleet.queue_limit)
        self.journal.append(
            "submit", name=spec.name, key=key, spec=spec.to_dict(),
            priority=submission.priority, owner=submission.owner,
            deadline=submission.deadline, source=source)
        record = JobRecord(spec=spec, key=key)
        job = _ServerJob(record=record, seq=self._next_seq(),
                         priority=submission.priority,
                         owner=submission.owner,
                         deadline=submission.deadline)
        self._jobs[spec.name] = job
        self._by_key[key] = job
        self._ready.append(job)
        self._wake.set()
        return {"ok": True, "name": spec.name, "key": key,
                "dedup": False, "outcome": "pending"}

    def _admission(self, spec: JobSpec, key: str) -> Optional[_ServerJob]:
        """The job a submission of ``spec`` dedups to; None admits it.

        Raises :class:`SubmissionError` when the name is held by different
        physics.  A shed name is free, and a job the journal's
        :func:`~repro.fleet.journal.replaces` rule lets a resubmission
        replace is never deduped to.
        """
        existing = self._by_key.get(key)
        if existing is not None \
                and not replaces(existing.record.outcome, key, key):
            return existing
        named = self._jobs.get(spec.name)
        if named is None or named.record.outcome == "shed":
            return None
        if named.record.spec.identity() != spec.identity():
            raise _name_taken(spec.name)
        if replaces(named.record.outcome, named.record.key, key):
            return None
        return named

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- scheduling ---------------------------------------------------------

    def _pick(self) -> Optional[_ServerJob]:
        """Highest priority first; fair share by owner; FIFO tie-break."""
        if not self._ready:
            return None
        job = min(self._ready, key=lambda j: (
            -j.priority, self._owner_share.get(j.owner, 0), j.seq))
        self._ready.remove(job)
        return job

    def _jobdir(self, job: _ServerJob) -> str:
        return os.path.join(self.workdir, "jobs", _job_dirname(job.name))

    async def _slot(self) -> None:
        while not self._draining:
            job = self._pick()
            if job is None:
                # Check, clear and wait with no yield in between, so no
                # wake is lost: every change a slot waits for sets it.
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._drive(job)

    async def _drive(self, job: _ServerJob) -> None:
        """Serve one claim: cache hit, or one attempt; requeue or finish."""
        record = job.record
        loop = asyncio.get_running_loop()
        if job.cancel_requested:
            self._cancel(job, "cancelled by operator request")
            return
        if job.deadline_at is not None \
                and time.monotonic() >= job.deadline_at:
            self._cancel(
                job, f"deadline ({job.deadline:.1f}s) passed while queued",
                bundle=True)
            return
        # The cache is consulted on *every* claim: this is what lets a
        # restarted incarnation serve work completed before the kill.
        cached = self.cache.lookup(record.key)
        if cached is not None:
            self._finish(job, "ok", cache_hit=True, payload=cached.payload)
            return
        if self.degraded:
            self._finish(
                job, "shed",
                detail=f"pool unhealthy ({self._infra_failures} "
                       f"consecutive worker failures): cache-only serving")
            return

        self._claim_seq += 1
        claim = f"{self.server_id}#{self._claim_seq}"
        self.journal.append("claim", name=job.name, key=record.key,
                            claim=claim,
                            attempt=job.prior_claims
                            + len(record.attempts) + record.preemptions + 1)
        jobdir = self._jobdir(job)
        os.makedirs(jobdir, exist_ok=True)
        self._owner_share[job.owner] = \
            self._owner_share.get(job.owner, 0) + 1
        watchdog = None
        if job.deadline_at is not None:
            watchdog = loop.create_task(
                self._deadline_watchdog(job, jobdir))
            self._timers.add(watchdog)
            watchdog.add_done_callback(self._timers.discard)

        job.running = True
        self._running += 1
        try:
            attempt = await self._run_attempt(job, jobdir, claim)
        finally:
            job.running = False
            self._running -= 1
            self._wake.set()                 # a drain may be waiting on it
            if watchdog is not None:
                watchdog.cancel()
        record.attempts.append(attempt)
        self.journal.append("attempt-end", name=job.name,
                            outcome=attempt.outcome, detail=attempt.detail,
                            claim=claim)

        if attempt.outcome == "ok":
            self._infra_failures = 0
            self._publish(job, attempt.payload_doc)
            self._finish(job, "ok", payload=attempt.payload_doc)
            return
        if attempt.outcome == "preempted":
            record.attempts.pop()        # cooperative, not a failure
            record.preemptions += 1
            deadline_hit = (job.deadline_at is not None
                            and time.monotonic() >= job.deadline_at)
            if job.cancel_requested:
                self._cancel(job, "cancelled by operator request "
                                  f"({attempt.detail})")
                return
            if deadline_hit:
                self._cancel(
                    job,
                    f"deadline ({job.deadline:.1f}s) exceeded; stopped "
                    f"at a checkpoint boundary ({attempt.detail})",
                    bundle=True)
                return
            if self._draining:
                return                   # stays pending; journal resumes it
            if record.preemptions >= MAX_PREEMPTIONS:
                self._finish(job, "failed",
                             detail=f"preempted {record.preemptions} times "
                                    f"(limit {MAX_PREEMPTIONS})")
                return
            self._ready.append(job)
            self._wake.set()
            return
        if attempt.outcome in RETRYABLE:
            if self._draining:
                return                   # stays pending for the restart
            job.failures += 1
            self._infra_failures += 1
            if self._infra_failures >= self.config.unhealthy_after:
                self.degraded = True
            if job.failures < self.config.fleet.max_attempts:
                delay = self.config.fleet.backoff.delay_for(
                    job.failures - 1)
                record.next_backoff = delay
                timer = loop.create_task(self._requeue_later(job, delay))
                self._timers.add(timer)
                timer.add_done_callback(self._timers.discard)
                return
            self._finish(job, "failed", detail=attempt.detail)
            return
        # violation | detected | error: deterministic, terminal.
        self._finish(job, attempt.outcome, detail=attempt.detail)

    async def _requeue_later(self, job: _ServerJob, delay: float) -> None:
        await asyncio.sleep(delay)
        self._ready.append(job)
        self._wake.set()

    async def _deadline_watchdog(self, job: _ServerJob,
                                 jobdir: str) -> None:
        await asyncio.sleep(max(0.0, job.deadline_at - time.monotonic()))
        _request_stop(jobdir, f"deadline cancel: {job.deadline:.1f}s "
                              f"budget exhausted")

    # -- one worker process -------------------------------------------------

    async def _run_attempt(self, job: _ServerJob, jobdir: str,
                           claim: str) -> JobAttempt:
        record, fleet = job.record, self.config.fleet
        if not job.prior_claims and not record.attempts \
                and record.preemptions == 0:
            # First attempt: a checkpoint left behind in a reused job
            # directory belongs to a different job — resuming it would
            # publish a wrong payload under this job's cache key.  A
            # journal-recovered job that was claimed before keeps its
            # checkpoint: that is what a restart resumes from.
            _clear(os.path.join(jobdir, CHECKPOINT_FILE))
        # Every beat read from here on is this attempt's.
        _clear(os.path.join(jobdir, HEARTBEAT_FILE))
        _clear(os.path.join(jobdir, RESULT_FILE))
        _clear(os.path.join(jobdir, PREEMPT_FLAG))

        backoff_delay = record.next_backoff
        record.next_backoff = 0.0
        # One injected fault per attempt, preempted ones included.
        controls = fleet.inject.get(record.spec.name, [])
        index = len(record.attempts) + record.preemptions
        control = controls[index] if index < len(controls) else None

        process = self._ctx.Process(
            target=worker_entry,
            args=(record.spec.to_dict(), jobdir, fleet.budget_events,
                  claim, control),
            daemon=True)
        process.start()
        self.executed += 1
        monitor = HeartbeatMonitor(os.path.join(jobdir, HEARTBEAT_FILE),
                                   timeout=fleet.heartbeat_timeout)
        preempt_flagged = False
        hung = False
        stale_age = 0.0
        loop = asyncio.get_running_loop()
        started = loop.time()
        # The attempt ends when the worker exits: its sentinel turns
        # readable.  The checks below run every poll_interval meanwhile.
        exited = loop.create_future()

        def on_exit() -> None:
            loop.remove_reader(process.sentinel)
            exited.set_result(None)

        loop.add_reader(process.sentinel, on_exit)
        try:
            while True:
                done, _ = await asyncio.wait((exited,),
                                             timeout=fleet.poll_interval)
                if done:
                    break
                monitor.poll()
                if self._aborting:
                    process.kill()           # second signal: stop now
                    break
                over_deadline = (
                    fleet.preempt_after is not None
                    and loop.time() - started > fleet.preempt_after)
                if (self._draining or over_deadline) \
                        and not preempt_flagged:
                    _request_stop(jobdir, "preempt requested by the server")
                    preempt_flagged = True
                if monitor.stale():
                    process.kill()           # SIGKILL; heartbeats ceased
                    hung = True
                    stale_age = monitor.age()
                    break
        finally:
            loop.remove_reader(process.sentinel)
        process.join()                       # dead or just killed: quick
        exitcode_desc = _exitcode_desc(process.exitcode)
        process.close()

        # A published result supersedes the staleness verdict: a worker
        # that finished just as the monitor killed it still did the work,
        # and the result file is this attempt's (cleared before spawn).
        result = self._read_result(jobdir)
        if result is not None:
            return JobAttempt(
                outcome=result.get("outcome", "error"),
                detail=result.get("detail", ""),
                resumed_from=result.get("resumed_from", 0),
                backoff_delay=backoff_delay,
                bundle=result.get("bundle"),
                payload_doc=result.get("payload"))

        # No result: the process died (or we killed it for hanging).
        # Its beats name the frame it resumed from; 0 if it never beat.
        beat = monitor.poll()
        resumed_from = beat.get("resumed_from", 0) if beat else 0
        kind = "hung" if hung else "crashed"
        failure = FleetWorkerFailure(
            kind,
            f"no heartbeat for {stale_age:.1f}s "
            f"(timeout {fleet.heartbeat_timeout}s); killed"
            if hung else
            f"worker exited {exitcode_desc} without a result "
            f"(resume point: frame {resumed_from})",
            last_heartbeat=beat)
        bundle = self._write_attempt_bundle(record, jobdir, failure)
        return JobAttempt(outcome=kind, detail=str(failure),
                          resumed_from=resumed_from,
                          backoff_delay=backoff_delay, bundle=bundle)

    def _write_attempt_bundle(self, record: JobRecord, jobdir: str,
                              failure: FleetWorkerFailure) -> Optional[str]:
        """Triage bundle for an attempt that died without reporting."""
        from repro.sanitize.triage import write_bundle
        try:
            return write_bundle(
                os.path.join(jobdir, TRIAGE_DIR),
                seed=record.spec.seed, error=failure,
                command=record.spec.repro_command(),
                config={"job": record.spec.to_dict(),
                        "attempt": len(record.attempts) + 1,
                        "server": failure.details},
                checkpoint=_load_checkpoint(jobdir))
        except OSError:
            return None

    @staticmethod
    def _read_result(jobdir: str) -> Optional[dict]:
        try:
            with open(os.path.join(jobdir, RESULT_FILE)) as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    # -- terminal transitions -----------------------------------------------

    def _publish(self, job: _ServerJob, payload: Optional[dict]) -> None:
        record = job.record
        if payload is None:
            return
        # The job already succeeded: a cache publish failure (disk full,
        # permissions) is recorded, never allowed to kill the slot and
        # strand the rest of the queue.
        try:
            manifest = build_manifest(
                record.spec, record.key, outcome="ok",
                provenance={
                    "attempts": len(record.attempts),
                    "preemptions": record.preemptions,
                    "server": self.server_id,
                })
            self.cache.store(record.key, manifest, payload)
        except OSError as exc:
            record.cache_error = f"{type(exc).__name__}: {exc}"

    def _finish(self, job: _ServerJob, outcome: str, *,
                cache_hit: bool = False, payload: Optional[dict] = None,
                detail: str = "") -> None:
        record = job.record
        self.journal.append(
            "done", name=job.name, key=record.key, outcome=outcome,
            cache_hit=cache_hit, payload_sha=_payload_sha(payload),
            detail=detail)
        record.outcome = outcome
        record.cache_hit = cache_hit
        if payload is not None:
            record.payload = payload
        self._terminal += 1
        self._wake.set()

    def _cancel(self, job: _ServerJob, reason: str, *,
                bundle: bool = False) -> None:
        record = job.record
        bundle_path = None
        if bundle:
            failure = FleetWorkerFailure("deadline-cancel", reason)
            bundle_path = self._write_attempt_bundle(
                record, self._jobdir(job), failure)
        self.journal.append("cancel", name=job.name, reason=reason,
                            bundle=bundle_path)
        record.outcome = "cancelled"
        record.cancel_reason = reason
        self._terminal += 1
        self._wake.set()

    # -- intake: file-drop spool --------------------------------------------

    def _spool_path(self, *parts: str) -> str:
        return os.path.join(self.workdir, SPOOL_DIR, *parts)

    def poll_spool(self) -> int:
        """One spool scan; returns how many drop files were consumed."""
        spool = self._spool_path()
        try:
            names = sorted(os.listdir(spool))
        except OSError:
            return 0
        consumed = 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(spool, name)
            if not os.path.isfile(path):
                continue
            self._consume_drop(path, name)
            consumed += 1
        return consumed

    def _consume_drop(self, path: str, name: str) -> None:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            submission = JobSubmission.from_dict(doc)
        except (OSError, ValueError) as exc:
            self._quarantine_drop(path, name, exc)
            return
        try:
            ack = self.submit(submission, source=f"spool:{name}")
        except FleetSaturated as exc:
            ack = {"ok": False, "error": "FleetSaturated",
                   "detail": str(exc), "pending": exc.pending,
                   "limit": exc.limit}
        except SubmissionError as exc:
            self._quarantine_drop(path, name, exc)
            return
        self._ack_drop(name, ack)
        _clear(path)

    def _quarantine_drop(self, path: str, name: str, exc: Exception) -> None:
        """A malformed drop is set aside with a reason — never a crash."""
        reason = f"{type(exc).__name__}: {exc}"
        self.journal.append("quarantine", source=name, reason=reason)
        quarantined = self._spool_path(QUARANTINE_DIR, name)
        try:
            os.replace(path, quarantined)
        except OSError:
            _clear(path)
        self._write_json(self._spool_path(QUARANTINE_DIR,
                                          name + ".reason.json"),
                         {"source": name, "reason": reason})
        self._ack_drop(name, {"ok": False, "error": "quarantined",
                              "detail": reason})

    def _ack_drop(self, name: str, ack: dict) -> None:
        self._write_json(self._spool_path(ACK_DIR, name), ack)

    @staticmethod
    def _write_json(path: str, doc: dict) -> None:
        try:
            publish_text(path,
                         json.dumps(doc, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass

    async def _spool_loop(self) -> None:
        while not self._draining:
            self.poll_spool()
            await asyncio.sleep(self.config.spool_poll)

    # -- intake: unix socket ------------------------------------------------

    @property
    def socket_path(self) -> str:
        return os.path.join(self.workdir, SOCKET_NAME)

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = self._dispatch(line)
                writer.write((json.dumps(response, sort_keys=True)
                              + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    def _dispatch(self, raw: bytes) -> dict:
        try:
            request = json.loads(raw)
        except ValueError as exc:
            return {"ok": False, "error": "malformed",
                    "detail": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "malformed",
                    "detail": "request must be a JSON object"}
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "server": self.server_id}
        if op == "status":
            return self.status()
        if op == "drain":
            self.request_drain()
            return {"ok": True, "draining": True}
        if op == "submit":
            try:
                submission = JobSubmission.from_dict(
                    request.get("job", request.get("spec")))
                return self.submit(submission, source="socket")
            except SubmissionError as exc:
                return {"ok": False, "error": "SubmissionError",
                        "detail": str(exc)}
            except FleetSaturated as exc:
                return {"ok": False, "error": "FleetSaturated",
                        "detail": str(exc), "pending": exc.pending,
                        "limit": exc.limit}
        if op == "cancel":
            return self._cancel_request(request.get("name"))
        return {"ok": False, "error": "unknown-op",
                "detail": f"unknown op {op!r}"}

    def _cancel_request(self, name) -> dict:
        job = self._jobs.get(name) if isinstance(name, str) else None
        if job is None:
            return {"ok": False, "error": "unknown-job",
                    "detail": f"no job named {name!r}"}
        if job.terminal:
            return {"ok": False, "error": "already-terminal",
                    "detail": f"job {name!r} is {job.record.outcome}"}
        job.cancel_requested = True
        if job.running:
            # Cooperative: the worker stops at the next checkpoint
            # boundary and the slot finalizes the cancellation.
            _request_stop(self._jobdir(job), "cancel requested by operator")
            return {"ok": True, "name": name, "state": "preempting"}
        if job in self._ready:
            self._ready.remove(job)
            self._cancel(job, "cancelled by operator request")
            return {"ok": True, "name": name, "state": "cancelled"}
        return {"ok": True, "name": name, "state": "pending-cancel"}

    # -- introspection ------------------------------------------------------

    def status(self) -> dict:
        counts: dict = {}
        for job in self._jobs.values():
            counts[job.record.outcome] = \
                counts.get(job.record.outcome, 0) + 1
        pending = sum(1 for job in self._jobs.values() if not job.terminal)
        return {
            "schema": SERVER_STATUS_SCHEMA,
            "ok": True,
            "server": self.server_id,
            "ready": not self._draining and not self.degraded,
            "draining": self._draining,
            "degraded": self.degraded,
            "uptime": round(time.monotonic() - self._started, 3),
            "jobs": counts,
            "pending": pending,
            "running": self._running,
            "terminal": self._terminal,
            "executed": self.executed,
            "expect": self.config.expect,
            "cache": self.cache.stats(),
            "journal": {"root": self.journal.root,
                        "incarnation": self.replay.incarnations + 1},
        }

    # -- lifecycle ----------------------------------------------------------

    def request_drain(self) -> None:
        """First signal: stop intake, preempt in-flight, shut down clean."""
        if not self._draining:
            self.journal.append("drain", server=self.server_id)
        self._draining = True
        self._wake.set()

    def request_abort(self) -> None:
        """Second signal: SIGKILL workers, exit without a clean record."""
        self._draining = self._aborting = True
        self._wake.set()

    def _on_signal(self) -> None:
        self._signals += 1
        if self._signals == 1:
            self.request_drain()
        else:
            self.request_abort()

    async def serve_async(self, *,
                          install_signals: bool = True) -> int:
        """Run until drained (or aborted); returns the exit code.

        With ``install_signals`` the drain/abort ladder owns SIGTERM and
        SIGINT while the server serves, and the caller's handlers are put
        back before it returns.  Plain ``signal.signal`` handlers, not
        ``loop.add_signal_handler``: closing a loop resets the signals it
        handled to their default action, which would leave the caller's
        process to be killed by a signal arriving after the drain.
        """
        loop = asyncio.get_running_loop()
        saved = {}
        if install_signals:
            def on_signal(signum, frame) -> None:
                loop.call_soon_threadsafe(self._on_signal)
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    saved[signum] = signal.signal(signum, on_signal)
                except ValueError:               # not the main thread
                    pass
        try:
            return await self._serve(loop)
        finally:
            for signum, handler in saved.items():
                if handler is not None:
                    signal.signal(signum, handler)

    async def _serve(self, loop) -> int:
        socket_server = None
        if self.config.enable_socket:
            _clear(self.socket_path)
            socket_server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path)
        spool_task = loop.create_task(self._spool_loop())
        slots = [loop.create_task(self._slot())
                 for _ in range(self.config.fleet.workers)]
        try:
            while True:
                if self.config.expect is not None \
                        and self._terminal >= self.config.expect \
                        and not self._draining:
                    self.request_drain()
                if self._draining and self._running == 0:
                    break
                # Woken by a terminal job, an attempt's end, a drain or
                # an abort: each sets _wake.
                self._wake.clear()
                await self._wake.wait()
        finally:
            spool_task.cancel()
            for timer in list(self._timers):
                timer.cancel()
            if socket_server is not None:
                socket_server.close()
                await socket_server.wait_closed()
                _clear(self.socket_path)
            await asyncio.gather(*slots, return_exceptions=True)
        pending = sum(1 for job in self._jobs.values() if not job.terminal)
        if self._aborting:
            # No clean-shutdown record on purpose: the next incarnation
            # must treat this exactly like a crash and recover.
            self.journal.close()
            return EXIT_ABORTED
        self.journal.append("clean-shutdown", server=self.server_id,
                            terminal=self._terminal, pending=pending)
        self.journal.close()
        return EXIT_DRAINED if pending == 0 else EXIT_DRAINED_PENDING

    def serve(self, *, install_signals: bool = True) -> int:
        return asyncio.run(self.serve_async(install_signals=install_signals))


def run_sweep(specs, config: Optional[FleetConfig] = None,
              workdir: str = "fleet-work") -> FleetReport:
    """Drive ``specs`` to terminal outcomes on a server in ``workdir``.

    The server submits the grid, serves it with the SIGTERM/SIGINT
    ladder until every job in its table is terminal, and drains.  The
    workdir holds the sweep's journal, so rerunning the grid there
    resumes a killed or drained sweep and reports finished jobs with
    their cached payloads, spawning no worker for them.  Identical specs
    dedup to one job; a job beyond ``queue_limit`` is recorded ``shed``;
    a name already used (in ``specs`` or the workdir's journal) for
    different physics raises :class:`SubmissionError` before anything is
    journaled.  A shed or failed job, or one finished under an older
    code version, runs again.  A job finished earlier whose payload the
    cache no longer holds is reported ``error``, naming the cache root.
    The report lists each job once, in submission order.
    """
    specs = list(specs)
    server = FleetServer(ServerConfig(fleet=config or FleetConfig(),
                                      enable_socket=False), workdir)
    grid: dict = {}                      # name -> identity
    try:
        for spec in specs:
            server._admission(spec, cache_key(spec))
            if grid.setdefault(spec.name, spec.identity()) \
                    != spec.identity():
                raise _name_taken(spec.name)
    except SubmissionError:
        server.journal.close()
        raise
    names: dict = {}                     # ordered set of the sweep's jobs
    for spec in specs:
        try:
            ack = server.submit(JobSubmission(spec=spec), source="sweep")
            names[ack["name"]] = None
        except FleetSaturated:
            names[spec.name] = None      # recorded as outcome "shed"
    server.config.expect = len(server._jobs)
    code = server.serve()
    records = [server._jobs[name].record for name in names]
    for record in records:
        if record.ok and record.payload is None:
            # Finished by an earlier run in this workdir: the journal
            # kept the outcome, the cache keeps the payload.
            cached = server.cache.lookup(record.key)
            if cached is not None:
                record.payload = cached.payload
                continue
            record.outcome = "error"
            record.cache_error = (
                f"finished by an earlier run, but the result cache "
                f"{server.cache.root} no longer holds its payload; rerun "
                f"with that run's cache or in a fresh workdir")
    return FleetReport(records=records, executed=server.executed,
                       cache_stats=server.cache.stats(), exit_code=code)


def journal_status(workdir: str) -> dict:
    """Offline status from the journal alone (server not running)."""
    from repro.fleet.journal import replay_journal
    replay = replay_journal(os.path.join(workdir, JOURNAL_DIR))
    doc = replay.summary()
    doc["schema"] = SERVER_STATUS_SCHEMA
    doc["ok"] = True
    doc["offline"] = True
    return doc

"""Fault-tolerant simulation fleet (DESIGN.md §10, server mode §14).

``repro.fleet`` turns the single-run simulator into a crash-tolerant
service with one orchestration path, the journal-backed
:class:`FleetServer` (:mod:`repro.fleet.server`).  It shards benchmark
sweeps, chaos seeds and user-submitted configs across a multiprocess
worker pool, detects crashed and hung workers by heartbeat staleness (a
monotonic attempt-progress counter, immune to clock jumps), requeues
them with capped exponential backoff, resumes retried jobs from their
last :class:`~repro.soc.checkpoint.GraphicsCheckpoint`, and caches
deterministic results content-addressed on (config hash, seed, code
version) with gem5-style manifests.  Failures surface as typed outcomes
with triage bundles attached — the chaos loud-death contract extended to
the process-pool layer.

The server's whole state is reconstructible after ``kill -9`` from its
write-ahead job journal (:mod:`repro.fleet.journal`); it takes
file-drop + Unix-socket intake, schedules by priority / fair share /
deadline, and drains gracefully on SIGTERM.  :func:`run_sweep` is the
one-shot form: a server on the sweep's workdir that submits the grid
and drains once every job is terminal, so rerunning a sweep in its
workdir resumes it.  :mod:`repro.fleet.drill` SIGKILLs a ``fleet
sweep`` mid-run and asserts byte-identical results.

Quickstart (one-shot sweep)::

    from repro.fleet import FleetConfig, JobSpec, run_sweep

    specs = [JobSpec(name=f"cube-s{seed}", frames=2, seed=seed)
             for seed in (1, 2, 3)]
    report = run_sweep(specs, FleetConfig(workers=2),
                       workdir="fleet-work")
    assert report.ok        # rerun in fleet-work: no worker spawned

CLI: ``python -m repro fleet sweep --seeds 1,2,3 --workers 2``; the
server is ``python -m repro fleet serve|submit|status|drain|gc``.
"""

from __future__ import annotations

from repro.fleet.cache import (CacheGCReport, CachedResult, ResultCache,
                               sweep_triage_bundles)
from repro.fleet.heartbeat import HeartbeatMonitor
from repro.fleet.job import (ATTEMPT_OUTCOMES, JOB_OUTCOMES, BackoffPolicy,
                             FleetConfig, FleetReport, FleetSaturated,
                             FleetWorkerFailure, JobAttempt, JobRecord,
                             JobSpec, JobSpecError)
from repro.fleet.journal import (JobJournal, JournalReplay, ReplayedJob,
                                 replay_journal)
from repro.fleet.manifest import (ManifestError, build_manifest, cache_key,
                                  code_version, config_hash,
                                  validate_manifest)
from repro.fleet.server import (FleetServer, JobSubmission, ServerConfig,
                                SubmissionError, journal_status, run_sweep)
from repro.fleet.worker import run_job, worker_entry

__all__ = [
    "ATTEMPT_OUTCOMES",
    "BackoffPolicy",
    "CacheGCReport",
    "CachedResult",
    "FleetConfig",
    "FleetReport",
    "FleetSaturated",
    "FleetServer",
    "FleetWorkerFailure",
    "HeartbeatMonitor",
    "JOB_OUTCOMES",
    "JobAttempt",
    "JobJournal",
    "JobRecord",
    "JobSpec",
    "JobSpecError",
    "JobSubmission",
    "JournalReplay",
    "ManifestError",
    "ReplayedJob",
    "ResultCache",
    "ServerConfig",
    "SubmissionError",
    "build_manifest",
    "cache_key",
    "code_version",
    "config_hash",
    "journal_status",
    "replay_journal",
    "run_job",
    "run_sweep",
    "sweep_triage_bundles",
    "validate_manifest",
    "worker_entry",
]

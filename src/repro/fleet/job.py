"""Fleet job descriptions, the pool's policy, and the failure taxonomy.

A :class:`JobSpec` is the unit of work the fleet schedules: one
deterministic full-system run (model, resolution, frame count, memory
configuration, seed, optional fault injection).  Everything in a spec is
plain data — specs travel to worker processes as JSON, hash into the
result cache's content address, and appear verbatim in manifests and
triage bundles.  :class:`FleetConfig` holds the worker pool's policy
(size, queue bound, retry ladder, heartbeat timeout) and
:class:`FleetReport` what one sweep produced.

The taxonomy (DESIGN.md §10) splits *attempt* outcomes — what one worker
process did — from *job* outcomes — what the fleet server concluded
after retries:

===============  ==========================================================
attempt outcome  meaning
===============  ==========================================================
``ok``           run completed; deterministic payload produced
``preempted``    cooperative stop at a checkpoint boundary (resume point)
``crashed``      worker process died without writing a result (SIGKILL,
                 OOM kill, interpreter abort)
``hung``         heartbeats went stale; the server killed the worker
``violation``    a typed SanitizerViolation; triage bundle written
``detected``     a wrapped SimulationError (watchdog, event budget);
                 triage bundle written
``error``        any other exception, reported typed — never a bare
                 traceback (the loud-death contract)
===============  ==========================================================

Job outcomes are ``ok`` (possibly via cache), ``failed`` (crash/hang
retries exhausted), ``violation`` / ``detected`` / ``error`` (typed
deterministic failures — retrying a deterministic simulation reproduces
the same failure, so these are terminal on the first attempt),
``shed`` (rejected at submit time by the bounded queue —
:class:`FleetSaturated`), and ``cancelled``
(stopped by policy, not by failure: an operator cancel or a deadline
cancel through the cooperative-preemption path — the job's checkpoint
survives).  A drain signal cancels nothing: unfinished jobs stay
``pending`` in the journal and resume on the next run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.common.config import ConfigError, SoCTopology
from repro.memory.builders import MEMORY_CONFIG_NAMES

#: Attempt-level outcomes (one worker process).
ATTEMPT_OUTCOMES = ("ok", "preempted", "crashed", "hung", "violation",
                    "detected", "error")
#: Job-level outcomes (after the server's retry policy).
JOB_OUTCOMES = ("ok", "failed", "violation", "detected", "error", "shed",
                "cancelled")
#: Attempt outcomes the server retries (infrastructure failures, not
#: deterministic simulation verdicts).
RETRYABLE = ("crashed", "hung")
#: Per-attempt event budget: the backstop against a simulation that
#: never finishes.
DEFAULT_BUDGET_EVENTS = 5_000_000


class JobSpecError(ValueError):
    """A job description failed validation (bad field, wrong type)."""


#: FaultConfig knobs a spec may set (seed is carried separately).
FAULT_FIELDS = ("dram_drop", "dram_delay", "noc_spike", "display_underrun")


@dataclass(frozen=True)
class JobSpec:
    """One deterministic simulation job.

    ``name`` is a scheduling label only; the cache key is derived from the
    physical configuration + seed, so two names with identical configs
    share one cached result.  ``faults`` is a plain dict of
    :class:`~repro.health.faults.FaultConfig` probabilities (seed
    excluded — the job seed drives the injector), ``retries`` arms the
    NoC retry ladder that makes drops survivable.

    ``topology`` (optional) is a full
    :class:`~repro.common.config.SoCTopology` document — the declarative
    system the worker assembles instead of the default shape around
    ``memory_config``.  It is part of the identity, so the cache key
    hashes the *real* topology: two jobs differing only in cluster count
    or channel count never alias.  ``collect_metrics`` asks the worker
    to fold DSE metrics (FPS, DRAM bandwidth, energy) into the payload;
    it is also identity because it changes the payload bytes.

    ``ffwd`` fast-forwards the first N frames functionally before
    entering detailed timing (gem5 idiom, DESIGN.md §13); ``sample`` is
    a ``DETAIL:PERIOD[:WARMUP]`` periodic-sampling spec
    (:func:`repro.sampling.windows.parse_sample_spec`).  Both are
    identity — a sampled or fast-forwarded run produces different
    payload bytes than a full-detail run of the same workload, so they
    must never share a cache entry.  They are mutually exclusive.
    """

    name: str
    model: str = "cube"
    width: int = 48
    height: int = 36
    frames: int = 2
    memory_config: str = "BAS"
    seed: int = 7
    faults: Optional[dict] = None
    retries: bool = False
    topology: Optional[dict] = None
    collect_metrics: bool = False
    ffwd: int = 0
    sample: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise JobSpecError("job name must be non-empty")
        if self.memory_config not in MEMORY_CONFIG_NAMES:
            raise JobSpecError(
                f"unknown memory_config {self.memory_config!r}; valid "
                f"Table 6 names: {', '.join(MEMORY_CONFIG_NAMES)}")
        for attr in ("width", "height", "frames"):
            value = getattr(self, attr)
            if not isinstance(value, int) or value <= 0:
                raise JobSpecError(
                    f"{attr} must be a positive integer, got {value!r}")
        if not isinstance(self.seed, int):
            raise JobSpecError(f"seed must be an integer, got {self.seed!r}")
        if self.faults is not None:
            if not isinstance(self.faults, dict):
                raise JobSpecError(
                    f"faults must be an object, got "
                    f"{type(self.faults).__name__}")
            for key, value in self.faults.items():
                if key not in FAULT_FIELDS:
                    raise JobSpecError(
                        f"unknown fault {key!r} (known: "
                        f"{', '.join(FAULT_FIELDS)})")
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    raise JobSpecError(
                        f"fault {key!r} must be a number, got {value!r}")
        if self.topology is not None:
            if not isinstance(self.topology, dict):
                raise JobSpecError(
                    f"topology must be an object, got "
                    f"{type(self.topology).__name__}")
            try:
                SoCTopology.from_dict(self.topology)
            except ConfigError as exc:
                raise JobSpecError(f"invalid topology: {exc}") from exc
        if not isinstance(self.collect_metrics, bool):
            raise JobSpecError(
                f"collect_metrics must be a boolean, got "
                f"{self.collect_metrics!r}")
        if not isinstance(self.ffwd, int) or isinstance(self.ffwd, bool) \
                or self.ffwd < 0:
            raise JobSpecError(
                f"ffwd must be a non-negative integer, got {self.ffwd!r}")
        if self.ffwd >= self.frames:
            raise JobSpecError(
                f"ffwd must leave at least one detailed frame "
                f"(ffwd {self.ffwd} >= frames {self.frames})")
        if self.sample is not None:
            if not isinstance(self.sample, str):
                raise JobSpecError(
                    f"sample must be a DETAIL:PERIOD[:WARMUP] string, got "
                    f"{self.sample!r}")
            if self.ffwd:
                raise JobSpecError(
                    "ffwd and sample are mutually exclusive")
            # Late import: windows is dependency-free; validating here
            # keeps a bad schedule a submit-time JobSpecError rather
            # than a per-attempt runtime failure.
            from repro.sampling.windows import (WindowScheduleError,
                                                parse_sample_spec)
            try:
                schedule = parse_sample_spec(self.sample, self.frames)
            except WindowScheduleError as exc:
                raise JobSpecError(f"invalid sample spec: {exc}") from exc
            if schedule.measured_windows() < 2:
                raise JobSpecError(
                    f"sample spec {self.sample!r} yields "
                    f"{schedule.measured_windows()} measured window(s) "
                    f"over {self.frames} frames; extrapolation needs at "
                    f"least 2")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "width": self.width,
            "height": self.height,
            "frames": self.frames,
            "memory_config": self.memory_config,
            "seed": self.seed,
            "faults": dict(self.faults) if self.faults else None,
            "retries": self.retries,
            "topology": (dict(self.topology) if self.topology is not None
                         else None),
            "collect_metrics": self.collect_metrics,
            "ffwd": self.ffwd,
            "sample": self.sample,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        if not isinstance(doc, dict):
            raise JobSpecError(
                f"job spec must be an object, got {type(doc).__name__}")
        known = {"name", "model", "width", "height", "frames",
                 "memory_config", "seed", "faults", "retries",
                 "topology", "collect_metrics", "ffwd", "sample"}
        unknown = set(doc) - known
        if unknown:
            raise JobSpecError(
                f"unknown job spec fields: {', '.join(sorted(unknown))}")
        if "name" not in doc:
            raise JobSpecError("job spec missing 'name'")
        return cls(**doc)

    def identity(self) -> dict:
        """The fields that determine the simulation's output — everything
        but the scheduling label.  This is what the cache hashes."""
        doc = self.to_dict()
        del doc["name"]
        return doc

    def repro_command(self) -> str:
        """The shell command that reruns this job alone, in a fresh
        workdir and so a fresh cache: the ``repro.sh`` of its triage
        bundles."""
        return ('python -m repro fleet sweep --workdir "$(mktemp -d)" '
                "--jobs - <<'EOF'\n"
                f"{json.dumps([self.to_dict()])}\nEOF")


@dataclass
class JobAttempt:
    """What one worker process did with a job."""

    outcome: str                         # one of ATTEMPT_OUTCOMES
    detail: str = ""
    resumed_from: int = 0                # checkpoint frame, 0 = scratch
    backoff_delay: float = 0.0           # seconds waited before this attempt
    bundle: Optional[str] = None         # triage bundle path, if one exists
    payload_doc: Optional[dict] = None   # deterministic result (ok only)

    def to_dict(self) -> dict:
        return {"outcome": self.outcome, "detail": self.detail,
                "resumed_from": self.resumed_from,
                "backoff_delay": self.backoff_delay, "bundle": self.bundle}


@dataclass
class JobRecord:
    """A job's full history: attempts, final outcome, payload."""

    spec: JobSpec
    outcome: str = "pending"
    cache_hit: bool = False
    payload: Optional[dict] = None       # the deterministic result
    attempts: list[JobAttempt] = field(default_factory=list)
    preemptions: int = 0
    key: Optional[str] = None            # cache key, once computed
    next_backoff: float = 0.0            # delay applied to the next attempt
    cache_error: Optional[str] = None    # publish failed / payload gone
    cancel_reason: Optional[str] = None  # why a cancelled job stopped

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def bundles(self) -> list[str]:
        return [a.bundle for a in self.attempts if a.bundle]

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "outcome": self.outcome,
            "cache_hit": self.cache_hit,
            "payload": self.payload,
            "attempts": [a.to_dict() for a in self.attempts],
            "preemptions": self.preemptions,
            "key": self.key,
            "cache_error": self.cache_error,
            "cancel_reason": self.cancel_reason,
        }


class FleetSaturated(RuntimeError):
    """The bounded submission queue is full; the job was shed, not queued.

    A typed outcome, per the loud-death contract: callers see exactly why
    the fleet refused work (current depth, limit) instead of blocking
    forever or growing the queue without bound.
    """

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"fleet saturated: {pending} jobs pending (limit {limit})")
        self.pending = pending
        self.limit = limit


class FleetWorkerFailure(RuntimeError):
    """Server-side record of a crashed, hung or deadline-cancelled attempt.

    Written into the attempt's triage bundle (the worker itself died
    without the chance to report), carrying what the server observed:
    the exit signal / staleness, the last heartbeat, the resume point.
    """

    def __init__(self, kind: str, message: str, *,
                 last_heartbeat: Optional[dict] = None) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.last_heartbeat = last_heartbeat
        self.details = {"kind": kind, "last_heartbeat": last_heartbeat}


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential delay before retrying a crashed/hung attempt.

    Retry ``i`` (0-based) waits ``min(cap, base * factor**i)`` seconds —
    the same ladder shape as the NoC's :class:`RetryConfig`, in wall
    time.  Deterministic by construction (no jitter): tests can assert
    the exact delay sequence.
    """

    base: float = 0.25
    factor: float = 2.0
    cap: float = 4.0

    def delay_for(self, retry_index: int) -> float:
        return min(self.cap, self.base * (self.factor ** retry_index))

    def ladder(self, retries: int) -> list[float]:
        return [self.delay_for(i) for i in range(retries)]


@dataclass
class FleetConfig:
    """Worker-pool knobs."""

    workers: int = 2
    queue_limit: int = 1024          # bounded submissions (load shedding)
    max_attempts: int = 3            # crash/hang retries per job
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    heartbeat_timeout: float = 60.0  # wall seconds without a beat = hung
    # Seconds between a running attempt's heartbeat, deadline and drain
    # checks.  Nothing else waits on it: an attempt ends when its worker
    # exits, and the server wakes on every job state change.
    poll_interval: float = 0.05
    preempt_after: Optional[float] = None   # wall deadline per attempt
    budget_events: int = DEFAULT_BUDGET_EVENTS
    cache_dir: Optional[str] = None  # None: <workdir>/cache
    # Test/CI fault injection: job name -> per-attempt control docs, e.g.
    # {"cube-s1": [{"kill_at_frame": 0}]} SIGKILLs attempt 1 after frame
    # 0 and lets attempt 2 (which consumes no control) run clean.
    inject: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.queue_limit <= 0:
            raise ValueError(
                f"queue_limit must be positive, got {self.queue_limit}")
        if self.max_attempts <= 0:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts}")


@dataclass
class FleetReport:
    """Everything one sweep produced, one record per job, in submission
    order, with the server's exit code."""

    records: list[JobRecord] = field(default_factory=list)
    executed: int = 0                # worker processes spawned
    cache_stats: dict = field(default_factory=dict)
    exit_code: int = 0               # the server's 0/4/5 exit code

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def cached(self) -> int:
        return sum(1 for record in self.records if record.cache_hit)

    def counts(self) -> dict:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "schema": "repro-fleet-report/1",
            "ok": self.ok,
            "exit_code": self.exit_code,
            "counts": self.counts(),
            "executed": self.executed,
            "cached": self.cached,
            "cache_stats": self.cache_stats,
            "jobs": [record.to_dict() for record in self.records],
        }

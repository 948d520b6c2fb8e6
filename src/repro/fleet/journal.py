"""The fleet server's write-ahead job journal.

Every scheduling transition the server makes — submit, claim, attempt
end, terminal outcome, cancel, drain, shutdown — is appended to an
on-disk journal *before* the server acts on it, so a SIGKILL'd server
reconstructs its entire job table by replay.  The journal, not the
process, is the durable unit (the gem5 reproducibility stance: the
simulation *service* must be restartable, not just the simulation).

Format
======

Append-only JSONL in segments::

    <root>/segment-000001.jsonl      # sealed (immutable, atomically renamed)
    <root>/segment-000002.jsonl
    <root>/wal.active                # the open segment being appended

One record per line::

    {"seq": 17, "type": "claim", "t": 1754650000.1, "data": {...}, "crc": N}

* ``seq`` increases by exactly 1 across the whole journal (all segments,
  all server incarnations) — a gap means lost records;
* ``crc`` is CRC32 over the canonical JSON of the record minus ``crc``;
* ``t`` is wall-clock provenance for humans (never used in recovery
  logic — clock jumps must not corrupt replay).

Rotation seals the active segment by **atomic rename** to the next
``segment-NNNNNN.jsonl`` name and opens a fresh ``wal.active``; a reader
therefore only ever sees complete sealed segments plus one active tail.
On open, a previous incarnation's ``wal.active`` is sealed the same way
(rewritten without its torn tail first, write-then-rename, if a SIGKILL
interrupted the final append).

Replay strictness
=================

A **torn tail** — the *last* line of the active segment failing to parse
or CRC-check — is the expected signature of a kill mid-append and is
dropped silently.  Damage anywhere else (bad CRC mid-stream, a sequence
gap, an impossible job-state transition such as a ``claim`` after
``done``) raises a typed
:class:`~repro.sanitize.violations.JournalConsistencyViolation`: the
journal is the server's source of truth, so an untrustworthy journal is
a loud failure, never silently "repaired".
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.sanitize.violations import JournalConsistencyViolation

JOURNAL_SCHEMA = "repro-fleet-journal/1"

ACTIVE_NAME = "wal.active"
_SEGMENT_RE = re.compile(r"^segment-(\d{6})\.jsonl$")

#: Record types a journal may contain.  ``data`` schemas are documented
#: in DESIGN.md §14.
RECORD_TYPES = frozenset({
    "server-start",      # an incarnation opened the journal
    "submit",            # a job entered the table (spec, key, policy)
    "shed",              # a submission was refused (FleetSaturated)
    "quarantine",        # a malformed spool spec was set aside
    "claim",             # an attempt was claimed for a worker slot
    "attempt-end",       # what that attempt did (ok/crashed/hung/...)
    "done",              # terminal job outcome (+ cache accounting)
    "cancel",            # policy cancellation (deadline, drain)
    "drain",             # the server began draining
    "clean-shutdown",    # the server exited gracefully
})

#: Job-scoped record types, in the order the state machine allows them.
_TERMINAL = ("done", "cancel")


def replaces(outcome: Optional[str], key: str, new_key: str) -> bool:
    """Whether a submit under ``new_key`` may replace a job that ended
    ``outcome`` under ``key``: a shed or failed job holds no result, and
    a result under another key came from other code.  A pending job
    (``None`` here, ``"pending"`` on the server) is never replaced."""
    if outcome in (None, "pending"):
        return False
    return outcome in ("shed", "failed") or key != new_key


def _record_crc(record: dict) -> int:
    body = {key: value for key, value in record.items() if key != "crc"}
    return zlib.crc32(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode())


def _parse_line(line: str) -> Optional[dict]:
    """A validated record, or None (torn / damaged line)."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    crc = record.get("crc")
    if not isinstance(crc, int) or isinstance(crc, bool):
        return None
    if _record_crc(record) != crc:
        return None
    if record.get("type") not in RECORD_TYPES:
        return None
    if not isinstance(record.get("seq"), int):
        return None
    return record


@dataclass
class ReplayedJob:
    """One job's state as reconstructed from the journal."""

    name: str
    spec: dict
    key: str
    priority: int = 0
    owner: str = "anonymous"
    deadline: Optional[float] = None
    outcome: Optional[str] = None        # None = in flight at the crash
    cache_hit: bool = False
    claims: int = 0                      # worker attempts actually claimed
    last_claim: Optional[str] = None     # claim token of the newest claim
    failures: int = 0                    # retryable attempt-ends seen
    detail: str = ""

    @property
    def terminal(self) -> bool:
        return self.outcome is not None


@dataclass
class JournalReplay:
    """Everything a journal held, validated and folded into a job table."""

    records: list = field(default_factory=list)
    jobs: dict = field(default_factory=dict)     # name -> ReplayedJob
    last_seq: int = 0
    torn_tail: bool = False
    clean_shutdown: bool = False
    incarnations: int = 0

    @property
    def pending(self) -> list:
        """Jobs the crashed server still owed an outcome, journal order."""
        return [job for job in self.jobs.values() if not job.terminal]

    def cache_hits(self) -> int:
        return sum(1 for job in self.jobs.values() if job.cache_hit)

    def executed_claims(self) -> int:
        return sum(job.claims for job in self.jobs.values())

    def summary(self) -> dict:
        outcomes: dict = {}
        for job in self.jobs.values():
            outcomes[job.outcome or "pending"] = \
                outcomes.get(job.outcome or "pending", 0) + 1
        return {
            "schema": JOURNAL_SCHEMA,
            "records": len(self.records),
            "last_seq": self.last_seq,
            "jobs": len(self.jobs),
            "outcomes": outcomes,
            "cache_hits": self.cache_hits(),
            "executed_claims": self.executed_claims(),
            "incarnations": self.incarnations,
            "clean_shutdown": self.clean_shutdown,
            "torn_tail": self.torn_tail,
        }


def _violation(check: str, message: str, *, path: str,
               line: int) -> JournalConsistencyViolation:
    return JournalConsistencyViolation(
        f"{message} ({path}:{line})",
        details={"check": check, "segment": path, "line": line})


def _fold(replay: JournalReplay, record: dict, *, path: str,
          line: int) -> None:
    """Apply one record to the job table, enforcing legal transitions."""
    kind = record["type"]
    data = record.get("data") or {}
    replay.records.append(record)
    replay.clean_shutdown = kind == "clean-shutdown"
    if kind == "server-start":
        replay.incarnations += 1
        return
    if kind in ("drain", "clean-shutdown", "quarantine"):
        return
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise _violation("transition", f"{kind} record without a job name",
                         path=path, line=line)
    job = replay.jobs.get(name)
    if kind == "submit":
        if job is not None \
                and not replaces(job.outcome, job.key, data.get("key", "")):
            raise _violation(
                "transition", f"duplicate submit for job {name!r}",
                path=path, line=line)
        replay.jobs[name] = ReplayedJob(
            name=name, spec=data.get("spec") or {}, key=data.get("key", ""),
            priority=data.get("priority", 0),
            owner=data.get("owner", "anonymous"),
            deadline=data.get("deadline"))
        return
    if kind == "shed":
        if job is not None and job.outcome != "shed":
            raise _violation(
                "transition", f"shed for already-submitted job {name!r}",
                path=path, line=line)
        shed = ReplayedJob(name=name, spec=data.get("spec") or {},
                           key=data.get("key", ""))
        shed.outcome = "shed"
        shed.detail = data.get("detail", "")
        replay.jobs[name] = shed
        return
    if job is None:
        raise _violation(
            "transition", f"{kind} for never-submitted job {name!r}",
            path=path, line=line)
    if job.terminal and kind in ("claim", "attempt-end") + tuple(_TERMINAL):
        # The acceptance criterion's teeth: completed work must never be
        # claimed (re-executed) again.
        raise _violation(
            "transition",
            f"{kind} for job {name!r} already terminal ({job.outcome})",
            path=path, line=line)
    if kind == "claim":
        job.claims += 1
        job.last_claim = data.get("claim")
        return
    if kind == "attempt-end":
        job.detail = data.get("detail", "")
        if data.get("outcome") in ("crashed", "hung"):
            job.failures += 1            # retry budget spans incarnations
        return
    if kind == "done":
        job.outcome = data.get("outcome", "ok")
        job.cache_hit = bool(data.get("cache_hit"))
        job.detail = data.get("detail", "")
        return
    if kind == "cancel":
        job.outcome = "cancelled"
        job.detail = data.get("reason", "")
        return
    raise _violation("transition", f"unhandled record type {kind!r}",
                     path=path, line=line)     # pragma: no cover


def _segment_paths(root: str) -> list:
    try:
        names = os.listdir(root)
    except OSError:
        return []
    sealed = sorted(name for name in names if _SEGMENT_RE.match(name))
    return [os.path.join(root, name) for name in sealed]


def replay_journal(root: str) -> JournalReplay:
    """Read and validate the whole journal; returns the folded state.

    Raises :class:`JournalConsistencyViolation` on any damage other than
    a torn final line of the active segment.
    """
    replay = JournalReplay()
    paths = _segment_paths(root)
    active = os.path.join(root, ACTIVE_NAME)
    has_active = os.path.exists(active)
    if has_active:
        paths.append(active)
    expected_seq = 1
    for path in paths:
        is_active = path == active
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            record = _parse_line(line)
            if record is None:
                if is_active and index == len(lines) - 1:
                    replay.torn_tail = True
                    break
                raise _violation(
                    "crc", "damaged journal record", path=path,
                    line=index + 1)
            if record["seq"] != expected_seq:
                raise _violation(
                    "seq",
                    f"sequence gap: expected {expected_seq}, "
                    f"found {record['seq']}", path=path, line=index + 1)
            _fold(replay, record, path=path, line=index + 1)
            expected_seq += 1
    replay.last_seq = expected_seq - 1
    return replay


class JobJournal:
    """Appender for one server incarnation.

    Use :meth:`open` — it replays (validating) whatever a previous
    incarnation left, seals its active segment, and returns both the
    appender and the replayed state to recover from.
    """

    def __init__(self, root: str, *, next_seq: int,
                 next_segment: int, segment_records: int = 256) -> None:
        if segment_records <= 0:
            raise ValueError(
                f"segment_records must be positive, got {segment_records}")
        self.root = root
        self.segment_records = segment_records
        self._seq = next_seq
        self._segment = next_segment
        self._active_records = 0
        self._handle = open(os.path.join(root, ACTIVE_NAME), "a",
                            encoding="utf-8")

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def open(cls, root: str, *, segment_records: int = 256,
             now: Optional[float] = None):
        """(journal, replay): recover prior state, then start appending.

        The previous incarnation's active segment (if any) is sealed —
        minus a torn tail — so the new incarnation always starts with a
        fresh, empty ``wal.active``.
        """
        os.makedirs(root, exist_ok=True)
        replay = replay_journal(root)
        segments = _segment_paths(root)
        next_segment = 1
        if segments:
            next_segment = int(
                _SEGMENT_RE.match(os.path.basename(segments[-1])).group(1)
            ) + 1
        active = os.path.join(root, ACTIVE_NAME)
        if os.path.exists(active):
            sealed = os.path.join(
                root, f"segment-{next_segment:06d}.jsonl")
            if replay.torn_tail:
                # Rewrite the valid prefix, then atomically rename: the
                # sealed segment must replay clean forever after.
                tmp = active + ".seal"
                with open(active, encoding="utf-8") as handle:
                    lines = handle.read().splitlines()
                kept = [line for line in lines if _parse_line(line)]
                with open(tmp, "w", encoding="utf-8") as handle:
                    for line in kept:
                        handle.write(line + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, sealed)
                os.remove(active)
            else:
                os.replace(active, sealed)
            next_segment += 1
        journal = cls(root, next_seq=replay.last_seq + 1,
                      next_segment=next_segment,
                      segment_records=segment_records)
        return journal, replay

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- appends ------------------------------------------------------------

    def append(self, kind: str, **data) -> dict:
        """Durably append one record; returns it (with seq and crc)."""
        if kind not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {kind!r}")
        import time
        record = {"seq": self._seq, "type": kind, "t": time.time(),
                  "data": data}
        record["crc"] = _record_crc(record)
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._seq += 1
        self._active_records += 1
        if self._active_records >= self.segment_records:
            self._rotate()
        return record

    def _rotate(self) -> None:
        """Seal the active segment (atomic rename), open a fresh one."""
        self._handle.close()
        sealed = os.path.join(self.root,
                              f"segment-{self._segment:06d}.jsonl")
        os.replace(os.path.join(self.root, ACTIVE_NAME), sealed)
        self._segment += 1
        self._active_records = 0
        self._handle = open(os.path.join(self.root, ACTIVE_NAME), "a",
                            encoding="utf-8")

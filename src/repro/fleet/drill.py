"""Server-level chaos drill: kill -9 a fleet sweep, rerun it, compare.

The drill is the acceptance test for the durable server's whole promise,
run end to end with real processes:

1. **Baseline** — an uninterrupted :func:`~repro.fleet.server.run_sweep`
   completes the sweep in a pristine workdir + cache; the deterministic
   payload of every job is recorded (SHA-256 over the canonical payload
   bytes).
2. **Drill** — the same sweep runs as a ``fleet sweep --jobs``
   *subprocess* in a second workdir, is SIGKILL'd at randomized points
   (seeded RNG) at least ``kills`` times, rerun in the same workdir after
   each kill (resuming from its journal), then allowed to finish.
3. **Verdict** — the drill passes iff:

   * the final journal replays clean (the replay validator itself proves
     no completed job was ever re-claimed — a ``claim`` after ``done``
     raises :class:`~repro.sanitize.violations.
     JournalConsistencyViolation`);
   * every job finished ``ok`` and its payload bytes are **identical**
     to the uninterrupted baseline's;
   * the journal's cache-hit accounting adds up: every job finished
     once, either executed or served from cache after a restart.

Used by ``python -m repro chaos --server-drill`` and the slow test
suite; CI runs a small configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.fleet.job import FleetConfig, JobSpec
from repro.fleet.journal import replay_journal
from repro.fleet.manifest import cache_key, payload_bytes
from repro.fleet.server import EXIT_DRAINED, JOURNAL_DIR, run_sweep


@dataclass
class ServerDrillReport:
    """What the drill did and whether the durability contract held."""

    ok: bool = False
    kills: int = 0                       # SIGKILLs actually delivered
    rounds: int = 0                      # server incarnations started
    jobs: dict = field(default_factory=dict)
    cache_hits: int = 0                  # from journal done records
    executed_claims: int = 0
    journal: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": "repro-server-drill/1",
            "ok": self.ok,
            "kills": self.kills,
            "rounds": self.rounds,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "executed_claims": self.executed_claims,
            "journal": self.journal,
            "failures": self.failures,
        }


def drill_specs(jobs: int, *, frames: int = 2, width: int = 32,
                height: int = 24, seed: int = 7) -> list:
    """The drill's sweep: one tiny deterministic job per seed."""
    return [
        JobSpec(name=f"drill-s{seed + index}", model="cube", width=width,
                height=height, frames=frames, seed=seed + index)
        for index in range(jobs)
    ]


def _sha(payload: dict) -> str:
    return hashlib.sha256(payload_bytes(payload)).hexdigest()[:16]


def _run_baseline(specs, workdir: str, cache_dir: str,
                  workers: int) -> dict:
    """Uninterrupted in-process sweep; returns name -> payload sha."""
    report = run_sweep(specs, FleetConfig(workers=workers,
                                          cache_dir=cache_dir), workdir)
    if report.exit_code != EXIT_DRAINED:
        raise RuntimeError(
            f"baseline sweep exited {report.exit_code}, expected 0")
    shas = {}
    for record in report.records:
        if record.outcome != "ok" or record.payload is None:
            raise RuntimeError(
                f"baseline job {record.spec.name} ended {record.outcome!r}")
        shas[record.spec.name] = _sha(record.payload)
    return shas


def _server_env() -> dict:
    import repro
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_server_drill(*, kills: int = 3, jobs: int = 4, frames: int = 2,
                     workers: int = 2, seed: int = 7,
                     workdir: str = "server-drill-work",
                     kill_window: tuple = (0.4, 1.2),
                     round_timeout: float = 300.0,
                     max_rounds: int = 24) -> ServerDrillReport:
    """SIGKILL the sweep ``kills`` times mid-run; verify byte equality.

    ``kill_window`` is the (min, max) seconds after a sweep start at
    which the seeded RNG schedules the SIGKILL.  If the sweep finishes
    before the timer fires, the round counts as a completion instead —
    and the window *halves*, so later incarnations (which serve a warm
    cache and drain in well under the original window) still get their
    kills, landing ever earlier: mid-startup, mid-journal-replay,
    mid-reconcile.  The drill keeps rerunning (journal intact, cache
    warm) until it has delivered at least ``kills`` kills *and* seen
    the sweep complete; delivering fewer than ``kills`` within
    ``max_rounds`` is a drill failure, not a silent pass.
    """
    report = ServerDrillReport()
    rng = random.Random(seed)
    specs = drill_specs(jobs, frames=frames, seed=seed)

    base_dir = os.path.join(workdir, "baseline")
    base_cache = os.path.join(workdir, "baseline-cache")
    drill_dir = os.path.join(workdir, "drill")
    drill_cache = os.path.join(workdir, "drill-cache")

    baseline = _run_baseline(specs, base_dir, base_cache, workers)

    # Every incarnation resubmits the whole grid: a kill mid-submission
    # exercises idempotent resubmission on the rerun.
    jobs_file = os.path.join(workdir, "jobs.json")
    with open(jobs_file, "w", encoding="utf-8") as handle:
        json.dump([spec.to_dict() for spec in specs], handle)

    env = _server_env()
    argv = [sys.executable, "-m", "repro", "fleet", "sweep",
            "--jobs", jobs_file, "--workdir", drill_dir,
            "--cache-dir", drill_cache, "--workers", str(workers)]
    completed = False
    window = (max(0.02, kill_window[0]), max(0.04, kill_window[1]))
    while report.rounds < max_rounds \
            and not (completed and report.kills >= kills):
        report.rounds += 1
        process = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        if report.kills < kills:
            delay = rng.uniform(*window)
            try:
                process.wait(timeout=delay)
                # Finished before the kill timer: a completion round.
                # Halve the window so the next kill can still land on
                # an incarnation that drains quickly from a warm cache.
                completed = completed or process.returncode == EXIT_DRAINED
                window = (max(0.02, window[0] / 2),
                          max(0.04, window[1] / 2))
                continue
            except subprocess.TimeoutExpired:
                pass
            process.send_signal(signal.SIGKILL)
            process.wait()
            report.kills += 1
            time.sleep(0.05)
            continue
        try:
            code = process.wait(timeout=round_timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            report.failures.append(
                f"final round timed out after {round_timeout}s")
            return report
        if code != EXIT_DRAINED:
            report.failures.append(
                f"final sweep incarnation exited {code}, expected "
                f"{EXIT_DRAINED}")
            return report
        completed = True
    if not completed:
        report.failures.append(
            f"sweep never completed within {max_rounds} rounds")
        return report
    if report.kills < kills:
        report.failures.append(
            f"only delivered {report.kills} of {kills} kills within "
            f"{max_rounds} rounds")
        return report

    # -- verdict: journal replay + byte-identical payloads ------------------
    try:
        replay = replay_journal(os.path.join(drill_dir, JOURNAL_DIR))
    except Exception as exc:             # JournalConsistencyViolation
        report.failures.append(f"journal replay failed: {exc}")
        return report
    report.journal = replay.summary()
    report.cache_hits = replay.cache_hits()
    report.executed_claims = replay.executed_claims()

    from repro.fleet.cache import ResultCache
    cache = ResultCache(drill_cache)
    executed_ok = 0
    for spec in specs:
        job = replay.jobs.get(spec.name)
        entry = cache.lookup(cache_key(spec))
        verdict = {
            "outcome": job.outcome if job else "missing",
            "cache_hit": bool(job and job.cache_hit),
            "claims": job.claims if job else 0,
            "baseline_sha": baseline[spec.name],
            "drill_sha": _sha(entry.payload) if entry else None,
        }
        verdict["match"] = verdict["drill_sha"] == verdict["baseline_sha"]
        report.jobs[spec.name] = verdict
        if job is None or job.outcome != "ok":
            report.failures.append(
                f"{spec.name}: journal outcome "
                f"{job.outcome if job else 'missing'!r}")
        if not verdict["match"]:
            report.failures.append(
                f"{spec.name}: payload {verdict['drill_sha']} != baseline "
                f"{verdict['baseline_sha']}")
        if job and not job.cache_hit:
            executed_ok += 1

    # Cache-hit accounting: every job finished exactly once by execution
    # or was served from cache after a restart; together they cover the
    # sweep.  (The replay validator already proved no claim ever followed
    # a done record — re-execution of completed work is structurally
    # impossible in a clean replay.)
    if executed_ok + report.cache_hits != len(specs):
        report.failures.append(
            f"accounting mismatch: {executed_ok} executed-ok + "
            f"{report.cache_hits} cache-hits != {len(specs)} jobs")

    report.ok = not report.failures
    return report

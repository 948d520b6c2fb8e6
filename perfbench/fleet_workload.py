"""The fleet_jobs workload: open-loop job traffic into an in-process server.

The benchmark process submits small seeded ``JobSpec``\\ s through
``FleetServer.submit`` at a fixed rate — an open loop: job ``i`` is due at
``i / rate`` seconds whether or not earlier jobs have finished — and the
server runs them on its forked worker pool until it has drained.  A job's
latency runs from when its submission was due to its ``done`` journal
record.  Then fresh server incarnations that share the result cache receive
the same grid again; every job must be served from the cache.

Latencies are corrected for the host's speed (hostspeed.py): the generator
times the calibration loop after each submission, and a job's latency is
scaled by the median of those samples over its lifetime.  A rerun, half
of whose time is journal fsyncs, is corrected by the loop plus a run of
fsynced appends, timed just before and just after it.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import statistics
import time

from hostspeed import (DISK_REFERENCE_S, REFERENCE_S, Timed, disk_seconds,
                       loop_seconds)
from metrics import LEDGER_TOLERANCE, PER_LAYER, Result, latency_metrics
from workloads import accuracy_check

#: A 16x12 two-frame cube job: it simulates for about 0.45 s, so the
#: supervisor's 50 ms polling step stays small against its latency, while
#: fork, heartbeat polling, journal fsync and cache publish still show.
JOB_MODEL = "cube"
JOB_WIDTH, JOB_HEIGHT, JOB_FRAMES = 16, 12, 2
#: Offered load per worker, in jobs per second: under half of what one
#: worker completes back to back with two workers on two cores (about 2
#: jobs per second each), so the queue stays short and latency is the
#: fleet's own cost, not backlog.
RATE_PER_WORKER = 0.75
#: Fresh incarnations that re-receive the grid; rerun_s is their median.
RERUNS = 21


def pool_size() -> int:
    """Two workers, never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def read_journal(workdir: str) -> list:
    """Every record of a server workdir's journal, in sequence order."""
    from repro.fleet.server import JOURNAL_DIR

    root = os.path.join(workdir, JOURNAL_DIR)
    records = []
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return sorted(records, key=lambda record: record["seq"])


def stamps(records: list, kind: str) -> dict:
    """job name -> ``t`` of its (last) record of one type."""
    return {record["data"]["name"]: record["t"] for record in records
            if record["type"] == kind}


class FleetJobs:
    """Set-up: the grid, the pool configuration and the first server."""

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        from repro.fleet import JobSpec

        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "cache")
        self.workers = pool_size()
        self.rate = RATE_PER_WORKER * self.workers
        count = max(1, int(seconds * self.rate))
        self.specs = [JobSpec(name=f"s{seed}-j{index}", model=JOB_MODEL,
                              width=JOB_WIDTH, height=JOB_HEIGHT,
                              frames=JOB_FRAMES, seed=seed * 1000 + index)
                      for index in range(count)]
        self.server = self.start_server("served")

    def start_server(self, name: str):
        """A server incarnation; constructing it opens and replays its
        journal."""
        from repro.fleet import FleetConfig, FleetServer, ServerConfig

        config = ServerConfig(
            fleet=FleetConfig(workers=self.workers, cache_dir=self.cache_dir),
            expect=len(self.specs), enable_socket=False)
        return FleetServer(config, os.path.join(self.workdir, name))

    def serve_open_loop(self, calibrate: bool = True) -> tuple:
        """Submit every job on schedule; serve until drained.

        Returns (due wall time per job, generator lateness per job, wall
        seconds from the first due time until the server drained, and the
        (wall time, seconds) of the calibration passes the generator timed
        after each submission unless ``calibrate`` is off).
        """
        from repro.fleet import JobSubmission

        due: dict = {}
        late: list = []
        passes: list = []

        async def generate(loop) -> None:
            start, wall = loop.time(), time.time()
            for index, spec in enumerate(self.specs):
                offset = index / self.rate
                delay = start + offset - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(max(0.0, loop.time() - start - offset))
                due[spec.name] = wall + offset
                self.server.submit(JobSubmission(spec=spec))
                if calibrate:
                    passes.append((time.time(), loop_seconds()))

        async def serve() -> int:
            generator = asyncio.get_running_loop().create_task(
                generate(asyncio.get_running_loop()))
            code = await self.server.serve_async(install_signals=False)
            await generator
            return code

        start = time.perf_counter()
        code = asyncio.run(serve())
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"served incarnation exited {code}")
        return due, late, elapsed, passes

    def rerun(self, index: int) -> float:
        """A fresh incarnation sharing the cache re-receives the grid.

        Returns the host seconds from the first resubmission to the last
        job's ``done`` record.  The server notices that it may drain at its
        next 50 ms poll; that fixed step would dwarf serving a grid this
        size from the cache, so it is left out.
        """
        from repro.fleet import JobSubmission

        name = f"rerun{index}"
        server = self.start_server(name)
        start = time.time()
        for spec in self.specs:
            server.submit(JobSubmission(spec=spec))
        code = asyncio.run(server.serve_async(install_signals=False))
        if code != 0:
            raise RuntimeError(f"rerun incarnation exited {code}")
        done = stamps(read_journal(os.path.join(self.workdir, name)), "done")
        return max(done.values()) - start

    def reruns(self, count: int, first: int = 0, timer=None) -> list:
        """``count`` reruns' host seconds; with a ``hostspeed.Timed``, each
        is also recorded there with the calibration loop and disk sample
        timed around it."""
        probe = os.path.join(self.workdir, "disk-probe")

        def sample() -> float:
            return loop_seconds() + disk_seconds(probe)

        walls = []
        for index in range(count):
            before = sample() if timer is not None else None
            walls.append(self.rerun(first + index))
            if timer is not None:
                timer.add(walls[-1], (before + sample()) / 2,
                          REFERENCE_S + DISK_REFERENCE_S)
        return walls


def check_journals(jobs: FleetJobs, reruns: int,
                   result: Result) -> tuple[list, list]:
    """Output checks over every incarnation's journal.

    Every executed job must end ``ok``; every rerun job must be a cache hit
    whose payload digest equals the executed one; every journal must
    replay without a ``JournalConsistencyViolation``.  Returns the served
    records and, per rerun incarnation, its ``done`` records.
    """
    from repro.fleet import replay_journal
    from repro.fleet.server import JOURNAL_DIR
    from repro.sanitize.violations import JournalConsistencyViolation

    names = [spec.name for spec in jobs.specs]
    incarnations = ["served"] + [f"rerun{i}" for i in range(reruns)]
    journals = {}
    for incarnation in incarnations:
        workdir = os.path.join(jobs.workdir, incarnation)
        try:
            replay_journal(os.path.join(workdir, JOURNAL_DIR))
        except JournalConsistencyViolation as violation:
            result.problems.append(f"{incarnation} journal: {violation}")
        journals[incarnation] = read_journal(workdir)
    served = {record["data"]["name"]: record["data"]
              for record in journals["served"] if record["type"] == "done"}
    for name in names:
        result.attempted += 1
        done = served.get(name)
        if done is None or done["outcome"] != "ok":
            result.failed += 1
            result.problems.append(
                f"{name}: outcome {done and done['outcome']!r}, not 'ok'")
    for incarnation in incarnations[1:]:
        records = journals[incarnation]
        reran = {record["data"]["name"]: record["data"]
                 for record in records if record["type"] == "done"}
        for name in names:
            result.attempted += 1
            done = reran.get(name)
            original = served.get(name) or {}
            if (done is None or done["outcome"] != "ok"
                    or not done["cache_hit"]
                    or done["payload_sha"] != original.get("payload_sha")):
                result.failed += 1
                result.problems.append(
                    f"{incarnation} {name}: not served byte-identical from "
                    f"the cache ({done})")
        if any(record["type"] == "claim" for record in records):
            result.problems.append(f"{incarnation} ran a worker")
    return journals["served"], [
        [record for record in journals[incarnation]
         if record["type"] == "done"] for incarnation in incarnations[1:]]


def peak_rss_mb() -> float:
    """High-water RSS of the server process and its largest worker."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def corrected_latencies(due: dict, done: dict, passes: list) -> Timed:
    """Each job's due-to-done latency, corrected by the median calibration
    pass timed during its lifetime (the one after its own submission at
    least)."""
    latencies = Timed()
    for name, start in due.items():
        during = [seconds for stamp, seconds in passes
                  if start <= stamp <= done[name]]
        latencies.add(done[name] - start, statistics.median(
            during or [min(passes, key=lambda p: abs(p[0] - start))[1]]))
    return latencies


def measure(seed: int, seconds: float, workdir: str, chores=()) -> Result:
    """The untraced run.  The reruns come in batches with the untimed
    ``chores`` and the sampled-error check between them, so that they
    spread over the run."""
    jobs = FleetJobs(seed, seconds, workdir)
    due, late, elapsed, passes = jobs.serve_open_loop()
    result = Result()
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    # The offered rate sets this, not the host's speed: reported as timed.
    result.metrics["frames_per_s"] = len(jobs.specs) * JOB_FRAMES / elapsed
    chores = [*chores, lambda: accuracy_check(result)]
    batch = -(-RERUNS // (len(chores) + 1))
    reruns = Timed()
    for chore in [*chores, None]:
        jobs.reruns(min(batch, RERUNS - len(reruns.walls)),
                    first=len(reruns.walls), timer=reruns)
        if chore is not None:
            chore()
    result.metrics["rerun_s"] = statistics.median(reruns.corrected)
    served, _ = check_journals(jobs, RERUNS, result)
    done = stamps(served, "done")
    latencies = corrected_latencies(due, done, passes)
    latency_metrics(latencies.corrected, result,
                    "submit due -> done journal record, open loop")
    result.notes.append(latencies.note("job latency"))
    result.notes.append(reruns.note("reruns"))
    result.notes.append(
        f"open loop: {len(jobs.specs)} jobs of {JOB_WIDTH}x{JOB_HEIGHT}x"
        f"{JOB_FRAMES} {JOB_MODEL} at {jobs.rate:g} jobs/s on "
        f"{jobs.workers} workers; generator late by at most "
        f"{max(late):.4f}s; calibration pass median "
        f"{statistics.median(p[1] for p in passes):.4f}s "
        f"(reference {REFERENCE_S}s)")
    return result


def trace(seed: int, seconds: float, workdir: str) -> Result:
    """Per-layer metrics: journal phases, and journal/cache call times."""
    from ledger import FLEET_ENTRY_POINTS, UNACCOUNTED, Ledger

    jobs = FleetJobs(seed, seconds, workdir)
    with Ledger(FLEET_ENTRY_POINTS, kernel=False) as ledger:
        start = time.perf_counter()
        due, late, _, _ = jobs.serve_open_loop(calibrate=False)
        traced_reruns = jobs.reruns(RERUNS)
        wall = time.perf_counter() - start
    untraced_reruns = jobs.reruns(RERUNS, first=RERUNS)
    result = Result()
    served, rerun_records = check_journals(jobs, 2 * RERUNS, result)
    submit, claim = stamps(served, "submit"), stamps(served, "claim")
    ended, done = stamps(served, "attempt-end"), stamps(served, "done")
    names = list(due)
    claims = sum(1 for record in served if record["type"] == "claim")
    ok = sum(1 for record in served if record["type"] == "done"
             and record["data"]["outcome"] == "ok")
    # A cache hit's service time: the gap between consecutive done
    # records of one rerun (lookup, then the done append).
    hits = [later["t"] - earlier["t"] for incarnation in rerun_records
            for earlier, later in zip(incarnation, incarnation[1:])]
    metrics = dict.fromkeys(PER_LAYER, 0)
    ledger_self = {layer: ns / 1e9 for layer, ns in ledger.self_ns.items()}
    accounted = ledger_self.get("fleet", 0.0)
    unaccounted = sum(ledger_self.get(layer, 0.0) for layer in UNACCOUNTED)
    metrics.update({
        "fleet.queue_wait_s": statistics.median(claim[n] - submit[n]
                                                for n in names),
        "fleet.attempt_s": statistics.median(ended[n] - claim[n]
                                             for n in names),
        "fleet.publish_s": statistics.median(done[n] - ended[n]
                                             for n in names),
        "journal.append_ms": _mean_ms(ledger, "journal.append"),
        "cache.lookup_ms": _mean_ms(ledger, "cache.lookup"),
        "cache.store_ms": _mean_ms(ledger, "cache.store"),
        "fleet.hit_ms": 1000 * statistics.median(hits),
        "fleet.ok_per_attempt": ok / claims if claims else 0.0,
        "fleet.gen_late_s": max(late),
        "fleet.self_s": accounted,
        "ledger.wall_s": wall,
        "ledger.unaccounted_s": unaccounted,
        "ledger.overhead_pct": 100 * (statistics.median(traced_reruns)
                                      / statistics.median(untraced_reruns)
                                      - 1),
    })
    result.attempted += 1
    if abs(accounted + unaccounted - wall) > LEDGER_TOLERANCE * wall:
        result.failed += 1
        result.problems.append("fleet ledger does not sum to its wall time")
    result.metrics = metrics
    result.notes.append(
        f"traced {len(names)} jobs and {RERUNS} reruns; the server "
        f"process idles between polls, so most of its wall time is "
        f"unaccounted by design")
    return result


def _mean_ms(ledger, span: str) -> float:
    calls = ledger.span_calls.get(span, 0)
    return ledger.span_ns[span] / calls / 1e6 if calls else 0.0


"""Fleet service levels: sharding speedup, crash overhead, cache wins.

Not a paper figure — an operational benchmark for the DESIGN.md §10
fleet.  Three service properties are measured and their qualitative
shape checked:

* **sharding** — a seed sweep across 2 workers beats the same sweep on
  1 worker (the jobs are independent full-system runs);
* **crash overhead** — a sweep with an injected SIGKILL costs one extra
  attempt (plus one backoff delay), not a lost job, and its results are
  bit-identical to the fault-free sweep's;
* **cache** — repeating a sweep spawns zero workers and serves every
  job from the content-addressed store.
"""

import time

import pytest

from repro.fleet import BackoffPolicy, FleetConfig, JobSpec, run_sweep
from repro.harness.report import format_table

SEEDS = (1, 2, 3)


def sweep_specs():
    return [JobSpec(name=f"cube-s{seed}", frames=1, seed=seed)
            for seed in SEEDS]


def timed_sweep(workers, workdir, cache_dir=None, inject=None):
    config = FleetConfig(workers=workers, cache_dir=cache_dir,
                         backoff=BackoffPolicy(base=0.01, cap=0.04),
                         inject=inject or {})
    start = time.monotonic()
    report = run_sweep(sweep_specs(), config, workdir=workdir)
    return report, time.monotonic() - start


@pytest.mark.slow
@pytest.mark.full_system
def test_fleet_service_levels(tmp_path):
    serial, serial_wall = timed_sweep(1, str(tmp_path / "serial"))
    sharded, sharded_wall = timed_sweep(2, str(tmp_path / "sharded"))

    cache = str(tmp_path / "cache")
    bumpy, bumpy_wall = timed_sweep(
        2, str(tmp_path / "bumpy"), cache_dir=cache,
        inject={"cube-s1": [{"kill_at_frame": 0}]})
    cached, cached_wall = timed_sweep(2, str(tmp_path / "rerun"),
                                      cache_dir=cache)

    rows = [
        ["serial (1 worker)", f"{serial_wall:.2f}", serial.executed,
         serial.cached],
        ["sharded (2 workers)", f"{sharded_wall:.2f}", sharded.executed,
         sharded.cached],
        ["sharded + 1 SIGKILL", f"{bumpy_wall:.2f}", bumpy.executed,
         bumpy.cached],
        ["rerun (warm cache)", f"{cached_wall:.2f}", cached.executed,
         cached.cached],
    ]
    print()
    print(format_table(["sweep", "wall_s", "workers", "cache_hits"], rows,
                       title=f"Fleet service levels ({len(SEEDS)} jobs)"))

    for report in (serial, sharded, bumpy, cached):
        assert report.ok
        assert report.counts() == {"ok": len(SEEDS)}
    # Crash tolerance: one extra worker process, zero lost jobs, and the
    # recovered sweep's payloads match the fault-free sweep's exactly.
    assert bumpy.executed == len(SEEDS) + 1
    assert ([r.payload for r in bumpy.records]
            == [r.payload for r in serial.records])
    # Cache: the rerun never spawned a worker.
    assert cached.executed == 0
    assert cached.cached == len(SEEDS)
    # Sharding: 2 workers complete the sweep no slower than 1 (the runs
    # are CPU-bound and independent; the jobs are tiny, so server
    # poll granularity eats much of the win — allow generous noise).
    assert sharded_wall <= serial_wall * 1.25

#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, a per-layer ledger.

One workload's end-to-end metrics (tracing off)::

    python3 perfbench/run.py --workload soc_fig14 --seed 7 --seconds 20 --trace 0

Its per-layer metrics, from a separate traced run::

    python3 perfbench/run.py --workload soc_fig14 --seed 7 --seconds 20 --trace 1

All four workloads, both runs each, as one report (the one command);
``--out`` also records every run's result line as JSON::

    python3 perfbench/run.py [--seed 7] [--out perfbench/baseline-seed7.json]

Run from the repository root; the program is imported from ``src/``.  The
last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, ROOT, WORKDIR

WORKLOADS = ("soc_fig14", "gpu_cs2", "soc_sampled", "fleet_jobs")
DEFAULT_SEED = 7
DEFAULT_SECONDS = 20
#: Fresh processes that each set the workload up; setup_s is their median.
#: They run one at a time between a run's units, like its other untimed work.
SETUP_PROBES = 5


def import_program() -> None:
    """Put ``src/`` on the path and import the program, or fail loudly."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (raises ImportError outside a checkout)


def build(workload: str, seed: int, seconds: float, workdir: str):
    """Everything before the first timed call: the set-up ``setup_s``
    covers (imports, scene and GL context, assembly, server start)."""
    if workload == "fleet_jobs":
        from fleet_workload import FleetJobs
        return FleetJobs(seed, seconds, workdir)
    from workloads import SIM_WORKLOADS
    return SIM_WORKLOADS[workload](seed)


def probe_setup(args) -> None:
    """Child process: set up once, say so, exit."""
    workdir = str(WORKDIR / f"probe-{os.getpid()}")
    try:
        import_program()
        build(args.workload, args.seed, args.seconds, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args, probes) -> None:
    """Time a fresh process from its start to the end of its set-up, into
    ``probes`` (a ``hostspeed.Timed``)."""
    from hostspeed import loop_seconds

    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    before = loop_seconds()
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as child:
        line = child.stdout.readline()
        wall = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {line!r}")
    probes.add(wall, (before + loop_seconds()) / 2)


def run_one(args) -> int:
    import_program()
    from hostspeed import Timed
    from workloads import SIM_WORKLOADS, measure, trace

    workdir = str(WORKDIR / f"{args.workload}-{os.getpid()}")
    probes = Timed()
    setup_probes = [lambda: measure_setup(args, probes)] * SETUP_PROBES

    try:
        if args.workload == "fleet_jobs":
            import fleet_workload
            if args.trace:
                result = fleet_workload.trace(args.seed, args.seconds,
                                              workdir)
            else:
                result = fleet_workload.measure(args.seed, args.seconds,
                                                workdir, chores=setup_probes)
        else:
            cls = SIM_WORKLOADS[args.workload]
            result = (trace(cls, args.seed, args.seconds) if args.trace
                      else measure(cls, args.seed, args.seconds,
                                   chores=setup_probes))
        if not args.trace:
            result.metrics["setup_s"] = statistics.median(probes.corrected)
            result.notes.append(probes.note("set-up probes"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} {mode}")
    for note in result.notes:
        print(f"#   {note}")
    for problem in result.problems:
        print(f"# FAILED CHECK: {problem}")
    for name, unit in units.items():
        value = result.metrics[name]
        shown = (f"{int(value)}" if float(value).is_integer()
                 else f"{value:.6g}")
        print(f"{name:24s} {shown:>16} {unit}")
    correct = not result.problems and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    script = str(Path(__file__).resolve())
    ok = True
    record = {"seed": args.seed, "seconds": args.seconds, "runs": {}}
    for workload in WORKLOADS:
        for traced in (0, 1):
            command = [sys.executable, script, "--workload", workload,
                       "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(traced)]
            output = subprocess.run(command, stdout=subprocess.PIPE,
                                    text=True, cwd=ROOT, check=True).stdout
            lines = output.splitlines()
            print("\n".join(lines[:-1]))
            verdict = json.loads(lines[-1])
            print(f"# correct={verdict['correct']} attempted="
                  f"{verdict['attempted']} failed={verdict['failed']}\n")
            ok = ok and verdict["correct"]
            record["runs"][f"{workload} trace={traced}"] = verdict
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with all workloads: write their "
                        "result lines to this JSON file")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""The simulator workloads: soc_fig14, gpu_cs2 and soc_sampled.

A workload object is built by its constructor (the set-up ``setup_s``
measures) and then runs *operations*: one simulator run each, on a freshly
assembled system, so every run starts with empty modelled caches.
``assemble`` happens outside the timed call, ``run`` inside it, and
``digest`` reads the run's public statistics afterwards.  A *unit* is one
operation per label in ``labels``; the benchmark runs whole units.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

from hostspeed import Timed, split
from metrics import (LEDGER_TOLERANCE, PER_LAYER, ROOT, WORKDIR, Result,
                     latency_metrics)

#: soc_fig14: Case Study I unit behind Fig. 14 — model M1, high load, BAS
#: (FR-FCFS) and DTB (DASH), the benchmarks/conftest quick-mode frame count.
FIG14_MODEL = "M1"
FIG14_LOAD = "high"
FIG14_CELLS = ("BAS", "DTB")
FIG14_FRAMES = 4

#: gpu_cs2: Case Study II standalone GPU at its default operating point,
#: the ``repro cs2`` default WT size, one warmup frame plus one measured
#: frame per run (both timed: users pay the warmup on every run).
CS2_WORKLOADS = ("W2", "W5")
CS2_WT = 1
CS2_FRAMES = 2
#: The seed picks the camera-orbit start frame, CS2_ORBIT_FIRST plus the
#: seed modulo CS2_ORBIT_STARTS.  The seed should change the inputs, not
#: the amount of work: over start frames 0 to 24 a unit's event count
#: (W2 plus W5) moved by 6%, over 12 to 23 by 2.4%.
CS2_ORBIT_FIRST = 12
CS2_ORBIT_STARTS = 12

#: soc_sampled and the accuracy check every other simulator workload
#: carries: the operating points ``repro bench --only ffwd`` pins, each
#: with the extrapolation-error bound the repo gates it on.  The CPU seed
#: stays at the one those bounds were established on (see README.md).
SAMPLED_SEED = 7
SAMPLED_POINT = {
    "default": (dict(num_frames=36), "2:12:1", 0.05),
    "micro": (dict(width=48, height=36, num_frames=8, texture_size=64,
                   gpu_frame_period_ticks=120_000,
                   display_period_ticks=60_000, cpu_work_per_frame=40,
                   cpu_fixed_ticks=5_000), "3:4:2", 0.10),
}

#: Functional replays per run at least; rerun_s is their median.
REPLAYS = 9

#: Full-detail ground truths, one file per source tree (see cached_truth).
REFERENCE_DIR = WORKDIR / "reference"

def fb_crc(framebuffer) -> int:
    return zlib.crc32(framebuffer.color.tobytes())


@dataclass
class Digest:
    """What one operation produced, read after its timed call."""

    label: str
    frames: int
    fb_crc: int
    fingerprint: dict                      # sim.* exact simulated statistics
    counts: dict = field(default_factory=dict)   # per-layer exact counts
    times: dict = field(default_factory=dict)    # per-layer host seconds
    error: str = ""                        # why the run's check failed


def _rate(groups, name: str) -> tuple[int, int]:
    hits = sum(group.rate(name).hits for group in groups)
    total = sum(group.rate(name).total for group in groups)
    return hits, total


def layer_counts(events, gpu, memory, links, cpus=(), display=None) -> dict:
    """Per-layer work counts from a finished system's public statistics."""
    cores = gpu.cores
    l1 = [cache.stats for core in cores
          for cache in (core.l1i, core.l1d, core.l1t, core.l1z, core.l1c)]
    l1_hits, l1_total = _rate(l1, "hit")
    l2_hits, l2_total = _rate([gpu.l2.stats], "hit")
    channels = [channel.stats for channel in memory.channels]
    queue_ticks = 0
    for stats in channels:
        dump = stats.dump()
        for key, count in dump.items():
            if key.startswith("latency.") and key.endswith(".count"):
                queue_ticks += round(dump[key[:-len("count")] + "mean"]
                                     * count)
    sends = sum(link.stats.counter("packets").value for link in links)
    rejected = sum(link.stats.counter("rejected").value for link in links)
    return {
        "events.fired": events.events_fired,
        "simt.cycles": sum(core.stats.counter("busy_cycles").value
                           for core in cores),
        "simt.warp_insts": sum(core.stats.counter("issued").value
                               for core in cores),
        "raster.fragments":
            gpu.draw_engine.stats.counter("fragments").value,
        "l1.accesses": sum(stats.counter("accesses").value for stats in l1),
        "l1.hit_rate": l1_hits / l1_total if l1_total else 0.0,
        "l2.accesses": gpu.l2.stats.counter("accesses").value,
        "l2.hit_rate": l2_hits / l2_total if l2_total else 0.0,
        "dram.requests": sum(stats.counter("requests").value
                             for stats in channels),
        "dram.row_hit_rate": memory.row_hit_rate(),
        "dram.queue_ticks": queue_ticks,
        "ports.sends": sends,
        "ports.retry_ratio": rejected / sends if sends else 0.0,
        "cpu.requests": sum(core.stats.counter("requests").value
                            for core in cpus),
        "display.requests": (display.stats.counter("requests").value
                             if display is not None else 0),
        "display.aborts": (display.stats.counter("frames_aborted").value
                           if display is not None else 0),
    }


def soc_counts(soc) -> dict:
    links = list(soc.noc.links) + [core.link for core in soc.gpu.cores]
    return layer_counts(soc.events, soc.gpu, soc.memory, links,
                        cpus=soc.cpus.cores, display=soc.display)


def add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def unit_counts(digests: list) -> dict:
    """One unit's counts: sums over its runs, ratios averaged."""
    total: dict = {}
    for digest in digests:
        add_counts(total, digest.counts)
        add_counts(total, digest.fingerprint)
    return {key: value / len(digests) if PER_LAYER.get(key) == "ratio"
            else value for key, value in total.items()}


# -- sampled-simulation accuracy ---------------------------------------------


def sampled_point(scale: str):
    """(run config, session factory, schedule, bound) for a pinned cell."""
    from repro.harness.case_study1 import CS1Config, make_cs1_setup
    from repro.sampling import parse_sample_spec

    knobs, spec, bound = SAMPLED_POINT[scale]
    config = CS1Config(seed=SAMPLED_SEED, **knobs)
    run_config, factory = make_cs1_setup(FIG14_MODEL, "BAS", FIG14_LOAD,
                                         config=config)
    return run_config, factory, parse_sample_spec(spec, config.num_frames), \
        bound


def ground_truth(run_config, factory) -> dict:
    """Full-detail per-frame means, defined as ``repro.bench.run_ffwd`` does.

    Per-frame DRAM bytes and energy are deltas between frame-boundary
    snapshots, and the application's warmup frame 0 is excluded — the same
    definitions the sampler uses for its window samples.
    """
    from repro.gpu.energy import frame_energy, gpu_activity_snapshot
    from repro.sampling.stats import SAMPLE_METRICS
    from repro.soc.soc import EmeraldSoC

    snapshots: dict = {}

    def hook(frame_index: int, tick: int) -> None:
        activity = gpu_activity_snapshot(soc.gpu)
        snapshots[frame_index] = (soc.memory.total_bytes(),
                                  activity["issued"],
                                  activity["l1_accesses"])

    session = factory()
    soc = EmeraldSoC(replace(run_config, frame_hook=hook), session.frame,
                     session.framebuffer_address)
    results = soc.run()
    previous = (0, 0, 0)
    rows = []
    for record in results.frames:
        current = snapshots[record.index]
        delta = [now - before for now, before in zip(current, previous)]
        previous = current
        if record.index == 0:
            continue
        rows.append((record.gpu_time, record.total_time, delta[0],
                     frame_energy(record.gpu_stats, delta[1],
                                  delta[2]).total_uj))
    return {metric: sum(row[i] for row in rows) / len(rows)
            for i, metric in enumerate(SAMPLE_METRICS)}


def source_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached_truth(scale: str, run_config, factory) -> dict:
    """``ground_truth`` for a pinned cell, computed once per source tree.

    The truth is a deterministic function of the sources, and at the
    default scale it is a 36-frame full-detail run, longer than the timed
    region.  Keyed by the source digest, so any change to the program or
    the benchmark recomputes it; the sampled estimate it is checked
    against is still simulated on every run.
    """
    path = REFERENCE_DIR / f"truth-{scale}-{source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text())
    truth = ground_truth(run_config, factory)
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    staging = path.with_suffix(f".tmp{os.getpid()}")
    staging.write_text(json.dumps(truth))
    os.replace(staging, path)
    return truth


def sample_errors(sampled, truth: dict) -> dict:
    return {metric: abs(sampled.estimates[metric].mean - value) / abs(value)
            for metric, value in truth.items()}


def record_accuracy(scale: str, schedule, bound: float, errors: dict,
                    result: Result) -> None:
    """``sample_err_pct``, checked against the scale's pinned bound."""
    worst = max(errors.values())
    result.metrics["sample_err_pct"] = 100 * worst
    result.attempted += 1
    if worst > bound:
        result.failed += 1
        result.problems.append(
            f"sampled error {worst:.2%} exceeds the {bound:.0%} bound "
            f"pinned for the {scale} scale")
    result.notes.append(
        f"sampled error ({scale} scale, {schedule.spec()}, bound "
        f"{bound:.0%}): " + ", ".join(f"{name} {value:.3%}"
                                      for name, value in errors.items()))


def accuracy_check(result: Result) -> None:
    """The sampled check on the micro cell, for the workloads that carry
    no sampled run of their own."""
    from repro.sampling import run_sampled

    run_config, factory, schedule, bound = sampled_point("micro")
    sampled = run_sampled(run_config, factory, schedule)
    truth = cached_truth("micro", run_config, factory)
    record_accuracy("micro", schedule, bound, sample_errors(sampled, truth),
                    result)


# -- workloads ----------------------------------------------------------------


class Fig14:
    """Full system, Fig. 14 pair: the CPU, display, NoC and DRAM all run."""

    name = "soc_fig14"
    labels = FIG14_CELLS
    unit_seconds = 4.0

    def __init__(self, seed: int) -> None:
        from repro.harness.case_study1 import CS1Config, make_cs1_setup

        config = CS1Config(num_frames=FIG14_FRAMES, seed=seed)
        self.setups = {cell: make_cs1_setup(FIG14_MODEL, cell, FIG14_LOAD,
                                            config=config)
                       for cell in FIG14_CELLS}
        # Both cells render the same scene: generate its GL command stream
        # once (frames are immutable) and hand it to every run.
        session = self.setups["BAS"][1]()
        self.frames = [session.frame(i) for i in range(FIG14_FRAMES)]
        self.fb_address = session.framebuffer_address
        self.first = {cell: self._build(cell) for cell in FIG14_CELLS}

    def _build(self, label: str):
        from repro.soc.soc import EmeraldSoC

        # The frame hook samples host speed at every frame boundary.
        return EmeraldSoC(replace(self.setups[label][0], frame_hook=split),
                          self.frames.__getitem__, self.fb_address)

    def assemble(self, label: str):
        first = self.first.pop(label, None)
        return first if first is not None else self._build(label)

    @staticmethod
    def run(soc):
        return soc.run()

    def digest(self, label: str, soc, results) -> Digest:
        return Digest(label, len(results.frames), fb_crc(soc.gpu.fb), {
            "sim.end_tick": results.end_tick,
            "sim.gpu_time": sum(frame.gpu_time for frame in results.frames),
            "sim.dram_bytes": soc.memory.total_bytes(),
            "sim.row_hit_rate": results.row_hit_rate,
        }, soc_counts(soc))

    def replay(self) -> dict:
        """Functional replay (FunctionalSim) of the frames every run drew."""
        from repro.sampling.functional import FunctionalSim

        run_config, factory = self.setups["BAS"]
        sim = FunctionalSim(run_config, factory().frame, render="boundary")
        crc = sim.run(FIG14_FRAMES).fb_crc()
        return {cell: crc for cell in FIG14_CELLS}


class GPUCaseStudy2:
    """Standalone GPU, W2 (opaque) and W5 (translucent blending)."""

    name = "gpu_cs2"
    labels = CS2_WORKLOADS
    unit_seconds = 2.5

    def __init__(self, seed: int) -> None:
        from repro.harness.case_study2 import CS2Config

        self.config = CS2Config()
        self.start = CS2_ORBIT_FIRST + seed % CS2_ORBIT_STARTS
        self.frames = {label: self.scene(label) for label in CS2_WORKLOADS}
        self.first = {label: self._build(label) for label in CS2_WORKLOADS}

    def scene(self, label: str) -> list:
        from repro.harness.scenes import CASE_STUDY2_SCENES, SceneSession

        config = self.config
        session = SceneSession(CASE_STUDY2_SCENES[label], config.width,
                               config.height, detail=config.detail,
                               texture_size=config.texture_size,
                               orbit_step_radians=config.orbit_step)
        return [session.frame(self.start + i) for i in range(CS2_FRAMES)]

    def _build(self, label: str):
        from repro.harness.case_study2 import make_gpu

        return make_gpu(self.config, CS2_WT), self.frames[label]

    def assemble(self, label: str):
        first = self.first.pop(label, None)
        return first if first is not None else self._build(label)

    @staticmethod
    def run(system):
        gpu, frames = system
        stats = [gpu.run_frame(frames[0])]
        for frame in frames[1:]:
            split()                     # host speed at every frame boundary
            stats.append(gpu.run_frame(frame))
        return stats

    def digest(self, label: str, system, stats) -> Digest:
        gpu, _ = system
        links = [core.link for core in gpu.cores]
        return Digest(label, len(stats), fb_crc(gpu.fb), {
            "sim.end_tick": gpu.events.now,
            "sim.gpu_time": sum(frame.cycles for frame in stats),
            "sim.dram_bytes": sum(frame.dram_bytes for frame in stats),
            "sim.row_hit_rate": gpu.memory.row_hit_rate(),
        }, layer_counts(gpu.events, gpu, gpu.memory, links))

    def replay(self) -> dict:
        """ReferenceRenderer replay of each run's last frame."""
        from repro.pipeline.renderer import ReferenceRenderer

        gpu = self.config.gpu
        crcs = {}
        for label in CS2_WORKLOADS:
            renderer = ReferenceRenderer(
                self.config.width, self.config.height,
                warp_size=gpu.core.warp_size,
                raster_tile_px=gpu.raster.raster_tile_px)
            framebuffer, _ = renderer.render(self.scene(label)[-1])
            crcs[label] = fb_crc(framebuffer)
        return crcs


class Sampled:
    """``repro.sampling.run_sampled`` on the Fig. 14 BAS cell."""

    name = "soc_sampled"
    labels = ("sampled",)
    unit_seconds = 3.5

    def __init__(self, seed: int) -> None:
        # The seed does not enter: see SAMPLED_SEED.
        self.run_config, self.factory, self.schedule, self.bound = \
            sampled_point("default")
        # Detailed windows keep the caller's frame hook: it samples host
        # speed at their frame boundaries.
        self.run_config = replace(self.run_config, frame_hook=split)
        self.factory()                      # the scene and GL context
        self.last = None                    # the latest SampledRunResult

    def assemble(self, label: str):
        return self

    def run(self, _):
        from repro.sampling import run_sampled

        return run_sampled(self.run_config, self.factory, self.schedule)

    def digest(self, label: str, _, sampled) -> Digest:
        self.last = sampled
        windows = sampled.window_results
        hits = sum(result.row_hit_rate for result in windows)
        return Digest(label, self.schedule.total_frames,
                      sampled.final_detailed_fb_crc, {
                          "sim.end_tick": sum(result.end_tick
                                              for result in windows),
                          "sim.gpu_time": sum(frame.gpu_time
                                              for result in windows
                                              for frame in result.frames),
                          "sim.dram_bytes": sum(sum(result.dram_bytes.values())
                                                for result in windows),
                          "sim.row_hit_rate": hits / len(windows),
                      }, {"sampling.coverage": self.schedule.coverage}, {
                          "sampling.functional_s": sampled.wall_functional,
                          "sampling.detailed_s": sampled.wall_detailed,
                      })

    def replay(self) -> dict:
        """FunctionalSim replay up to the last detailed window's frame."""
        from repro.sampling.functional import FunctionalSim

        detailed = [window for window in self.schedule.windows()
                    if window.kind == "detailed"][-1]
        sim = FunctionalSim(self.run_config, self.factory().frame,
                            render="boundary")
        return {"sampled": sim.run(detailed.end).fb_crc()}


SIM_WORKLOADS = {cls.name: cls for cls in (Fig14, GPUCaseStudy2, Sampled)}


# -- driving the simulator workloads ------------------------------------------


def unit_count(workload, seconds: float) -> int:
    """How many units a run of ``seconds`` measures.

    The count comes from the workload's nominal unit time (its host time
    on the sandbox the benchmark was tuned on), not from a clock, so a run's
    sample count never depends on the host's speed.  That keeps
    ``job_tail_s`` one statistic: at the benchmark's 20-second runs every
    count stays under the eleven samples the percentile rule needs, so it
    is always the slowest unit.  A faster program measures the same work
    in less time.
    """
    return max(1, round(seconds / workload.unit_seconds))


def run_units(workload, units: int, timer, chores=(), after_unit=None):
    """Run ``units`` whole units, each call timed by ``timer``.

    Untimed work spreads between the units: ``after_unit`` runs after every
    unit, and one of ``chores`` after each unit while any are left (the
    rest after the last unit).  Successive units alternate between the CPUs
    this process may use, and each call's host-speed correction is taken
    on the CPU it ran on (see hostspeed.py).

    Returns the runs' digests.
    """
    digests: list = []
    pending = list(chores)
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        for unit in range(units):
            os.sched_setaffinity(0, {cpus[unit % len(cpus)]})
            run_unit(workload, digests, timer)
            if after_unit is not None:
                after_unit()
            if pending:
                pending.pop(0)()
    finally:
        os.sched_setaffinity(0, allowed)
    for chore in pending:
        chore()
    return digests


def run_unit(workload, digests: list, timer, ledger=None,
             windows=None) -> None:
    """One timed run of every label, appended to ``digests``; with a
    ledger, ``windows[label]`` sums its accumulators over exactly that
    label's calls."""
    for label in workload.labels:
        system = workload.assemble(label)
        before = ledger.snapshot() if ledger is not None else None
        output = timer.call(workload.run, system)
        if ledger is not None:
            window = windows.setdefault(label, {})
            for key, value in ledger.snapshot().items():
                window[key] = window.get(key, 0) + value - before.get(key, 0)
        if isinstance(output, Exception):     # a run that raises has failed
            digests.append(Digest(label, 0, 0, {}, error=(
                f"{label} raised {type(output).__name__}: {output}")))
        else:
            digests.append(workload.digest(label, system, output))


def check_runs(digests: list, expected: dict, reference: dict,
               result: Result) -> None:
    """Count runs and failed runs into ``result``.

    A run fails when it raised, when its final framebuffer differs from the
    functional replay of its frames, or when its simulated statistics differ
    from the first run of the same label at this seed (nondeterminism).
    """
    for digest in digests:
        result.attempted += 1
        first = reference.setdefault(digest.label, digest)
        if not digest.error and digest.fb_crc != expected[digest.label]:
            digest.error = (f"{digest.label}: framebuffer CRC "
                            f"{digest.fb_crc:#010x} != functional replay "
                            f"{expected[digest.label]:#010x}")
        if not digest.error and (digest.fingerprint != first.fingerprint
                                 or digest.counts != first.counts):
            digest.error = (f"{digest.label}: simulated statistics differ "
                            f"between runs at one seed (nondeterminism)")
        if digest.error:
            result.failed += 1
            result.problems.append(digest.error)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload_cls, seed: int, seconds: float, chores=()) -> Result:
    """The untraced run: every end-to-end metric but the caller's.

    Host times are corrected for the host's speed (hostspeed.py).  The
    untimed work runs between units (see ``run_units``): a functional
    replay after every unit, which ``rerun_s`` times, and the sampled-error
    check and the caller's ``chores`` one at a time.
    """
    workload = workload_cls(seed)
    result = Result()
    replayed: dict = {}
    runs, replays = Timed(), Timed()

    def replay() -> None:
        output = replays.call(workload.replay)
        if isinstance(output, Exception):
            raise output
        replayed.update(output)

    def accuracy() -> None:
        if isinstance(workload, Sampled):
            truth = cached_truth("default", workload.run_config,
                                 workload.factory)
            record_accuracy("default", workload.schedule, workload.bound,
                            sample_errors(workload.last, truth), result)
        else:
            accuracy_check(result)

    digests = run_units(workload, unit_count(workload, seconds), runs,
                        chores=[*chores, accuracy], after_unit=replay)
    while len(replays.walls) < REPLAYS:
        replay()
    result.metrics["rerun_s"] = statistics.median(replays.corrected)
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    # One job is one unit: a run of every label, so each sample holds the
    # same mix of work.  frames_per_s is the median unit's rate: a unit
    # whose host changed speed in the middle of a stretch is corrected less
    # well, and the median keeps it from moving the figure.
    size = len(workload.labels)
    units = [sum(runs.corrected[i:i + size])
             for i in range(0, len(runs.corrected), size)]
    frames = sum(digest.frames for digest in digests) / len(units)
    result.metrics["frames_per_s"] = frames / statistics.median(units)
    latency_metrics(units, result,
                    f"one unit ({', '.join(workload.labels)}), closed loop")
    result.notes.append(runs.note("simulator runs"))
    result.notes.append(replays.note("functional replays"))
    check_runs(digests, replayed, {}, result)
    for label in workload.labels:
        fingerprint = next((d.fingerprint for d in digests
                            if d.label == label and not d.error), {})
        result.notes.append(f"fingerprint {label}: " + ", ".join(
            f"{key}={value}" for key, value in fingerprint.items()))
    return result


def trace(workload_cls, seed: int, seconds: float) -> Result:
    """The traced run: every per-layer metric, per unit of work.

    The first unit runs untraced: it pays the process's one-time costs and
    gives the simulated fingerprint every later unit must reproduce
    exactly.  The rest alternate traced and untraced, so the overhead
    compares units run under the same host conditions.
    """
    from ledger import LAYERS, UNACCOUNTED, Ledger

    workload = workload_cls(seed)
    ledger = Ledger()
    plain, digests, windows = [], [], {}
    plain_timer, timer = Timed(calibrate=False), Timed(calibrate=False)
    run_unit(workload, plain, Timed(calibrate=False))
    for unit in range(max(2, unit_count(workload, seconds) - 1)):
        if unit % 2:
            run_unit(workload, plain, plain_timer)
            continue
        with ledger:
            run_unit(workload, digests, timer, ledger, windows)
    walls, plain_walls = timer.walls, plain_timer.walls
    window: dict = {}
    for label_window in windows.values():
        add_counts(window, label_window)
    result = Result()
    expected = workload.replay()
    reference: dict = {}
    check_runs(plain, expected, reference, result)
    check_runs(digests, expected, reference, result)
    units = len(digests) // len(workload.labels)
    counts = unit_counts(digests[:len(workload.labels)])
    times: dict = {}
    for digest in digests:
        add_counts(times, digest.times)

    def per_unit(kind: str, key: str, scale: float = 1.0) -> float:
        return window.get((kind, key), 0) / units / scale

    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({key: value for key, value in counts.items()
                    if key in PER_LAYER})
    metrics.update({key: value / units for key, value in times.items()})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_unit("self", layer, 1e9)
    fired = per_unit("count", "fired")
    metrics["events.fired"] = fired
    insts = per_unit("count", "shader_insts")
    metrics["shader.warp_runs"] = per_unit("calls", "shader.run")
    metrics["shader.dyn_insts"] = insts
    if fired:
        metrics["events.ns_per_event"] = per_unit("self", "events") / fired
    if insts:
        metrics["shader.ns_per_inst"] = per_unit("self", "shader") / insts
    if counts.get("simt.warp_insts"):
        metrics["simt.ns_per_inst"] = (per_unit("self", "simt")
                                       / counts["simt.warp_insts"])
    metrics["checkpoint.capture_s"] = per_unit("span", "checkpoint.capture",
                                               1e9)
    metrics["checkpoint.restore_s"] = per_unit("span", "checkpoint.restore",
                                               1e9)
    metrics["checkpoint.bytes"] = per_unit("count", "checkpoint_bytes")
    wall = sum(walls) / units
    accounted = sum(per_unit("self", layer, 1e9) for layer in LAYERS)
    unaccounted = sum(per_unit("self", layer, 1e9) for layer in UNACCOUNTED)
    metrics["ledger.wall_s"] = wall
    metrics["ledger.unaccounted_s"] = unaccounted
    plain_units = len(plain_walls) // len(workload.labels)
    metrics["ledger.overhead_pct"] = 100 * (
        wall / (sum(plain_walls) / plain_units) - 1)
    result.attempted += 1
    if abs(accounted + unaccounted - wall) > LEDGER_TOLERANCE * wall:
        result.failed += 1
        result.problems.append(
            f"layers ({accounted:.4f}s) plus unaccounted ({unaccounted:.4f}s)"
            f" differ from the traced wall time ({wall:.4f}s) by more than "
            f"{LEDGER_TOLERANCE:.0%}")
    result.metrics = metrics
    result.notes.append(
        f"{units} traced and {plain_units} untraced unit(s) of "
        f"{', '.join(workload.labels)}, alternating after a first untraced "
        f"one: untraced unit {sum(plain_walls) / plain_units:.3f}s, traced "
        f"unit {wall:.3f}s")
    for label, label_window in windows.items():
        shares = sorted(((ns, layer) for (kind, layer), ns
                         in label_window.items() if kind == "self"),
                        reverse=True)
        result.notes.append(f"self s per run, {label}: " + " ".join(
            f"{layer} {ns / units / 1e9:.3f}" for ns, layer in shares))
    return result

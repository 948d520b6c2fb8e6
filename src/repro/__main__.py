"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``render``      — render a workload frame on the GPU timing model
* ``accuracy``    — run the §3.4 accuracy study
* ``cs1``         — one case-study-I full-system run
* ``cs2``         — a case-study-II WT sweep
* ``dfsl``        — run DFSL on a workload
* ``models``      — list the workload model zoo
* ``selftest``    — smoke-run one tiny frame with the health watchdog armed
* ``chaos``       — seeded fault sweep with the runtime sanitizer armed
  (``--server-drill`` runs the fleet-server kill -9 recovery drill)
* ``fleet``       — the fault-tolerant fleet.  ``fleet serve`` starts
  the durable journal-backed server (retry/backoff, checkpoint resume,
  result cache); ``fleet sweep`` (the default when flags follow
  directly) runs a one-shot sharded sweep as a server on its workdir
  that drains when every job is terminal; ``fleet submit|status|drain``
  talk to a running server; ``fleet gc`` applies the cache/bundle
  retention caps
* ``ffwd``        — replay-driven fast-forward / sampled simulation,
  with the functional-vs-detailed equivalence verifier (``--verify``)

``cs1`` accepts the health-subsystem flags: ``--watchdog`` arms request
lifecycle tracking, ``--inject SPEC`` enables seeded fault injection (e.g.
``--inject dram_drop=0.01,noc_spike=0.05,seed=3`` — with ``--retries`` the
faults degrade gracefully instead of deadlocking), and
``--checkpoint-every N`` snapshots the run every N frames for crash
recovery.

``cs1``, ``cs2`` and ``selftest`` also accept ``--sanitize`` (runtime
invariant checking: port protocol, resource leaks, liveness, checkpoint
round trips) and ``--triage-dir DIR`` (write a triage bundle — repro
command, configs, trace tail, checkpoint, stats — when a sanitized run
dies).  See DESIGN.md §9.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.report import format_table


def _cmd_models(args) -> int:
    from repro.geometry.models import MODEL_NAMES, model_by_name
    from repro.harness.scenes import CASE_STUDY1_SCENES, CASE_STUDY2_SCENES
    keys = {name: [] for name in MODEL_NAMES}
    for key, name in {**CASE_STUDY1_SCENES, **CASE_STUDY2_SCENES}.items():
        keys.setdefault(name, []).append(key)
    rows = []
    for name in MODEL_NAMES:
        mesh = model_by_name(name)
        rows.append([name, ",".join(keys.get(name, [])) or "-",
                     mesh.num_vertices, mesh.num_primitives])
    print(format_table(["model", "paper id", "vertices", "triangles"], rows,
                       title="Workload model zoo"))
    return 0


def _cmd_render(args) -> int:
    from repro.common.config import DRAMConfig, GPUConfig
    from repro.common.events import EventQueue
    from repro.gpu.energy import measure_frame_energy
    from repro.gpu.gpu import EmeraldGPU
    from repro.harness.scenes import SceneSession
    from repro.memory.builders import build_memory_by_name

    session = SceneSession(args.model, args.width, args.height)
    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, GPUConfig(num_clusters=args.clusters),
                     args.width, args.height, memory=memory)
    gpu.work_tile_size = args.wt
    stats, energy = measure_frame_energy(gpu, session.frame(args.frame))
    print(f"{args.model} frame {args.frame} @ {args.width}x{args.height}, "
          f"WT={args.wt}:")
    print(f"  cycles={stats.cycles} fragment_cycles={stats.fragment_cycles}")
    print(f"  prims={stats.prims_rasterized} fragments={stats.fragments} "
          f"tc_tiles={stats.tc_tiles}")
    print(f"  l1_misses={stats.l1_misses} l2={stats.l2_misses} "
          f"dram_bytes={stats.dram_bytes}")
    print(f"  energy={energy.total_uj:.3f} uJ "
          f"(leakage {energy.leakage * 1e-6:.3f} uJ)")
    if args.output:
        gpu.fb.save_ppm(args.output)
        print(f"  image -> {args.output}")
    return 0


def _cmd_accuracy(args) -> int:
    from repro.validation.reference import accuracy_study
    result = accuracy_study(seed=args.seed)
    rows = list(zip(result.names,
                    [f"{t:.0f}" for t in result.sim_time],
                    [f"{t:.0f}" for t in result.ref_time]))
    print(format_table(["microbench", "sim_cycles", "ref_cycles"], rows,
                       title="Section 3.4 accuracy study"))
    print(f"draw time: corr={result.draw_time_correlation:.3f} "
          f"MARE={result.draw_time_error:.3f}")
    print(f"fill rate: corr={result.fill_rate_correlation:.3f} "
          f"MARE={result.fill_rate_error:.3f}")
    return 0


def _build_health(args):
    """Translate cs1's health flags into a HealthConfig (or None)."""
    from repro.health import FaultConfig, HealthConfig, RetryConfig
    faults = FaultConfig.parse(args.inject) if args.inject else None
    if not (args.watchdog or faults or args.checkpoint_every
            or args.retries):
        return None
    return HealthConfig(
        watchdog=args.watchdog,
        faults=faults,
        retry=RetryConfig() if args.retries else None,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
    )


def _build_trace(args):
    """Translate the --trace / --profile flags into a TraceConfig."""
    top_sinks = getattr(args, "top_sinks", False)
    if not (args.trace or args.profile or top_sinks):
        return None
    from repro.trace import TraceConfig
    return TraceConfig(path=args.trace, profile=args.profile or top_sinks)


def _print_profile(results, args) -> None:
    """Render the post-run attribution: full report and/or ranked sinks."""
    if results.profile is None:
        return
    if getattr(args, "top_sinks", False):
        print(results.profile.format_top_sinks())
    if args.profile:
        print(results.profile.format())


def _build_sanitize(args):
    """Translate --sanitize / --triage-dir into a SanitizeConfig."""
    if not (args.sanitize or args.triage_dir):
        return None
    from repro.sanitize import SanitizeConfig
    return SanitizeConfig(
        bundle_dir=args.triage_dir,
        command="python -m repro " + " ".join(sys.argv[1:]))


def _print_sampled(sampled) -> None:
    """Render a SampledRunResult: estimates with error bars + projections."""
    rows = []
    for name, est in sampled.estimates.items():
        low, high = est.ci95
        rows.append([name, f"{est.mean:.1f}", f"{est.stderr:.2f}",
                     f"[{low:.1f}, {high:.1f}]", est.windows])
    print(format_table(
        ["metric (per frame)", "mean", "stderr", "ci95", "windows"], rows,
        title="Sampled estimates"))
    ex = sampled.extrapolated
    print(f"  extrapolated FPS        : {ex.fps:.2f}")
    print(f"  extrapolated DRAM bytes : {ex.dram_bytes_total:.0f}")
    print(f"  extrapolated energy     : {ex.energy_uj_total:.2f} uJ")
    print(f"  detailed coverage       : {sampled.schedule.coverage * 100:.0f}%"
          f" ({sampled.frames_detailed}/{sampled.schedule.total_frames} "
          f"frames)")
    print(f"  wall clock              : {sampled.wall_functional:.2f}s "
          f"functional + {sampled.wall_detailed:.2f}s detailed")


def _cmd_cs1(args) -> int:
    from repro.harness.case_study1 import CS1Config, run_cs1
    config = CS1Config(num_frames=args.frames)
    try:
        health = _build_health(args)
    except ValueError as exc:            # a bad --inject spec, pre-run
        print(f"bad cs1 invocation: {exc}")
        return 2
    sanitize = _build_sanitize(args)
    results = run_cs1(args.model, args.config, args.load, config,
                      health=health, stats_path=args.dump_stats,
                      trace=_build_trace(args), sanitize=sanitize)
    print(f"{args.model} {args.config} ({args.load} load):")
    if health is not None:
        print(f"  health: retries={results.noc_retries} "
              f"watchdog_reports={results.watchdog_reports} "
              f"quarantined={results.quarantined_errors} "
              f"checkpoints={results.checkpoints_taken}")
    if sanitize is not None:
        print(f"  sanitizer: checks={results.sanitizer_checks} "
              f"violations={results.sanitizer_violations}")
    print(f"  mean GPU frame time   : {results.mean_gpu_time:10.0f} ticks")
    print(f"  mean total frame time : {results.mean_total_time:10.0f} ticks")
    print(f"  frames meeting period : {results.fps_fraction * 100:.0f}%")
    print(f"  display served/aborted: {results.display_completed}/"
          f"{results.display_aborted}")
    print(f"  DRAM row-hit rate     : {results.row_hit_rate:.3f}")
    print(f"  mean DRAM latency     : "
          f"{ {k: round(v) for k, v in results.mean_latency.items()} }")
    _print_profile(results, args)
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _cmd_cs2(args) -> int:
    from repro.harness.case_study2 import CS2Config, wt_sweep
    config = CS2Config()
    sweep = wt_sweep(args.workload, wt_sizes=range(args.min_wt,
                                                   args.max_wt + 1),
                     config=config)
    rows = [[wt, r.time, sum(r.stats.l1_misses.values())]
            for wt, r in sweep.items()]
    print(format_table(["WT", "fragment_cycles", "L1_misses"], rows,
                       title=f"WT sweep — {args.workload}"))
    best = min(sweep, key=lambda wt: sweep[wt].time)
    print(f"best WT: {best}")
    trace = _build_trace(args)
    sanitize = _build_sanitize(args)
    if (args.dump_stats or trace is not None or sanitize is not None
            or args.ffwd):
        # Re-run the best WT for one frame to collect stats, a trace,
        # and/or a sanitized pass over the GPU memory hierarchy; --ffwd
        # fast-forwards the warmup frame functionally (GL state advances,
        # nothing hits the timing GPU) before the measured frame.
        import zlib

        from repro.harness.case_study2 import run_static_gpu
        gpu, _ = run_static_gpu(args.workload, best, 1, config,
                                stats_path=args.dump_stats, trace=trace,
                                sanitize=sanitize, ffwd=args.ffwd)
        if args.ffwd:
            print(f"ffwd re-run (best WT, ffwd={args.ffwd}): fb CRC "
                  f"0x{zlib.crc32(gpu.fb.color.tobytes()):08x}")
        if args.dump_stats:
            print(f"stats written to {args.dump_stats}")
        if args.trace:
            print(f"trace written to {args.trace}")
        if sanitize is not None:
            print("sanitizer: re-ran best WT armed — no violations")
    return 0


def _cmd_ffwd(args) -> int:
    """Replay-driven fast-forward / sampled simulation driver (§13).

    ``--verify`` runs the four-check functional-vs-detailed equivalence
    suite and turns it into the exit code — the CI ffwd smoke job's
    gate.  ``--sample`` runs the periodic-sampling mode instead and
    reports extrapolated metrics with Student-t error bars.  Plain
    ``--ffwd K`` fast-forwards K frames and runs the rest detailed.  A
    frame count, ffwd count or sampling spec the run cannot honour exits
    2 with one line.
    """
    import json

    from repro.harness.case_study1 import CS1Config, make_cs1_setup
    from repro.sampling import (ExtrapolationError, FunctionalSimError,
                                WindowScheduleError, fast_forward,
                                parse_sample_spec, run_sampled,
                                verify_equivalence)

    config = CS1Config(num_frames=args.frames)
    run_config, factory = make_cs1_setup(args.model, args.config,
                                         args.load, config)
    report: dict
    status = 0
    try:
        if args.verify:
            ffwd = args.ffwd or max(1, args.frames // 2)
            report = verify_equivalence(run_config, factory, ffwd)
            print(f"{args.model} {args.config} equivalence "
                  f"(ffwd {ffwd}/{args.frames} frames):")
            for name, passed in report["checks"].items():
                print(f"  {name:<24}: {'ok' if passed else 'FAILED'}")
            wall = report["wall"]
            print(f"  wall: ffwd {wall['ffwd']:.2f}s (functional portion "
                  f"{wall['ffwd_functional']:.2f}s) vs full detail "
                  f"{wall['full_detail']:.2f}s")
            print("equivalence OK" if report["ok"] else "equivalence FAILED")
            status = 0 if report["ok"] else 1
        elif args.sample:
            schedule = parse_sample_spec(args.sample, args.frames)
            sampled = run_sampled(run_config, factory, schedule)
            print(f"{args.model} {args.config} sampled {schedule.spec()} "
                  f"over {args.frames} frames:")
            _print_sampled(sampled)
            report = sampled.as_dict()
        else:
            if not args.ffwd:
                print("nothing to do: give --ffwd K, --sample D:P, "
                      "or --verify")
                return 2
            result = fast_forward(run_config, factory, args.ffwd)
            print(f"{args.model} {args.config} ffwd "
                  f"{args.ffwd}/{args.frames} frames:")
            print(f"  functional: {result.frames_functional} frames in "
                  f"{result.wall_functional:.2f}s; detailed: "
                  f"{result.frames_detailed} frames in "
                  f"{result.wall_detailed:.2f}s")
            print(f"  final fb CRC: 0x{result.final_fb_crc:08x}")
            report = {
                "model": args.model, "config": args.config,
                "ffwd_frames": args.ffwd, "total_frames": args.frames,
                "final_fb_crc": result.final_fb_crc,
                "fingerprint": result.fingerprint(),
                "wall": {"functional": result.wall_functional,
                         "detailed": result.wall_detailed},
            }
    except (FunctionalSimError, WindowScheduleError,
            ExtrapolationError) as exc:  # a spec the run cannot honour
        print(f"bad ffwd invocation: {exc}")
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.out}")
    return status


def _cmd_dfsl(args) -> int:
    from repro.harness.case_study2 import CS2Config, run_dfsl
    results, controller = run_dfsl(args.workload, frames=args.frames,
                                   config=CS2Config(),
                                   eval_max=args.max_wt,
                                   run_frames=args.run_frames)
    rows = [[f, wt, t, mode] for f, wt, t, mode in controller.history]
    print(format_table(["frame", "WT", "time", "phase"], rows,
                       title=f"DFSL — {args.workload}"))
    print(f"locked-in WT: {controller.wt_best}")
    return 0


def _cmd_bench(args) -> int:
    """Run the sampled-simulation gate (see :mod:`repro.bench`).

    Measures sampled and fast-forwarded runs against full detail, writes
    ``BENCH_ffwd.json`` with ``--out``, and with ``--gate`` turns the
    machine-independent checks (the ffwd CRC identity and the error
    bounds) into the exit code.
    """
    from repro import bench

    report = bench.run_ffwd(args.scale)
    if args.out is not None:
        print(f"wrote {bench.write_report(report, args.out)}")
    if args.summary or not args.out:
        print(bench.format_summary(report))
    failures = bench.gate(report)
    for failure in failures:
        print(f"BENCH GATE: {failure}")
    return 1 if failures and args.gate else 0


def _cmd_selftest(args) -> int:
    """Health smoke test: one tiny full-system run, watchdog armed.

    Exercises the whole stack (CPU prepare, GPU render, display scanout,
    DRAM, watchdog, checkpointing) in a few seconds and asserts a clean
    shutdown — the canary CI runs on every commit.
    """
    from repro.harness.scenes import SceneSession
    from repro.health import HealthConfig
    from repro.soc.soc import EmeraldSoC, tiny_run_config

    sanitize = _build_sanitize(args)
    config = tiny_run_config(
        num_frames=args.frames,
        health=HealthConfig(watchdog=True, checkpoint_every=1),
        trace=_build_trace(args),
        sanitize=sanitize,
    )
    session = SceneSession("cube", config.width, config.height)
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    results = soc.run()
    _print_profile(results, args)
    if args.trace:
        print(f"trace written to {args.trace}")
    detection_ok = True
    if sanitize is not None:
        # Prove detection end-to-end: reintroduce a historic lost-retry
        # bug in a sandboxed fabric and require the sanitizer to name it.
        from repro.sanitize import detection_selftest
        violation = detection_selftest()
        detection_ok = violation is not None
        print(f"  sanitizer: checks={results.sanitizer_checks} "
              f"violations={results.sanitizer_violations}")
        print("  deliberate-violation detection: "
              + (f"caught {type(violation).__name__} at "
                 f"{violation.details.get('port')}"
                 if detection_ok else "MISSED"))
    ok = (soc.loop.finished
          and len(results.frames) == args.frames
          and results.watchdog_reports == 0
          and results.quarantined_errors == 0
          and results.checkpoints_taken == args.frames
          and soc.gpu.fb.coverage() > 0.01
          and (sanitize is None or results.sanitizer_violations == 0)
          and detection_ok)
    print(f"selftest: frames={len(results.frames)} "
          f"end_tick={results.end_tick} "
          f"watchdog_reports={results.watchdog_reports} "
          f"checkpoints={results.checkpoints_taken} "
          f"coverage={soc.gpu.fb.coverage():.3f}")
    print("selftest OK" if ok else "selftest FAILED")
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    """Seeded fault sweep with the sanitizer armed (see repro.sanitize.chaos).

    Exit 0 when every run degrades gracefully or dies with a typed,
    bundled failure; exit 1 on a contract breach (bare traceback); exit 3
    when a scenario not cataloged to violate produced a violation —
    still a typed, bundled death, but one CI must flag as a regression.
    ``--summary PATH`` writes the whole report (per-scenario outcomes,
    bundle paths) as machine-readable JSON for downstream tooling.
    """
    import json

    if args.server_drill:
        return _server_drill(args)

    from repro.sanitize.chaos import (SCENARIOS, format_report, run_chaos)

    scenarios = SCENARIOS
    if args.scenario:
        scenarios = tuple(s for s in SCENARIOS if s.name == args.scenario)
        if not scenarios:
            known = ", ".join(s.name for s in SCENARIOS)
            print(f"unknown scenario {args.scenario!r}; known: {known}")
            return 2
    seeds = tuple(int(s) for s in args.seeds.split(","))
    report = run_chaos(
        seeds, budget_events=args.budget_events, frames=args.frames,
        bundle_dir=args.bundle_dir, scenarios=scenarios,
        progress=lambda r: print(
            f"  {r.scenario:<24} seed={r.seed}: {r.outcome}", flush=True))
    print(format_report(report))
    if args.summary:
        with open(args.summary, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"summary written to {args.summary}")
    if args.bundle_dir:
        print(f"triage bundles (failures only) under {args.bundle_dir}")
    if not report.ok:
        for failure in report.failures:
            print(f"CONTRACT BREACH: {failure.scenario} seed={failure.seed} "
                  f"-> {failure.detail}")
        return 1
    if report.unexpected_violations:
        for result in report.unexpected_violations:
            print(f"UNEXPECTED VIOLATION: {result.scenario} "
                  f"seed={result.seed} -> {result.detail[:100]}")
        return 3
    return 0


def _server_drill(args) -> int:
    """``chaos --server-drill``: kill -9 a fleet sweep, prove recovery.

    Runs the sweep once uninterrupted, then again as a ``fleet sweep``
    subprocess that is SIGKILL'd at ``--kills`` randomized points and
    rerun in its workdir; passes iff the journal replays clean (no
    completed job ever re-claimed) and the drill's cached payloads are
    byte-identical to the baseline's.
    """
    import json

    from repro.fleet.drill import run_server_drill

    seed = int(args.seeds.split(",")[0])
    print(f"server drill: {args.server_jobs} jobs x {args.frames} frames, "
          f"{args.kills} kill(s), seed {seed}", flush=True)
    report = run_server_drill(
        kills=args.kills, jobs=args.server_jobs, frames=args.frames,
        workers=args.server_workers, seed=seed, workdir=args.workdir)
    for name, verdict in sorted(report.jobs.items()):
        print(f"  {name:<16} {verdict['outcome']:<4} "
              f"claims={verdict['claims']} "
              f"cache_hit={'y' if verdict['cache_hit'] else 'n'} "
              f"payload={'match' if verdict['match'] else 'MISMATCH'}")
    print(f"  {report.kills} kills over {report.rounds} incarnations; "
          f"journal: {report.journal.get('records', 0)} records, "
          f"{report.executed_claims} claims, "
          f"{report.cache_hits} cache-hit completions")
    if args.summary:
        with open(args.summary, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"summary written to {args.summary}")
    if not report.ok:
        for failure in report.failures:
            print(f"DRILL FAILURE: {failure}")
        return 1
    print("server drill OK: byte-identical to the uninterrupted run, "
          "no completed job re-executed")
    return 0


def _parse_kill_specs(specs) -> dict:
    """``--kill NAME:FRAME`` flags -> the fleet's inject mapping.

    Each flag SIGKILLs the named job's *first* attempt after FRAME
    completes; later attempts consume no control and run clean — the
    shape the CI smoke job uses to prove crash recovery.
    """
    inject: dict = {}
    for item in specs or ():
        name, sep, frame = item.rpartition(":")
        if not sep or not name:
            raise ValueError(
                f"--kill wants NAME:FRAME, got {item!r}")
        try:
            controls = [{"kill_at_frame": int(frame)}]
        except ValueError:
            raise ValueError(
                f"--kill frame must be an integer, got {frame!r}") from None
        inject[name] = controls
    return inject


class _LateSignal(Exception):
    """SIGTERM or SIGINT while no fleet server was serving."""


def _owns_signals(command):
    """Keep SIGTERM/SIGINT handled for a whole fleet command.

    While the server serves, its drain/abort ladder handles them; before
    it starts and after it returns (set-up, the report) a signal ends the
    command with the ladder's abort code, 5, instead of the default
    action killing the process.
    """
    import functools

    @functools.wraps(command)
    def guarded(args) -> int:
        import signal

        from repro.fleet.server import EXIT_ABORTED

        def late(signum, frame):
            raise _LateSignal(signal.Signals(signum).name)

        saved = {signum: signal.signal(signum, late)
                 for signum in (signal.SIGTERM, signal.SIGINT)}
        try:
            return command(args)
        except _LateSignal as exc:
            print(f"ABORTED on {exc} outside the serve loop; rerun in "
                  f"{args.workdir} to resume")
            return EXIT_ABORTED
        finally:
            for signum, handler in saved.items():
                signal.signal(signum, handler)
    return guarded


@_owns_signals
def _cmd_fleet_sweep(args) -> int:
    """Run a sharded sweep under the fault-tolerant fleet (DESIGN.md §10).

    Jobs come from ``--jobs specs.json`` (a list of JobSpec objects) or
    are generated as the cross product of ``--models`` x ``--seeds``.
    The sweep is a fleet server on ``--workdir`` that drains once every
    job is terminal; rerunning it there resumes from the journal.  Exit
    0 when every job ends ``ok`` (and, with ``--expect-cached``, no
    worker process ran); exit 1 otherwise; exit 2 for a bad invocation
    (including a job name already taken by a different spec).  Signals
    get the server's ladder: the first SIGTERM/SIGINT drains (in-flight
    jobs stop at a checkpoint boundary and stay pending; exit 4), a
    second aborts (workers SIGKILLed; exit 5).
    """
    import json

    from repro.fleet import (BackoffPolicy, FleetConfig, JobSpec,
                             JobSpecError, SubmissionError, run_sweep)
    from repro.fleet.server import EXIT_ABORTED, EXIT_DRAINED_PENDING
    from repro.sanitize import SanitizerViolation

    try:
        if args.jobs:
            if args.jobs == "-":
                docs = json.load(sys.stdin)
            else:
                with open(args.jobs) as handle:
                    docs = json.load(handle)
            if not isinstance(docs, list):
                raise JobSpecError(
                    f"{args.jobs} must hold a JSON list of job specs")
            specs = [JobSpec.from_dict(doc) for doc in docs]
        else:
            seeds = [int(s) for s in args.seeds.split(",")]
            faults = None
            if args.inject:
                from repro.health import FaultConfig
                parsed = FaultConfig.parse(args.inject)
                faults = {name: value for name in
                          ("dram_drop", "dram_delay", "noc_spike",
                           "display_underrun")
                          if (value := getattr(parsed, name))}
            specs = [JobSpec(name=f"{model}-s{seed}", model=model,
                             frames=args.frames,
                             memory_config=args.memory_config, seed=seed,
                             faults=faults, retries=args.retries)
                     for model in args.models.split(",")
                     for seed in seeds]
        config = FleetConfig(
            workers=args.workers,
            queue_limit=args.queue_limit,
            max_attempts=args.max_attempts,
            backoff=BackoffPolicy(base=args.backoff_base),
            heartbeat_timeout=args.heartbeat_timeout,
            preempt_after=args.preempt_after,
            budget_events=args.budget_events,
            cache_dir=args.cache_dir,
            inject=_parse_kill_specs(args.kill),
        )
    except (JobSpecError, ValueError, OSError) as exc:
        print(f"bad fleet invocation: {exc}")
        return 2
    try:
        report = run_sweep(specs, config, args.workdir)
    except SubmissionError as exc:       # refused before any worker ran
        print(f"bad fleet invocation: {exc}")
        return 2
    except SanitizerViolation as violation:
        print(f"REFUSING TO START: {violation}")
        return 1

    rows = []
    for record in report.records:
        source = ("cache" if record.cache_hit
                  else f"{len(record.attempts)} attempt(s)")
        detail = ""
        if record.cancel_reason:
            detail = record.cancel_reason[:60]
        elif record.attempts:
            last = record.attempts[-1]
            detail = last.detail[:60]
        if record.attempts \
                and any(a.resumed_from for a in record.attempts):
            source += (", resumed@f"
                       + str(max(a.resumed_from
                                 for a in record.attempts)))
        rows.append([record.spec.name, record.outcome, source,
                     (record.payload or {}).get("fb_crc", "-"), detail])
    print(format_table(["job", "outcome", "via", "fb_crc", "detail"], rows,
                       title="Fleet sweep"))
    counts = ", ".join(f"{count} {outcome}" for outcome, count
                       in sorted(report.counts().items()))
    print(f"{len(report.records)} jobs: {counts}; "
          f"{report.executed} worker processes, {report.cached} cache hits")
    for record in report.records:
        if record.cache_error:
            print(f"cache: {record.spec.name}: {record.cache_error}")
    bundles = [b for record in report.records for b in record.bundles]
    if bundles:
        print("triage bundles:")
        for bundle in bundles:
            print(f"  {bundle}")
    if args.summary:
        with open(args.summary, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"summary written to {args.summary}")
    if report.exit_code == EXIT_ABORTED:
        print("fleet sweep ABORTED (second signal); rerun in "
              f"{args.workdir} to resume from the checkpoints")
        return report.exit_code
    if report.exit_code == EXIT_DRAINED_PENDING:
        print("fleet sweep drained (first signal); pending jobs resume "
              f"when rerun in {args.workdir}")
        return report.exit_code
    if not report.ok:
        return 1
    if args.expect_cached and report.executed:
        print(f"EXPECTED CACHE-ONLY RERUN: {report.executed} worker "
              f"process(es) ran")
        return 1
    return 0


def _socket_request(workdir: str, doc: dict, timeout: float = 10.0) -> dict:
    """One request/response round trip on the server's Unix socket."""
    import json
    import socket as socketlib

    from repro.fleet.server import SOCKET_NAME

    path = f"{workdir}/{SOCKET_NAME}"
    with socketlib.socket(socketlib.AF_UNIX,
                          socketlib.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall((json.dumps(doc) + "\n").encode())
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
    return json.loads(buffer)


@_owns_signals
def _cmd_fleet_serve(args) -> int:
    """Start the durable fleet server (DESIGN.md §14).

    Recovers from the write-ahead journal, then serves the file-drop
    spool and the Unix socket until drained.  Exit 0 = drained clean
    with nothing pending, 4 = drained with pending jobs (the journal
    resumes them next start), 5 = aborted on a second signal.
    """
    from repro.fleet import FleetConfig, FleetServer, ServerConfig
    from repro.sanitize import SanitizerViolation

    fleet = FleetConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_attempts=args.max_attempts,
        heartbeat_timeout=args.heartbeat_timeout,
        poll_interval=args.poll_interval,
        budget_events=args.budget_events,
        cache_dir=args.cache,
    )
    config = ServerConfig(
        fleet=fleet,
        spool_poll=args.spool_poll,
        segment_records=args.segment_records,
        unhealthy_after=args.unhealthy_after,
        enable_socket=not args.no_socket,
    )
    try:
        server = FleetServer(config, args.workdir)
    except SanitizerViolation as violation:
        print(f"REFUSING TO START: {violation}")
        return 1
    print(f"fleet server {server.server_id}: workdir={args.workdir} "
          f"cache={server.cache.root}", flush=True)
    print(f"  spool: {args.workdir}/spool   "
          f"socket: {'off' if args.no_socket else server.socket_path}",
          flush=True)
    recovered = len(server.replay.pending)
    if recovered:
        print(f"  recovered {recovered} pending job(s) from the journal",
              flush=True)
    code = server.serve()
    status = server.status()
    print(f"fleet server exit {code}: jobs={status['jobs']} "
          f"executed={status['executed']}", flush=True)
    return code


def _cmd_fleet_submit(args) -> int:
    """Submit jobs to a running (or future) fleet server.

    Reads a spec file (one spec object, a submission envelope, or a
    list of either) and submits each via the Unix socket when the
    server is up, else as spool drop files the server consumes on its
    next scan.  Exit 0 when everything was accepted (dedup counts as
    accepted), 1 otherwise.
    """
    import json
    import os

    from repro.fleet.server import SOCKET_NAME, SPOOL_DIR
    from repro.health.recovery import publish_text

    try:
        with open(args.specfile) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"bad spec file: {exc}")
        return 2
    docs = doc if isinstance(doc, list) else [doc]
    if args.priority or args.owner or args.deadline:
        docs = [{"spec": item if "spec" not in item else item["spec"],
                 "priority": args.priority,
                 "owner": args.owner or "anonymous",
                 "deadline": args.deadline}
                for item in docs]
        for item in docs:
            if item["deadline"] is None:
                del item["deadline"]
    via_socket = (not args.spool
                  and os.path.exists(os.path.join(args.workdir,
                                                  SOCKET_NAME)))
    failures = 0
    for index, item in enumerate(docs):
        if via_socket:
            try:
                ack = _socket_request(args.workdir,
                                      {"op": "submit", "job": item})
            except OSError as exc:
                print(f"socket submit failed ({exc}); falling back to "
                      f"the spool")
                via_socket = False
                ack = None
            if ack is not None:
                name = ack.get("name", "?")
                if ack.get("ok"):
                    state = "dedup" if ack.get("dedup") else "accepted"
                    print(f"  {name}: {state} ({ack.get('outcome')})")
                else:
                    failures += 1
                    print(f"  job[{index}]: REJECTED "
                          f"{ack.get('error')}: {ack.get('detail')}")
                continue
        spool = os.path.join(args.workdir, SPOOL_DIR)
        os.makedirs(spool, exist_ok=True)
        spec = item.get("spec", item) if isinstance(item, dict) else {}
        name = spec.get("name", f"job{index}") if isinstance(spec, dict) \
            else f"job{index}"
        drop = os.path.join(spool, f"{name}.json")
        publish_text(drop, json.dumps(item, indent=2))
        print(f"  {name}: spooled -> {drop}")
    return 1 if failures else 0


def _cmd_fleet_status(args) -> int:
    """Server status: live over the socket, offline from the journal."""
    import json
    import os

    from repro.fleet.server import SOCKET_NAME, journal_status
    from repro.sanitize import SanitizerViolation

    if os.path.exists(os.path.join(args.workdir, SOCKET_NAME)):
        try:
            status = _socket_request(args.workdir, {"op": "status"})
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0 if status.get("ok") else 1
        except OSError:
            pass                         # stale socket: fall back
    try:
        status = journal_status(args.workdir)
    except SanitizerViolation as violation:
        print(f"JOURNAL INCONSISTENT: {violation}")
        return 1
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_fleet_drain(args) -> int:
    """Ask a running server to drain (finish/checkpoint, then exit)."""
    try:
        ack = _socket_request(args.workdir, {"op": "drain"})
    except OSError as exc:
        print(f"no server reachable at {args.workdir}: {exc}")
        return 1
    print("drain requested" if ack.get("ok") else f"drain refused: {ack}")
    return 0 if ack.get("ok") else 1


def _cmd_fleet_gc(args) -> int:
    """Apply the retention caps: result cache LRU + triage bundles."""
    import json

    from repro.fleet import ResultCache, sweep_triage_bundles

    doc: dict = {}
    if args.cache:
        cache = ResultCache(args.cache)
        report = cache.gc(max_entries=args.max_entries,
                          max_bytes=args.max_bytes,
                          stale_staging_age=args.stale_staging_age)
        doc["cache"] = report.to_dict()
        print(f"cache {args.cache}: kept {report.entries} entries "
              f"({report.bytes} bytes), evicted {report.evicted_entries} "
              f"({report.evicted_bytes} bytes), removed "
              f"{report.quarantined_removed} quarantined + "
              f"{report.staging_removed} stale staging")
    if args.workdir:
        swept = sweep_triage_bundles(args.workdir,
                                     max_bundles=args.max_bundles)
        doc["bundles"] = swept
        print(f"bundles under {args.workdir}: kept {swept['kept']}, "
              f"removed {swept['removed']}")
    if not doc:
        print("nothing to do: give --cache and/or --workdir")
        return 2
    if args.summary:
        with open(args.summary, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.summary}")
    return 0


def _add_trace_flags(p) -> None:
    p.add_argument("--trace", metavar="PATH",
                   help="record the run as Chrome Trace Event Format JSON "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--profile", action="store_true",
                   help="print a cycle-attribution report after the run")
    p.add_argument("--top-sinks", action="store_true",
                   help="print a ranked table of the busiest spans and "
                        "kernel-event owners (implies --profile)")


def _add_sanitize_flags(p) -> None:
    p.add_argument("--sanitize", action="store_true",
                   help="arm the runtime invariant sanitizer (port "
                        "protocol, resource leaks, liveness, checkpoint "
                        "round trips); bit-identical when quiet")
    p.add_argument("--triage-dir", metavar="DIR",
                   help="write a triage bundle here if the run dies "
                        "(implies --sanitize)")


@_owns_signals
def _cmd_dse(args) -> int:
    """Design-space exploration: a topology grid through the fleet.

    Enumerates clusters x stacks x data-rates x CPU mixes, evaluates
    every point as a cached fleet job, and prints the Pareto frontier
    over FPS / DRAM bandwidth / energy.  Exit 0 when every point
    evaluated ``ok`` (and, with ``--expect-cached``, no worker process
    ran); exit 1 otherwise; exit 2 for a bad invocation (including a
    workdir whose journal holds a point under the same name with other
    physics); the fleet's 4/5 when a signal drained or aborted the sweep.
    """
    import json

    from repro.common.config import ConfigError
    from repro.dse import (DSEConfig, format_dse_report, run_dse,
                           topology_grid)
    from repro.fleet import SubmissionError

    try:
        grid = topology_grid(
            clusters=[int(v) for v in args.clusters.split(",")],
            stacks=[int(v) for v in args.stacks.split(",")],
            data_rates=[int(v) for v in args.rates.split(",")],
            cpu_mixes=args.cpus.split(","))
    except (ConfigError, ValueError) as exc:
        print(f"bad dse invocation: {exc}")
        return 2
    config = DSEConfig(model=args.model, frames=args.frames,
                       seed=args.seed, workers=args.workers,
                       cache_dir=args.cache_dir, workdir=args.workdir,
                       budget_events=args.budget_events,
                       ffwd=args.ffwd, sample=args.sample)
    try:
        report = run_dse(grid, config)
    except SubmissionError as exc:       # refused before any worker ran
        print(f"bad dse invocation: {exc}")
        return 2
    print(format_dse_report(report))
    fleet = report.fleet
    print(f"{len(report.points)} points: {fleet.executed} worker "
          f"processes, {fleet.cached} cache hits")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report written to {args.out}")
    if fleet.exit_code:
        return fleet.exit_code
    if not report.ok:
        return 1
    if args.expect_cached and fleet.executed:
        print(f"EXPECTED CACHE-ONLY RERUN: {fleet.executed} worker "
              f"process(es) ran")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Emerald reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list workload models")
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("render", help="render one frame on the GPU model")
    p.add_argument("model", help="model name (see `repro models`)")
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--height", type=int, default=120)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--wt", type=int, default=1)
    p.add_argument("--output", help="write the image as PPM")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("accuracy", help="run the Sec. 3.4 accuracy study")
    p.add_argument("--seed", type=int, default=62)
    p.set_defaults(func=_cmd_accuracy)

    p = sub.add_parser("cs1", help="case study I full-system run")
    p.add_argument("model", choices=["M1", "M2", "M3", "M4"])
    p.add_argument("config", choices=["BAS", "DCB", "DTB", "HMC"])
    p.add_argument("--load", choices=["regular", "high"], default="regular")
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--watchdog", action="store_true",
                   help="arm the health watchdog (hangs become reports)")
    p.add_argument("--inject", default="",
                   help="fault spec, e.g. dram_drop=0.01,noc_spike=0.05")
    p.add_argument("--retries", action="store_true",
                   help="enable NoC retry/timeout/backoff recovery")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="snapshot the run every N frames (0 = off)")
    p.add_argument("--checkpoint-path",
                   help="write the latest snapshot to this file")
    p.add_argument("--dump-stats", metavar="PATH",
                   help="write every component's statistics (including "
                        "per-link port stats) to one JSON file")
    _add_trace_flags(p)
    _add_sanitize_flags(p)
    p.set_defaults(func=_cmd_cs1)

    p = sub.add_parser("bench",
                       help="sampled-simulation gate: speedup, "
                            "extrapolation error and fast-forward CRC "
                            "identity against full detail")
    p.add_argument("--scale", choices=("default", "smoke", "micro"),
                   default="default",
                   help="workload size (default = the recorded operating "
                        "point, smoke = CI seconds-scale, micro = tests)")
    p.add_argument("--only", action="append", choices=("ffwd",),
                   help="accepted for scripts that name it: ffwd is "
                        "the only benchmark")
    p.add_argument("--out", help="directory for the BENCH_ffwd.json artifact")
    p.add_argument("--summary", action="store_true",
                   help="print the human-readable table")
    p.add_argument("--gate", action="store_true",
                   help="exit 1 when an ffwd check fails "
                        "(machine-independent checks only)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selftest",
                       help="tiny watchdog-armed full-system smoke run")
    p.add_argument("--frames", type=int, default=1)
    _add_trace_flags(p)
    _add_sanitize_flags(p)
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("ffwd",
                       help="replay-driven fast-forward / sampled "
                            "simulation (with the functional-vs-detailed "
                            "equivalence verifier)")
    p.add_argument("model", choices=["M1", "M2", "M3", "M4"])
    p.add_argument("config", choices=["BAS", "DCB", "DTB", "HMC"])
    p.add_argument("--load", choices=["regular", "high"], default="regular")
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--ffwd", type=int, default=0, metavar="K",
                   help="functional frames before the detailed region "
                        "(with --verify, defaults to frames//2)")
    p.add_argument("--sample", metavar="D:P[:W]",
                   help="periodic sampling spec instead of a single "
                        "fast-forward")
    p.add_argument("--verify", action="store_true",
                   help="run the 4-check functional-vs-detailed "
                        "equivalence suite; exit 1 on any failure "
                        "(the CI gate)")
    p.add_argument("--out", metavar="PATH",
                   help="write the machine-readable report as JSON")
    p.set_defaults(func=_cmd_ffwd)

    p = sub.add_parser("cs2", help="case study II WT sweep")
    p.add_argument("workload", help="W1..W6 or a model name")
    p.add_argument("--min-wt", type=int, default=1)
    p.add_argument("--max-wt", type=int, default=10)
    p.add_argument("--ffwd", type=int, default=0, metavar="K",
                   help="re-run the best WT fast-forwarding K frames "
                        "functionally before the measured frame")
    p.add_argument("--dump-stats", metavar="PATH",
                   help="re-run the best WT for one frame and write every "
                        "GPU component's statistics to one JSON file")
    _add_trace_flags(p)
    _add_sanitize_flags(p)
    p.set_defaults(func=_cmd_cs2)

    p = sub.add_parser("chaos",
                       help="seeded fault sweep with the sanitizer armed")
    p.add_argument("--seeds", default="1,2,3",
                   help="comma-separated RNG seeds (default: 1,2,3)")
    p.add_argument("--budget-events", type=int, default=2_000_000,
                   help="per-run event budget (hang backstop)")
    p.add_argument("--frames", type=int, default=2,
                   help="frames rendered per run")
    p.add_argument("--scenario",
                   help="run only this scenario (default: all)")
    p.add_argument("--bundle-dir", metavar="DIR",
                   help="write triage bundles for failing runs here")
    p.add_argument("--summary", metavar="PATH",
                   help="write the machine-readable sweep summary "
                        "(per-scenario outcomes, bundle paths) as JSON")
    p.add_argument("--server-drill", action="store_true",
                   help="run the fleet-server chaos drill instead: "
                        "kill -9 a fleet sweep at randomized points, "
                        "rerun it, assert byte-identical results and "
                        "zero re-executed jobs")
    p.add_argument("--kills", type=int, default=3,
                   help="server drill: SIGKILLs to deliver (default: 3)")
    p.add_argument("--server-jobs", type=int, default=4,
                   help="server drill: jobs in the sweep (default: 4)")
    p.add_argument("--server-workers", type=int, default=2,
                   help="server drill: worker pool size (default: 2)")
    p.add_argument("--workdir", default="server-drill-work",
                   help="server drill: scratch root")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("fleet",
                       help="the fault-tolerant fleet: one-shot sweeps "
                            "(sweep) and the durable journal-backed "
                            "server (serve/submit/status/drain/gc)")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    p = fleet_sub.add_parser(
        "sweep", help="one-shot sharded sweep across a supervised "
                      "worker pool (the historic `repro fleet` flags)")
    p.add_argument("--models", default="cube",
                   help="comma-separated workload models (default: cube)")
    p.add_argument("--seeds", default="1,2,3",
                   help="comma-separated RNG seeds (default: 1,2,3)")
    p.add_argument("--frames", type=int, default=2,
                   help="frames rendered per job")
    p.add_argument("--memory-config", default="BAS",
                   choices=["BAS", "DCB", "DTB", "HMC"])
    p.add_argument("--inject", default="",
                   help="fault spec applied to every job, e.g. "
                        "dram_drop=0.01,noc_spike=0.05")
    p.add_argument("--retries", action="store_true",
                   help="arm the NoC retry ladder in every job")
    p.add_argument("--jobs", metavar="PATH",
                   help="JSON list of job specs, '-' for stdin (overrides "
                        "--models/--seeds)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker pool size")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="crash/hang retries per job before 'failed'")
    p.add_argument("--queue-limit", type=int, default=1024,
                   help="bounded submission queue (beyond: jobs are shed)")
    p.add_argument("--backoff-base", type=float, default=0.25,
                   help="first retry delay in seconds (doubles, capped)")
    p.add_argument("--heartbeat-timeout", type=float, default=60.0,
                   help="wall seconds without a worker heartbeat = hung")
    p.add_argument("--preempt-after", type=float,
                   help="ask attempts running longer than this many wall "
                        "seconds to stop at the next checkpoint boundary")
    p.add_argument("--budget-events", type=int, default=5_000_000,
                   help="per-attempt event budget (hang backstop)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed result cache root "
                        "(default: WORKDIR/cache)")
    p.add_argument("--workdir", default="fleet-work",
                   help="the sweep's journal and per-job scratch space "
                        "(checkpoints, heartbeats, triage bundles); use "
                        "one per grid, rerun in it to resume")
    p.add_argument("--kill", action="append", metavar="NAME:FRAME",
                   help="SIGKILL job NAME's first attempt after FRAME "
                        "completes (repeatable; CI crash-recovery smoke)")
    p.add_argument("--summary", metavar="PATH",
                   help="write the machine-readable fleet report as JSON")
    p.add_argument("--expect-cached", action="store_true",
                   help="also fail unless no worker process ran (every "
                        "job served from the journal or the cache; CI "
                        "determinism check)")
    p.set_defaults(func=_cmd_fleet_sweep)

    p = fleet_sub.add_parser(
        "serve", help="start the durable fleet server (write-ahead "
                      "journal, spool + socket intake, priority/"
                      "fair-share/deadline scheduling)")
    p.add_argument("--workdir", default="fleet-server",
                   help="server root (journal, spool, jobs, socket)")
    p.add_argument("--cache", metavar="DIR",
                   help="result cache root (default: WORKDIR/cache)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queue-limit", type=int, default=1024,
                   help="pending-job bound; beyond it submissions shed")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--heartbeat-timeout", type=float, default=60.0)
    p.add_argument("--poll-interval", type=float, default=0.05,
                   help="seconds between a running attempt's heartbeat, "
                        "deadline and drain checks (an attempt ends when "
                        "its worker exits, whatever this is)")
    p.add_argument("--spool-poll", type=float, default=0.1,
                   help="seconds between file-drop spool scans")
    p.add_argument("--segment-records", type=int, default=256,
                   help="journal records per segment before rotation")
    p.add_argument("--unhealthy-after", type=int, default=5,
                   help="consecutive worker infra failures before the "
                        "server degrades to cache-only serving")
    p.add_argument("--budget-events", type=int, default=5_000_000)
    p.add_argument("--no-socket", action="store_true",
                   help="file-drop spool intake only")
    p.set_defaults(func=_cmd_fleet_serve)

    p = fleet_sub.add_parser(
        "submit", help="submit job specs to a fleet server (socket when "
                       "live, spool drop files otherwise)")
    p.add_argument("specfile",
                   help="JSON: a spec, a {spec, priority, owner, "
                        "deadline} envelope, or a list of either")
    p.add_argument("--workdir", default="fleet-server",
                   help="the server's root")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (applied to every spec)")
    p.add_argument("--owner", default="",
                   help="fair-share bucket (applied to every spec)")
    p.add_argument("--deadline", type=float,
                   help="cancel after this many wall seconds")
    p.add_argument("--spool", action="store_true",
                   help="always use the file-drop spool, skip the socket")
    p.set_defaults(func=_cmd_fleet_submit)

    p = fleet_sub.add_parser(
        "status", help="server status (socket when live, journal replay "
                       "otherwise)")
    p.add_argument("--workdir", default="fleet-server")
    p.set_defaults(func=_cmd_fleet_status)

    p = fleet_sub.add_parser(
        "drain", help="ask a running server to drain and exit cleanly")
    p.add_argument("--workdir", default="fleet-server")
    p.set_defaults(func=_cmd_fleet_drain)

    p = fleet_sub.add_parser(
        "gc", help="apply retention caps: result-cache LRU eviction, "
                   "quarantined entries, stale staging, triage bundles")
    p.add_argument("--cache", metavar="DIR",
                   help="result cache root to collect")
    p.add_argument("--max-entries", type=int,
                   help="keep at most this many cache entries (LRU)")
    p.add_argument("--max-bytes", type=int,
                   help="keep at most this many cache bytes (LRU)")
    p.add_argument("--stale-staging-age", type=float, default=3600.0,
                   help="remove staging dirs older than this (seconds)")
    p.add_argument("--workdir", metavar="DIR",
                   help="fleet workdir whose triage bundles to cap")
    p.add_argument("--max-bundles", type=int, default=32,
                   help="bundles to keep across the workdir (newest)")
    p.add_argument("--summary", metavar="PATH",
                   help="write the machine-readable GC report as JSON")
    p.set_defaults(func=_cmd_fleet_gc)

    p = sub.add_parser("dse",
                       help="design-space exploration: a topology grid "
                            "through the fleet, reduced to a Pareto "
                            "frontier")
    p.add_argument("--clusters", default="2,4",
                   help="comma-separated GPU cluster counts (default: 2,4)")
    p.add_argument("--stacks", default="1,2",
                   help="comma-separated memory stack counts (default: 1,2)")
    p.add_argument("--rates", default="1333,667",
                   help="comma-separated DRAM data rates in Mb/s "
                        "(default: 1333,667)")
    p.add_argument("--cpus", default="sym",
                   help="comma-separated CPU mixes: sym, biglittle "
                        "(default: sym)")
    p.add_argument("--model", default="cube",
                   help="workload model evaluated at every point")
    p.add_argument("--frames", type=int, default=2,
                   help="frames rendered per point")
    p.add_argument("--seed", type=int, default=7, help="RNG seed")
    p.add_argument("--ffwd", type=int, default=0, metavar="K",
                   help="fast-forward every point's first K frames "
                        "functionally before detailed timing")
    p.add_argument("--sample", metavar="D:P[:W]",
                   help="evaluate every point with periodic sampling "
                        "(extrapolated metrics carry error bars)")
    p.add_argument("--workers", type=int, default=2,
                   help="fleet worker pool size")
    p.add_argument("--budget-events", type=int, default=5_000_000,
                   help="per-attempt event budget (hang backstop)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed result cache root "
                        "(default: WORKDIR/cache)")
    p.add_argument("--workdir", default="dse-work",
                   help="the sweep's journal and per-job scratch space; "
                        "use one per grid, rerun in it to resume")
    p.add_argument("--out", metavar="PATH",
                   help="write the machine-readable DSE report as JSON")
    p.add_argument("--expect-cached", action="store_true",
                   help="also fail unless no worker process ran (CI "
                        "determinism check)")
    p.set_defaults(func=_cmd_dse)

    p = sub.add_parser("dfsl", help="run DFSL on a workload")
    p.add_argument("workload", help="W1..W6 or a model name")
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--max-wt", type=int, default=6)
    p.add_argument("--run-frames", type=int, default=20)
    p.set_defaults(func=_cmd_dfsl)

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Back-compat: `repro fleet --seeds ...` (the historic one-shot form)
    # means `repro fleet sweep --seeds ...`.
    if argv and argv[0] == "fleet" \
            and (len(argv) == 1 or argv[1].startswith("-")):
        argv.insert(1, "sweep")
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

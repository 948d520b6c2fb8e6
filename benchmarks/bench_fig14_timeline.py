"""Fig. 14: M1 rendering bandwidth timelines, BAS vs DASH (DTB).

Paper shape: under DASH the CPU receives higher priority mid-frame, so
GPU read latency rises vs the baseline; at the end of each frame the CPU
sits nearly idle waiting for the GPU — a dependency DASH's scheduling does
not see, which is why over-prioritizing the CPU does not help the
application.
"""

from benchmarks.conftest import run_once
from repro.harness.report import ascii_sparkline, format_series


def test_fig14_timeline(benchmark, cs1_high):
    sweep = run_once(benchmark, lambda: cs1_high)
    bas = sweep.get("M1", "BAS")
    dtb = sweep.get("M1", "DTB")

    print()
    print("Fig. 14 — M1 bandwidth vs time under high load "
          "(bytes per 10k-tick window)")
    for name, results in (("BAS", bas), ("DTB", dtb)):
        for source in ("cpu", "gpu"):
            series = results.bandwidth[source]
            print(f"  {name}.{source:3s} "
                  f"{ascii_sparkline([v for _, v in series])}")
            print(" ", format_series(f"{name}.{source}", series[:20]))

    print(f"GPU mean DRAM latency: BAS={bas.mean_latency['gpu']:.0f} "
          f"DTB={dtb.mean_latency['gpu']:.0f} "
          f"(+{(dtb.mean_latency['gpu'] / bas.mean_latency['gpu'] - 1) * 100:.1f}%)")
    print(f"CPU mean DRAM latency: BAS={bas.mean_latency['cpu']:.0f} "
          f"DTB={dtb.mean_latency['cpu']:.0f}")
    print(f"app frame totals: BAS={bas.mean_total_time:.0f} "
          f"DTB={dtb.mean_total_time:.0f}")

    # Shape 1 (Fig. 14 t2): DASH favors the CPU — CPU latency improves...
    assert dtb.mean_latency["cpu"] < bas.mean_latency["cpu"] * 1.02, \
        "DASH should (at least not hurt) CPU memory latency"
    # Shape 2: ...but that does not translate into faster frames, because
    # the CPU ends up waiting on the GPU anyway (the unseen dependency).
    assert dtb.mean_total_time >= bas.mean_total_time * 0.95, \
        "prioritizing the CPU must not speed up the application"

    # Shape 3 (Fig. 14-7): the CPU goes idle at the end of each frame —
    # its traffic during the GPU phase is far below its prepare-phase rate.
    cpu = dict(bas.bandwidth["cpu"])

    def mean_cpu(t0, t1):
        keys = [t for t in cpu if t0 <= t < t1]
        return sum(cpu[t] for t in keys) / max(len(keys), 1)

    prep = [mean_cpu(r.start, r.cpu_done) for r in bas.frames[1:]]
    render = [mean_cpu(r.cpu_done, r.gpu_done) for r in bas.frames[1:]]
    assert sum(prep) / len(prep) > sum(render) / len(render), \
        "CPU demand should drop during the GPU phase (frame-end idle)"


def test_fig14_trace_smoke(tmp_path):
    """One frame under tracing: phase spans must tile each app frame with
    no gap and no overlap (the Fig. 14 decomposition), and the emitted
    Chrome-trace JSON must be well-formed."""
    from repro.harness.case_study1 import CS1Config, run_cs1
    from repro.trace import TraceConfig, load_trace, validate_trace

    path = tmp_path / "fig14-smoke-trace.json"
    config = CS1Config(width=48, height=36, num_frames=1, texture_size=64,
                       gpu_frame_period_ticks=120_000,
                       display_period_ticks=60_000,
                       cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
    results = run_cs1("M1", "BAS", "high", config=config,
                      trace=TraceConfig(path=str(path), profile=True))

    warnings = validate_trace(load_trace(str(path)))
    assert all("async" in w for w in warnings)

    attribution = results.profile
    frames = attribution.frames("app")
    assert frames, "tracing must capture at least one app frame"
    for frame, phases in frames:
        assert phases, f"{frame.name} has no phase spans"
        cursor = frame.start
        for phase in sorted(phases, key=lambda s: s.start):
            assert phase.start == cursor, (
                f"{phase.name} leaves a gap or overlaps in {frame.name}")
            cursor = phase.end
        assert cursor == frame.end, f"{frame.name} is not fully covered"

    print()
    print(attribution.format(buckets=40))

    for track, busy in attribution.busy_ticks.items():
        assert 0 <= busy <= attribution.end_tick, track

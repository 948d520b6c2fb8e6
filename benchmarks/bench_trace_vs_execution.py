"""Execution-driven vs trace-driven evaluation of the same design change.

The paper's central methodological claim (§1, §5.2.3, Table 1): static
traces "limit the ability to capture intricate system interactions".  This
benchmark quantifies it inside the reproduction, GemDroid-style:

1. record a memory trace from an execution-driven BAS run;
2. *trace-driven*: replay that fixed trace against DTB (DASH) and HMC and
   report what a trace study would report — the change in per-source DRAM
   latency;
3. *execution-driven*: actually run the system under DTB and HMC and
   report what really matters — the change in GPU frame time, app frame
   time and display service, none of which a replay can even measure.

Shape to hold: the trace-driven latency deltas do not predict the
execution-driven outcomes (missing CPU->GPU dependency, display
abort/retry feedback and load-dependent traffic timing).
"""

import pytest

from benchmarks.conftest import run_once
from repro.common.events import EventQueue
from repro.common.config import DRAMConfig
from repro.harness.case_study1 import CS1Config, make_cs1_setup, run_cs1
from repro.harness.report import format_table
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_memory_by_name
from repro.memory.request import SourceType
from repro.soc.soc import EmeraldSoC
from repro.soc.tracedriven import TraceReplayer, record_soc_trace

MODEL = "M2"
CONFIGS = ("DTB", "HMC")


def execution_run(config_name, cs1):
    return run_cs1(MODEL, config_name, "high", cs1)


def test_trace_vs_execution(benchmark):
    cs1 = CS1Config(num_frames=4)

    def run():
        # Execution-driven truth, including the recorded baseline.
        session = SceneSession("cube", cs1.width, cs1.height,
                               texture_size=cs1.texture_size)
        base_config, _ = make_cs1_setup(MODEL, "BAS", "high", cs1)
        soc = EmeraldSoC(base_config, session.frame,
                         session.framebuffer_address)
        trace = record_soc_trace(soc)
        bas = soc.run()
        execution = {"BAS": bas}
        for name in CONFIGS:
            execution[name] = execution_run(name, cs1)

        # Trace-driven study of the same changes.
        replays = {}
        for name in ("BAS",) + CONFIGS:
            events = EventQueue()
            memory, dash_state = build_memory_by_name(
                name, events,
                DRAMConfig(channels=cs1.channels,
                           data_rate_mbps=cs1.high_rate_mbps))
            if dash_state is not None:
                dash_state.register_ip(SourceType.GPU,
                                       cs1.gpu_frame_period_ticks)
                dash_state.register_ip(SourceType.DISPLAY,
                                       cs1.display_period_ticks)
            replays[name] = TraceReplayer(trace).replay(
                events, memory, dash_state=dash_state,
                gpu_period=cs1.gpu_frame_period_ticks,
                display_period=cs1.display_period_ticks)
        return execution, replays

    execution, replays = run_once(benchmark, run)

    rows = []
    for name in ("BAS",) + CONFIGS:
        exe = execution[name]
        rep = replays[name]
        rows.append([
            name,
            rep.mean_latency["gpu"] / replays["BAS"].mean_latency["gpu"],
            exe.mean_gpu_time / execution["BAS"].mean_gpu_time,
            exe.mean_total_time / execution["BAS"].mean_total_time,
            exe.display_aborted,
            rep.mean_latency["cpu"] / replays["BAS"].mean_latency["cpu"],
        ])
    print()
    print(format_table(
        ["config", "trace:gpu_lat", "exec:gpu_time", "exec:frame_time",
         "exec:disp_aborts", "trace:cpu_lat"],
        rows,
        title=f"Trace-driven prediction vs execution-driven truth "
              f"({MODEL}, high load; ratios vs BAS)"))

    # Shape checks: the two methodologies disagree materially.
    trace_gpu = {n: replays[n].mean_latency["gpu"]
                 / replays["BAS"].mean_latency["gpu"] for n in CONFIGS}
    exec_gpu = {n: execution[n].mean_gpu_time
                / execution["BAS"].mean_gpu_time for n in CONFIGS}
    divergence = {n: abs(trace_gpu[n] - exec_gpu[n]) for n in CONFIGS}
    print(f"per-config |trace - execution| divergence: "
          f"{ {n: round(d, 2) for n, d in divergence.items()} }")
    assert max(divergence.values()) > 0.25, \
        "trace-driven latency ratios should fail to predict the " \
        "execution-driven frame-time ratios (the paper's §5.2.3 point)"
    # And the feedback-only phenomena are invisible to the replay: the
    # execution-driven runs show display aborts/retries under load.
    assert any(execution[n].display_aborted != execution["BAS"].display_aborted
               for n in CONFIGS) or execution["BAS"].display_aborted > 0

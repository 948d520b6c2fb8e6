#!/usr/bin/env python
"""Standalone-mode trace workflow: record, save, replay a region of interest.

Mirrors Emerald's APITrace-based standalone mode (§4.1): an "application"
records three animated frames to a JSON trace; the trace is then replayed
with a region of interest selecting only the last frame, which is rendered
on the GPU timing model.

Run:  python examples/trace_record_replay.py [trace.json]
"""

import os
import sys
import tempfile

from repro.common.config import DRAMConfig, GPUConfig
from repro.common.events import EventQueue
from repro.gl.trace import RegionOfInterest, TraceRecorder, load
from repro.gpu.gpu import EmeraldGPU
from repro.harness.scenes import SceneSession
from repro.memory.builders import build_memory_by_name

WIDTH, HEIGHT = 128, 96


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        tempfile.gettempdir(), "emerald_trace.json")

    # Record: the "application" draws three frames of the spot model.
    session = SceneSession("spot", WIDTH, HEIGHT)
    recorder = TraceRecorder()
    for index in range(3):
        recorder.record_frame(session.frame(index))
    recorder.save(path)
    print(f"recorded 3 frames to {path} "
          f"({os.path.getsize(path) // 1024} KiB)")

    # Replay only frame 2 (the region of interest).
    frames = load(path, RegionOfInterest(first_frame=2))
    print(f"replayed {len(frames)} frame(s) from the ROI")

    events = EventQueue()
    memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), WIDTH, HEIGHT,
                     memory=memory)
    stats = gpu.run_frame(frames[0])
    print(f"frame 2 rendered in {stats.cycles} cycles, "
          f"{stats.fragments} fragments, "
          f"{stats.dram_bytes} DRAM bytes")


if __name__ == "__main__":
    main()

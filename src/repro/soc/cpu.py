"""CPU cluster traffic model with frame-lifecycle dependencies.

The paper's case study I shows that what breaks trace-based evaluation is
exactly the *feedback structure* of CPU traffic: the app thread works hard
preparing a frame, then goes nearly idle waiting for the GPU (Fig. 14-7),
and the rate it makes progress depends on the memory service it receives.

:class:`CPUCore` reproduces that mechanism rather than replaying a trace:

* it keeps a bounded number of outstanding misses (MLP window);
* each completed request is followed by a think time before the next
  issues, so worse memory latency genuinely slows the core down;
* addresses walk sequential runs inside a per-core working set with a
  configurable locality run length, giving CPUs their row-buffer-friendly
  pattern;
* the *app core* runs in work quanta: :meth:`start_job` arms a request
  quota and fires a callback when the quota completes — the SoC's render
  loop uses this for the "CPU prepares the frame" phase;
* *background cores* run continuously at per-core intensities, giving the
  TCM classifier a population of light and heavy threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.common.stats import StatGroup
from repro.memory.request import MemRequest, SourceType

LINE = 128


@dataclass
class CPUCoreConfig:
    """Traffic shape for one core."""

    think_time: int = 40             # ticks between a completion and next issue
    outstanding: int = 4             # MLP window
    run_length: int = 8              # sequential lines before jumping
    working_set_bytes: int = 2 * 1024 * 1024
    write_fraction: float = 0.3
    active: bool = True              # background cores: emit continuously


class CPUCore:
    """One core's memory-side behavior (see module docstring)."""

    def __init__(self, events: EventQueue, core_id: int,
                 memory_port, config: CPUCoreConfig, base_address: int,
                 seed: int = 0) -> None:
        self.events = events
        self.core_id = core_id
        self.config = config
        self.base_address = base_address
        self.stats = StatGroup(f"cpu{core_id}")
        # ``memory_port`` is anything with an ``ingress`` port (the NoC, a
        # memory system); requests leave through a timing port so bounded
        # links can backpressure the core.
        self.port = RequestPort(f"cpu{core_id}.mem", owner=self,
                                on_retry=self._retry_send)
        self.port.connect(memory_port)
        self._pending: Optional[MemRequest] = None   # blocked at the port
        self._rng = random.Random((seed << 8) | core_id)
        self._in_flight = 0
        self._run_remaining = 0
        self._cursor = 0
        # Job mode (app thread): issues and completions tracked separately
        # so exactly ``num_requests`` are issued per job.
        self._job_to_issue = 0
        self._job_to_complete = 0
        self._job_done_cb: Optional[Callable[[], None]] = None
        self._continuous = config.active

    # -- job API (app thread) --------------------------------------------------

    def start_job(self, num_requests: int,
                  on_done: Callable[[], None]) -> None:
        """Arm a work quantum: ``num_requests`` completions then callback."""
        if self._job_to_complete > 0:
            raise RuntimeError(f"core {self.core_id} already has a job")
        self._job_to_issue = num_requests
        self._job_to_complete = num_requests
        self._job_done_cb = on_done
        if num_requests <= 0:
            self._finish_job()
            return
        self._pump()

    def _finish_job(self) -> None:
        callback = self._job_done_cb
        self._job_done_cb = None
        self._job_to_issue = 0
        self._job_to_complete = 0
        if callback is not None:
            callback()

    # -- continuous mode (background threads) ------------------------------------

    def start_background(self) -> None:
        self._continuous = True
        self._pump()

    def stop_background(self) -> None:
        self._continuous = False

    # -- issue machinery -------------------------------------------------------------

    @property
    def _wants_to_issue(self) -> bool:
        return self._continuous or self._job_to_issue > 0

    def _pump(self) -> None:
        while (self._pending is None
               and self._in_flight < self.config.outstanding
               and self._wants_to_issue):
            self._issue()

    def _issue(self) -> None:
        address = self._next_address()
        write = self._rng.random() < self.config.write_fraction
        request = MemRequest(address=address, size=LINE, write=write,
                             source=SourceType.CPU, source_id=self.core_id,
                             callback=self._completed)
        if self.port.try_send(request):
            self._sent()
        else:
            # Backpressure: hold the request (its address/write draws are
            # already made, so the RNG streams stay aligned) and stall the
            # issue window until the port's retry.
            self.stats.counter("stalled_sends").add()
            self._pending = request

    def _sent(self) -> None:
        if self._job_to_issue > 0:
            self._job_to_issue -= 1
        self._in_flight += 1
        self.stats.counter("requests").add()

    def _retry_send(self) -> None:
        request = self._pending
        if request is None:
            return
        if self.port.try_send(request):
            self._pending = None
            self._sent()
            self._pump()

    def _next_address(self) -> int:
        if self._run_remaining == 0:
            lines = self.config.working_set_bytes // LINE
            self._cursor = self._rng.randrange(lines)
            self._run_remaining = self.config.run_length
        address = self.base_address + (self._cursor % (
            self.config.working_set_bytes // LINE)) * LINE
        self._cursor += 1
        self._run_remaining -= 1
        return address

    def _completed(self, request: MemRequest) -> None:
        self._in_flight -= 1
        self.stats.histogram("latency").record(request.latency)
        if self._job_to_complete > 0:
            self._job_to_complete -= 1
            if self._job_to_complete == 0:
                self._finish_job()
                if not self._continuous:
                    return
        if self._wants_to_issue:
            self.events.schedule(self.config.think_time, self._pump)


#: Named core personalities for asymmetric (big/little) clusters.  Each
#: entry is ``(traffic shape, frame_coupled)`` — frame-coupled cores run
#: during the CPU prepare phase and pause while the GPU renders.  The
#: first four are the legacy graded mix (see :data:`LEGACY_CORE_MIX`);
#: ``big``/``little`` model a heterogeneous cluster: big cores do heavy,
#: frame-coupled work, little cores tick along continuously with light,
#: latency-sensitive traffic.
CORE_PROFILES: dict[str, tuple[CPUCoreConfig, bool]] = {
    # The app thread: bursty, sequential (row-hit-friendly) frame
    # preparation.  FR-FCFS already serves streams like this well, so
    # DASH's CPU priority changes its service only modestly — matching
    # the paper, where DASH does not speed the app up.
    "app": (CPUCoreConfig(think_time=40, outstanding=8, run_length=32,
                          active=False), False),
    # A streaming, memory-intensive service thread — the TCM classifier's
    # "intensive" population.  It must dominate total CPU bandwidth so
    # the 15% cluster budget (Table 3) puts the other threads in the
    # non-intensive cluster.  Its long row-hit runs are what FR-FCFS
    # naturally favors.
    "streaming": (CPUCoreConfig(think_time=2, outstanding=8,
                                run_length=32), True),
    # Latency-sensitive, low-locality threads — the "non-intensive"
    # population DASH always prioritizes.  Their row-miss requests are
    # served *last* by FR-FCFS but *first* by DASH, where each one breaks
    # a GPU row-hit run (the Fig. 9/14 mechanism).
    "interactive": (CPUCoreConfig(think_time=70, outstanding=2,
                                  run_length=1), False),
    "background": (CPUCoreConfig(think_time=140, outstanding=1,
                                 run_length=1), False),
    # Asymmetric big/little personalities (topology-assembled clusters).
    "big": (CPUCoreConfig(think_time=8, outstanding=8, run_length=16),
            True),
    "little": (CPUCoreConfig(think_time=160, outstanding=1, run_length=2),
               False),
}

#: The pre-topology default: profiles cycled in this order, core 1 the
#: only frame-coupled core.  Kept exactly as the seed wired it so default
#: runs stay bit-identical.
LEGACY_CORE_MIX = ("app", "streaming", "interactive", "background")


class CPUCluster:
    """Core 0 is the app thread; the rest are background threads.

    Background intensities are graded (heavy, moderate, light, ...) so the
    TCM classifier sees a realistic mix; see :data:`CORE_PROFILES` for the
    personalities.  With ``core_types=None`` the legacy graded four-profile
    cycle is used (bit-identical to the seed); an explicit tuple of
    profile names (validated against
    :data:`repro.common.config.CPU_CORE_TYPES`) assembles an asymmetric
    cluster — e.g. ``("app", "big", "little", "little")``.
    """

    def __init__(self, events: EventQueue, memory_port,
                 num_cores: int = 4, seed: int = 7,
                 base_address: int = 0x8000_0000,
                 core_types: Optional[tuple[str, ...]] = None) -> None:
        if num_cores < 1:
            raise ValueError("need at least one CPU core")
        self.events = events
        self.cores: list[CPUCore] = []
        if core_types is None:
            profiles = [CORE_PROFILES[name][0] for name in LEGACY_CORE_MIX]
            configs = [profiles[core_id % len(profiles)]
                       for core_id in range(num_cores)]
            # The legacy cluster hardwires core 1 as the sole
            # frame-coupled core regardless of cycling.
            self._frame_coupled = [1] if num_cores > 1 else []
        else:
            if len(core_types) != num_cores:
                raise ValueError(
                    f"{len(core_types)} core types for {num_cores} cores")
            unknown = [t for t in core_types if t not in CORE_PROFILES]
            if unknown:
                raise ValueError(
                    f"unknown core types {unknown}; known: "
                    f"{', '.join(CORE_PROFILES)}")
            configs = [CORE_PROFILES[name][0] for name in core_types]
            self._frame_coupled = [i for i, name in enumerate(core_types)
                                   if CORE_PROFILES[name][1]]
        self.core_types = core_types
        for core_id in range(num_cores):
            core = CPUCore(events, core_id, memory_port, configs[core_id],
                           base_address=base_address + core_id * 0x0100_0000,
                           seed=seed)
            self.cores.append(core)

    @property
    def app_core(self) -> CPUCore:
        return self.cores[0]

    @property
    def frame_coupled_cores(self) -> list[CPUCore]:
        """Cores whose activity follows the frame lifecycle."""
        return [self.cores[i] for i in self._frame_coupled]

    def start_background(self) -> None:
        for core in self.cores[1:]:
            core.start_background()

    def stop_background(self) -> None:
        for core in self.cores[1:]:
            core.stop_background()

    def set_phase(self, phase: str) -> None:
        """Frame-lifecycle hook: "prepare" wakes the frame-coupled cores,
        "render" pauses them (they drain their in-flight window)."""
        if phase not in ("prepare", "render"):
            raise ValueError(f"unknown phase {phase!r}")
        for core in self.frame_coupled_cores:
            if phase == "prepare":
                core.start_background()
            else:
                core.stop_background()

    def total_requests(self) -> int:
        return sum(core.stats.counter("requests").value for core in self.cores)

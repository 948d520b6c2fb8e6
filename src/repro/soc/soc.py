"""Full-system assembly (Fig. 1): CPUs + GPU + display + DRAM + NoC.

:class:`EmeraldSoC` wires the case-study-I system together for one of the
Table 6 memory configurations (BAS / DCB / DTB / HMC) and runs the
Android-like render loop for a number of frames, returning every
measurement the paper's Figs. 9-14 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.config import (CPUClusterTopology, DRAMConfig, GPUConfig,
                                 NoCLinkBudget, NoCTopology, SoCTopology)
from repro.common.events import EventQueue, SimulationError, StopReason
from repro.gl.context import Frame
from repro.gpu.gpu import EmeraldGPU
from repro.health import CheckpointManager, FaultInjector, HealthConfig
from repro.health.watchdog import Watchdog
from repro.memory.builders import build_memory, memory_topology_by_name
from repro.memory.request import SourceType
from repro.memory.system import MemoryFabric
from repro.sanitize import SanitizeConfig, Sanitizer
from repro.sanitize.roundtrip import verify_roundtrip
from repro.sanitize.violations import CheckpointMismatchViolation
from repro.soc.android import FrameRecord, RenderLoop
from repro.soc.cpu import CPUCluster
from repro.soc.display import DisplayController
from repro.soc.noc import SystemNoC
from repro.trace import CycleAttribution, TraceConfig, Tracer, summarize


@dataclass
class SoCRunConfig:
    """Knobs for one full-system run.

    The paper simulates at 1024x768 against wall-clock deadlines; a scaled
    resolution needs proportionally scaled deadlines to preserve the
    load-to-deadline ratios, hence explicit tick periods here (see
    EXPERIMENTS.md).
    """

    width: int = 192
    height: int = 144
    num_frames: int = 5
    memory_config: str = "BAS"               # BAS | DCB | DTB | HMC
    dram: DRAMConfig = field(default_factory=lambda: DRAMConfig(channels=2))
    gpu: GPUConfig = field(default_factory=GPUConfig)
    gpu_frame_period_ticks: int = 400_000     # app target (30 FPS analog)
    display_period_ticks: int = 200_000       # vsync (60 FPS analog)
    cpu_work_per_frame: int = 150
    cpu_fixed_ticks: int = 0
    num_cpu_cores: int = 4
    noc_latency: int = 12
    # Bounded-bandwidth NoC (None = unbounded, bit-identical to the seed):
    # ``noc_capacity`` caps the link queue depth; ``noc_bytes_per_cycle``
    # serializes packets so sustained overload queues (Fig. 12 regime).
    noc_capacity: Optional[int] = None
    noc_bytes_per_cycle: Optional[float] = None
    seed: int = 7
    # DASH epoch scaling: Table 3's quantum (1M cycles) assumes wall-clock-
    # scale workloads; scaled runs need the classifier to re-cluster within
    # a frame.
    dash_quantum_ticks: int = 50_000
    dash_switching_ticks: int = 500
    # Health subsystem (watchdog / fault injection / checkpointing); None
    # keeps the run bit-identical to a health-free build.
    health: Optional[HealthConfig] = None
    # Cycle-attribution tracing (repro.trace); None disables every hook.
    # Even when enabled the tracer only records — it schedules no events
    # and draws no randomness, so the run stays bit-identical either way.
    trace: Optional[TraceConfig] = None
    # Runtime invariant checking (repro.sanitize); None disables every
    # hook.  Like the tracer, an armed-but-quiet sanitizer schedules no
    # events and draws no randomness — bit-identical to a bare run.
    sanitize: Optional[SanitizeConfig] = None
    # Observation hook called as ``frame_hook(frame_index, tick)`` after
    # every completed frame, before checkpointing.  The fleet worker uses
    # it for heartbeats; it must not schedule events or draw randomness.
    frame_hook: Optional[Callable[[int, int], None]] = None
    # Declarative assembly: an explicit :class:`SoCTopology` descriptor
    # overrides the knob-derived system shape (memory_config / dram /
    # num_cpu_cores / noc_*).  None derives an equivalent descriptor from
    # those knobs — see :meth:`resolve_topology` — so every run, legacy or
    # declarative, has a canonical topology (and hash).
    topology: Optional[SoCTopology] = None

    def resolve_topology(self) -> SoCTopology:
        """The :class:`SoCTopology` this run assembles.

        The explicit descriptor when one is set; otherwise one derived
        from the legacy knobs.  A default config and its hand-written
        descriptor equivalent resolve to equal descriptors — and thus the
        same topology hash — which is what lets checkpoint/cache
        identities survive the declarative migration.
        """
        if self.topology is not None:
            return self.topology
        links = None
        if self.noc_capacity is not None or self.noc_bytes_per_cycle is not None:
            links = (NoCLinkBudget(capacity=self.noc_capacity,
                                   bytes_per_cycle=self.noc_bytes_per_cycle),)
        return SoCTopology(
            name=self.memory_config,
            gpu=self.gpu,
            cpu=CPUClusterTopology(num_cores=self.num_cpu_cores),
            memory=(memory_topology_by_name(self.memory_config, self.dram),),
            noc=NoCTopology(latency=self.noc_latency, links=links))


@dataclass
class SoCResults:
    """Everything measured in one run."""

    config_name: str
    frames: list[FrameRecord]
    mean_gpu_time: float
    mean_total_time: float
    fps_fraction: float
    display_requests: int
    display_completed: int
    display_aborted: int
    row_hit_rate: float
    bytes_per_activation: float
    dram_bytes: dict[str, int]
    mean_latency: dict[str, float]
    bandwidth: dict[str, list[tuple[int, float]]]
    end_tick: int = 0
    # Health telemetry (all zero on a health-free run).
    quarantined_errors: int = 0
    watchdog_reports: int = 0
    noc_retries: int = 0
    checkpoints_taken: int = 0
    # Per-link port statistics (queue occupancy, stalls) keyed by link name.
    link_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    # Cycle-attribution report (set when SoCRunConfig.trace.profile is on).
    profile: Optional[CycleAttribution] = None
    # Sanitizer telemetry (zero on an unsanitized run).
    sanitizer_checks: int = 0
    sanitizer_violations: int = 0


class EmeraldSoC:
    """The assembled system; create, then :meth:`run`.

    Assembly is a staged builder pipeline over the run's resolved
    :class:`~repro.common.config.SoCTopology` — events/health, memory
    endpoints, NoC, IPs, render loop, sanitizer, in that order (each
    stage consumes what the previous ones built).  A run assembled from
    the legacy name-string knobs and one assembled from the equivalent
    explicit descriptor build object-for-object identical systems.
    """

    def __init__(self, run_config: SoCRunConfig,
                 frame_source: Callable[[int], Frame],
                 framebuffer_address: int,
                 start_frame: int = 0, start_tick: int = 0) -> None:
        self.config = run_config
        self.topology = run_config.resolve_topology()
        frame_source = self._build_events_and_health(run_config, frame_source)
        self._build_memory(run_config)
        self._build_noc()
        self._build_ips(run_config, framebuffer_address)
        self._build_loop(run_config, frame_source, start_frame, start_tick)
        self._build_sanitizer(run_config)

    # -- assembly stages -----------------------------------------------------

    def _build_events_and_health(self, run_config: SoCRunConfig,
                                 frame_source: Callable[[int], Frame]
                                 ) -> Callable[[int], Frame]:
        """Event queue, tracer, and the health subsystem.

        Returns the (possibly checkpoint-observing) frame source the
        render loop should pull from.
        """
        health = run_config.health
        self.events = EventQueue(
            error_policy=health.error_policy if health is not None
            else "propagate")
        self.tracer: Optional[Tracer] = None
        if run_config.trace is not None:
            self.tracer = Tracer(
                self.events,
                categories=run_config.trace.categories,
                kernel_events=run_config.trace.kernel_events)
        self.watchdog: Optional[Watchdog] = None
        self.injector: Optional[FaultInjector] = None
        self.checkpoints: Optional[CheckpointManager] = None
        self._retry = None
        if health is not None:
            if health.watchdog:
                timeout = health.watchdog_timeout
                if health.retry is not None:
                    # The watchdog must outlast the full retry ladder, or
                    # it reports requests the NoC is still recovering.
                    timeout = max(timeout,
                                  health.retry.ladder_ticks()
                                  + health.watchdog_check_period * 2)
                self.watchdog = Watchdog(
                    self.events,
                    request_timeout=timeout,
                    check_period=health.watchdog_check_period,
                    stall_window=health.stall_window)
            if health.faults is not None and health.faults.active():
                self.injector = FaultInjector(health.faults)
            self._retry = health.retry
            if health.checkpoint_every:
                self.checkpoints = CheckpointManager(
                    health.checkpoint_every, path=health.checkpoint_path,
                    injector=self.injector,
                    preempt_check=health.preempt_check,
                    job=health.checkpoint_job,
                    topology=self.topology.topology_hash(),
                    claim=health.checkpoint_claim)
                frame_source = self.checkpoints.wrap_source(frame_source)
        return frame_source

    def _build_memory(self, run_config: SoCRunConfig) -> None:
        """One :class:`MemorySystem` per topology memory endpoint.

        ``self.memory`` is the read-side facade every consumer (GPU
        telemetry, results, stats dump) sees: the bare system for one
        endpoint, a :class:`MemoryFabric` aggregate for several.
        """
        from repro.memory.dash import DashConfig
        self.memory_endpoints = []
        self.dash_state = None
        for index, endpoint in enumerate(self.topology.memory):
            dash_config = DashConfig(
                quantum=run_config.dash_quantum_ticks,
                switching_unit=run_config.dash_switching_ticks)
            system, state = build_memory(
                self.events, endpoint,
                gpu_clock_ghz=self.topology.gpu.clock_ghz,
                dash_config=dash_config)
            if state is not None:
                self.dash_state = state
            self.memory_endpoints.append(system)
        if len(self.memory_endpoints) == 1:
            self.memory = self.memory_endpoints[0]
        else:
            # Disambiguate per-channel stat groups across endpoints
            # ("dram.ch0" would otherwise collide in the stats dump).
            for index, system in enumerate(self.memory_endpoints):
                for channel in system.channels:
                    channel.stats.name = (
                        f"dram{index}.ch{channel.channel_id}")
            self.memory = MemoryFabric(self.memory_endpoints)

    def _build_noc(self) -> None:
        noc_topo = self.topology.noc
        memory = (self.memory_endpoints[0]
                  if len(self.memory_endpoints) == 1
                  else self.memory_endpoints)
        self.noc = SystemNoC(self.events, memory,
                             latency=noc_topo.latency,
                             watchdog=self.watchdog,
                             injector=self.injector, retry=self._retry,
                             tracer=self.tracer,
                             link_budgets=noc_topo.links,
                             interleave_bytes=noc_topo.interleave_bytes)

    def _build_ips(self, run_config: SoCRunConfig,
                   framebuffer_address: int) -> None:
        self.gpu = EmeraldGPU(self.events, self.topology.gpu,
                              run_config.width, run_config.height,
                              memory=self.memory, memory_port=self.noc)
        self.cpus = CPUCluster(self.events, self.noc,
                               num_cores=self.topology.cpu.num_cores,
                               seed=run_config.seed,
                               core_types=self.topology.cpu.core_types)
        frame_bytes = run_config.width * run_config.height * 4
        self.display = DisplayController(
            self.events, self.noc,
            framebuffer_address=framebuffer_address,
            frame_bytes=frame_bytes,
            period_ticks=run_config.display_period_ticks,
            dash_state=self.dash_state,
            injector=self.injector)
        if self.dash_state is not None:
            self.dash_state.register_ip(
                SourceType.GPU, run_config.gpu_frame_period_ticks)
            self.dash_state.register_ip(
                SourceType.DISPLAY, run_config.display_period_ticks)

    def _build_loop(self, run_config: SoCRunConfig,
                    frame_source: Callable[[int], Frame],
                    start_frame: int, start_tick: int) -> None:
        self.loop = RenderLoop(
            self.events, self.gpu, self.cpus.app_core, frame_source,
            num_frames=run_config.num_frames,
            frame_period_ticks=run_config.gpu_frame_period_ticks,
            cpu_work_per_frame=run_config.cpu_work_per_frame,
            cpu_fixed_ticks=run_config.cpu_fixed_ticks,
            on_phase=self.cpus.set_phase,
            dash_state=self.dash_state,
            on_frame_done=self._frame_done,
            on_finished=self.events.request_stop,
            start_frame=start_frame)
        self._start_tick = start_tick

    def _build_sanitizer(self, run_config: SoCRunConfig) -> None:
        # Last: the sanitizer registers every component built above.
        self.sanitizer: Optional[Sanitizer] = None
        self._verified_checkpoints = 0
        if run_config.sanitize is not None:
            self.sanitizer = Sanitizer(self.events, run_config.sanitize)
            self.sanitizer.register_soc(self)

    def _frame_done(self, record: FrameRecord) -> None:
        if self.config.frame_hook is not None:
            self.config.frame_hook(record.index, self.events.now)
        if self.tracer is not None:
            # Frame-boundary counter samples of every component's counters.
            self.tracer.snapshot_stats(self.stat_groups())
        if self.checkpoints is not None:
            self.checkpoints.on_frame_done(record.index, self.events.now)
            self._verify_new_checkpoint()

    def _verify_new_checkpoint(self) -> None:
        """Round-trip every snapshot the moment it is taken (sanitizer)."""
        if (self.sanitizer is None
                or not self.sanitizer.config.verify_checkpoints
                or self.checkpoints.checkpoints_taken
                <= self._verified_checkpoints):
            return
        self._verified_checkpoints = self.checkpoints.checkpoints_taken
        try:
            verify_roundtrip(self.checkpoints.last, tick=self.events.now)
        except CheckpointMismatchViolation as violation:
            self.sanitizer.report(violation)    # re-raises in "raise" mode

    def run(self, max_events: int = 500_000_000) -> SoCResults:
        from repro.health.recovery import PreemptionRequested
        if self.sanitizer is not None:
            self.sanitizer.install()
        try:
            return self._run(max_events)
        except PreemptionRequested:
            # Cooperative stop at a checkpoint boundary — a resume point,
            # not a failure; no triage bundle.
            raise
        except SimulationError as error:
            # Typed violations and wrapped hangs alike leave a triage
            # bundle behind when the sanitizer is configured with one.
            self._write_triage(error)
            raise
        finally:
            if self.sanitizer is not None:
                self.sanitizer.uninstall()

    def _run(self, max_events: int) -> SoCResults:
        if self._start_tick:
            # Crash recovery: re-enter simulated time at the snapshot tick.
            self.events.advance_to(self._start_tick)
        self.cpus.start_background()
        self.display.start()
        self.loop.start()
        executed = 0
        while not self.loop.finished:
            # The kernel's fused drain loop does the per-event work; the
            # loop's completion callback calls events.request_stop(), which
            # returns control here after the finishing event — the same
            # stop point as the old one-step()-per-iteration loop.
            result = self.events.run(max_events=max_events - executed)
            executed += result.executed
            if result.reason is StopReason.STOPPED:
                continue                # finished flag re-checked above
            if result.drained:
                raise SimulationError(
                    "event queue drained before loop finished"
                    + self._hang_context(), tick=self.events.now)
            if not self.loop.finished:
                raise SimulationError(
                    f"event limit ({max_events}) exceeded — hung simulation?"
                    + self._hang_context(), tick=self.events.now)
        self.cpus.stop_background()
        self.display.stop()
        results = self._results()
        trace = self.config.trace
        if trace is not None and self.tracer is not None:
            if trace.path:
                self.tracer.write(trace.path)
            if trace.profile:
                results.profile = summarize(self.tracer)
        if self.sanitizer is not None and self.sanitizer.violations:
            # Record-mode runs complete; still leave the evidence behind.
            self._write_triage(self.sanitizer.violations[0])
        return results

    def _write_triage(self, error: BaseException) -> None:
        sanitize = self.config.sanitize
        if sanitize is None or not sanitize.bundle_dir:
            return
        from dataclasses import asdict

        from repro.sanitize.triage import write_bundle

        config = {"sanitize": asdict(sanitize),
                  "seed": self.config.seed,
                  "memory_config": self.config.memory_config,
                  "num_frames": self.config.num_frames}
        health = self.config.health
        if health is not None and health.faults is not None:
            config["faults"] = asdict(health.faults)
        write_bundle(
            sanitize.bundle_dir, seed=self.config.seed, error=error,
            command=sanitize.command, config=config, tracer=self.tracer,
            checkpoint=(self.checkpoints.last
                        if self.checkpoints is not None else None),
            stat_groups=self.stat_groups())

    def _hang_context(self) -> str:
        """What the watchdog knows about a stuck run (for error messages)."""
        if self.watchdog is None or not self.watchdog.in_flight:
            return ""
        oldest = self.watchdog.oldest()
        return (f" ({self.watchdog.in_flight} requests in flight; oldest "
                f"from {oldest.owner} addr=0x{oldest.address:x})")

    def stat_groups(self) -> list:
        """Every component's :class:`StatGroup`, in a stable order — the
        ``--dump-stats`` walk."""
        from repro.harness.report import gpu_stat_groups
        groups = [self.noc.stats]
        groups.extend(link.stats for link in self.noc.links)
        groups.extend(gpu_stat_groups(self.gpu))
        groups.append(self.loop.stats)
        groups.append(self.display.stats)
        groups.extend(core.stats for core in self.cpus.cores)
        groups.extend(channel.stats for channel in self.memory.channels)
        if self.watchdog is not None:
            groups.append(self.watchdog.stats)
        if self.injector is not None:
            groups.append(self.injector.stats)
        if self.sanitizer is not None:
            groups.append(self.sanitizer.stats)
        return groups

    def _link_stats(self) -> dict[str, dict[str, float]]:
        return {group.name: group.dump()
                for group in self.stat_groups()
                if group.name.endswith(".link")}

    def _results(self) -> SoCResults:
        memory = self.memory
        return SoCResults(
            config_name=(self.topology.name
                         if self.config.topology is not None
                         else self.config.memory_config),
            frames=list(self.loop.records),
            mean_gpu_time=self.loop.mean_gpu_time(),
            mean_total_time=self.loop.mean_total_time(),
            fps_fraction=self.loop.achieved_fps_fraction(),
            display_requests=self.display.requests_serviced,
            display_completed=self.display.frames_completed,
            display_aborted=self.display.frames_aborted,
            row_hit_rate=memory.row_hit_rate(),
            bytes_per_activation=memory.bytes_per_activation(),
            dram_bytes={src.value: memory.total_bytes(src)
                        for src in SourceType},
            mean_latency={src.value: memory.mean_latency(src)
                          for src in SourceType},
            bandwidth={src.value: memory.bandwidth_series(src, window=10_000)
                       for src in SourceType},
            end_tick=self.events.now,
            quarantined_errors=len(self.events.errors),
            watchdog_reports=(len(self.watchdog.reports)
                              if self.watchdog is not None else 0),
            noc_retries=self.noc.stats.counter("retries").value,
            checkpoints_taken=(self.checkpoints.checkpoints_taken
                               if self.checkpoints is not None else 0),
            link_stats=self._link_stats(),
            sanitizer_checks=(self.sanitizer.checks_run
                              if self.sanitizer is not None else 0),
            sanitizer_violations=(len(self.sanitizer.violations)
                                  if self.sanitizer is not None else 0),
        )

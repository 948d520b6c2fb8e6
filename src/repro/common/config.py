"""Configuration dataclasses and the paper's configuration presets.

Two presets mirror the paper's tables:

* :func:`case_study1_config` — Table 5 (full-system SoC: 4 CPUs, 4 SIMT
  cores, 2-channel LPDDR3).
* :func:`case_study2_gpu_config` — Table 7 (standalone GPU: 6 SIMT clusters,
  192 lanes, 4-channel LPDDR3-1600).

Both presets also come in ``scaled()`` form: identical structure with a
smaller framebuffer and cache sizes reduced proportionally, so tests and CI
benchmarks finish in seconds.  The scaling knob is explicit and documented —
the paper's absolute sizes remain the default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache."""

    size_bytes: int
    line_bytes: int = 128
    ways: int = 4
    hit_latency: int = 1
    mshr_entries: int = 32

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class SIMTCoreConfig:
    """One SIMT core (shader core), Table 2 components."""

    warp_size: int = 32
    max_warps: int = 64
    num_schedulers: int = 2
    alu_latency: int = 4
    sfu_latency: int = 16
    max_threads: int = 2048
    registers: int = 65536
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(4 * 1024, ways=4))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(16 * 1024, ways=4))
    l1t: CacheConfig = field(default_factory=lambda: CacheConfig(64 * 1024, ways=4))
    l1z: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, ways=4))
    l1c: CacheConfig = field(default_factory=lambda: CacheConfig(8 * 1024, ways=4))


@dataclass(frozen=True)
class RasterConfig:
    """Fixed-function raster pipeline parameters (Table 7)."""

    raster_tile_px: int = 4          # raster tile is NxN pixels
    tc_tile_raster_tiles: int = 2    # TC tile is NxN raster tiles
    tc_engines_per_cluster: int = 2
    tc_bins_per_engine: int = 4
    coarse_tiles_per_cycle: int = 1
    fine_tiles_per_cycle: int = 1
    hiz_tiles_per_cycle: int = 1
    hiz_enabled: bool = True
    tc_flush_timeout: int = 32       # cycles without new raster tiles


@dataclass(frozen=True)
class GPUConfig:
    """The Emerald GPU: clusters of SIMT cores plus shared L2/AOU."""

    num_clusters: int = 4
    cores_per_cluster: int = 1
    core: SIMTCoreConfig = field(default_factory=SIMTCoreConfig)
    raster: RasterConfig = field(default_factory=RasterConfig)
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(128 * 1024, ways=8, hit_latency=20))
    noc_latency: int = 8             # cluster <-> L2 interconnect latency
    vertex_batch_warps: int = 2      # vertex warps launched per core per pass
    output_vertex_buffer_vertices: int = 9 * 1024
    pmrb_entries: int = 64           # primitive-mask reorder buffer per cluster
    work_tile_size: int = 1          # WT: round-robin granularity in TC tiles
    clock_ghz: float = 1.0

    @property
    def num_cores(self) -> int:
        return self.num_clusters * self.cores_per_cluster


@dataclass(frozen=True)
class DRAMTiming:
    """Simplified LPDDR timing (in controller cycles)."""

    t_rcd: int = 15     # activate -> column command
    t_rp: int = 15      # precharge
    t_cas: int = 15     # column access strobe
    t_burst: int = 4    # data burst occupancy per access
    t_wr: int = 12      # write recovery


@dataclass(frozen=True)
class DRAMConfig:
    """Channels/ranks/banks geometry + data rate."""

    channels: int = 2
    ranks: int = 1
    banks: int = 8
    row_bytes: int = 2048
    bus_bytes: int = 4              # 32-bit wide channel
    data_rate_mbps: int = 1333      # per pin
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    queue_depth: int = 64

    @property
    def peak_bytes_per_ctrl_cycle(self) -> float:
        # double data rate bus: 2 transfers per controller cycle
        return self.bus_bytes * 2


@dataclass(frozen=True)
class DisplayConfig:
    """Display controller: resolution, refresh deadline, burst size."""

    width: int = 1024
    height: int = 768
    bytes_per_pixel: int = 4
    refresh_fps: int = 60
    burst_bytes: int = 256
    abort_fraction: float = 0.5     # abort a scanout this far behind schedule

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * self.bytes_per_pixel


@dataclass(frozen=True)
class CPUConfig:
    """CPU cluster model for the full-system mode."""

    num_cores: int = 4
    clock_ghz: float = 2.0
    l2_kb_per_core: int = 1024
    # Mean outstanding-miss traffic intensity per phase, requests per 1000
    # GPU-clock ticks (the workload model modulates around these).
    busy_intensity: float = 24.0
    idle_intensity: float = 1.0


@dataclass(frozen=True)
class SoCConfig:
    """Full-system assembly used by case study I."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    display: DisplayConfig = field(default_factory=DisplayConfig)
    framebuffer_width: int = 1024
    framebuffer_height: int = 768
    gpu_frame_period_ms: float = 33.0   # Table 3: GPU frame period (30 FPS)
    display_frame_period_ms: float = 16.0
    system_noc_latency: int = 12


def case_study1_config() -> SoCConfig:
    """Table 5: the full-system configuration of case study I."""
    core = SIMTCoreConfig(
        warp_size=32,
        l1d=CacheConfig(16 * 1024, ways=4),
        l1t=CacheConfig(64 * 1024, ways=4),
        l1z=CacheConfig(32 * 1024, ways=4),
    )
    gpu = GPUConfig(
        num_clusters=4,
        cores_per_cluster=1,
        core=core,
        l2=CacheConfig(128 * 1024, ways=8, hit_latency=20),
        clock_ghz=0.95,
    )
    return SoCConfig(
        gpu=gpu,
        cpu=CPUConfig(num_cores=4, clock_ghz=2.0),
        dram=DRAMConfig(channels=2, data_rate_mbps=1333),
        display=DisplayConfig(width=1024, height=768),
        framebuffer_width=1024,
        framebuffer_height=768,
    )


def case_study2_gpu_config() -> GPUConfig:
    """Table 7: the standalone GPU configuration of case study II."""
    core = SIMTCoreConfig(
        warp_size=32,
        max_threads=2048,
        registers=65536,
        l1d=CacheConfig(32 * 1024, ways=8),
        l1t=CacheConfig(48 * 1024, line_bytes=128, ways=24),
        l1z=CacheConfig(32 * 1024, ways=8),
    )
    raster = RasterConfig(
        raster_tile_px=4,
        tc_tile_raster_tiles=2,      # TC tile = 2x2 raster tiles (8x8 px)
        tc_engines_per_cluster=2,
        tc_bins_per_engine=4,
    )
    return GPUConfig(
        num_clusters=6,
        cores_per_cluster=1,
        core=core,
        raster=raster,
        l2=CacheConfig(2 * 1024 * 1024, ways=32, hit_latency=20),
        clock_ghz=1.0,
    )


def scaled(config: SoCConfig, width: int = 192, height: int = 144) -> SoCConfig:
    """A structurally identical SoC config with a smaller framebuffer.

    Cache and DRAM geometry are unchanged; only the rendered resolution and
    display resolution shrink so a full frame simulates in seconds.
    """
    return replace(
        config,
        display=replace(config.display, width=width, height=height),
        framebuffer_width=width,
        framebuffer_height=height,
    )


def scaled_gpu(config: GPUConfig) -> GPUConfig:
    """A smaller-cache variant of a GPU config for fast unit tests."""
    core = replace(
        config.core,
        l1d=CacheConfig(4 * 1024, ways=4),
        l1t=CacheConfig(8 * 1024, ways=4),
        l1z=CacheConfig(4 * 1024, ways=4),
        l1c=CacheConfig(2 * 1024, ways=2),
        l1i=CacheConfig(2 * 1024, ways=2),
    )
    return replace(config, core=core, l2=CacheConfig(64 * 1024, ways=8, hit_latency=20))


# ---------------------------------------------------------------------------
# Topology descriptors (DESIGN.md §11)
#
# A :class:`SoCTopology` is a typed, serializable description of *what to
# assemble*: GPU cluster count, CPU core mix, one or more DRAM subsystems
# (each with its own scheduler / router / per-channel address mappings),
# and the NoC's per-link bandwidth budgets.  The assembly path
# (:mod:`repro.memory.builders`, :mod:`repro.soc.noc`,
# :class:`repro.soc.soc.EmeraldSoC`) consumes descriptors instead of
# name-strings, and the fleet's result cache hashes them — two runs share
# a cache entry only if they simulated the same machine.
#
# Serialization is canonical-JSON round-trippable and validation is
# strict: unknown keys, wrong types and out-of-range values all raise
# :class:`ConfigError` naming the offending dotted path, never a bare
# TypeError deep inside a constructor.
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A configuration value or document failed validation.

    ``path`` names the offending field as a dotted path (``$`` is the
    document root) so sweep tooling can say *which* knob is wrong.
    """

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{path}: {message}" if path != "$" else message)
        self.path = path


def config_to_dict(obj):
    """Serialize a (possibly nested) frozen config dataclass to plain data.

    Inverse of :func:`config_from_dict`; tuples become lists (JSON has no
    tuple), scalars pass through unchanged.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: config_to_dict(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [config_to_dict(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


def _coerce(hint, value, path: str):
    """Validate ``value`` against a type hint, recursing into dataclasses."""
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is getattr(types, "UnionType", None):
        args = typing.get_args(hint)
        if value is None:
            if type(None) in args:
                return None
            raise ConfigError("must not be null", path)
        inner = [a for a in args if a is not type(None)]
        return _coerce(inner[0], value, path)
    if origin is tuple:
        item_hint = typing.get_args(hint)[0]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(
                f"expected a list, got {type(value).__name__}", path)
        return tuple(_coerce(item_hint, item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return config_from_dict(hint, value, path=path)
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(
                f"expected a boolean, got {value!r}", path)
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"expected an integer, got {value!r}", path)
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"expected a number, got {value!r}", path)
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(
                f"expected a string, got {value!r}", path)
        return value
    raise ConfigError(f"unsupported config field type {hint!r}", path)


def config_from_dict(cls, doc, path: str = "$"):
    """Parse plain data back into config dataclass ``cls``, strictly.

    Unknown keys are rejected (a typo'd knob must not silently fall back
    to its default), types are checked recursively, and any constructor
    validation error (:class:`ValueError`) is re-raised as a
    :class:`ConfigError` carrying the dotted path.
    """
    if not isinstance(doc, dict):
        raise ConfigError(
            f"expected an object for {cls.__name__}, "
            f"got {type(doc).__name__}", path)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} fields: {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(fields))})", path)
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, fld in fields.items():
        sub = f"{path}.{name}" if path != "$" else name
        if name in doc:
            kwargs[name] = _coerce(hints[name], doc[name], sub)
        elif (fld.default is dataclasses.MISSING
                and fld.default_factory is dataclasses.MISSING):
            raise ConfigError("missing required field", sub)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


#: Memory-endpoint scheduler disciplines (Table 6 column).
MEMORY_SCHEDULERS = ("frfcfs", "dash-cpu", "dash-system")
#: Memory-endpoint request routers: ``address`` decodes the channel from
#: address bits (Table 4 interleave); ``source`` partitions channels by
#: traffic class (the HMC organization).
MEMORY_ROUTERS = ("address", "source")
#: Per-channel address-mapping names (repro.memory.address_map).
CHANNEL_MAPPING_NAMES = ("baseline", "ip")
#: CPU core personality names (repro.soc.cpu.CORE_PROFILES).
CPU_CORE_TYPES = ("app", "streaming", "interactive", "background",
                  "big", "little")


@dataclass(frozen=True)
class MemoryTopology:
    """One DRAM subsystem endpoint: geometry + scheduling + routing."""

    name: str = "dram"
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    scheduler: str = "frfcfs"
    router: str = "address"
    # Per-channel address mappings; None resolves to the router's default
    # (all-baseline for ``address``, the half-and-half HMC split for
    # ``source``).
    channel_mappings: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if isinstance(self.channel_mappings, list):
            object.__setattr__(self, "channel_mappings",
                               tuple(self.channel_mappings))
        if not self.name:
            raise ConfigError("memory endpoint name must be non-empty",
                              "name")
        if self.scheduler not in MEMORY_SCHEDULERS:
            raise ConfigError(
                f"unknown scheduler {self.scheduler!r}; valid: "
                f"{', '.join(MEMORY_SCHEDULERS)}", "scheduler")
        if self.router not in MEMORY_ROUTERS:
            raise ConfigError(
                f"unknown router {self.router!r}; valid: "
                f"{', '.join(MEMORY_ROUTERS)}", "router")
        if self.router == "source" and self.dram.channels < 2:
            raise ConfigError(
                f"router 'source' partitions channels by traffic class "
                f"and needs at least 2, got {self.dram.channels}",
                "dram.channels")
        if self.channel_mappings is not None:
            if len(self.channel_mappings) != self.dram.channels:
                raise ConfigError(
                    f"{len(self.channel_mappings)} mappings for "
                    f"{self.dram.channels} channels (need one per channel)",
                    "channel_mappings")
            for i, mapping in enumerate(self.channel_mappings):
                if mapping not in CHANNEL_MAPPING_NAMES:
                    raise ConfigError(
                        f"unknown mapping {mapping!r}; valid: "
                        f"{', '.join(CHANNEL_MAPPING_NAMES)}",
                        f"channel_mappings[{i}]")


@dataclass(frozen=True)
class CPUClusterTopology:
    """The CPU side: core count and (optionally) an explicit core mix.

    ``core_types`` of None keeps the legacy graded four-profile cycle
    (bit-identical to the seed); an explicit tuple assembles asymmetric
    clusters, e.g. ``("app", "big", "little", "little")``.  Core 0 must be
    the ``app`` thread — the render loop drives it.
    """

    num_cores: int = 4
    core_types: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if isinstance(self.core_types, list):
            object.__setattr__(self, "core_types", tuple(self.core_types))
        if self.num_cores < 1:
            raise ConfigError(
                f"need at least one CPU core, got {self.num_cores}",
                "num_cores")
        if self.core_types is not None:
            if len(self.core_types) != self.num_cores:
                raise ConfigError(
                    f"{len(self.core_types)} core types for "
                    f"{self.num_cores} cores (need one per core)",
                    "core_types")
            for i, kind in enumerate(self.core_types):
                if kind not in CPU_CORE_TYPES:
                    raise ConfigError(
                        f"unknown core type {kind!r}; valid: "
                        f"{', '.join(CPU_CORE_TYPES)}", f"core_types[{i}]")
            if self.core_types[0] != "app":
                raise ConfigError(
                    f"core 0 must be 'app' (the render loop's thread), "
                    f"got {self.core_types[0]!r}", "core_types[0]")


@dataclass(frozen=True)
class NoCLinkBudget:
    """Bandwidth/capacity budget for one NoC link (None = unbounded)."""

    capacity: Optional[int] = None
    bytes_per_cycle: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError(
                f"link capacity must be >= 1, got {self.capacity}",
                "capacity")
        if self.bytes_per_cycle is not None and self.bytes_per_cycle <= 0:
            raise ConfigError(
                f"bytes_per_cycle must be positive, "
                f"got {self.bytes_per_cycle}", "bytes_per_cycle")


@dataclass(frozen=True)
class NoCTopology:
    """System NoC: latency, endpoint interleave, per-link budgets.

    ``links`` of None means every link is unbounded (bit-identical to the
    seed's pure-latency hop); otherwise one budget per memory endpoint.
    ``interleave_bytes`` is the address-interleave granularity across
    endpoints when there is more than one.
    """

    latency: int = 12
    interleave_bytes: int = 4096
    links: Optional[tuple[NoCLinkBudget, ...]] = None

    def __post_init__(self) -> None:
        if isinstance(self.links, list):
            object.__setattr__(self, "links", tuple(self.links))
        if self.latency < 0:
            raise ConfigError(
                f"latency must be non-negative, got {self.latency}",
                "latency")
        if self.interleave_bytes < 128 or self.interleave_bytes % 128:
            raise ConfigError(
                f"interleave_bytes must be a positive multiple of the "
                f"128B line size, got {self.interleave_bytes}",
                "interleave_bytes")


@dataclass(frozen=True)
class SoCTopology:
    """The full declarative machine description (see section header)."""

    name: str = "soc"
    gpu: GPUConfig = field(default_factory=GPUConfig)
    cpu: CPUClusterTopology = field(default_factory=CPUClusterTopology)
    memory: tuple[MemoryTopology, ...] = field(
        default_factory=lambda: (MemoryTopology(),))
    noc: NoCTopology = field(default_factory=NoCTopology)

    def __post_init__(self) -> None:
        if isinstance(self.memory, list):
            object.__setattr__(self, "memory", tuple(self.memory))
        if not self.memory:
            raise ConfigError("need at least one memory endpoint", "memory")
        names = [endpoint.name for endpoint in self.memory]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"memory endpoint names must be unique, got {names}",
                "memory")
        if len(self.memory) > 1:
            for i, endpoint in enumerate(self.memory):
                if endpoint.scheduler != "frfcfs":
                    # DASH is one shared classifier state wired into the
                    # render loop and display; it has no multi-endpoint
                    # story yet.
                    raise ConfigError(
                        f"scheduler {endpoint.scheduler!r} supports a "
                        f"single memory endpoint only",
                        f"memory[{i}].scheduler")
        if (self.noc.links is not None
                and len(self.noc.links) != len(self.memory)):
            raise ConfigError(
                f"{len(self.noc.links)} link budgets for "
                f"{len(self.memory)} memory endpoints (need one per "
                f"endpoint)", "noc.links")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SoCTopology":
        return config_from_dict(cls, doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SoCTopology":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON ({exc})") from exc
        return cls.from_dict(doc)

    def topology_hash(self) -> str:
        """Digest of the *structure* (the label does not change the
        machine): two topologies hash equal iff they assemble identical
        systems."""
        doc = self.to_dict()
        del doc["name"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

"""Configuration dataclasses and the paper's configuration presets.

Two presets mirror the paper's tables:

* :func:`case_study1_gpu_config` — Table 5's GPU (full-system SoC: 4 SIMT
  cores at 950 MHz, 128 KB L2).
* :func:`case_study2_gpu_config` — Table 7 (standalone GPU: 6 SIMT clusters,
  192 lanes, 2 MB L2).

The case-study harnesses derive their resolution-scaled GPUs from these
presets with :func:`dataclasses.replace`
(:func:`repro.harness.case_study1._cs1_gpu`,
:func:`repro.harness.case_study2._scaled_cs2_gpu`); :func:`scaled_gpu` is
the small-cache variant unit tests use.  Every machine field is read by
assembly and range-checked on construction (DESIGN.md §11).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field, replace
from typing import Optional


class ConfigError(ValueError):
    """A configuration value or document failed validation.

    ``path`` names the offending field as a dotted path (``$`` is the
    document root) so sweep tooling can say *which* knob is wrong.
    """

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{path}: {message}" if path != "$" else message)
        self.message = message
        self.path = path


def _at_least(config, minimum: int, names: str) -> None:
    """Refuse any field in ``names`` below ``minimum`` (counts, sizes and
    rates are at least 1; latencies and timings at least 0)."""
    for name in names.split():
        value = getattr(config, name)
        if value < minimum:
            raise ConfigError(f"must be >= {minimum}, got {value!r}", name)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache."""

    size_bytes: int
    line_bytes: int = 128
    ways: int = 4
    hit_latency: int = 1

    def __post_init__(self) -> None:
        _at_least(self, 1, "size_bytes line_bytes ways")
        _at_least(self, 0, "hit_latency")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.line_bytes}B lines",
                "size_bytes")

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
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(4 * 1024, ways=4))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(16 * 1024, ways=4))
    l1t: CacheConfig = field(default_factory=lambda: CacheConfig(64 * 1024, ways=4))
    l1z: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, ways=4))
    l1c: CacheConfig = field(default_factory=lambda: CacheConfig(8 * 1024, ways=4))

    def __post_init__(self) -> None:
        _at_least(self, 1, "warp_size max_warps num_schedulers")
        _at_least(self, 0, "alu_latency sfu_latency")


@dataclass(frozen=True)
class RasterConfig:
    """Fixed-function raster pipeline parameters (Table 7)."""

    raster_tile_px: int = 4          # raster tile is NxN pixels
    tc_tile_raster_tiles: int = 2    # TC tile is NxN raster tiles
    tc_engines_per_cluster: int = 2
    tc_bins_per_engine: int = 4
    coarse_tiles_per_cycle: int = 1
    fine_tiles_per_cycle: int = 1
    hiz_enabled: bool = True
    tc_flush_timeout: int = 32       # cycles without new raster tiles

    def __post_init__(self) -> None:
        _at_least(self, 1, "raster_tile_px tc_tile_raster_tiles "
                  "tc_engines_per_cluster tc_bins_per_engine "
                  "coarse_tiles_per_cycle fine_tiles_per_cycle")
        _at_least(self, 0, "tc_flush_timeout")


@dataclass(frozen=True)
class GPUConfig:
    """The Emerald GPU: clusters of one SIMT core each plus shared L2/AOU."""

    num_clusters: int = 4
    core: SIMTCoreConfig = field(default_factory=SIMTCoreConfig)
    raster: RasterConfig = field(default_factory=RasterConfig)
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(128 * 1024, ways=8, hit_latency=20))
    noc_latency: int = 8             # cluster <-> L2 interconnect latency
    pmrb_entries: int = 64           # primitive-mask reorder buffer per cluster
    work_tile_size: int = 1          # WT: round-robin granularity in TC tiles
    clock_ghz: float = 1.0

    def __post_init__(self) -> None:
        _at_least(self, 1, "num_clusters pmrb_entries work_tile_size")
        _at_least(self, 0, "noc_latency")
        if not self.clock_ghz > 0:
            raise ConfigError(
                f"must be positive, got {self.clock_ghz!r}", "clock_ghz")


@dataclass(frozen=True)
class DRAMTiming:
    """Simplified LPDDR timing (in controller cycles)."""

    t_rcd: int = 15     # activate -> column command
    t_rp: int = 15      # precharge
    t_cas: int = 15     # column access strobe
    t_wr: int = 12      # write recovery

    def __post_init__(self) -> None:
        _at_least(self, 0, "t_rcd t_rp t_cas t_wr")


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

    def __post_init__(self) -> None:
        _at_least(self, 1, "channels ranks banks row_bytes bus_bytes "
                  "data_rate_mbps")

    @property
    def peak_bytes_per_ctrl_cycle(self) -> float:
        # double data rate bus: 2 transfers per controller cycle
        return self.bus_bytes * 2


def case_study1_gpu_config() -> GPUConfig:
    """Table 5: the GPU of case study I's full system."""
    core = SIMTCoreConfig(
        warp_size=32,
        l1d=CacheConfig(16 * 1024, ways=4),
        l1t=CacheConfig(64 * 1024, ways=4),
        l1z=CacheConfig(32 * 1024, ways=4),
    )
    return GPUConfig(
        num_clusters=4,
        core=core,
        l2=CacheConfig(128 * 1024, ways=8, hit_latency=20),
        clock_ghz=0.95,
    )


def case_study2_gpu_config() -> GPUConfig:
    """Table 7: the standalone GPU configuration of case study II."""
    core = SIMTCoreConfig(
        warp_size=32,
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
        core=core,
        raster=raster,
        l2=CacheConfig(2 * 1024 * 1024, ways=32, hit_latency=20),
        clock_ghz=1.0,
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
    to its default), types are checked recursively, and a constructor's
    :class:`ConfigError` (whose path is relative to ``cls``) is re-raised
    with the dotted path from the document root.
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
    except ConfigError as exc:
        if path == "$":
            raise
        inner = path if exc.path == "$" else f"{path}.{exc.path}"
        raise ConfigError(exc.message, inner) from exc


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
        _at_least(self, 1, "num_cores")
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
        _at_least(self, 0, "latency")
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
        """Digest of the *structure*: 16 hex digits of the sha256 of the
        canonical :meth:`to_dict` without ``name`` (a label that changes
        no machine).

        Every hashed leaf but an endpoint's ``name`` (a label that only
        has to be unique) is read by assembly: changing one alone changes
        the simulated system (``tests/common/test_topology_contract.py``
        pins this).  Identical systems may still hash apart, because
        equivalent values do: e.g. ``row_bytes`` 2048 and 2049 (both 16
        columns) or ``noc.interleave_bytes`` on a single endpoint."""
        doc = self.to_dict()
        del doc["name"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

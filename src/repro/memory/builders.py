"""Declarative memory-subsystem assembly over :class:`MemoryTopology`.

:func:`build_memory` turns one typed memory-endpoint descriptor
(:class:`repro.common.config.MemoryTopology`: DRAM geometry, scheduler
discipline, router, per-channel address mappings) into a wired
:class:`~repro.memory.system.MemorySystem`.  The Table 6 configurations
``BAS``/``DCB``/``DTB``/``HMC`` are presets over that descriptor
(:data:`MEMORY_PRESETS`, :func:`memory_topology_by_name`), and
:func:`build_memory_by_name` builds one by its abbreviation.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import ConfigError, DRAMConfig, MemoryTopology
from repro.common.events import EventQueue
from repro.memory.address_map import (AddressMapping, BASELINE_MAPPING,
                                      IP_CHANNEL_MAPPING)
from repro.memory.dash import DashConfig, DashScheduler, DashState
from repro.memory.dram import DEFAULT_ROWS
from repro.memory.frfcfs import FRFCFSScheduler
from repro.memory.system import MemorySystem, SourceTypeRouter

#: Address-mapping name -> Table 4 mapping (repro.memory.address_map).
MAPPINGS_BY_NAME: dict[str, AddressMapping] = {
    "baseline": BASELINE_MAPPING,
    "ip": IP_CHANNEL_MAPPING,
}

#: Table 6 abbreviation -> (scheduler, router) preset.
#:
#: ``HMC`` is the heterogeneous memory controller (Nachiappan et al.): it
#: partitions the channels statically by traffic source.  CPU channels
#: keep the locality-optimized (page-striped) mapping, IP channels use
#: the parallelism-optimized (cache-line-striped) mapping of Table 4, and
#: each channel schedules FR-FCFS.  With Table 4's two channels that is
#: one channel per source class.  Case study I shows its two failure
#: modes: channel imbalance (CPU channels idle while the GPU renders) and
#: poor row locality on the IP channels, because GPU traffic, unlike
#: display scanout, is not sequential (Figs. 10 and 11).
MEMORY_PRESETS: dict[str, tuple[str, str]] = {
    "BAS": ("frfcfs", "address"),
    "DCB": ("dash-cpu", "address"),
    "DTB": ("dash-system", "address"),
    "HMC": ("frfcfs", "source"),
}

MEMORY_CONFIG_NAMES = tuple(MEMORY_PRESETS)


def memory_topology_by_name(name: str,
                            dram: Optional[DRAMConfig] = None
                            ) -> MemoryTopology:
    """The :class:`MemoryTopology` descriptor behind a Table 6 name."""
    if name not in MEMORY_PRESETS:
        raise ConfigError(
            f"unknown memory configuration {name!r}; valid names: "
            f"{', '.join(MEMORY_CONFIG_NAMES)}")
    scheduler, router = MEMORY_PRESETS[name]
    return MemoryTopology(name=name,
                          dram=dram if dram is not None else DRAMConfig(),
                          scheduler=scheduler, router=router)


def resolved_channel_mappings(topology: MemoryTopology
                              ) -> list[AddressMapping]:
    """Each channel's address mapping, with the router defaults applied.

    ``address`` routing defaults every channel to the locality-optimized
    baseline mapping; ``source`` routing (HMC) defaults to baseline on
    the CPU half and the cache-line-striped IP mapping on the IP half.
    """
    channels = topology.dram.channels
    if topology.channel_mappings is not None:
        return [MAPPINGS_BY_NAME[name] for name in topology.channel_mappings]
    if topology.router == "source":
        half = channels // 2
        return ([BASELINE_MAPPING] * half
                + [IP_CHANNEL_MAPPING] * (channels - half))
    return [BASELINE_MAPPING] * channels


def build_memory(events: EventQueue, topology: MemoryTopology,
                 gpu_clock_ghz: float = 1.0, rows: int = DEFAULT_ROWS,
                 dash_config: DashConfig | None = None
                 ) -> tuple[MemorySystem, Optional[DashState]]:
    """Assemble one memory endpoint from its descriptor.

    Returns ``(memory_system, dash_state_or_None)``; the state is the
    shared :class:`DashState` the SoC models report deadlines and
    progress into, present for the ``dash-*`` schedulers only.
    """
    config = topology.dram
    state: Optional[DashState] = None
    if topology.scheduler == "frfcfs":
        scheduler_factory = lambda _: FRFCFSScheduler()          # noqa: E731
    else:
        if dash_config is None:
            dash_config = DashConfig()
        dash_config.include_ip_bandwidth = \
            topology.scheduler == "dash-system"
        state = DashState(dash_config)
        shared = state
        scheduler_factory = lambda _: DashScheduler(shared)      # noqa: E731
    mappings = resolved_channel_mappings(topology)
    if topology.router == "address":
        system = MemorySystem(events, config, gpu_clock_ghz=gpu_clock_ghz,
                              scheduler_factory=scheduler_factory,
                              channel_mappings=mappings, rows=rows)
        return system, state
    # "source": HMC's static partition — CPU traffic to the first half of
    # the channels, IP traffic to the rest; each channel decodes its own
    # full address space (decode_channels=1).
    half = config.channels // 2
    router = SourceTypeRouter(list(range(half)),
                              list(range(half, config.channels)))
    system = MemorySystem(events, config, gpu_clock_ghz=gpu_clock_ghz,
                          scheduler_factory=scheduler_factory,
                          channel_mappings=mappings, router=router,
                          rows=rows, decode_channels=1)
    return system, state


def build_memory_by_name(name: str, events: EventQueue, config: DRAMConfig,
                         gpu_clock_ghz: float = 1.0,
                         rows: int = DEFAULT_ROWS,
                         dash_config: DashConfig | None = None):
    """Build one of the Table 6 configurations by abbreviation.

    Returns ``(memory_system, dash_state_or_None)``.  An unknown name
    raises a typed :class:`~repro.common.config.ConfigError` listing the
    valid abbreviations.  ``dash_config`` lets callers scale DASH's
    epochs (Table 3 values are wall-clock-scale; a scaled simulation
    needs proportionally scaled quanta).
    """
    topology = memory_topology_by_name(name, config)
    return build_memory(events, topology, gpu_clock_ghz=gpu_clock_ghz,
                        rows=rows, dash_config=dash_config)

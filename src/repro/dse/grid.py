"""Topology grid enumeration for design-space sweeps.

Each grid point is a complete :class:`~repro.common.config.SoCTopology`:
GPU cluster count x memory organization x DRAM data rate x CPU cluster
mix.  The memory axis trades a monolithic multi-channel controller
against NoC-separated single-channel stacks (same total channel count,
different interconnect structure) — the kind of question the paper's SoC
model exists to answer and a trace-driven setup cannot.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.config import (ConfigError, CPUClusterTopology, DRAMConfig,
                                 GPUConfig, MemoryTopology, NoCTopology,
                                 SoCTopology, scaled_gpu)

#: CPU-cluster mixes by name: ``sym`` is the legacy graded 4-core mix,
#: ``biglittle`` an asymmetric cluster (one big frame-coupled core, two
#: little background cores behind the app thread).
CPU_MIXES: dict[str, CPUClusterTopology] = {
    "sym": CPUClusterTopology(num_cores=4),
    "biglittle": CPUClusterTopology(
        num_cores=4, core_types=("app", "big", "little", "little")),
}


def _memory_endpoints(stacks: int, rate: int) -> tuple[MemoryTopology, ...]:
    """``stacks`` endpoints holding two DRAM channels total.

    One stack = one dual-channel address-interleaved controller (the
    fleet's historical default shape); two stacks = two single-channel
    controllers behind their own NoC links.
    """
    if stacks == 1:
        return (MemoryTopology(
            name="dram", dram=DRAMConfig(channels=2, data_rate_mbps=rate)),)
    return tuple(
        MemoryTopology(name=f"dram{index}",
                       dram=DRAMConfig(channels=1, data_rate_mbps=rate))
        for index in range(stacks))


def topology_grid(clusters: Sequence[int] = (2, 4),
                  stacks: Sequence[int] = (1, 2),
                  data_rates: Sequence[int] = (1333, 667),
                  cpu_mixes: Sequence[str] = ("sym",)) -> list[SoCTopology]:
    """Enumerate the full cross product as validated topologies.

    The default grid is 2x2x2x1 = 8 points.  Resolution is a workload
    property, not a topology one, so it is not an axis here.
    """
    for mix in cpu_mixes:
        if mix not in CPU_MIXES:
            raise ConfigError(
                f"unknown CPU mix {mix!r}; valid mixes: "
                f"{', '.join(CPU_MIXES)}")
    points = []
    for num_clusters in clusters:
        for num_stacks in stacks:
            for rate in data_rates:
                for mix in cpu_mixes:
                    suffix = "" if len(cpu_mixes) == 1 and mix == "sym" \
                        else f"-{mix}"
                    points.append(SoCTopology(
                        name=(f"g{num_clusters}s{num_stacks}"
                              f"r{rate}{suffix}"),
                        gpu=scaled_gpu(GPUConfig(num_clusters=num_clusters)),
                        cpu=CPU_MIXES[mix],
                        memory=_memory_endpoints(num_stacks, rate),
                        noc=NoCTopology()))
    return points

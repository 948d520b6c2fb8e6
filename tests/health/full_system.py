"""Shared tiny full-system setup for the health acceptance tests.

Small enough (48x36, 2 clusters) that a full-frame run takes a couple of
seconds, big enough to exercise CPU prepare, GPU render, display scanout,
DRAM and the NoC — the same footprint as ``python -m repro selftest``.
"""

from dataclasses import replace

from repro.common.config import NoCLinkBudget
from repro.harness.scenes import SceneSession
from repro.soc.soc import EmeraldSoC, SoCRunConfig, tiny_run_config

WIDTH, HEIGHT = 48, 36


def tiny_config(num_frames=1, health=None, sanitize=None,
                memory_config="BAS") -> SoCRunConfig:
    return tiny_run_config(memory_config, num_frames=num_frames,
                           health=health, sanitize=sanitize)


def with_link_budget(config, **budget) -> SoCRunConfig:
    """``config`` with its NoC link bounded by a :class:`NoCLinkBudget`."""
    topology = config.topology
    noc = replace(topology.noc, links=(NoCLinkBudget(**budget),))
    return replace(config, topology=replace(topology, noc=noc))


def build_soc(num_frames=1, health=None, sanitize=None):
    session = SceneSession("cube", WIDTH, HEIGHT)
    config = tiny_config(num_frames=num_frames, health=health,
                         sanitize=sanitize)
    return EmeraldSoC(config, session.frame, session.framebuffer_address)

"""Emerald reproduction: graphics modeling for SoC systems.

A from-scratch Python reproduction of *Emerald: Graphics Modeling for SoC
Systems* (Gubran & Aamodt, ISCA 2019): a unified graphics + GPGPU GPU
timing simulator, integrated into a full-SoC model with CPUs, a display
controller and a detailed DRAM subsystem.

Top-level convenience imports; see DESIGN.md for the full module map.
"""

from repro.common.config import (
    DRAMConfig,
    GPUConfig,
    SoCTopology,
    case_study1_gpu_config,
    case_study2_gpu_config,
)
from repro.common.events import EventQueue
from repro.gl.context import GLContext
from repro.gpu.dfsl import DFSLController
from repro.gpu.gpu import EmeraldGPU, GPUFrameStats
from repro.pipeline.renderer import ReferenceRenderer
from repro.soc.soc import EmeraldSoC, SoCRunConfig

__version__ = "1.0.0"

__all__ = [
    "DRAMConfig",
    "GPUConfig",
    "SoCTopology",
    "case_study1_gpu_config",
    "case_study2_gpu_config",
    "EventQueue",
    "GLContext",
    "DFSLController",
    "EmeraldGPU",
    "GPUFrameStats",
    "ReferenceRenderer",
    "EmeraldSoC",
    "SoCRunConfig",
    "__version__",
]

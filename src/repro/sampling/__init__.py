"""Fast-forward and sampled simulation (gem5/ODIN idiom, DESIGN.md §13).

Three layers compose the replay-driven speedup story:

* :mod:`repro.sampling.functional` — zero-event functional execution
  producing the same :class:`~repro.soc.checkpoint.GraphicsCheckpoint`
  a detailed run emits at frame boundaries;
* :mod:`repro.sampling.ffwd` — run N frames functional, snapshot, switch
  to detailed timing (plus :func:`verify_equivalence`, the executable
  mode-switch contract the CI gates on);
* :mod:`repro.sampling.sampler` + :mod:`windows` + :mod:`stats` —
  periodic sampling: one functional pass snapshots every detailed
  window's start, each detailed window runs alone from its snapshot, and
  the samples extrapolate FPS / DRAM / energy with Student-t error bars.
"""

from repro.sampling.ffwd import (FastForwardResult, fast_forward, fb_crc,
                                 switch_fingerprint, verify_equivalence)
from repro.sampling.functional import (RENDER_POLICIES, FunctionalSim,
                                       FunctionalSimError)
from repro.sampling.sampler import SampledRunResult, run_sampled
from repro.sampling.stats import (SAMPLE_METRICS, ExtrapolatedRun,
                                  ExtrapolationError, SampledEstimate,
                                  WindowSample, extrapolate)
from repro.sampling.windows import (Window, WindowSchedule,
                                    WindowScheduleError, parse_sample_spec)

__all__ = [
    "FastForwardResult",
    "FunctionalSim",
    "FunctionalSimError",
    "ExtrapolatedRun",
    "ExtrapolationError",
    "RENDER_POLICIES",
    "SAMPLE_METRICS",
    "SampledEstimate",
    "SampledRunResult",
    "Window",
    "WindowSchedule",
    "WindowScheduleError",
    "WindowSample",
    "extrapolate",
    "fast_forward",
    "fb_crc",
    "parse_sample_spec",
    "run_sampled",
    "switch_fingerprint",
    "verify_equivalence",
]

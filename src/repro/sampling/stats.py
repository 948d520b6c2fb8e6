"""Extrapolation statistics for sampled simulation.

Each detailed window yields one :class:`WindowSample` — per-frame means of
the metrics the case studies report (GPU time, total frame time, DRAM
bytes, energy).  :func:`extrapolate` treats the windows as independent
observations of the per-frame mean and reports, per metric, the sample
mean with its standard error (the gem5-SimPoint idiom: simulate a few
windows in detail, extrapolate the rest, and say how wrong you might be).

Math, for window means :math:`x_1..x_n`:

* estimate: :math:`\\bar{x} = \\sum x_i / n`
* sample std dev: :math:`s = \\sqrt{\\sum (x_i-\\bar{x})^2 / (n-1)}`
* standard error: :math:`SE = s / \\sqrt{n}`
* 95% CI: :math:`\\bar{x} \\pm t_{0.975,\\,n-1} \\cdot SE`, the Student-t
  quantile with :math:`n-1` degrees of freedom (:data:`T975`).  A sampled
  run has 2 or 3 windows, where the normal 1.96 would understate the
  interval 6.5x or 2.2x.

Degenerate inputs are **typed errors, not NaNs**: zero detailed windows
means there is nothing to extrapolate from, and a single window has no
variance estimate (``n - 1 = 0``) — both raise
:class:`ExtrapolationError` naming the problem instead of propagating
``nan`` into reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Metrics every sample carries (per-frame means over the window).
SAMPLE_METRICS = ("gpu_time", "total_time", "dram_bytes", "energy_uj")

#: Two-sided 95% Student-t quantiles t(0.975, df), by degrees of freedom.
T975 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 15: 2.131, 20: 2.086,
        30: 2.042, 60: 2.000, 120: 1.980}


def t975(df: int) -> float:
    """t(0.975, df) from :data:`T975`.  A df between or beyond its rows
    takes the next smaller tabulated df, whose quantile is larger: the
    interval errs wide (conservative)."""
    if df < 1:
        raise ValueError(f"a t quantile needs at least 1 degree of "
                         f"freedom, got {df}")
    return T975[max(tabulated for tabulated in T975 if tabulated <= df)]


class ExtrapolationError(ValueError):
    """Too few detailed windows to extrapolate from.

    ``windows`` carries the offending count (0 or 1) so callers — the
    CLI, the fleet worker — can report exactly how the schedule must
    change (more periods, or a longer run).
    """

    def __init__(self, message: str, windows: int) -> None:
        super().__init__(message)
        self.windows = windows


@dataclass(frozen=True)
class WindowSample:
    """Per-frame metric means measured over one detailed window.

    ``start``/``end`` are the window's frame range; ``measured_frames``
    counts the frames behind the means (warmup frames excluded).
    """

    start: int
    end: int
    measured_frames: int
    gpu_time: float          # ticks per frame
    total_time: float        # ticks per frame
    dram_bytes: float        # DRAM bytes per frame (all sources)
    energy_uj: float         # GPU energy per frame (µJ)

    def metric(self, name: str) -> float:
        if name not in SAMPLE_METRICS:
            raise KeyError(f"unknown sample metric {name!r} "
                           f"(have {SAMPLE_METRICS})")
        return getattr(self, name)


@dataclass(frozen=True)
class SampledEstimate:
    """One extrapolated metric: mean over windows, with its error bar
    (a Student-t 95% interval over ``windows - 1`` degrees of freedom)."""

    metric: str
    mean: float
    std: float               # sample standard deviation (ddof=1)
    stderr: float            # std / sqrt(windows)
    windows: int

    @property
    def ci95(self) -> tuple[float, float]:
        half = t975(self.windows - 1) * self.stderr
        return (self.mean - half, self.mean + half)

    @property
    def relative_stderr(self) -> float:
        """Error bar as a fraction of the estimate (0 when mean is 0)."""
        return self.stderr / abs(self.mean) if self.mean else 0.0

    def as_dict(self) -> dict:
        low, high = self.ci95
        return {
            "metric": self.metric,
            "mean": self.mean,
            "std": self.std,
            "stderr": self.stderr,
            "ci95": [low, high],
            "windows": self.windows,
        }


def require_windows(count: int) -> None:
    """Refuse fewer than two measured windows: zero windows has nothing
    to estimate, one window has no variance — both raise
    :class:`ExtrapolationError` (never NaN)."""
    if count == 0:
        raise ExtrapolationError(
            "no detailed windows were measured — the schedule produced "
            "nothing to extrapolate from", windows=0)
    if count == 1:
        raise ExtrapolationError(
            "a single detailed window has no variance estimate; use at "
            "least two sampling periods to get an error bar", windows=1)


def extrapolate(samples: list[WindowSample],
                metrics: tuple[str, ...] = SAMPLE_METRICS
                ) -> dict[str, SampledEstimate]:
    """Window means -> per-metric estimates with Student-t error bars.

    Requires at least two measured windows (see :func:`require_windows`).
    """
    require_windows(len(samples))
    out: dict[str, SampledEstimate] = {}
    n = len(samples)
    for name in metrics:
        values = [sample.metric(name) for sample in samples]
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(variance)
        out[name] = SampledEstimate(metric=name, mean=mean, std=std,
                                    stderr=std / math.sqrt(n), windows=n)
    return out


@dataclass
class ExtrapolatedRun:
    """Whole-run projections from per-frame estimates.

    ``estimates`` maps metric name -> :class:`SampledEstimate` (per-frame
    quantities); the properties scale them to run totals / rates the way
    the fleet worker reports detailed runs, so sampled and detailed
    results are directly comparable.
    """

    estimates: dict[str, SampledEstimate]
    total_frames: int
    frame_period_ticks: int
    samples: list[WindowSample] = field(default_factory=list)

    @property
    def fps(self) -> float:
        """Frames per 10^6 ticks, the fleet's FPS convention."""
        mean_total = self.estimates["total_time"].mean
        return 1e6 / mean_total if mean_total else 0.0

    @property
    def dram_bytes_total(self) -> float:
        return self.estimates["dram_bytes"].mean * self.total_frames

    @property
    def dram_bandwidth(self) -> float:
        """Bytes per tick against the nominal frame period clock."""
        return (self.estimates["dram_bytes"].mean / self.frame_period_ticks
                if self.frame_period_ticks else 0.0)

    @property
    def energy_uj_total(self) -> float:
        return self.estimates["energy_uj"].mean * self.total_frames

    def as_dict(self) -> dict:
        return {
            "total_frames": self.total_frames,
            "windows": [
                {"start": s.start, "end": s.end,
                 "measured_frames": s.measured_frames,
                 "gpu_time": s.gpu_time, "total_time": s.total_time,
                 "dram_bytes": s.dram_bytes, "energy_uj": s.energy_uj}
                for s in self.samples
            ],
            "estimates": {name: est.as_dict()
                          for name, est in self.estimates.items()},
            "fps": self.fps,
            "dram_bytes_total": self.dram_bytes_total,
            "dram_bandwidth": self.dram_bandwidth,
            "energy_uj_total": self.energy_uj_total,
        }

"""Periodic sampling schedules (gem5-SimPoint style).

A :class:`WindowSchedule` partitions a run's frame range into
*functional* windows (replayed with zero timing events) and *detailed*
windows (full timing model): every ``period`` frames, ``detail`` of them
run detailed, starting at frame ``offset``.  The first ``warmup`` frames
of each detailed window are executed in detail but excluded from the
samples — a switch into detailed mode starts from the documented
cold-reset microarchitectural state (DESIGN.md §13), so the first
frame(s) of a window carry cold-cache transients the extrapolation
should not average in.

Schedules are validated at construction with typed
:class:`WindowScheduleError`\\ s; :func:`parse_sample_spec` turns the CLI's
``DETAIL:PERIOD[:WARMUP]`` string into a schedule.
"""

from __future__ import annotations

from dataclasses import dataclass


class WindowScheduleError(ValueError):
    """A sampling schedule (or its CLI spec) failed validation."""


@dataclass(frozen=True)
class Window:
    """One contiguous frame range executed in a single mode.

    ``start`` is inclusive, ``end`` exclusive.  For detailed windows,
    ``measure_from`` is the first frame whose stats enter the samples
    (frames in ``[start, measure_from)`` are per-window warmup);
    functional windows measure nothing.
    """

    start: int
    end: int
    kind: str                 # "functional" | "detailed"
    measure_from: int = 0

    @property
    def frames(self) -> int:
        return self.end - self.start

    @property
    def measured_frames(self) -> int:
        if self.kind != "detailed":
            return 0
        return max(0, self.end - self.measure_from)


@dataclass(frozen=True)
class WindowSchedule:
    """Functional and detailed frame windows over one run.

    Every ``period`` frames, the ``detail`` frames starting at
    ``offset + k * period`` run in full timing; everything else runs
    functional-only.  ``warmup`` leading frames of each detailed window
    are executed but unmeasured.
    """

    total_frames: int
    period: int
    detail: int
    warmup: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.total_frames <= 0:
            raise WindowScheduleError(
                f"total_frames must be positive, got {self.total_frames}")
        if self.period <= 0:
            raise WindowScheduleError(
                f"period must be positive, got {self.period}")
        if not 0 < self.detail <= self.period:
            raise WindowScheduleError(
                f"detail must be in [1, period={self.period}], "
                f"got {self.detail}")
        if not 0 <= self.warmup < self.detail:
            raise WindowScheduleError(
                f"warmup must be in [0, detail={self.detail}), "
                f"got {self.warmup} — every detailed window needs at "
                f"least one measured frame")
        if not 0 <= self.offset < self.period:
            raise WindowScheduleError(
                f"offset must be in [0, period={self.period}), "
                f"got {self.offset}")

    def windows(self) -> tuple[Window, ...]:
        """The run partitioned into an ordered, gap-free window sequence.

        Invariants (pinned by tests/sampling/test_windows.py): windows
        tile ``[0, total_frames)`` exactly — sorted, non-overlapping, no
        gaps — and modes alternate when ``detail < period`` (``detail ==
        period`` packs back-to-back detailed windows, one per cycle).  A
        detailed window truncated by the end of the run keeps its warmup
        prefix, so a truncation below ``warmup`` frames yields a window
        with zero measured frames.
        """
        out: list[Window] = []
        position = 0
        cycle = 0
        while position < self.total_frames:
            detail_start = self.offset + cycle * self.period
            if position < detail_start:
                out.append(Window(
                    start=position,
                    end=min(detail_start, self.total_frames),
                    kind="functional"))
                position = out[-1].end
                if position >= self.total_frames:
                    break
            detail_end = min(detail_start + self.detail, self.total_frames)
            if detail_end > position:
                out.append(Window(
                    start=position, end=detail_end, kind="detailed",
                    measure_from=min(position + self.warmup, detail_end)))
                position = detail_end
            cycle += 1
        return tuple(out)

    # -- derived counts ------------------------------------------------------

    def detailed_frames(self) -> int:
        return sum(w.frames for w in self.windows() if w.kind == "detailed")

    def functional_frames(self) -> int:
        return sum(w.frames for w in self.windows() if w.kind == "functional")

    def measured_windows(self) -> int:
        """Detailed windows contributing at least one sample."""
        return sum(1 for w in self.windows() if w.measured_frames > 0)

    @property
    def coverage(self) -> float:
        """Fraction of the run executed in detail (the cost driver)."""
        return self.detailed_frames() / self.total_frames

    def spec(self) -> str:
        """The ``DETAIL:PERIOD:WARMUP`` string this schedule round-trips to."""
        return f"{self.detail}:{self.period}:{self.warmup}"


def parse_sample_spec(spec: str, total_frames: int,
                      offset: int = 0) -> WindowSchedule:
    """Parse the CLI's ``DETAIL:PERIOD[:WARMUP]`` sampling spec.

    ``"2:8"`` = 2 detailed frames out of every 8; warmup defaults to 1
    when the detailed window is longer than one frame (so at least one
    measured frame survives), 0 otherwise.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise WindowScheduleError(
            f"sample spec must be DETAIL:PERIOD[:WARMUP], got {spec!r}")
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise WindowScheduleError(
            f"sample spec fields must be integers, got {spec!r}") from None
    detail, period = numbers[0], numbers[1]
    warmup = numbers[2] if len(numbers) == 3 else (1 if detail > 1 else 0)
    return WindowSchedule(total_frames=total_frames, period=period,
                          detail=detail, warmup=warmup, offset=offset)

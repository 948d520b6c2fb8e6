"""Host speed: a fixed calibration loop timed around every timed call.

On a shared host the CPU's speed changes under the program.  On the
2-vCPU sandbox the benchmark was tuned on it switched between two states
about 1.8x apart every few seconds, and medians over 40-second windows
still differed by a sixth; a program's host time moves with it.  A fixed
pure-Python loop (method calls, attribute and dict
traffic, a list used as a queue, small numpy array arithmetic: the
simulator's mix) slows down with the host.  The benchmark times the loop
just before and just after each timed call, on the same CPU, and reports
the call's *corrected* time: its host seconds times the host's speed at
the time, relative to the loop's reference time ``REFERENCE_S``, raised to
``SENSITIVITY``.  A program change moves the call and not the loop, so it
shows in full; a host phase moves both, and mostly cancels.

Work that waits on the disk as well (the fleet's cache-served reruns, half
of whose time is the journal's fsyncs) is corrected by the loop plus a
fixed run of fsynced appends, against the sum of their reference times.

The raw host seconds are reported beside the corrected ones (README.md,
"Host speed").
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: The loop's host seconds at the tuning sandbox's usual speed (a 2-vCPU
#: Intel Xeon VM at 2.1 GHz, CPython 3.11.7).  It only sets the scale: a
#: corrected time is the time the call would have taken at the speed at
#: which one pass of the loop takes this long.
REFERENCE_S = 0.0048
#: How much the simulator slows down for a given slowdown of the loop, as
#: an exponent: in the sandbox's slow phases the loop ran 1.8x slower and
#: the simulator 1.5x.  Over 63 recorded units of soc_fig14 and gpu_cs2
#: the corrected unit times were steadiest at 0.8 (IQR over median 6.7%
#: and 9.2%, against 11% and 12% at 1.0 and 35% and 32% uncorrected).
SENSITIVITY = 0.8
#: Loop iterations per pass, and passes per sample (their median).
ITERATIONS = 12_000
PASSES = 3
#: Small fsynced appends per disk sample, and their host seconds on the
#: tuning sandbox.
DISK_APPENDS = 20
DISK_REFERENCE_S = 0.0024


class _Probe:
    __slots__ = ("count", "table")

    def __init__(self) -> None:
        self.count = 0
        self.table: dict = {}

    def step(self, key: int, value: int) -> int:
        self.count += 1
        self.table[key] = value
        return self.count


def _pass() -> float:
    start = time.perf_counter()
    probe = _Probe()
    lanes = np.arange(32, dtype=np.float64)
    total = 0
    queue: list = []
    for index in range(ITERATIONS):
        total += probe.step(index & 255, total) & 7
        queue.append(index)
        if len(queue) > 16:
            queue.pop(0)
        if index & 7 == 0:
            lanes = lanes * 0.5 + 1.0
    return time.perf_counter() - start


def loop_seconds() -> float:
    """Host seconds of one pass of the loop now (median of a few)."""
    return statistics.median(_pass() for _ in range(PASSES))


def disk_seconds(path: str) -> float:
    """Host seconds of ``DISK_APPENDS`` small appends to ``path``, each
    flushed and fsynced."""
    start = time.perf_counter()
    with open(path, "a", encoding="utf-8") as handle:
        for _ in range(DISK_APPENDS):
            handle.write("calibration\n")
            handle.flush()
            os.fsync(handle.fileno())
    return time.perf_counter() - start


def speed(loop: float, reference: float = REFERENCE_S) -> float:
    """The factor that corrects host seconds spent while a calibration
    sample whose reference time is ``reference`` took ``loop`` seconds."""
    return (reference / loop) ** SENSITIVITY


class Timed:
    """Times calls and corrects each for the host's speed during it.

    ``walls`` holds the calls' host seconds, ``corrected`` the same times
    at the reference speed, in call order.  The loop is timed before and
    after a call and, through ``split``, at points inside it (the
    simulator's frame boundaries): each stretch between two samples is
    corrected by their mean, and the samples' own time is left out.  With
    ``calibrate`` off (the traced run, whose ledger must see only the
    calls) nothing is sampled or corrected.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.walls: list = []
        self.corrected: list = []
        self._marks: list = []        # (begin, end, loop seconds) samples

    def _sample(self) -> None:
        begin = time.perf_counter()
        loop = loop_seconds() if self.calibrate else REFERENCE_S
        self._marks.append((begin, time.perf_counter(), loop))

    def split(self) -> None:
        """Sample the loop now, inside the running call."""
        if self.calibrate and self._marks:
            self._sample()

    def call(self, func, *args):
        """``func(*args)``, timed; an exception is returned, not raised."""
        global _active
        self._marks = []
        self._sample()
        _active = self
        try:
            output = func(*args)
        except Exception as exc:              # the caller counts it failed
            output = exc
        finally:
            _active = None
        self._sample()
        marks, self._marks = self._marks, []
        wall = corrected = 0.0
        for (_, end, loop), (begin, _, next_loop) in zip(marks, marks[1:]):
            wall += begin - end
            corrected += (begin - end) * speed((loop + next_loop) / 2)
        self.walls.append(wall)
        self.corrected.append(corrected)
        return output

    def add(self, wall: float, loop: float,
            reference: float = REFERENCE_S) -> None:
        """Record a call of ``wall`` host seconds timed elsewhere, with the
        calibration sample's host seconds around it (``reference``: its
        reference time)."""
        self.walls.append(wall)
        self.corrected.append(wall * speed(loop, reference))

    def note(self, what: str) -> str:
        """One report line: raw and corrected medians and their ratio."""
        raw = statistics.median(self.walls)
        fixed = statistics.median(self.corrected)
        return (f"{what}: median {raw:.4f} host s, {fixed:.4f} corrected s "
                f"(factor {raw and fixed / raw:.2f}), n={len(self.walls)}")


#: The ``Timed`` whose call is running, for ``split``.
_active = None


def split(*_) -> None:
    """Sample the loop inside the running timed call, if any; usable as a
    simulator ``frame_hook``."""
    if _active is not None:
        _active.split()

"""Cycle-attribution tracer: Chrome Trace Event Format recording.

The tracer is the observability half of the simulator: it records *where
ticks go* inside a run — frame phases, per-draw spans, DRAM bursts,
memory-request flights, scheduler activity — as Chrome Trace Event Format
records (JSON loadable in Perfetto or ``chrome://tracing``), which the
in-process profiler (:mod:`repro.trace.profiler`) reduces into a
cycle-attribution report.

Attachment model (the overhead contract, DESIGN.md §8):

* a :class:`Tracer` binds to an :class:`~repro.common.events.EventQueue`
  by setting ``events.tracer``; every instrumented component reaches it
  through the queue it already holds, so tracing needs **no constructor
  plumbing**;
* with no tracer attached every hook is a single ``is None`` check — the
  seed's event schedule is preserved bit-identically;
* with a tracer attached, hooks only *record*: the tracer never schedules
  events, never touches statistics and never draws randomness, so an
  enabled trace still reproduces the golden stats / framebuffer CRC /
  event count exactly (enforced by test).

Record vocabulary (Chrome Trace Event Format phases):

* ``B``/``E`` — nested duration spans per track (frame phases, draws,
  core-busy windows, display scanout);
* ``X`` — complete spans with explicit start/duration (DRAM data-bus
  bursts, emitted at commit time);
* ``b``/``e`` — async spans keyed by id (overlapping memory-request
  flights through the NoC);
* ``C`` — counter samples (queue depths, in-flight counts, StatGroup
  snapshots — the latter carry ``cat="monotonic"``);
* ``i`` — instants (retries, aborts);
* ``M`` — metadata naming the process and each track.

Simulation ticks map 1:1 onto the format's microsecond timestamps, so one
displayed "us" is one tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

#: Record categories emitted by the built-in hooks.  ``kernel`` (one
#: instant per scheduled/fired event) is off by default — it multiplies
#: the record count by the event count and exists for kernel debugging.
DEFAULT_CATEGORIES = frozenset({"phase", "mem", "dram", "counter",
                                "monotonic", "instant"})

PID = 1


@dataclass
class TraceConfig:
    """Opt-in switch for tracing a run (``SoCRunConfig.trace``)."""

    path: Optional[str] = None          # write Chrome-trace JSON here
    profile: bool = False               # reduce into a cycle report
    categories: Optional[Iterable[str]] = None   # None = DEFAULT_CATEGORIES
    kernel_events: bool = False         # per-event instants (verbose)


class TraceError(RuntimeError):
    """A component violated the span protocol (unbalanced begin/end)."""


class Tracer:
    """Collects Chrome-trace records against one event queue's clock.

    Constructing a tracer attaches it (``events.tracer = self``); there is
    at most one per queue — re-attaching replaces the previous tracer.
    """

    def __init__(self, events, categories: Optional[Iterable[str]] = None,
                 kernel_events: bool = False,
                 process_name: str = "emerald") -> None:
        self.events = events
        self.categories = (frozenset(categories) if categories is not None
                           else DEFAULT_CATEGORIES)
        if kernel_events:
            self.categories = self.categories | {"kernel"}
        self.kernel_events = kernel_events
        self._records: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": PID, "tid": 0,
            "args": {"name": process_name},
        }]
        self._tids: dict[str, int] = {}
        self._open: dict[int, list[str]] = {}       # tid -> B/E name stack
        self._next_async_id = 1
        self._scheduled: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        events.tracer = self

    # -- track bookkeeping -------------------------------------------------------

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
            self._records.append({
                "name": "thread_name", "ph": "M", "pid": PID, "tid": tid,
                "args": {"name": track},
            })
        return tid

    def enabled(self, cat: str) -> bool:
        return cat in self.categories

    @property
    def num_records(self) -> int:
        return len(self._records)

    def next_async_id(self) -> int:
        aid = self._next_async_id
        self._next_async_id += 1
        return aid

    # -- span / counter / instant emission ---------------------------------------

    def begin(self, track: str, name: str, cat: str = "phase",
              args: Optional[dict] = None) -> None:
        """Open a nested duration span on ``track`` (Chrome ``B``)."""
        if cat not in self.categories:
            return
        tid = self._tid(track)
        self._open.setdefault(tid, []).append(name)
        record = {"name": name, "ph": "B", "ts": self.events.now,
                  "pid": PID, "tid": tid, "cat": cat}
        if args:
            record["args"] = args
        self._records.append(record)

    def end(self, track: str, name: Optional[str] = None,
            cat: str = "phase", args: Optional[dict] = None) -> None:
        """Close the innermost open span on ``track`` (Chrome ``E``).

        When ``name`` is given it must match the span being closed —
        mismatches are component bugs and raise :class:`TraceError`.
        """
        if cat not in self.categories:
            return
        tid = self._tid(track)
        stack = self._open.get(tid)
        if not stack:
            raise TraceError(f"end({track!r}, {name!r}) with no open span")
        open_name = stack.pop()
        if name is not None and name != open_name:
            raise TraceError(f"end({track!r}, {name!r}) does not match the "
                             f"open span {open_name!r}")
        record = {"name": open_name, "ph": "E", "ts": self.events.now,
                  "pid": PID, "tid": tid, "cat": cat}
        if args:
            record["args"] = args
        self._records.append(record)

    def complete(self, track: str, name: str, start: int, end: int,
                 cat: str = "phase", args: Optional[dict] = None) -> None:
        """One self-contained span with explicit bounds (Chrome ``X``)."""
        if cat not in self.categories:
            return
        record = {"name": name, "ph": "X", "ts": int(start),
                  "dur": int(end) - int(start), "pid": PID,
                  "tid": self._tid(track), "cat": cat}
        if args:
            record["args"] = args
        self._records.append(record)

    def instant(self, track: str, name: str, cat: str = "instant",
                args: Optional[dict] = None) -> None:
        if cat not in self.categories:
            return
        record = {"name": name, "ph": "i", "ts": self.events.now,
                  "pid": PID, "tid": self._tid(track), "cat": cat,
                  "s": "t"}
        if args:
            record["args"] = args
        self._records.append(record)

    def counter(self, track: str, name: str, value: float,
                monotonic: bool = False) -> None:
        """Sample one counter value (Chrome ``C``).

        ``monotonic`` tags the record ``cat="monotonic"`` — the trace
        validator enforces that such series never decrease.
        """
        cat = "monotonic" if monotonic else "counter"
        if cat not in self.categories:
            return
        self._records.append({
            "name": name, "ph": "C", "ts": self.events.now, "pid": PID,
            "tid": self._tid(track), "cat": cat, "args": {name: value},
        })

    def async_begin(self, track: str, name: str, async_id: int,
                    cat: str = "mem", args: Optional[dict] = None) -> None:
        """Open an overlap-capable span keyed by id (Chrome ``b``)."""
        if cat not in self.categories:
            return
        record = {"name": name, "ph": "b", "ts": self.events.now,
                  "pid": PID, "tid": self._tid(track), "cat": cat,
                  "id": async_id}
        if args:
            record["args"] = args
        self._records.append(record)

    def async_end(self, track: str, name: str, async_id: int,
                  cat: str = "mem", args: Optional[dict] = None) -> None:
        if cat not in self.categories:
            return
        record = {"name": name, "ph": "e", "ts": self.events.now,
                  "pid": PID, "tid": self._tid(track), "cat": cat,
                  "id": async_id}
        if args:
            record["args"] = args
        self._records.append(record)

    # -- event-kernel sink -------------------------------------------------------

    def kernel_scheduled(self, event) -> None:
        """EventQueue hook: an event was scheduled."""
        owner = event.owner or "(anonymous)"
        self._scheduled[owner] = self._scheduled.get(owner, 0) + 1
        if self.kernel_events:
            self.instant("kernel", f"schedule:{owner}", cat="kernel")

    def kernel_fired(self, event) -> None:
        """EventQueue hook: an event's callback is about to run."""
        owner = event.owner or "(anonymous)"
        self._fired[owner] = self._fired.get(owner, 0) + 1
        if self.kernel_events:
            self.instant("kernel", f"fire:{owner}", cat="kernel")

    # -- StatGroup snapshots -----------------------------------------------------

    def snapshot_stats(self, groups: Iterable) -> None:
        """Emit every group's plain counters as monotonic counter samples.

        Called at frame boundaries; only :class:`~repro.common.stats.Counter`
        values are emitted (rates and histogram means are not monotonic and
        would pollute the counter tracks).
        """
        for group in groups:
            track = f"stats.{group.name}"
            for name, counter in group._counters.items():
                self.counter(track, name, counter.value, monotonic=True)

    # -- export ------------------------------------------------------------------

    def close_open_spans(self) -> None:
        """Emit ``E`` records for spans still open (run ended mid-span)."""
        now = self.events.now
        for tid, stack in self._open.items():
            while stack:
                self._records.append({
                    "name": stack.pop(), "ph": "E", "ts": now, "pid": PID,
                    "tid": tid, "cat": "phase",
                    "args": {"closed_at_export": True},
                })

    def to_dict(self) -> dict:
        """The full trace as a Chrome Trace Event Format object."""
        self.close_open_spans()
        return {
            "traceEvents": list(self._records),
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "1 tick == 1 us",
                "end_tick": self.events.now,
                "events_scheduled": dict(sorted(self._scheduled.items())),
                "events_fired": dict(sorted(self._fired.items())),
            },
        }

    def write(self, path: str) -> dict:
        """Serialize the trace to ``path``; returns the written object."""
        import json
        payload = self.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        return payload


def load_trace(path: str) -> dict:
    """Load a Chrome-trace JSON file written by :meth:`Tracer.write`."""
    import json
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

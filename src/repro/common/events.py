"""Discrete-event simulation kernel.

The whole simulator is driven by a single event heap, in the style of gem5's
event queue: components never busy-wait on cycles, they schedule callbacks at
future times.  Simulation time is an integer number of *ticks*; each model
decides its own tick <-> cycle mapping (the GPU model uses one tick per GPU
cycle, the SoC model converts component clocks into GPU-cycle ticks).

Events scheduled at the same tick fire in FIFO scheduling order, which keeps
runs deterministic regardless of heap tie-breaking.

Robustness (the ``repro.health`` subsystem builds on these hooks):

* :meth:`EventQueue.run` / :meth:`EventQueue.run_until` return a
  :class:`RunResult` stating *why* the loop stopped (queue drained, event
  budget exhausted, time horizon reached) instead of a bare count;
* events carry optional provenance (owning component, schedule site) and a
  raising callback can be wrapped into a :class:`SimulationError` that
  reports it — with a configurable fail-fast vs. quarantine-and-continue
  policy (``propagate`` keeps the seed behaviour of re-raising unchanged).

Performance (DESIGN.md §12): the queue is a calendar kernel that drains
all same-tick events from a FIFO bucket instead of re-heapifying per
event — MGSim's kernel idiom.  Ordering proof sketch: the bucket for tick
T is filled from the heap in ascending ``seq`` order (heap pops at equal
time break ties on ``seq``), and any event scheduled *at* T while T is
draining carries a ``seq`` larger than every event already issued, so
appending it at the tail preserves the global (time, seq) total order of
a plain one-pop-per-event heap exactly; the golden tests pin this.
"""

from __future__ import annotations

import enum
import heapq
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """A callback raised inside the event loop.

    Carries event provenance so a failure deep in a frame is diagnosable:
    the owning component (when the scheduler was told), the schedule site
    (when provenance capture is enabled), and the tick at which the event
    fired.  The original exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, tick: int = 0,
                 owner: Optional[str] = None,
                 site: Optional[str] = None,
                 callback_name: Optional[str] = None) -> None:
        super().__init__(message)
        self.tick = tick
        self.owner = owner
        self.site = site
        self.callback_name = callback_name

    @classmethod
    def from_event(cls, event: "Event", tick: int,
                   cause: BaseException) -> "SimulationError":
        name = getattr(event.callback, "__qualname__",
                       repr(event.callback))
        parts = [f"event callback {name} raised "
                 f"{type(cause).__name__}: {cause}",
                 f"tick={tick}"]
        if event.owner:
            parts.append(f"owner={event.owner}")
        if event.site:
            parts.append(f"scheduled at {event.site}")
        return cls("; ".join(parts), tick=tick, owner=event.owner,
                   site=event.site, callback_name=name)


class StopReason(enum.Enum):
    """Why an event-loop run returned."""

    DRAINED = "drained"          # no live events remain
    BUDGET = "budget"            # max_events executed
    HORIZON = "horizon"          # next event lies beyond the time limit
    STOPPED = "stopped"          # a callback called request_stop()


@dataclass(frozen=True)
class RunResult:
    """Outcome of :meth:`EventQueue.run` / :meth:`EventQueue.run_until`."""

    executed: int
    reason: StopReason

    @property
    def drained(self) -> bool:
        return self.reason is StopReason.DRAINED


class Event:
    """A scheduled callback.

    The queue orders events by (time, sequence number) so simultaneous
    events fire in the order they were scheduled; the ordering lives in
    the heap entries (plain tuples, compared at C speed), not here.

    A ``__slots__`` class rather than a dataclass: one is constructed per
    scheduled event — millions per simulated frame — and slot storage both
    shrinks the instance and speeds attribute access on the hot path.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "owner", "site")

    def __init__(self, time: int, seq: int, callback: Callable[..., Any],
                 args: tuple = (), owner: Optional[str] = None,
                 site: Optional[str] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner = owner
        self.site = site

    def cancel(self) -> None:
        """Deschedule this event; a cancelled event's callback never runs."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        flags = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time}, seq={self.seq}, "
                f"callback={name}{flags})")


#: Error policies for :class:`EventQueue`.
ERROR_POLICIES = ("propagate", "wrap", "quarantine")


class EventQueue:
    """A deterministic discrete-event scheduler.

    ``error_policy`` controls what happens when a callback raises:

    * ``"propagate"`` (default) — re-raise unchanged (seed behaviour);
    * ``"wrap"`` — fail fast with a :class:`SimulationError` carrying the
      event's provenance, chaining the original exception;
    * ``"quarantine"`` — record the wrapped error in :attr:`errors` and
      keep running (a poisoned component is sidelined, the frame survives).

    >>> q = EventQueue()
    >>> fired = []
    >>> _ = q.schedule(5, fired.append, "a")
    >>> _ = q.schedule(3, fired.append, "b")
    >>> q.run().reason
    <StopReason.DRAINED: 'drained'>
    >>> fired
    ['b', 'a']
    """

    def __init__(self, error_policy: str = "propagate",
                 debug_provenance: bool = False) -> None:
        if error_policy not in ERROR_POLICIES:
            raise ValueError(f"error_policy must be one of {ERROR_POLICIES},"
                             f" got {error_policy!r}")
        # Heap entries are (time, seq, event) tuples: tuple comparison runs
        # in C, which matters at millions of events per simulated frame.
        self._heap: list[tuple[int, int, Event]] = []
        self._now: int = 0
        self._seq: int = 0
        self._events_fired: int = 0
        # Calendar bucket: the FIFO of events at the tick currently being
        # drained.  ``_bucket_time`` is the tick the bucket belongs to
        # (-1 = no bucket yet); schedule() appends same-tick work here
        # directly, skipping the heap round-trip.
        self._bucket: deque[Event] = deque()
        self._bucket_time: int = -1
        self._stop_requested = False
        self.error_policy = error_policy
        self.debug_provenance = debug_provenance
        self.errors: list[SimulationError] = []
        # Optional trace sink (repro.trace.Tracer attaches itself here).
        # Hooks below are a single None check when tracing is off, so the
        # kernel's event schedule is untouched either way.
        self.tracer = None
        # Optional invariant checker (repro.sanitize.Sanitizer attaches
        # itself here); its per-event hook rides the fired-event cadence
        # so age scans never schedule events of their own.
        self.sanitizer = None

    @property
    def now(self) -> int:
        """Current simulation time in ticks."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for debugging/limits)."""
        return self._events_fired

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any,
                 owner: Optional[str] = None) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + int(delay), callback, args, owner)

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any,
                    owner: Optional[str] = None) -> Event:
        """Schedule ``callback(*args)`` at absolute tick ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        return self._push(int(time), callback, args, owner)

    def _push(self, time: int, callback: Callable[..., Any], args: tuple,
              owner: Optional[str]) -> Event:
        seq = self._seq
        # Event construction spelled out (__new__ + slot stores) to skip
        # the __init__ call frame — this is the per-event allocation site.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.owner = owner
        event.site = None
        self._seq = seq + 1
        if self.debug_provenance:
            event.site = self._capture_site()
        if time == self._bucket_time:
            # Same-tick schedule while (or after) that tick's bucket is
            # live: the new seq exceeds every pending one, so a tail
            # append preserves (time, seq) order with no heap traffic.
            self._bucket.append(event)
        else:
            heapq.heappush(self._heap, (time, seq, event))
        if self.tracer is not None:
            self.tracer.kernel_scheduled(event)
        return event

    @staticmethod
    def _capture_site() -> Optional[str]:
        """First stack frame outside this module (``file:line``)."""
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename == __file__:
            frame = frame.f_back
        if frame is None:
            return None
        return f"{frame.f_code.co_filename}:{frame.f_lineno}"

    def advance_to(self, time: int) -> None:
        """Jump ``now`` forward with no events in between (checkpoint
        restore: a resumed run re-enters simulated time at the snapshot
        tick).  Refuses to travel backwards or over pending events."""
        if time < self._now:
            raise ValueError(
                f"cannot advance into the past (time={time}, now={self._now})")
        next_time = self.peek_time()
        if next_time is not None and next_time < time:
            raise ValueError(
                f"cannot advance over pending events (next={next_time}, "
                f"target={time})")
        self._now = int(time)

    def empty(self) -> bool:
        """True when no live events remain."""
        return self.peek_time() is None

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` when the queue is empty."""
        bucket = self._bucket
        while bucket and bucket[0].cancelled:
            bucket.popleft()
        if bucket:
            return self._bucket_time
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        bucket = self._bucket
        while bucket:
            event = bucket.popleft()
            if not event.cancelled:
                return self._fire(event)
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return False
        time, _, event = heapq.heappop(heap)
        self._now = time
        self._bucket_time = time
        # Pull the whole same-tick cohort out of the heap in one pass
        # (pops at equal time come out in seq order); the drain above
        # then runs them FIFO with no further heap traffic.
        while heap and heap[0][0] == time:
            bucket.append(heapq.heappop(heap)[2])
        return self._fire(event)

    def _fire(self, event: Event) -> bool:
        """Execute one event at ``self._now`` under the error policy."""
        self._events_fired += 1
        if self.tracer is not None:
            self.tracer.kernel_fired(event)
        if self.sanitizer is not None:
            # May raise a SanitizerViolation; deliberately outside the
            # error-policy wrapping below — a violation is a verdict, not
            # a component fault to quarantine.
            self.sanitizer.on_event(self._now, self._events_fired)
        # The policy check lives in the except clause so the happy path
        # pays nothing for it (try/except entry is free on CPython 3.11).
        try:
            event.callback(*event.args)
        except SimulationError:
            raise               # already wrapped (e.g. a watchdog report)
        except Exception as exc:
            self._apply_error_policy(event, exc)
        return True

    def _apply_error_policy(self, event: Event, exc: Exception) -> None:
        """Shared except-clause body for :meth:`_fire` and :meth:`run`.

        Must be called from inside an active ``except`` block (the bare
        ``raise`` re-raises the exception being handled)."""
        if self.error_policy == "propagate":
            raise
        error = SimulationError.from_event(event, self._now, exc)
        error.__cause__ = exc
        if self.error_policy == "quarantine":
            self.errors.append(error)
        else:
            raise error from exc

    def run(self, max_events: Optional[int] = None) -> RunResult:
        """Run until the queue drains (or ``max_events`` fire).

        Returns a :class:`RunResult` saying how many events executed and
        *why* the loop stopped — callers must not infer "finished" from a
        count alone (a drained queue and an exhausted budget can both
        return ``max_events``).  A callback may call :meth:`request_stop`
        to make the loop return (reason ``STOPPED``) after that event.

        This is the whole-simulation hot loop: the pop/fire cycle of
        step()+_fire() is fused into one frame (no per-event method
        calls, locals bound once).  It fires the exact same events in the
        exact same (time, seq) order as repeated :meth:`step` calls.
        """
        budget = sys.maxsize if max_events is None else max_events
        count = 0
        heappop = heapq.heappop
        heap = self._heap
        bucket = self._bucket
        self._stop_requested = False
        while count < budget:
            event = None
            while bucket:
                head = bucket.popleft()
                if not head.cancelled:
                    event = head
                    break
            if event is None:
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                if not heap:
                    return RunResult(count, StopReason.DRAINED)
                time, _, event = heappop(heap)
                self._now = time
                self._bucket_time = time
                while heap and heap[0][0] == time:
                    bucket.append(heappop(heap)[2])
            self._events_fired += 1
            if self.tracer is not None:
                self.tracer.kernel_fired(event)
            if self.sanitizer is not None:
                self.sanitizer.on_event(self._now, self._events_fired)
            try:
                event.callback(*event.args)
            except SimulationError:
                raise
            except Exception as exc:
                self._apply_error_policy(event, exc)
            count += 1
            if self._stop_requested:
                return RunResult(count, StopReason.STOPPED)
        return RunResult(count, StopReason.BUDGET)

    def request_stop(self) -> None:
        """Make the active :meth:`run` loop return after the current event.

        Called from inside an event callback (e.g. the app loop's last
        frame completing); cleared on every :meth:`run` entry."""
        self._stop_requested = True

    def run_until(self, time: int,
                  max_events: Optional[int] = None) -> RunResult:
        """Run all events scheduled strictly before-or-at ``time``.

        Advances ``now`` to ``time`` even if the queue drains earlier.
        Returns a :class:`RunResult` (reason ``HORIZON`` when stopped by
        the time limit with events still pending).  Events scheduled at
        the current tick *during* a same-tick bucket drain still execute
        this tick — they join the live bucket, which is re-checked every
        iteration (no lost wakeup).
        """
        count = 0
        reason = StopReason.BUDGET
        while max_events is None or count < max_events:
            next_time = self.peek_time()
            if next_time is None:
                reason = StopReason.DRAINED
                break
            if next_time > time:
                reason = StopReason.HORIZON
                break
            self.step()
            count += 1
        if self._now < time:
            # A budget stop can leave events pending at-or-before ``time``;
            # advancing over them would let the next step() run time
            # backwards.
            next_time = self.peek_time()
            if next_time is None or next_time > time:
                self._now = time
        return RunResult(count, reason)


class Ticker:
    """Helper that re-schedules a callback at a fixed period while active.

    Components with a natural service rate (e.g. a DRAM controller draining
    its queue, a raster unit at one tile per cycle) use a :class:`Ticker` to
    wake up only while they have work, instead of being ticked every cycle.
    """

    __slots__ = ("_queue", "_period", "_callback", "_owner", "_pending",
                 "_firing", "_kick_requested", "_stopped_during_fire")

    def __init__(self, queue: EventQueue, period: int,
                 callback: Callable[[], bool],
                 owner: Optional[str] = None):
        """``callback`` returns True to keep ticking, False to go idle."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._queue = queue
        # schedule() truncates delays with int(); doing it once here keeps
        # the inlined reschedule in _fire bit-identical for float periods.
        self._period = int(period)
        self._callback = callback
        self._owner = owner
        self._pending: Optional[Event] = None
        self._firing = False
        self._kick_requested = False
        self._stopped_during_fire = False

    @property
    def active(self) -> bool:
        return (self._firing
                or (self._pending is not None and not self._pending.cancelled))

    def kick(self, delay: int = 0) -> None:
        """Ensure the ticker is running; no-op when already scheduled.

        A kick from inside the ticker's own callback (work submitted during
        the current cycle) resumes at the *next* period, never re-firing in
        the same tick.  A kick after a stop — including a stop issued from
        inside the callback — restarts the ticker (last call wins).
        """
        if self._firing:
            self._kick_requested = True
            self._stopped_during_fire = False
            return
        if self.active:
            return
        self._pending = self._queue.schedule(delay, self._fire,
                                             owner=self._owner)

    def stop(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._kick_requested = False
        # A stop from inside the callback must win over the callback's
        # return value — otherwise a component cannot shut itself down.
        self._stopped_during_fire = self._firing

    def _fire(self) -> None:
        event = self._pending        # the Event object now firing
        self._pending = None
        self._firing = True
        self._kick_requested = False
        self._stopped_during_fire = False
        keep_going = self._callback()
        self._firing = False
        if self._stopped_during_fire:
            self._stopped_during_fire = False
            return
        if keep_going or self._kick_requested:
            # Inlined self._queue.schedule(self._period, ...): this is the
            # single hottest schedule site (every ticking component, every
            # cycle), and the period is validated positive at construction.
            queue = self._queue
            if event is not None and not queue.debug_provenance:
                # Recycle the just-fired Event: the kernel dropped its
                # reference when it popped it (a fired event is never
                # cancelled), and the period is >= 1 so the new time is
                # strictly in the future — a plain heap push, never a
                # same-tick bucket append.  A fresh seq keeps the global
                # (time, seq) order identical to allocating a new Event.
                seq = queue._seq
                queue._seq = seq + 1
                event.time = time = queue._now + self._period
                event.seq = seq
                heapq.heappush(queue._heap, (time, seq, event))
                if queue.tracer is not None:
                    queue.tracer.kernel_scheduled(event)
                self._pending = event
            else:
                self._pending = queue._push(queue._now + self._period,
                                            self._fire, (), self._owner)

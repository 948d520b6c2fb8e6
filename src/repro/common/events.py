"""Discrete-event simulation kernel.

The whole simulator is driven by a single event queue, in the style of
gem5's: components never busy-wait on cycles, they schedule callbacks at
future times.  Simulation time is an integer number of *ticks*; each model
decides its own tick <-> cycle mapping (the GPU model uses one tick per GPU
cycle, the SoC model converts component clocks into GPU-cycle ticks).

Events scheduled at the same tick fire in FIFO scheduling order, which keeps
runs deterministic.

Robustness (the ``repro.health`` subsystem builds on these hooks):

* :meth:`EventQueue.run` / :meth:`EventQueue.run_until` return a
  :class:`RunResult` stating *why* the loop stopped (queue drained, event
  budget exhausted, time horizon reached) instead of a bare count;
* events carry optional provenance (owning component, schedule site) and a
  raising callback can be wrapped into a :class:`SimulationError` that
  reports it — with a configurable fail-fast vs. quarantine-and-continue
  policy (``propagate`` keeps the seed behaviour of re-raising unchanged).

Performance (DESIGN.md §12): the queue is a calendar — one FIFO list per
pending tick and a heap of the distinct pending ticks, MGSim's same-tick
bucket extended to every tick.  Scheduling appends the event to its
tick's list, so each list is in schedule order; ticks drain in ascending
order, each list front to back.  That is exactly the (time, schedule
order) total order of a one-pop-per-event heap keyed on a global
sequence number, with no per-event heap entry and no sequence number;
the golden tests pin it.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from heapq import heappop, heappush
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

    The queue keeps simultaneous events in the order they were scheduled:
    the order lives in the position of the event in its tick's list, not
    here.

    A ``__slots__`` class rather than a dataclass: one is constructed per
    scheduled event — millions per simulated frame — and slot storage both
    shrinks the instance and speeds attribute access on the hot path.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "owner", "site")

    def __init__(self, time: int, callback: Callable[..., Any],
                 args: tuple = (), owner: Optional[str] = None,
                 site: Optional[str] = None) -> None:
        self.time = time
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
        return f"Event(time={self.time}, callback={name}{flags})"


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

    A callback may schedule, cancel and peek (:meth:`peek_time`,
    :meth:`empty`), but not run the queue itself: :meth:`step`,
    :meth:`run`, and :meth:`run_until` with an event due, raise
    ``RuntimeError`` there.

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
        self._now: int = 0
        self._events_fired: int = 0
        # The calendar.  ``_lists`` maps every tick holding events to its
        # FIFO list, in schedule order.  ``_ticks`` is a heap of those
        # ticks except ``_time``, the open tick: its list is read by the
        # list iterator ``_it`` and stays in ``_lists`` until the next
        # tick opens, so a schedule at the open tick appends to the list
        # being read and the iterator yields it in turn.  The open tick is
        # never later than ``now``: a tick opens when one of its events
        # fires, and a drained queue opens an empty list at ``now``.
        self._time: int = 0
        self._lists: dict[int, list[Event]] = {0: []}
        self._it = iter(self._lists[0])
        self._ticks: list[int] = []
        self._stop_requested = False
        self._running = False
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
        """Append a new event to tick ``time``'s list (``time >= now``,
        an int: the caller's promise).  The one insertion path: link
        deliveries and cache-hit responses call it directly, and a
        :class:`Ticker` re-arms the same way."""
        # Event construction spelled out (__new__ + slot stores) to skip
        # the __init__ call frame — this is the per-event allocation site.
        event = Event.__new__(Event)
        event.time = time
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.owner = owner
        event.site = None
        if self.debug_provenance:
            event.site = self._capture_site()
        events = self._lists.get(time)
        if events is None:
            self._lists[time] = [event]
            heappush(self._ticks, time)
        else:
            events.append(event)
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
        """Time of the next live event, or ``None`` when the queue is empty.

        Drops pending ticks whose every event was cancelled; never opens
        a tick or moves ``now``."""
        current = self._lists[self._time]
        # A list iterator's length hint is the count it has yet to yield,
        # so the open list's unread events start at len - hint.
        for index in range(len(current) - self._it.__length_hint__(),
                           len(current)):
            if not current[index].cancelled:
                return self._time
        ticks = self._ticks
        lists = self._lists
        while ticks:
            time = ticks[0]
            for event in lists[time]:
                if not event.cancelled:
                    return time
            heappop(ticks)
            del lists[time]
        return None

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        return self.run(max_events=1).executed == 1

    def run(self, max_events: Optional[int] = None) -> RunResult:
        """Run until the queue drains (or ``max_events`` fire).

        Returns a :class:`RunResult` saying how many events executed and
        *why* the loop stopped — callers must not infer "finished" from a
        count alone (a drained queue and an exhausted budget can both
        return ``max_events``).  A callback may call :meth:`request_stop`
        to make the loop return (reason ``STOPPED``) after that event.

        This is the kernel's only fire path (:meth:`step` is a run of
        one event).  A run started from inside a callback raises
        ``RuntimeError``: it would drain the open tick under the outer
        loop, which would then retire the wrong tick and drop its events.
        """
        if self._running:
            raise RuntimeError("EventQueue.run() called from inside an "
                               "event callback")
        budget = sys.maxsize if max_events is None else max_events
        if budget <= 0:
            return RunResult(0, StopReason.BUDGET)
        self._running = True
        try:
            return self._drain(budget)
        finally:
            self._running = False

    def _drain(self, budget: int) -> RunResult:
        """The whole-simulation hot loop: fire up to ``budget`` events.

        It reads the open tick's list through the queue's own list
        iterator, which also yields the events appended to the list while
        it drains and keeps the read position across runs."""
        start = fired = self._events_fired
        limit = start + budget
        lists = self._lists
        ticks = self._ticks
        it = self._it
        self._stop_requested = False
        while True:
            for event in it:
                if event.cancelled:
                    continue
                fired += 1
                self._events_fired = fired
                if self.tracer is not None:
                    self.tracer.kernel_fired(event)
                if self.sanitizer is not None:
                    # May raise a SanitizerViolation; deliberately outside
                    # the error-policy wrapping below — a violation is a
                    # verdict, not a component fault to quarantine.
                    self.sanitizer.on_event(self._now, fired)
                # The policy check lives in the except clause so the happy
                # path pays nothing for it (try/except entry is free on
                # CPython 3.11).  The callback is read after kernel_fired:
                # a tracer may swap it.
                try:
                    event.callback(*event.args)
                except SimulationError:
                    raise       # already wrapped (e.g. a watchdog report)
                except Exception as exc:
                    if self.error_policy == "propagate":
                        raise
                    error = SimulationError.from_event(event, self._now, exc)
                    if self.error_policy == "wrap":
                        raise error from exc
                    error.__cause__ = exc
                    self.errors.append(error)
                if self._stop_requested:
                    return RunResult(fired - start, StopReason.STOPPED)
                if fired == limit:
                    return RunResult(budget, StopReason.BUDGET)
            # The open tick is spent: retire it and open the next tick
            # holding a live event.  A tick whose every event was
            # cancelled is dropped and never moves ``now``.
            del lists[self._time]
            while ticks:
                time = heappop(ticks)
                events = lists[time]
                for event in events:
                    if not event.cancelled:
                        break
                else:
                    del lists[time]
                    continue
                break
            else:
                # Drained: an empty list at ``now`` takes what is
                # scheduled there next (the spent iterator cannot).
                self._time = time = self._now
                lists[time] = events = []
                self._it = iter(events)
                return RunResult(fired - start, StopReason.DRAINED)
            self._time = self._now = time
            self._it = it = iter(events)

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
        the current tick while it drains still execute this tick — they
        join the open tick's list, which is re-checked every iteration
        (no lost wakeup).
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


# Ticker firing states.  _KICKED: kick() ran inside the callback, so the
# ticker re-arms whatever the callback returns; _STOPPED: stop() ran
# inside the callback, so it stays idle whatever the callback returns
# (the last of the two calls wins).
_IDLE, _FIRING, _KICKED, _STOPPED = range(4)


class Ticker:
    """Helper that re-schedules a callback at a fixed period while active.

    Components with a natural service rate (e.g. a DRAM controller draining
    its queue, a raster unit at one tile per cycle) use a :class:`Ticker` to
    wake up only while they have work, instead of being ticked every cycle.
    """

    __slots__ = ("_queue", "_period", "_callback", "_owner", "_pending",
                 "_state")

    def __init__(self, queue: EventQueue, period: int,
                 callback: Callable[[], bool],
                 owner: Optional[str] = None):
        """``callback`` returns True to keep ticking, False to go idle."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._queue = queue
        # schedule() truncates delays with int(); doing it once here keeps
        # the inlined re-arm in _fire bit-identical for float periods.
        self._period = int(period)
        self._callback = callback
        self._owner = owner
        self._pending: Optional[Event] = None
        self._state = _IDLE

    @property
    def active(self) -> bool:
        return (self._state != _IDLE
                or (self._pending is not None and not self._pending.cancelled))

    def kick(self, delay: int = 0) -> None:
        """Ensure the ticker is running; no-op when already scheduled.

        A kick from inside the ticker's own callback (work submitted during
        the current cycle) resumes at the *next* period, never re-firing in
        the same tick.  A kick after a stop — including a stop issued from
        inside the callback — restarts the ticker (last call wins).
        """
        if self._state != _IDLE:
            self._state = _KICKED
            return
        if self.active:
            return
        self._pending = self._queue.schedule(delay, self._fire,
                                             owner=self._owner)

    def stop(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        # A stop from inside the callback must win over the callback's
        # return value — otherwise a component cannot shut itself down.
        if self._state != _IDLE:
            self._state = _STOPPED

    def _fire(self) -> None:
        event = self._pending        # the Event object now firing
        self._pending = None
        self._state = _FIRING
        keep_going = self._callback()
        state = self._state
        self._state = _IDLE
        if state == _STOPPED or not (keep_going or state == _KICKED):
            return
        queue = self._queue
        time = queue._now + self._period
        if event is None or queue.debug_provenance:
            # A fresh event captures its schedule site.
            self._pending = queue._push(time, self._fire, (), self._owner)
            return
        # The single hottest schedule site (every ticking component,
        # every cycle) re-arms the just-fired Event with _push's insertion
        # and without its allocation: the kernel is done with the event
        # (a fired event is never cancelled), and appending it to its
        # tick's list gives it the place a new event would take.
        event.time = time
        events = queue._lists.get(time)
        if events is None:
            queue._lists[time] = [event]
            heappush(queue._ticks, time)
        else:
            events.append(event)
        if queue.tracer is not None:
            queue.tracer.kernel_scheduled(event)
        self._pending = event

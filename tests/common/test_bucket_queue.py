"""The calendar event kernel: ordering and wakeup guarantees.

The calendar keeps one FIFO list (a *bucket*) per pending tick.  It must be
*observationally identical* to a plain one-heap-pop-per-event kernel: same
firing order, same ``now`` trajectory, same ``events_fired``.  The
dangerous cases are same-tick ones (an event scheduled at the current tick
while that tick's bucket drains must still run this tick: no lost wakeup),
cancellations (a tick whose every event was cancelled must not move the
clock), and a run that stops part-way through a bucket and is resumed by
another call.
"""

import heapq

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.events import (Event, EventQueue, RunResult, StopReason,
                                 Ticker)


class HeapReferenceQueue:
    """The seed kernel: one ``heappop`` per event, ordered by (time, seq)
    with its own sequence counter, cancelled events skipped.

    The part of the :class:`EventQueue` surface the property below drives:
    ``now``, ``events_fired``, ``schedule``, ``schedule_at``, ``run``,
    ``step``, ``peek_time``, ``run_until``, ``advance_to``,
    ``request_stop`` and the ``propagate``/``quarantine`` error policies.
    """

    def __init__(self, error_policy="propagate"):
        self._heap = []
        self._seq = 0
        self._stop_requested = False
        self.error_policy = error_policy
        self.errors = []
        self.now = 0
        self.events_fired = 0

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (time={time})")
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def peek_time(self):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self):
        if self.peek_time() is None:
            return False
        time, _, event = heapq.heappop(self._heap)
        self.now = time
        self.events_fired += 1
        try:
            event.callback(*event.args)
        except Exception as exc:
            if self.error_policy != "quarantine":
                raise
            self.errors.append(exc)
        return True

    def request_stop(self):
        self._stop_requested = True

    def run(self, max_events=None):
        count = 0
        self._stop_requested = False
        while max_events is None or count < max_events:
            if not self.step():
                return RunResult(count, StopReason.DRAINED)
            count += 1
            if self._stop_requested:
                return RunResult(count, StopReason.STOPPED)
        return RunResult(count, StopReason.BUDGET)

    def run_until(self, time, max_events=None):
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
        if self.now < time:
            next_time = self.peek_time()
            if next_time is None or next_time > time:
                self.now = time
        return RunResult(count, reason)

    def advance_to(self, time):
        if time < self.now:
            raise ValueError(f"cannot advance into the past (time={time})")
        next_time = self.peek_time()
        if next_time is not None and next_time < time:
            raise ValueError(f"cannot advance over pending events "
                             f"(next={next_time}, target={time})")
        self.now = time


class ReferenceTicker:
    """The seed's :class:`Ticker`: three firing flags, and a fresh event
    from ``schedule`` for every period."""

    def __init__(self, queue, period, callback):
        self._queue = queue
        self._period = period
        self._callback = callback
        self._pending = None
        self._firing = False
        self._kick_requested = False
        self._stopped_during_fire = False

    @property
    def active(self):
        return (self._firing
                or (self._pending is not None and not self._pending.cancelled))

    def kick(self, delay=0):
        if self._firing:
            self._kick_requested = True
            self._stopped_during_fire = False
            return
        if self.active:
            return
        self._pending = self._queue.schedule(delay, self._fire)

    def stop(self):
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._kick_requested = False
        self._stopped_during_fire = self._firing

    def _fire(self):
        self._pending = None
        self._firing = True
        self._kick_requested = False
        self._stopped_during_fire = False
        keep_going = self._callback()
        self._firing = False
        if self._stopped_during_fire:
            return
        if keep_going or self._kick_requested:
            self._pending = self._queue.schedule(self._period, self._fire)


class TestNoLostWakeup:
    def test_same_tick_schedule_during_bucket_drain_fires_this_tick(self):
        """A callback running at tick T schedules another event at delay
        0 while T's bucket drains: the new event must still execute at T,
        after everything already queued for T."""
        queue = EventQueue()
        log = []

        def second():
            log.append(("second", queue.now))

        def first():
            log.append(("first", queue.now))
            queue.schedule(0, second)

        queue.schedule(5, first)
        queue.schedule(5, lambda: log.append(("between", queue.now)))
        queue.run()
        assert log == [("first", 5), ("between", 5), ("second", 5)]

    def test_same_tick_schedule_during_drain_under_run_until(self):
        queue = EventQueue()
        log = []
        queue.schedule(5, lambda: queue.schedule(0, lambda: log.append(queue.now)))
        result = queue.run_until(5)
        assert log == [5]
        assert result.reason is StopReason.DRAINED

    def test_chained_zero_delay_cascade_stays_on_tick(self):
        queue = EventQueue()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth:
                queue.schedule(0, chain, depth - 1)

        queue.schedule(3, chain, 10)
        queue.run()
        assert fired == list(range(10, -1, -1))
        assert queue.now == 3

    def test_ticker_keeps_period_through_bucket_drain(self):
        """A period-1 ticker re-arming from inside the draining tick must
        land on the *next* tick, never re-fire in the same bucket."""
        queue = EventQueue()
        ticks = []

        def tick():
            ticks.append(queue.now)
            return len(ticks) < 5

        Ticker(queue, period=1, callback=tick).kick()
        queue.run()
        assert ticks == [0, 1, 2, 3, 4]


class TestCancellation:
    def test_cancel_event_already_moved_to_bucket(self):
        queue = EventQueue()
        log = []
        victim = {}

        def killer():
            log.append("killer")
            victim["event"].cancel()

        queue.schedule(7, killer)
        victim["event"] = queue.schedule(7, lambda: log.append("victim"))
        queue.schedule(7, lambda: log.append("survivor"))
        queue.run()
        assert log == ["killer", "survivor"]
        assert queue.events_fired == 2

    def test_peek_time_skips_cancelled_bucket_heads(self):
        queue = EventQueue()
        events = [queue.schedule(2, lambda: None) for _ in range(3)]
        queue.step()                 # opens tick 2 and fires its first event
        for event in events[1:]:
            event.cancel()
        assert queue.peek_time() is None
        assert queue.empty()

    def test_tick_of_only_cancelled_events_leaves_now_at_last_fired(self):
        """A tick whose every event was cancelled never moves the clock:
        a drained queue stays at its last fired event, and work scheduled
        there afterwards fires once, at that tick."""
        queue = EventQueue()
        fired = []
        queue.schedule(3, lambda: fired.append(("first", queue.now)))
        for event in [queue.schedule(7, fired.append, "doomed")
                      for _ in range(2)]:
            event.cancel()
        assert queue.run().reason is StopReason.DRAINED
        assert queue.now == 3
        queue.schedule(0, lambda: fired.append(("late", queue.now)))
        assert queue.run() == RunResult(1, StopReason.DRAINED)
        assert fired == [("first", 3), ("late", 3)]
        assert queue.events_fired == 2


# -- the property: generated programs on the calendar and on the oracle ---------

#: Events a program may fire before its callbacks stop scheduling work.
FIRE_CAP = 150
TICKERS = 3

_delays = st.integers(0, 40)
_handle = st.integers(0, 63)
_ticker = st.integers(0, TICKERS - 1)
#: What a callback, a ticker or the test's top level can do to the queue.
_actions = st.one_of(
    st.tuples(st.just("schedule"), _delays),
    st.tuples(st.just("schedule_at"), _delays),
    st.tuples(st.just("cancel"), _handle),
    st.tuples(st.just("cancel_tick"), _handle),
    st.tuples(st.just("kick"), _ticker, st.integers(0, 3)),
    st.tuples(st.just("stop"), _ticker),
)
#: ... and what only a callback can do.
_callback_actions = st.one_of(
    _actions, st.just(("raise",)), st.just(("request_stop",)))
_budgets = st.none() | st.integers(0, 12)
#: The top-level calls between runs.
_top_level_steps = st.one_of(
    _actions,
    st.tuples(st.just("run"), _budgets),
    st.just(("step",)),
    st.just(("peek",)),
    st.tuples(st.just("run_until"), _delays, _budgets),
    st.tuples(st.just("advance"), _delays),
    st.just(("advance_to_next",)),
)
programs = st.fixed_dictionaries({
    "policy": st.sampled_from(("quarantine", "propagate")),
    # Event n (in schedule order) runs behaviours[n % len(behaviours)].
    "behaviours": st.lists(st.lists(_callback_actions, max_size=3),
                           min_size=1, max_size=8),
    # Ticker i's k-th fire runs tickers[i][1][k % len]: (keep going, actions).
    "tickers": st.lists(
        st.tuples(st.integers(1, 3),
                  st.lists(st.tuples(st.booleans(),
                                     st.lists(_callback_actions, max_size=2)),
                           min_size=1, max_size=4)),
        min_size=TICKERS, max_size=TICKERS),
    "steps": st.lists(_top_level_steps, min_size=1, max_size=25),
})


class Program:
    """One generated program, run against one queue and ticker class.

    Everything a run can observe goes into ``log``: each firing as
    (now, label), each top-level call's result, and ``now``
    and ``events_fired`` after every top-level call."""

    def __init__(self, program, queue, ticker_class):
        self.program = program
        self.queue = queue
        self.log = []
        self.handles = []
        self.tickers = [ticker_class(queue, period, self._ticker_callback(i))
                        for i, (period, _) in enumerate(program["tickers"])]
        self.ticker_fires = [0] * TICKERS

    def _do(self, action):
        queue = self.queue
        kind = action[0]
        if kind == "schedule":
            label = len(self.handles)
            self.handles.append(queue.schedule(action[1], self._fire, label))
        elif kind == "schedule_at":
            label = len(self.handles)
            self.handles.append(
                queue.schedule_at(queue.now + action[1], self._fire, label))
        elif kind == "cancel" and self.handles:
            self.handles[action[1] % len(self.handles)].cancel()
        elif kind == "cancel_tick" and self.handles:
            tick = self.handles[action[1] % len(self.handles)].time
            for handle in self.handles:
                if handle.time == tick:
                    handle.cancel()
        elif kind == "kick":
            self.tickers[action[1]].kick(action[2])
        elif kind == "stop":
            self.tickers[action[1]].stop()
        elif kind == "raise":
            raise RuntimeError("poisoned component")
        elif kind == "request_stop":
            queue.request_stop()

    def _fire(self, label):
        self.log.append((self.queue.now, label))
        if self.queue.events_fired < FIRE_CAP:
            behaviours = self.program["behaviours"]
            for action in behaviours[label % len(behaviours)]:
                self._do(action)

    def _ticker_callback(self, index):
        def tick():
            fires = self.ticker_fires[index]
            self.ticker_fires[index] += 1
            self.log.append((self.queue.now, f"ticker{index}"))
            if self.queue.events_fired >= FIRE_CAP:
                return False
            behaviours = self.program["tickers"][index][1]
            keep_going, actions = behaviours[fires % len(behaviours)]
            for action in actions:
                self._do(action)
            return keep_going
        return tick

    def _call(self, step):
        queue = self.queue
        kind = step[0]
        if kind == "run":
            result = queue.run(max_events=step[1])
            return (result.executed, result.reason)
        if kind == "step":
            return queue.step()
        if kind == "peek":
            return queue.peek_time()
        if kind == "run_until":
            result = queue.run_until(queue.now + step[1], max_events=step[2])
            return (result.executed, result.reason)
        if kind == "advance":
            return queue.advance_to(queue.now + step[1])
        if kind == "advance_to_next":
            # Onto the next pending tick, as a resumed run re-enters time.
            return queue.advance_to(queue.peek_time() or queue.now)
        return self._do(step)

    def play(self):
        steps = self.program["steps"] + [("run", None)] * 3
        for step in steps:
            try:
                outcome = self._call(step)
            except (RuntimeError, ValueError) as exc:
                # A raising callback under "propagate", or a refused
                # advance_to: the next call resumes the same queue.
                outcome = type(exc).__name__
            self.log.append((step, outcome, self.queue.now,
                             self.queue.events_fired))
        self.log.append(("end", self.queue.peek_time(),
                         len(self.queue.errors)))
        return self.log


class TestBucketHeapEquivalence:
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=programs)
    def test_fuzzed_schedules_fire_identically_in_both_modes(self, program):
        """Generated programs (schedules with delays 0-40, cancels of one
        event or of a whole tick, tickers kicked and stopped from inside
        and outside their callbacks, budgeted runs resumed by step,
        peek_time, run_until or advance_to, raising callbacks) give the
        same log on the calendar with the real Ticker as on the heap
        oracle with the seed's Ticker."""
        policy = program["policy"]
        calendar = Program(program, EventQueue(error_policy=policy),
                           Ticker).play()
        heap = Program(program, HeapReferenceQueue(error_policy=policy),
                       ReferenceTicker).play()
        assert calendar == heap

    def test_run_until_horizon_with_live_bucket(self):
        """run_until must not fire bucket events beyond the horizon and
        must report HORIZON with the remaining cohort intact."""
        queue = EventQueue()
        fired = []
        for delay in (1, 1, 4, 4):
            queue.schedule(delay, fired.append, delay)
        result = queue.run_until(2)
        assert fired == [1, 1]
        assert result.reason is StopReason.HORIZON
        assert queue.peek_time() == 4
        queue.run()
        assert fired == [1, 1, 4, 4]

"""The calendar (bucketed) event kernel: ordering and wakeup guarantees.

The bucket drain must be *observationally identical* to a plain
one-heap-pop-per-event kernel: same firing order, same ``now``
trajectory, same ``events_fired``.  The dangerous cases are all
same-tick: an event scheduled at the current tick while that tick's
bucket is mid-drain must still run this tick (no lost wakeup), and
cancellations must be honored whether the victim sits in the bucket or
the heap.
"""

import heapq
import random

from repro.common.events import Event, EventQueue, StopReason, Ticker


class HeapReferenceQueue:
    """The seed kernel: one ``heappop`` per event, cancelled events skipped.

    Just enough of the :class:`EventQueue` surface (``now``, ``schedule``,
    ``run``, ``events_fired``) to replay the fuzz workload below.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.events_fired = 0

    def schedule(self, delay, callback, *args):
        event = Event(self.now + delay, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def run(self):
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = time
            self.events_fired += 1
            event.callback(*event.args)


class TestNoLostWakeup:
    def test_same_tick_schedule_during_bucket_drain_fires_this_tick(self):
        """The satellite regression: a callback running at tick T schedules
        another event at delay 0; with the T-bucket already drained from
        the heap, the new event must still execute at T, in seq order."""
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
        """Ticker re-audit: a period-1 ticker re-scheduling from inside the
        drained tick must land on the *next* tick, never re-fire in the
        same bucket."""
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
        queue.step()                 # drains the cohort into the bucket
        for event in events[1:]:
            event.cancel()
        assert queue.peek_time() is None
        assert queue.empty()


class TestBucketHeapEquivalence:
    def test_fuzzed_schedules_fire_identically_in_both_modes(self):
        """Randomized workload replayed on the calendar kernel and on the
        heap-only reference: recursive schedules, same-tick bursts and
        cancellations must produce the same (time, label) firing sequence
        and the same events_fired."""

        def workload(queue):
            rng = random.Random(1234)
            log = []
            handles = []

            def fire(label, fanout):
                log.append((queue.now, label))
                for index in range(fanout):
                    delay = rng.choice((0, 0, 1, 2, 5))
                    child = f"{label}.{index}"
                    if rng.random() < 0.8:
                        handles.append(
                            queue.schedule(delay, fire, child,
                                           fanout - 1 if fanout else 0))
                if handles and rng.random() < 0.2:
                    handles.pop(rng.randrange(len(handles))).cancel()

            for seed_index in range(12):
                queue.schedule(rng.randrange(3), fire, f"root{seed_index}", 4)
            queue.run()
            return log, queue.events_fired

        log_bucket, fired_bucket = workload(EventQueue())
        log_heap, fired_heap = workload(HeapReferenceQueue())
        assert log_bucket == log_heap
        assert fired_bucket == fired_heap
        assert len(log_bucket) > 50          # the fuzz actually ran

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

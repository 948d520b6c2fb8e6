"""Tests for the discrete-event kernel."""

import pytest

from repro.common.events import (EventQueue, SimulationError, StopReason,
                                 Ticker)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(5, fired.append, "late")
        q.schedule(3, fired.append, "early")
        q.run()
        assert fired == ["early", "late"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(7, fired.append, i)
        q.run()
        assert fired == list(range(10))

    def test_now_advances_to_event_time(self):
        q = EventQueue()
        seen = []
        q.schedule(42, lambda: seen.append(q.now))
        q.run()
        assert seen == [42]
        assert q.now == 42

    def test_schedule_from_within_event(self):
        q = EventQueue()
        fired = []

        def first():
            fired.append(("first", q.now))
            q.schedule(10, lambda: fired.append(("second", q.now)))

        q.schedule(5, first)
        q.run()
        assert fired == [("first", 5), ("second", 15)]

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        q = EventQueue()
        q.schedule(10, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule_at(5, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(5, fired.append, "x")
        ev.cancel()
        q.run()
        assert fired == []

    def test_run_until_stops_at_boundary(self):
        q = EventQueue()
        fired = []
        q.schedule(5, fired.append, "a")
        q.schedule(10, fired.append, "b")
        q.schedule(15, fired.append, "c")
        q.run_until(10)
        assert fired == ["a", "b"]
        assert q.now == 10
        q.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_advances_time_past_empty_queue(self):
        q = EventQueue()
        q.run_until(100)
        assert q.now == 100

    def test_run_max_events(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule(i, fired.append, i)
        result = q.run(max_events=3)
        assert result.executed == 3
        assert result.reason is StopReason.BUDGET
        assert fired == [0, 1, 2]

    def test_run_reports_drained_vs_budget(self):
        """A drained queue and an exhausted budget can both execute
        max_events — only the reason distinguishes them."""
        q = EventQueue()
        for i in range(3):
            q.schedule(i, lambda: None)
        result = q.run(max_events=3)
        assert result.executed == 3
        assert result.reason is StopReason.BUDGET   # not proven drained
        result = q.run()
        assert result.executed == 0
        assert result.reason is StopReason.DRAINED
        assert result.drained

    def test_run_until_reports_horizon(self):
        q = EventQueue()
        q.schedule(5, lambda: None)
        q.schedule(50, lambda: None)
        result = q.run_until(10)
        assert result.executed == 1
        assert result.reason is StopReason.HORIZON
        result = q.run_until(100)
        assert result.reason is StopReason.DRAINED

    def test_empty_and_peek(self):
        q = EventQueue()
        assert q.empty()
        assert q.peek_time() is None
        ev = q.schedule(9, lambda: None)
        assert q.peek_time() == 9
        ev.cancel()
        assert q.empty()

    def test_events_fired_counter(self):
        q = EventQueue()
        for i in range(4):
            q.schedule(i, lambda: None)
        q.run()
        assert q.events_fired == 4


class TestErrorPolicies:
    def test_propagate_is_default_and_reraises_unchanged(self):
        q = EventQueue()

        def boom():
            raise KeyError("missing")

        q.schedule(5, boom)
        with pytest.raises(KeyError):
            q.run()

    def test_wrap_carries_provenance(self):
        q = EventQueue(error_policy="wrap")

        def boom():
            raise ValueError("bad state")

        q.schedule(7, boom, owner="dram.ch0")
        with pytest.raises(SimulationError) as excinfo:
            q.run()
        error = excinfo.value
        assert error.tick == 7
        assert error.owner == "dram.ch0"
        assert "boom" in error.callback_name
        assert isinstance(error.__cause__, ValueError)

    def test_wrap_is_fail_fast(self):
        q = EventQueue(error_policy="wrap")
        fired = []
        q.schedule(1, lambda: (_ for _ in ()).throw(RuntimeError("x")))
        q.schedule(2, fired.append, "after")
        with pytest.raises(SimulationError):
            q.run()
        assert fired == []      # nothing after the failure ran

    def test_quarantine_continues_and_records(self):
        q = EventQueue(error_policy="quarantine")
        fired = []

        def boom():
            raise RuntimeError("poisoned component")

        q.schedule(1, boom)
        q.schedule(2, fired.append, "survives")
        result = q.run()
        assert result.drained
        assert fired == ["survives"]
        assert len(q.errors) == 1
        assert q.errors[0].tick == 1

    def test_wrap_passes_simulation_errors_through(self):
        """A deliberate SimulationError (e.g. a watchdog report) must not
        be double-wrapped."""
        q = EventQueue(error_policy="wrap")
        original = SimulationError("watchdog: stuck", tick=3, owner="wd")

        def report():
            raise original

        q.schedule(3, report)
        with pytest.raises(SimulationError) as excinfo:
            q.run()
        assert excinfo.value is original

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            EventQueue(error_policy="ignore")

    def test_debug_provenance_records_schedule_site(self):
        q = EventQueue(debug_provenance=True)
        event = q.schedule(1, lambda: None)
        assert event.site is not None
        assert "test_events.py" in event.site


class TestAdvanceTo:
    def test_advance_jumps_time(self):
        q = EventQueue()
        q.advance_to(5_000)
        assert q.now == 5_000
        seen = []
        q.schedule(10, lambda: seen.append(q.now))
        q.run()
        assert seen == [5_010]

    def test_advance_backwards_rejected(self):
        q = EventQueue()
        q.advance_to(100)
        with pytest.raises(ValueError):
            q.advance_to(50)

    def test_advance_over_pending_events_rejected(self):
        q = EventQueue()
        q.schedule(10, lambda: None)
        with pytest.raises(ValueError):
            q.advance_to(20)


class TestTicker:
    def test_ticker_runs_while_callback_true(self):
        q = EventQueue()
        ticks = []

        def cb():
            ticks.append(q.now)
            return len(ticks) < 3

        t = Ticker(q, period=10, callback=cb)
        t.kick()
        q.run()
        assert ticks == [0, 10, 20]

    def test_kick_idempotent(self):
        q = EventQueue()
        count = [0]

        def cb():
            count[0] += 1
            return False

        t = Ticker(q, period=5, callback=cb)
        t.kick()
        t.kick()
        t.kick()
        q.run()
        assert count[0] == 1

    def test_stop_prevents_future_ticks(self):
        q = EventQueue()
        ticks = []
        t = Ticker(q, period=5, callback=lambda: ticks.append(q.now) or True)
        t.kick()
        q.run(max_events=2)
        t.stop()
        q.run()
        assert len(ticks) == 2

    def test_invalid_period(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            Ticker(q, period=0, callback=lambda: False)

    def test_kick_with_delay(self):
        q = EventQueue()
        ticks = []
        t = Ticker(q, period=5, callback=lambda: ticks.append(q.now) or False)
        t.kick(delay=7)
        q.run()
        assert ticks == [7]

    def test_rekick_after_idle(self):
        q = EventQueue()
        ticks = []
        t = Ticker(q, period=5, callback=lambda: ticks.append(q.now) or False)
        t.kick()
        q.run()
        assert ticks == [0]
        q.schedule(20, t.kick)
        q.run()
        assert ticks == [0, 20]


class TestTickerEdgeCases:
    def test_kick_during_fire_resumes_next_period(self):
        """A kick from inside the callback (work arriving mid-cycle) must
        resume at the next period, never re-fire in the same tick."""
        q = EventQueue()
        ticks = []

        def cb():
            ticks.append(q.now)
            if len(ticks) == 1:
                t.kick()        # re-entrant kick while firing
            return False        # callback itself says "go idle"

        t = Ticker(q, period=10, callback=cb)
        t.kick()
        q.run()
        assert ticks == [0, 10]     # kick won over the False return

    def test_stop_during_fire_wins_over_keep_going(self):
        """A component stopping itself from inside its own callback must
        not be resurrected by the callback's True return."""
        q = EventQueue()
        ticks = []

        def cb():
            ticks.append(q.now)
            t.stop()
            return True         # would normally reschedule

        t = Ticker(q, period=5, callback=cb)
        t.kick()
        q.run()
        assert ticks == [0]

    def test_stop_then_kick_during_fire_restarts(self):
        """stop() then kick() inside one firing: last call wins."""
        q = EventQueue()
        ticks = []

        def cb():
            ticks.append(q.now)
            if len(ticks) == 1:
                t.stop()
                t.kick()
            return False

        t = Ticker(q, period=5, callback=cb)
        t.kick()
        q.run()
        assert ticks == [0, 5]

    def test_stop_while_pending_cancels_cleanly(self):
        q = EventQueue()
        ticks = []
        t = Ticker(q, period=5, callback=lambda: ticks.append(q.now) or True)
        t.kick(delay=3)
        assert t.active
        t.stop()
        assert not t.active
        q.run()
        assert ticks == []
        assert q.now == 0       # cancelled events never advance the clock
        # The cancelled pending event must not block a later restart.
        t.kick()
        q.run(max_events=1)
        assert ticks == [0]

    def test_zero_delay_kick_fires_after_same_tick_events(self):
        """kick(0) schedules at the current tick *behind* events already
        queued for that tick (FIFO order), so a producer scheduling work
        then kicking a consumer in the same tick is race-free."""
        q = EventQueue()
        order = []
        q.schedule(0, order.append, "already-queued")
        t = Ticker(q, period=5, callback=lambda: order.append("tick") or False)
        t.kick(0)
        q.schedule(0, order.append, "queued-after-kick")
        q.run()
        assert order == ["already-queued", "tick", "queued-after-kick"]

    def test_debug_provenance_rearms_with_fresh_sited_events(self):
        """Under debug_provenance a ticker allocates a new event per
        period, so each carries its own schedule site."""
        q = EventQueue(debug_provenance=True)
        t = Ticker(q, period=1, callback=lambda: q.now < 2)
        t.kick()
        rearmed = []
        while q.step():
            if t._pending is not None:
                rearmed.append(t._pending)
        assert len(rearmed) == 2
        assert rearmed[0] is not rearmed[1]
        assert all(event.site for event in rearmed)

    def test_cancelled_pending_is_not_active(self):
        q = EventQueue()
        t = Ticker(q, period=5, callback=lambda: False)
        t.kick()
        t._pending.cancel()     # event cancelled behind the ticker's back
        assert not t.active
        t.kick()                # must re-arm, not assume still scheduled
        assert t.active


class TestCancelledHeads:
    """Lazy deletion (cancelled heads dropped when the kernel next looks
    at the heap) with runs of cancelled events at the front of it."""

    def test_consecutive_cancelled_heads_are_skipped(self):
        q = EventQueue()
        fired = []
        events = [q.schedule(t, fired.append, t) for t in (1, 2, 3, 4)]
        for event in events[:3]:
            event.cancel()
        assert q.peek_time() == 4           # drops all three in one sweep
        assert q.step() is True
        assert fired == [4]
        assert q.now == 4
        assert q.empty()

    def test_queue_of_only_cancelled_events_is_empty(self):
        q = EventQueue()
        for event in [q.schedule(t, lambda: None) for t in (1, 2, 3)]:
            event.cancel()
        assert q.empty()
        assert q.peek_time() is None
        assert q.step() is False
        assert q.events_fired == 0
        assert q.now == 0                   # nothing fired, clock untouched

    def test_cancelled_head_does_not_hide_later_same_tick_event(self):
        q = EventQueue()
        fired = []
        first = q.schedule(5, fired.append, "cancelled")
        q.schedule(5, fired.append, "live")
        first.cancel()
        q.run()
        assert fired == ["live"]


class TestScheduleAtBoundaries:
    def test_schedule_at_now_is_allowed(self):
        q = EventQueue()
        q.run_until(10)
        fired = []
        q.schedule_at(10, fired.append, "boundary")
        q.run()
        assert fired == ["boundary"]
        assert q.now == 10

    def test_schedule_at_in_the_past_is_rejected(self):
        q = EventQueue()
        q.run_until(10)
        with pytest.raises(ValueError, match="past"):
            q.schedule_at(9, lambda: None)

    def test_rejected_schedule_leaves_the_queue_intact(self):
        q = EventQueue()
        q.run_until(10)
        with pytest.raises(ValueError):
            q.schedule_at(3, lambda: None)
        assert q.empty()
        assert q.now == 10


class TestRunUntilStopReasons:
    """run_until must report *why* it stopped, for each StopReason."""

    def test_drained(self):
        q = EventQueue()
        q.schedule(1, lambda: None)
        result = q.run_until(10)
        assert result.reason is StopReason.DRAINED
        assert result.executed == 1
        assert q.now == 10                  # still advances to the horizon

    def test_horizon(self):
        q = EventQueue()
        q.schedule(1, lambda: None)
        q.schedule(20, lambda: None)
        result = q.run_until(10)
        assert result.reason is StopReason.HORIZON
        assert result.executed == 1
        assert q.now == 10
        assert q.peek_time() == 20          # pending event survives

    def test_budget(self):
        q = EventQueue()
        for t in range(1, 6):
            q.schedule(t, lambda: None)
        result = q.run_until(10, max_events=2)
        assert result.reason is StopReason.BUDGET
        assert result.executed == 2
        # Events remain at t=3..5 <= horizon: now must NOT jump over
        # them, or the next step would run time backwards.
        assert q.now == 2
        assert q.peek_time() == 3

    def test_budget_resume_keeps_time_monotonic(self):
        q = EventQueue()
        ticks = []
        for t in range(1, 6):
            q.schedule(t, lambda t=t: ticks.append(q.now))
        q.run_until(10, max_events=2)
        result = q.run_until(10)
        assert result.reason is StopReason.DRAINED
        assert ticks == sorted(ticks) == [1, 2, 3, 4, 5]

    def test_budget_with_nothing_pending_advances_to_horizon(self):
        q = EventQueue()
        q.schedule(1, lambda: None)
        result = q.run_until(10, max_events=1)
        assert result.reason is StopReason.BUDGET
        assert q.now == 10


class TestNestedRun:
    """A callback may not run the queue: the nested run would drain the
    open tick under the outer loop, which would then retire the wrong
    tick and drop its events.  It raises instead."""

    @pytest.mark.parametrize("nested", [
        lambda q: q.step(),
        lambda q: q.run(),
        lambda q: q.run(max_events=1),
        lambda q: q.run_until(q.now + 5),
    ], ids=["step", "run", "run_budget", "run_until"])
    def test_run_from_a_callback_raises(self, nested):
        q = EventQueue()
        fired = []
        q.schedule(1, nested, q)
        q.schedule(1, fired.append, "same-tick")
        q.schedule(2, fired.append, "next-tick")
        with pytest.raises(RuntimeError, match="inside an event callback"):
            q.run()
        assert fired == []
        assert q.now == 1
        # The guard is cleared on the way out: the rest still runs.
        assert q.run().reason is StopReason.DRAINED
        assert fired == ["same-tick", "next-tick"]
        assert q.now == 2

    def test_quarantine_records_the_nested_run_and_loses_no_event(self):
        q = EventQueue(error_policy="quarantine")
        fired = []
        q.schedule(1, q.step)
        q.schedule(1, fired.append, "same-tick")
        q.schedule(2, fired.append, "next-tick")
        assert q.run().reason is StopReason.DRAINED
        assert fired == ["same-tick", "next-tick"]
        assert q.events_fired == 3
        assert len(q.errors) == 1
        assert isinstance(q.errors[0].__cause__, RuntimeError)


class TestTracerSeams:
    """The seams a host-time ledger rides from outside the program
    (``perfbench/ledger.py``): it attaches as ``tracer``, swaps
    ``event.callback`` for a trampoline inside ``kernel_fired``, and
    charges a ticker's events to the component behind ``Ticker._fire``
    through the ticker's ``_callback``."""

    class SwappingTracer:
        """Ledger-shaped: kernel_fired swaps in a trampoline that puts the
        original callback back, then calls it."""

        def __init__(self):
            self.fired = []            # the callback each event carried
            self.trampolined = []      # the args each trampoline got

        def kernel_scheduled(self, event):
            pass

        def kernel_fired(self, event):
            callback = event.callback
            self.fired.append(callback)

            def trampoline(*args):
                self.trampolined.append(args)
                event.callback = callback
                callback(*args)

            event.callback = trampoline

    def test_swapped_callback_is_called_once_with_the_event_args(self):
        q = EventQueue()
        tracer = q.tracer = self.SwappingTracer()
        fired = []
        q.schedule(2, fired.append, "a")
        q.schedule(2, lambda x, y: fired.append(x + y), 1, 2)
        assert q.run().executed == 2
        assert tracer.trampolined == [("a",), (1, 2)]
        assert fired == ["a", 3]

    def test_ticker_events_carry_the_bound_fire(self):
        q = EventQueue()
        tracer = q.tracer = self.SwappingTracer()
        ticks = []

        def work():
            ticks.append(q.now)
            return len(ticks) < 3

        ticker = Ticker(q, period=2, callback=work)
        ticker.kick()
        q.run()
        assert ticks == [0, 2, 4]
        assert tracer.trampolined == [(), (), ()]
        for callback in tracer.fired:
            assert callback.__func__ is Ticker._fire
            assert callback.__self__ is ticker
        assert ticker._callback is work

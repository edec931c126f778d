"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simulation.kernel import Event, SimulationError, Simulator


class TestScheduling:
    def test_runs_events_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda s: order.append("c"))
        sim.schedule(1.0, lambda s: order.append("a"))
        sim.schedule(2.0, lambda s: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(5.5, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_same_time_ordered_by_priority_then_sequence(self, sim):
        order = []
        sim.schedule(1.0, lambda s: order.append("late"), priority=5)
        sim.schedule(1.0, lambda s: order.append("first"), priority=0)
        sim.schedule(1.0, lambda s: order.append("second"), priority=0)
        sim.run()
        assert order == ["first", "second", "late"]

    def test_schedule_in_past_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda s: None)

    def test_schedule_at_before_now_raises(self, sim):
        sim.schedule(5.0, lambda s: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda s: None)

    def test_events_scheduled_during_run_execute(self, sim):
        order = []

        def first(s):
            order.append("first")
            s.schedule(1.0, lambda s2: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda s: fired.append(1))
        assert sim.cancel(event) is True
        sim.run()
        assert fired == []

    def test_cancel_twice_returns_false(self, sim):
        event = sim.schedule(1.0, lambda s: None)
        assert sim.cancel(event)
        assert not sim.cancel(event)

    def test_cancel_fired_event_returns_false(self, sim):
        event = sim.schedule(1.0, lambda s: None)
        sim.run()
        assert not sim.cancel(event)

    def test_pending_count_skips_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda s: None)
        drop = sim.schedule(2.0, lambda s: None)
        sim.cancel(drop)
        assert sim.pending_count == 1

    def test_pending_count_tracks_fires(self, sim):
        sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        assert sim.pending_count == 2
        sim.step()
        assert sim.pending_count == 1
        sim.run()
        assert sim.pending_count == 0

    def test_pending_count_tracks_schedules_during_run(self, sim):
        observed = []

        def first(s):
            s.schedule(1.0, lambda _s: None)
            s.schedule(2.0, lambda _s: None)
            observed.append(s.pending_count)

        sim.schedule(1.0, first)
        sim.step()
        assert observed == [2]

    def test_pending_count_double_cancel_not_double_counted(self, sim):
        sim.schedule(1.0, lambda s: None)
        drop = sim.schedule(2.0, lambda s: None)
        sim.cancel(drop)
        sim.cancel(drop)
        assert sim.pending_count == 1
        sim.run()
        assert sim.pending_count == 0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda s: fired.append("early"))
        sim.schedule(10.0, lambda s: fired.append("late"))
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_later_events_survive_for_next_run(self, sim):
        fired = []
        sim.schedule(10.0, lambda s: fired.append("late"))
        sim.run(until=5.0)
        sim.run(until=15.0)
        assert fired == ["late"]

    def test_run_until_advances_clock_when_queue_empty(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda s: (fired.append(1), s.stop()))
        sim.schedule(2.0, lambda s: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_reentrant_run_raises(self, sim):
        def reenter(s):
            with pytest.raises(SimulationError):
                s.run()

        sim.schedule(1.0, reenter)
        sim.run()


class TestStep:
    def test_step_executes_exactly_one_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda s: fired.append("a"))
        sim.schedule(2.0, lambda s: fired.append("b"))
        assert sim.step()
        assert fired == ["a"]

    def test_step_on_empty_queue_returns_false(self, sim):
        assert sim.step() is False

    def test_event_repr_states(self, sim):
        event = sim.schedule(1.0, lambda s: None, label="x")
        assert event.pending
        sim.run()
        assert event.fired and not event.pending


class TestClose:
    def test_close_empties_the_queue_and_drops_callbacks(self, sim):
        fired = []
        sim.schedule(1.0, lambda s: fired.append("a"))
        sim.run(until=1.5)
        queued = [sim.schedule(1.0, lambda s: fired.append("b")),
                  sim.schedule(2.0, lambda s: fired.append("c"))]
        sim.cancel(queued[1])
        sim.at_fired(5, lambda s: fired.append("hook"))
        sim.close()
        assert sim.pending_count == 0
        assert sim.pending_events() == []
        assert sim.next_event_time() is None
        assert all(event.callback is None for event in queued)
        # The clock and the counters stay readable.
        assert (sim.now, sim.fired_count, fired) == (1.5, 1, ["a"])

    def test_closed_simulator_refuses_run_and_step(self, sim):
        sim.schedule(1.0, lambda s: None)
        sim.close()
        with pytest.raises(SimulationError, match="closed"):
            sim.run()
        with pytest.raises(SimulationError, match="closed"):
            sim.run(until=5.0)
        with pytest.raises(SimulationError, match="closed"):
            sim.step()
        assert sim.now == 0.0

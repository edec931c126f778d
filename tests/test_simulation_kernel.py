"""Unit tests for the discrete-event kernel."""

import gc
import random
import weakref

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
        assert sim._heap == []
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

    def test_close_drops_pending_hooks(self, sim):
        ran = []
        for index in (3, 9, 6):
            sim.at_fired(index, lambda s, index=index: ran.append(index))
        for step in range(12):
            sim.schedule(float(step + 1), lambda s: None)
        sim.run(until=4.5)
        assert ran == [3] and sorted(sim._fired_hooks) == [6, 9]
        sim.close()
        assert not sim._fired_hooks
        assert ran == [3]

    def test_close_drops_the_observer_and_hands_back_the_context(self, sim):
        context = sim.context
        context["plane"] = object()
        sim.on_event = lambda event: None
        sim.close()
        assert sim.on_event is None and sim.context == {}
        assert "plane" in context   # a holder of the old dict still reads it

    def test_close_empties_a_self_rescheduling_closures_cell(self, sim):
        class Component:
            ticks = 0

        def start(component):
            def tick(s):
                component.ticks += 1
                s.schedule(1.0, tick)
            sim.schedule(1.0, tick)

        component = Component()
        start(component)
        alive = weakref.ref(component)
        sim.run(until=3.5)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert component.ticks == 3
            del component
            assert alive() is not None   # the queued closure holds it
            sim.close()
            # ``tick`` held itself through its own cell; with the cell
            # emptied, reference counting frees it and what it captured.
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


def _per_event_pop_fire(sim, event):
    """The barrier check as it was: one ``dict.pop`` per event."""
    sim._now = event.time
    event.fired = True
    sim._pending -= 1
    sim._fired += 1
    event.callback(sim)
    if sim._fired_hooks:
        hooks = sim._fired_hooks.pop(sim._fired, None)
        if hooks is not None:
            for hook in hooks:
                hook(sim)


class _PerEventPopSimulator(Simulator):
    def _fire(self, event):
        _per_event_pop_fire(self, event)


class TestBarriers:
    @staticmethod
    def _events(sim, count):
        for step in range(count):
            sim.schedule(float(step + 1), lambda s: None)

    def test_hooks_run_in_registration_order_and_first_goes_ahead(self, sim):
        order = []
        self._events(sim, 5)
        sim.at_fired(2, lambda s: order.append("a"))
        sim.at_fired(2, lambda s: order.append("b"))
        sim.at_fired(2, lambda s: order.append("first"), first=True)
        sim.at_fired(2, lambda s: order.append("c"))
        sim.run()
        assert order == ["first", "a", "b", "c"]

    def test_barriers_registered_out_of_order_fire_at_their_counts(self, sim):
        seen = []
        self._events(sim, 10)
        for index in (7, 3, 9, 5):
            sim.at_fired(index, lambda s: seen.append(s.fired_count))
        sim.run()
        assert seen == [3, 5, 7, 9]
        assert not sim._fired_hooks

    def test_a_hook_registering_at_the_current_barrier_runs_at_once(self, sim):
        seen = []

        def outer(s):
            seen.append(("outer", s.fired_count))
            s.at_fired(s.fired_count,
                       lambda s2: seen.append(("inner", s2.fired_count)))
            seen.append(("outer-done", s.fired_count))

        self._events(sim, 4)
        sim.at_fired(2, outer)
        sim.run()
        assert seen == [("outer", 2), ("inner", 2), ("outer-done", 2)]

    def test_a_hook_registering_at_the_next_barrier_runs_after_one_event(
            self, sim):
        seen = []
        self._events(sim, 6)
        sim.at_fired(9, lambda s: seen.append(("late", s.fired_count)))

        def outer(s):
            seen.append(("outer", s.fired_count))
            s.at_fired(s.fired_count + 1,
                       lambda s2: seen.append(("next", s2.fired_count)))

        sim.at_fired(2, outer)
        sim.run()
        # The booked barrier was 9 after 2 ran; registering 3 lowered it.
        assert seen == [("outer", 2), ("next", 3)]
        assert sorted(sim._fired_hooks) == [9]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_per_event_pop_reference(self, seed):
        def program(sim):
            rng = random.Random(seed)
            log = []

            def hook(tag):
                def run(s):
                    log.append(("hook", tag, s.fired_count, s.now))
                    roll = rng.random()
                    if roll < 0.3:
                        s.at_fired(s.fired_count + rng.randrange(0, 4),
                                   hook(tag + "+"), first=rng.random() < 0.5)
                    elif roll < 0.5:
                        s.schedule(rng.uniform(0.0, 2.0), event(tag + "e"))
                return run

            def event(tag):
                def run(s):
                    log.append(("event", tag, s.fired_count, s.now))
                    if rng.random() < 0.4:
                        s.at_fired(s.fired_count + rng.randrange(0, 6),
                                   hook(tag + "h"), first=rng.random() < 0.3)
                return run

            for index in range(30):
                sim.schedule(rng.uniform(0.0, 10.0), event(str(index)))
            for index in range(6):
                sim.at_fired(rng.randrange(0, 40), hook(f"pre{index}"),
                             first=rng.random() < 0.5)
            sim.run()
            return log, sorted(sim._fired_hooks)

        assert program(Simulator()) == program(_PerEventPopSimulator())

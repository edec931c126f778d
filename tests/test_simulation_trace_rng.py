"""Unit tests for the trace log and RNG registry."""

import pytest

from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceEvent, TraceLog


class TestTraceLog:
    def test_emit_and_select(self, trace):
        trace.emit(1.0, "fault", "crash", subject="d1")
        trace.emit(2.0, "recovery", "device-recover", subject="d1")
        trace.emit(3.0, "fault", "crash", subject="d2")
        assert trace.count(category="fault") == 2
        assert [e.subject for e in trace.select(category="fault", name="crash")] == ["d1", "d2"]

    def test_select_time_window_is_half_open(self, trace):
        for t in range(5):
            trace.emit(float(t), "c", "n")
        assert len(trace.select(start=1.0, end=3.0)) == 2

    def test_time_going_backwards_raises(self, trace):
        trace.emit(5.0, "c", "n")
        with pytest.raises(ValueError):
            trace.emit(4.0, "c", "n")

    def test_first_and_last(self, trace):
        trace.emit(1.0, "c", "a")
        trace.emit(2.0, "c", "b")
        trace.emit(3.0, "c", "a")
        assert trace.first(name="a").time == 1.0
        assert trace.last(name="a").time == 3.0
        assert trace.first(name="missing") is None

    def test_subscribers_receive_live_events(self, trace):
        got = []
        unsubscribe = trace.subscribe(got.append)
        trace.emit(1.0, "c", "x")
        unsubscribe()
        trace.emit(2.0, "c", "y")
        assert [e.name for e in got] == ["x"]

    def test_intervals_pairing(self, trace):
        trace.emit(1.0, "fault", "partition-start", subject="p")
        trace.emit(5.0, "recovery", "partition-heal", subject="p")
        trace.emit(8.0, "fault", "partition-start", subject="p")
        intervals = trace.intervals("partition-start", "partition-heal",
                                    subject="p", horizon=10.0)
        assert intervals == [(1.0, 5.0), (8.0, 10.0)]

    def test_attrs_carried(self, trace):
        event = trace.emit(1.0, "c", "n", subject="s", extra=42)
        assert event.attrs["extra"] == 42

    def test_matches_filters(self):
        event = TraceEvent(1.0, "cat", "name", "subj")
        assert event.matches(category="cat")
        assert not event.matches(category="other")
        assert event.matches(name="name", subject="subj")
        assert not event.matches(subject="other")


class TestTraceLogRingBuffer:
    def test_maxlen_bounds_memory_and_counts_drops(self):
        trace = TraceLog(maxlen=3)
        for t in range(5):
            trace.emit(float(t), "c", f"e{t}")
        assert len(trace) == 3
        assert [e.name for e in trace] == ["e2", "e3", "e4"]
        assert trace.dropped == 2

    def test_unbounded_by_default(self, trace):
        for t in range(100):
            trace.emit(float(t), "c", "n")
        assert len(trace) == 100
        assert trace.dropped == 0
        assert trace.maxlen is None

    def test_invalid_maxlen_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(maxlen=0)
        with pytest.raises(ValueError):
            TraceLog(maxlen=-5)

    def test_queries_work_on_truncated_log(self):
        trace = TraceLog(maxlen=2)
        trace.emit(1.0, "fault", "partition-start", subject="p")
        trace.emit(5.0, "recovery", "partition-heal", subject="p")
        trace.emit(8.0, "fault", "partition-start", subject="p")
        # Oldest event evicted; pairing sees only the surviving window.
        assert trace.intervals("partition-start", "partition-heal",
                               subject="p", horizon=10.0) == [(8.0, 10.0)]
        assert trace.count(category="fault") == 1


class TestTraceLogSubscriberHardening:
    def test_raising_subscriber_does_not_hide_event(self, trace):
        first_got, second_got = [], []

        def boom(event):
            first_got.append(event)
            raise RuntimeError("subscriber exploded")

        trace.subscribe(boom)
        trace.subscribe(second_got.append)
        with pytest.raises(RuntimeError, match="exploded"):
            trace.emit(1.0, "c", "x")
        # The log kept the event and the later subscriber still saw it.
        assert len(trace) == 1
        assert [e.name for e in second_got] == ["x"]
        assert trace.subscriber_errors == 1

    def test_first_error_reraised_all_counted(self, trace):
        trace.subscribe(lambda e: (_ for _ in ()).throw(ValueError("first")))
        trace.subscribe(lambda e: (_ for _ in ()).throw(KeyError("second")))
        with pytest.raises(ValueError, match="first"):
            trace.emit(1.0, "c", "x")
        assert trace.subscriber_errors == 2

    def test_log_still_usable_after_subscriber_error(self, trace):
        bad = trace.subscribe(
            lambda e: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError):
            trace.emit(1.0, "c", "x")
        bad()
        trace.emit(2.0, "c", "y")
        assert [e.name for e in trace] == ["x", "y"]


class TestRngRegistry:
    def test_same_name_same_stream_object(self, rngs):
        assert rngs.stream("a") is rngs.stream("a")

    def test_different_names_independent(self):
        registry = RngRegistry(seed=1)
        a_draws = [registry.stream("a").random() for _ in range(5)]
        registry2 = RngRegistry(seed=1)
        # Drawing from "b" first must not perturb "a".
        registry2.stream("b").random()
        a_draws2 = [registry2.stream("a").random() for _ in range(5)]
        assert a_draws == a_draws2

    def test_deterministic_across_instances(self):
        first = RngRegistry(seed=99).stream("x").random()
        second = RngRegistry(seed=99).stream("x").random()
        assert first == second

    def test_different_seeds_differ(self):
        assert RngRegistry(seed=1).stream("x").random() != RngRegistry(seed=2).stream("x").random()

    def test_fork_is_independent_of_parent(self):
        parent = RngRegistry(seed=5)
        child = parent.fork("child")
        assert child.stream("x").random() != parent.stream("x").random()

    def test_fork_deterministic(self):
        a = RngRegistry(seed=5).fork("c").stream("x").random()
        b = RngRegistry(seed=5).fork("c").stream("x").random()
        assert a == b

    def test_stream_names_tracked(self, rngs):
        rngs.stream("zeta")
        rngs.stream("alpha")
        assert rngs.stream_names == ["alpha", "zeta"]


class TestRngDigestMemo:
    """``stream_digests`` is a memo over ``getstate()``; it must always
    equal the digest of the freshly serialized state."""

    @staticmethod
    def fresh(registry):
        from repro.persistence.snapshot import state_digest
        from repro.simulation.rng import serialize_rng_state

        return {name: state_digest(serialize_rng_state(registry.stream(name)))
                for name in registry.stream_names}

    def test_memo_tracks_every_way_a_stream_moves(self):
        registry = RngRegistry(seed=11)
        a, b = registry.stream("a"), registry.stream("b")
        assert registry.stream_digests() == self.fresh(registry)
        # No draw: answered from the memo, still right.
        assert registry.stream_digests() == self.fresh(registry)
        before = registry.stream_digests()
        a.random()
        after = registry.stream_digests()
        assert after == self.fresh(registry)
        assert after["a"] != before["a"] and after["b"] == before["b"]
        b.gauss(0.0, 1.0)
        assert registry.stream_digests() == self.fresh(registry)

    def test_gauss_next_alone_changes_the_digest(self):
        registry = RngRegistry(seed=3)
        rng = registry.stream("g")
        rng.gauss(0.0, 1.0)  # leaves a cached second variate
        version, internal, gauss_next = rng.getstate()
        assert gauss_next is not None
        with_cached = registry.stream_digests()["g"]
        rng.setstate((version, internal, None))
        assert registry.stream_digests() == self.fresh(registry)
        assert registry.stream_digests()["g"] != with_cached

    def test_restore_state_and_late_streams(self):
        registry = RngRegistry(seed=7)
        registry.stream("a").random()
        saved = registry.snapshot_state()
        at_save = registry.stream_digests()
        registry.stream("a").random()
        registry.stream("late").random()  # created after the first digest
        moved = registry.stream_digests()
        assert moved == self.fresh(registry)
        assert sorted(moved) == ["a", "late"]
        registry.restore_state(saved)
        assert registry.stream_digests()["a"] == at_save["a"]
        assert registry.stream_digests() == self.fresh(registry)

    def test_fork_has_its_own_memo(self):
        parent = RngRegistry(seed=5)
        parent.stream("x").random()
        parent_digests = parent.stream_digests()
        child = parent.fork("child")
        assert child.stream_digests() == {}
        child.stream("x").random()
        assert child.stream_digests() == self.fresh(child)
        assert child.stream_digests()["x"] != parent_digests["x"]
        assert parent.stream_digests() == parent_digests

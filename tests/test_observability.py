"""Tests for the observability subsystem: spans, instrument, exporters,
and end-to-end causal propagation through the resilience stack."""

import gc
import json
import tracemalloc

import pytest

from repro.core.system import IoTSystem
from repro.devices.software import Service, ServiceState
from repro.faults.models import PartitionFault, ServiceFailureFault
from repro.observability import (
    Instrument,
    SpanRecorder,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_snapshot,
    write_profile,
    write_profile_chrome_trace,
    write_spans_jsonl,
)
from repro.observability.flight import FlightRecorder
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog


def _descends(recorder, span, ancestor):
    """True if ``ancestor`` is on ``span``'s recorded parent chain."""
    current = span.parent_id
    while current is not None:
        if current == ancestor.span_id:
            return True
        parent = recorder.get(current)
        current = parent.parent_id if parent is not None else None
    return False


@pytest.fixture
def recorder() -> SpanRecorder:
    return SpanRecorder()


class TestSpanRecorder:
    def test_parentless_span_roots_a_trace(self, recorder):
        a = recorder.start("a", "test", 0.0)
        b = recorder.start("b", "test", 1.0)
        assert a.trace_id != b.trace_id
        assert a.parent_id is None

    def test_explicit_parent_inherits_trace(self, recorder):
        parent = recorder.start("p", "test", 0.0)
        child = recorder.start("c", "test", 1.0, parent=parent)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_context_stack_sets_implicit_parent(self, recorder):
        outer = recorder.start("outer", "test", 0.0)
        with recorder.use(outer):
            inner = recorder.start("inner", "test", 0.5)
        after = recorder.start("after", "test", 1.0)
        assert inner.parent_id == outer.span_id
        assert after.parent_id is None

    def test_use_none_is_noop(self, recorder):
        with recorder.use(None):
            span = recorder.start("s", "test", 0.0)
        assert span.parent_id is None

    def test_finish_is_idempotent(self, recorder):
        span = recorder.start("s", "test", 0.0)
        recorder.finish(span, 2.0, status="done")
        recorder.finish(span, 9.0, status="later")
        assert span.end == 2.0
        assert span.status == "done"
        assert span.duration == 2.0

    def test_record_is_instantaneous(self, recorder):
        span = recorder.record("blip", "test", 3.0, note="x")
        assert span.end is not None
        assert span.start == span.end == 3.0
        assert span.attrs["note"] == "x"

    def test_is_descendant_walks_parent_chain(self, recorder):
        a = recorder.start("a", "test", 0.0)
        b = recorder.start("b", "test", 0.0, parent=a)
        c = recorder.start("c", "test", 0.0, parent=b)
        other = recorder.start("o", "test", 0.0)
        assert _descends(recorder, c, a)
        assert _descends(recorder, c, b)
        assert not _descends(recorder, a, c)
        assert not _descends(recorder, other, a)

    def test_fault_index(self, recorder):
        span = recorder.start("fault:x", "injection", 0.0)
        recorder.open_fault("d1", span)
        assert recorder.active_fault("d1") is span
        recorder.close_fault("d1")
        assert recorder.active_fault("d1") is None

    def test_finish_open_closes_everything(self, recorder):
        recorder.start("a", "test", 0.0)
        done = recorder.start("b", "test", 0.0)
        recorder.finish(done, 1.0)
        assert recorder.finish_open(5.0) == 1
        assert all(s.end is not None for s in recorder)

    def test_select_filters(self, recorder):
        a = recorder.start("a", "x", 0.0)
        recorder.start("b", "y", 0.0)
        assert [s.name for s in recorder.select(category="x")] == ["a"]
        assert recorder.select(trace_id=a.trace_id) == [a]
        assert recorder.get(a.span_id) is a
        assert recorder.get("nope") is None

    def test_ids_are_deterministic(self):
        first = SpanRecorder()
        second = SpanRecorder()
        for rec in (first, second):
            parent = rec.start("p", "t", 0.0)
            rec.start("c", "t", 0.0, parent=parent)
        assert [s.span_id for s in first] == [s.span_id for s in second]
        assert [s.trace_id for s in first] == [s.trace_id for s in second]


class TestInstrument:
    def test_records_per_label_stats(self):
        sim = Simulator()
        sim.instrument = Instrument()
        sim.schedule(1.0, lambda s: None, label="work:a")
        sim.schedule(2.0, lambda s: None, label="work:a")
        sim.schedule(3.0, lambda s: None, label="other:b")
        sim.run()
        inst = sim.instrument
        assert inst.events == 3
        assert inst.labels["work:a"].count == 2
        assert inst.labels["other:b"].count == 1
        assert inst.total_busy_s >= 0.0
        report = inst.report()
        assert report["events"] == 3
        assert set(report["subsystems"]) == {"work", "other"}

    def test_disabled_instrument_records_nothing(self):
        sim = Simulator()
        sim.instrument = Instrument(enabled=False)
        sim.schedule(1.0, lambda s: None, label="x")
        sim.run()
        assert sim.instrument.events == 0

    def test_queue_depth_observed(self):
        sim = Simulator()
        sim.instrument = Instrument()
        for t in range(5):
            sim.schedule(float(t + 1), lambda s: None, label="tick")
        sim.run()
        # First fired event sees the other four still queued.
        assert sim.instrument.max_queue_depth == 4

    def test_sim_time_span(self):
        inst = Instrument()
        inst.record("a", 0.0, 0, 2.0)
        inst.record("a", 0.0, 0, 7.5)
        assert inst.report()["sim_time_span"] == 5.5


class TestMessageSpans:
    def test_delivered_message_span(self, sim, mesh5):
        nodes, _, network = mesh5
        network.spans = SpanRecorder()
        network.register("n2", "ping", lambda m: None)
        network.send("n1", "n2", "ping")
        sim.run(until=2.0)
        (span,) = network.spans.select(category="message")
        assert span.status == "delivered"
        assert span.end is not None
        assert span.attrs["src"] == "n1" and span.attrs["dst"] == "n2"

    def test_dropped_message_span_status(self, sim, mesh5):
        nodes, _, network = mesh5
        network.spans = SpanRecorder()
        network.send("n1", "n2", "ping")   # no handler registered
        sim.run(until=2.0)
        (span,) = network.spans.select(category="message")
        assert span.status == "dropped:unreachable"

    def test_handler_work_parented_to_message(self, sim, mesh5):
        nodes, _, network = mesh5
        spans = network.spans = SpanRecorder()

        def reply(message):
            network.send("n2", "n1", "pong")

        network.register("n2", "ping", reply)
        network.register("n1", "pong", lambda m: None)
        network.send("n1", "n2", "ping")
        sim.run(until=5.0)
        ping = spans.select(name="msg:ping")[0]
        pong = spans.select(name="msg:pong")[0]
        assert pong.trace_id == ping.trace_id
        assert _descends(spans, pong, ping)

    def test_message_carries_span_context(self, sim, mesh5):
        nodes, _, network = mesh5
        network.spans = SpanRecorder()
        seen = []
        network.register("n2", "ping", lambda m: seen.append(m))
        message = network.send("n1", "n2", "ping")
        sim.run(until=2.0)
        assert message.span is not None
        assert seen[0].span is message.span

    def test_no_spans_no_overhead_path(self, sim, mesh5):
        nodes, _, network = mesh5
        got = []
        network.register("n2", "ping", lambda m: got.append(m))
        message = network.send("n1", "n2", "ping")
        sim.run(until=2.0)
        assert got and message.span is None


class TestFaultSpans:
    def _system(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=3)
        system.enable_observability()
        return system

    def test_partition_recovery_descends_from_injection(self):
        system = self._system()
        system.injector.inject_at(5.0, PartitionFault(
            name="outage", duration=10.0, isolate_node="cloud"))
        system.run(until=30.0)
        spans = system.spans
        (injection,) = spans.select(category="injection")
        recoveries = spans.select(category="recovery")
        assert recoveries, "expected recovery spans from the heal"
        for recovery in recoveries:
            assert recovery.trace_id == injection.trace_id
            assert _descends(spans, recovery, injection)
        # The partition cut span nests under the injection too.
        (cut,) = spans.select(category="fault", name="partition:fault:outage")
        assert cut.status == "healed"
        assert _descends(spans, cut, injection)
        assert cut.duration == pytest.approx(10.0)

    def test_mape_repair_joins_fault_trace(self):
        from repro.adaptation import (
            DeviceLivenessAnalyzer,
            Executor,
            MapeLoop,
            RuleBasedPlanner,
            ServiceHealthAnalyzer,
        )

        system = self._system()
        device = system.sites["edge0"][0]
        system.fleet.get(device).host(Service("svc"))
        MapeLoop(
            system.sim, system.network, system.fleet, "edge0",
            list(system.sites["edge0"]),
            analyzers=[ServiceHealthAnalyzer(), DeviceLivenessAnalyzer()],
            planner=RuleBasedPlanner(),
            executor=Executor(system.sim, system.network, system.fleet,
                              "edge0", system.rngs.stream("exec"),
                              trace=system.trace),
            period=1.0, trace=system.trace,
        ).start()
        system.injector.inject_at(5.0, ServiceFailureFault(
            name="svcfail", device_id=device, service_name="svc"))
        system.run(until=20.0)
        assert system.fleet.get(device).stack.service("svc").state == ServiceState.RUNNING
        spans = system.spans
        (injection,) = spans.select(category="injection")
        repairs = [s for s in spans.select(category="recovery")
                   if s.name == f"repair:{device}"]
        assert repairs, "expected a MAPE repair span"
        assert repairs[0].trace_id == injection.trace_id
        assert _descends(spans, repairs[0], injection)

    def test_mape_iterations_and_messages_recorded(self):
        from repro.experiments import run_mape_placement

        system, loops = run_mape_placement("edge", observe=True)
        spans = system.spans
        assert len(spans.select(category="adaptation")) == sum(
            loop.iterations for loop in loops)
        assert system.sim.instrument is not None
        assert system.sim.instrument.events > 0


class TestCoordinationSpans:
    def test_gossip_round_spans(self, sim, mesh5, rngs):
        from repro.coordination.gossip import GossipNode

        nodes, _, network = mesh5
        network.spans = SpanRecorder()
        node = GossipNode(sim, network, "n1", ["n1", "n2"], rngs.stream("g"),
                          period=1.0)
        GossipNode(sim, network, "n2", ["n1", "n2"], rngs.stream("g2"),
                   period=1.0)
        node.start()
        sim.run(until=3.5)
        rounds = network.spans.select(category="coordination")
        assert len(rounds) == node.rounds
        pushes = network.spans.select(name="msg:gossip.push")
        assert pushes
        assert _descends(network.spans, pushes[0], rounds[0])

    def test_raft_election_span_won(self, sim, mesh5, rngs):
        from repro.coordination.raft import RaftCluster

        nodes, _, network = mesh5
        network.spans = SpanRecorder()
        cluster = RaftCluster(sim, network, nodes, rngs.stream("raft"))
        cluster.start()
        sim.run(until=10.0)
        assert cluster.leader() is not None
        won = [s for s in network.spans.select(category="coordination")
               if s.name.startswith("election:") and s.status == "won"]
        assert won
        # Vote-request messages nest under the winning campaign.
        votes = network.spans.select(name="msg:raft.request_vote")
        assert any(_descends(network.spans, v, won[0]) for v in votes)

    def test_failure_detector_ping_spans(self, sim, mesh5):
        from repro.coordination.failure_detector import HeartbeatFailureDetector

        nodes, _, network = mesh5
        network.spans = SpanRecorder()
        detector = HeartbeatFailureDetector(sim, network, "n1", ["n2"],
                                            period=1.0, timeout=3.0)
        detector.start()
        sim.run(until=4.5)
        ticks = [s for s in network.spans.select(category="coordination")
                 if s.name == "fd:n1"]
        assert len(ticks) == 5
        assert network.spans.select(name="msg:fd.heartbeat")


class TestExporters:
    def _sample_data(self):
        recorder = SpanRecorder()
        parent = recorder.start("fault:x", "injection", 1.0, kind="test")
        recorder.record("recover:x", "recovery", 4.0, parent=parent)
        recorder.finish(parent, 4.0, status="reverted")
        trace = TraceLog()
        trace.emit(1.0, "fault", "partition-start", subject="p", links={"a-b"})
        trace.emit(4.0, "recovery", "partition-heal", subject="p")
        return recorder, trace

    def test_spans_jsonl_round_trips(self, tmp_path):
        recorder, _ = self._sample_data()
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(recorder, path) == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["name"] == "fault:x"
        assert lines[1]["parent_id"] == lines[0]["span_id"]
        assert lines[1]["trace_id"] == lines[0]["trace_id"]

    def test_events_jsonl_serializes_attrs(self, tmp_path):
        _, trace = self._sample_data()
        path = tmp_path / "events.jsonl"
        assert write_events_jsonl(trace, path) == 2
        first = json.loads(path.read_text().splitlines()[0])
        assert first["name"] == "partition-start"
        assert first["attrs"]["links"] == ["a-b"]   # set serialized sorted

    def test_chrome_trace_structure(self, tmp_path):
        recorder, trace = self._sample_data()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, spans=recorder, events=trace)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        slices = [e for e in events if e["ph"] == "X"]
        # Microsecond timestamps, minimum visible duration, span args kept.
        assert slices[0]["ts"] == pytest.approx(1.0e6)
        assert all(s["dur"] >= 1.0 for s in slices)
        assert slices[0]["args"]["trace_id"] == slices[1]["args"]["trace_id"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {i["name"] for i in instants} == {"partition-start",
                                                "partition-heal"}
        # Metadata names every thread.
        named = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(named) == len({e["tid"] for e in events if e["ph"] != "M"})

    def test_chrome_trace_events_standalone(self, tmp_path):
        recorder, _ = self._sample_data()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, spans=recorder)
        records = json.loads(path.read_text())["traceEvents"]
        assert len(records) == count
        assert any(r["ph"] == "X" for r in records)
        assert not any(r["ph"] == "i" for r in records)

    def test_metrics_snapshot_includes_counters(self, tmp_path):
        metrics = MetricsRecorder()
        metrics.record("lat", 1.0, 0.5)
        metrics.increment("drops", 3)
        path = tmp_path / "metrics.json"
        snapshot = write_metrics_snapshot(metrics, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(snapshot))
        assert on_disk["counters"]["drops"] == 3.0
        assert on_disk["series"]["lat"]["count"] == 1.0

    def test_profile_export(self, tmp_path):
        sim = Simulator()
        sim.instrument = Instrument()
        sim.schedule(1.0, lambda s: None, label="x")
        sim.run()
        path = tmp_path / "profile.json"
        report = write_profile(sim.instrument, path)
        assert json.loads(path.read_text())["events"] == report["events"] == 1

    def test_profile_export_detached(self, tmp_path):
        path = tmp_path / "profile.json"
        assert write_profile(None, path) == {"events": 0}


class TestEnableObservability:
    def test_idempotent_and_shared(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 1, seed=1)
        spans = system.enable_observability()
        assert system.enable_observability() is spans
        assert system.network.spans is spans
        assert system.injector.spans is spans
        assert system.partitions.spans is spans
        assert system.sim.instrument is not None

    def test_instrument_opt_out(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 1, seed=1)
        system.enable_observability(instrument=False)
        assert system.sim.instrument is None


class TestSpanIndexAndDuration:
    """PR 2 satellites: the persistent by-id index and explicit
    open-span duration semantics."""

    def test_get_returns_span_by_id(self):
        recorder = SpanRecorder()
        spans = [recorder.start(f"s{i}", "test", float(i)) for i in range(50)]
        for span in spans:
            assert recorder.get(span.span_id) is span
        assert recorder.get("nope") is None

    def test_open_span_duration_is_none(self):
        recorder = SpanRecorder()
        span = recorder.start("work", "test", 1.0)
        assert span.duration is None
        assert span.duration_or(4.0) == 3.0
        recorder.finish(span, 5.0)
        assert span.duration == 4.0
        assert span.duration_or(99.0) == 4.0

    def test_is_descendant_uses_index_after_many_spans(self):
        recorder = SpanRecorder()
        root = recorder.start("root", "test", 0.0)
        node = root
        chain = [root]
        for i in range(20):
            node = recorder.start(f"n{i}", "test", float(i), parent=node)
            chain.append(node)
        # Unrelated traffic must not confuse the parent-chain walk.
        for i in range(100):
            recorder.start(f"noise{i}", "test", float(i))
        assert _descends(recorder, chain[-1], root)
        assert _descends(recorder, chain[-1], chain[10])
        assert not _descends(recorder, root, chain[-1])

    def test_children_index_groups_by_parent(self):
        recorder = SpanRecorder()
        root = recorder.start("root", "test", 0.0)
        kids = [recorder.start(f"k{i}", "test", 1.0, parent=root)
                for i in range(3)]
        grandkid = recorder.start("g", "test", 2.0, parent=kids[0])
        index = recorder.children_index()
        assert index[root.span_id] == kids
        assert index[kids[0].span_id] == [grandkid]
        assert root.span_id not in index.get(grandkid.span_id, [])


# --------------------------------------------------------------------------- #
# constant memory
# --------------------------------------------------------------------------- #
def _extra_peak_kib(call, *args, **kwargs) -> float:
    """Peak traced allocation above what was live when ``call`` started."""
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - live) / 1024
    finally:
        tracemalloc.stop()


def _observed_system(records: int) -> IoTSystem:
    """A system holding ``records`` finished spans and trace events."""
    system = IoTSystem(seed=3)
    spans = system.enable_observability(instrument=False)
    for index in range(records):
        span = spans.start(f"send{index % 13}", "message", index * 0.01,
                           size=index, route=("a", "b"))
        spans.finish(span, index * 0.01 + 0.002, status="delivered")
        system.trace.emit(index * 0.01, "message", "deliver",
                          subject=f"dev{index % 50}", kind="telemetry")
    return system


class TestExportConstantMemory:
    """An exporter's extra peak does not grow with what it writes: N vs 4N
    records.  List-building writers grow by megabytes over
    these sizes; a streaming writer holds one chunk of encoded records,
    and a flight capture the bounded tails."""

    SLACK_KIB = 32

    def _peaks(self, tmp_path, export, sizes=(1_000, 4_000)):
        peaks = []
        for records in sizes:
            system = _observed_system(records)
            path = str(tmp_path / f"{records}")
            peaks.append(_extra_peak_kib(export, system, path))
        return peaks

    def _assert_flat(self, peaks):
        assert peaks[1] <= peaks[0] + self.SLACK_KIB, peaks

    def test_spans_jsonl(self, tmp_path):
        self._assert_flat(self._peaks(
            tmp_path,
            lambda system, path: write_spans_jsonl(system.spans, path)))

    def test_events_jsonl(self, tmp_path):
        self._assert_flat(self._peaks(
            tmp_path,
            lambda system, path: write_events_jsonl(system.trace, path)))

    def test_chrome_trace(self, tmp_path):
        self._assert_flat(self._peaks(
            tmp_path, lambda system, path: write_chrome_trace(
                path, spans=system.spans, events=system.trace)))

    def test_profile_chrome_trace(self, tmp_path):
        self._assert_flat(self._peaks(
            tmp_path, lambda system, path: write_profile_chrome_trace(
                path, system.spans, now=system.sim.now)))

    def test_flight_capture(self, tmp_path):
        def capture(system, path):
            # Short tails, so what the bundle holds by design stays small
            # beside what a full copy of the trace or the spans would be.
            flight = FlightRecorder(system, max_events=16, max_spans=16)
            flight.trigger("gate-failure")
            flight.capture(path)

        # Larger: a full copy costs 8 bytes a record, and must outgrow the
        # peak the bundle's own JSON writing reaches.
        self._assert_flat(self._peaks(tmp_path, capture, (4_000, 16_000)))

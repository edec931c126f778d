"""Tests for the edge stream-analytics substrate."""

import pytest

from repro.devices.base import Device, DeviceClass
from repro.devices.fleet import DeviceFleet
from repro.network.topology import build_edge_cloud_topology
from repro.network.transport import Network
from repro.streams import (
    Dataflow,
    Operator,
    SinkOperator,
    SourceOperator,
    StreamTuple,
    WindowAggregateOperator,
)


class _Filter(Operator):
    """Passes the tuples whose value satisfies ``predicate``."""

    def __init__(self, name, predicate):
        super().__init__(name)
        self.predicate = predicate

    def process(self, item, now):
        return [item] if self.predicate(item.value) else []


class TestOperators:
    def test_window_mean_closes_on_next_window(self):
        op = WindowAggregateOperator.mean("avg", window=10.0)
        assert op.process(StreamTuple(10.0, 1.0), 1.0) == []
        assert op.process(StreamTuple(20.0, 5.0), 5.0) == []
        closed = op.process(StreamTuple(99.0, 12.0), 12.0)  # next window
        assert len(closed) == 1
        assert closed[0].value == pytest.approx(15.0)
        assert closed[0].event_time == 10.0   # window end

    def test_window_closes_on_epoch(self):
        op = WindowAggregateOperator.count("cnt", window=10.0)
        op.process(StreamTuple(1, 2.0), 2.0)
        assert op.on_epoch(5.0) == []       # window still open
        closed = op.on_epoch(11.0)
        assert len(closed) == 1 and closed[0].value == 1

    def test_keyed_windows_independent(self):
        op = WindowAggregateOperator.count("cnt", window=10.0, key_by=True)
        op.process(StreamTuple(1, 1.0, key="a"), 1.0)
        op.process(StreamTuple(1, 2.0, key="b"), 2.0)
        op.process(StreamTuple(1, 3.0, key="a"), 3.0)
        closed = sorted(op.on_epoch(11.0), key=lambda t: t.key)
        assert [(t.key, t.value) for t in closed] == [("a", 2), ("b", 1)]

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            WindowAggregateOperator.mean("w", window=0.0)

    def test_sink_collects_and_calls_back(self):
        got = []
        sink = SinkOperator("out", on_result=got.append)
        sink.process(StreamTuple(1, 0.0), 0.0)
        assert len(sink.results) == 1 and len(got) == 1


@pytest.fixture
def pipeline_rig(sim, rngs, metrics, trace):
    # Lossless device links: these tests assert exact tuple counts, so
    # the 1% wireless loss of the default profile would flake them.
    topology, sites = build_edge_cloud_topology(1, 2, rng=rngs.stream("net"),
                                                device_profile="lan")
    network = Network(sim, topology, trace=trace)
    fleet = DeviceFleet(sim, network=network, metrics=metrics, trace=trace)
    fleet.add(Device("cloud", DeviceClass.CLOUD))
    fleet.add(Device("edge0", DeviceClass.EDGE))
    for device_id in sites["edge0"]:
        fleet.add(Device(device_id, DeviceClass.GATEWAY))
    return sim, network, fleet, sites, metrics


def build_pipeline(sim, network, fleet, metrics, edge_host="edge0",
                   window=5.0):
    """device source -> edge window-mean -> cloud sink."""
    flow = Dataflow("pipeline", sim, network, fleet, epoch_period=1.0,
                    metrics=metrics)
    sink = SinkOperator("sink")
    flow.add_operator(SourceOperator("src"), "d0.0")
    flow.add_operator(WindowAggregateOperator.mean("agg", window), edge_host,
                      upstream="src")
    flow.add_operator(sink, "cloud", upstream="agg")
    flow.start()
    return flow, sink


class TestDataflow:
    def test_end_to_end_aggregation(self, pipeline_rig):
        sim, network, fleet, sites, metrics = pipeline_rig
        flow, sink = build_pipeline(sim, network, fleet, metrics)

        def feed(s):
            flow.ingest("src", StreamTuple(10.0, s.now, origin="d0.0"))
            if s.now < 20.0:
                s.schedule(1.0, feed)

        sim.schedule(0.5, feed)
        sim.run(until=30.0)
        assert len(sink.results) >= 3
        assert all(r.value == pytest.approx(10.0) for r in sink.results)

    def test_edge_aggregation_reduces_shipped_volume(self, pipeline_rig):
        """The §V.B claim: windowing at the edge cuts upstream volume by
        the window factor."""
        sim, network, fleet, sites, metrics = pipeline_rig
        flow, sink = build_pipeline(sim, network, fleet, metrics, window=5.0)

        def feed(s):
            flow.ingest("src", StreamTuple(1.0, s.now))
            if s.now < 50.0:
                s.schedule(1.0, feed)

        sim.schedule(0.5, feed)
        sim.run(until=60.0)
        # ~50 source tuples -> ~10 aggregates; shipped = src->agg (50)
        # + agg->sink (~10).  Ratio ~1.2 vs 2.0 for ship-everything.
        source = flow.operator("src")
        assert flow.tuples_shipped / source.processed < 1.5
        aggregate = flow.operator("agg")
        assert aggregate.emitted <= source.emitted / 4

    def test_sink_latency_recorded(self, pipeline_rig):
        sim, network, fleet, sites, metrics = pipeline_rig
        flow, sink = build_pipeline(sim, network, fleet, metrics)
        flow.ingest("src", StreamTuple(1.0, sim.now))
        sim.run(until=10.0)
        assert metrics.has_series("stream.latency:pipeline")

    def test_down_host_drops_then_migration_restores(self, pipeline_rig):
        sim, network, fleet, sites, metrics = pipeline_rig
        # A device-to-device side link: without it, losing the star hub
        # (edge0) would isolate the site and no migration could help --
        # redundant connectivity is a precondition of operator mobility.
        network.topology.add_link("d0.0", "d0.1", profile="lan")
        flow, sink = build_pipeline(sim, network, fleet, metrics)

        def feed(s):
            flow.ingest("src", StreamTuple(2.0, s.now))
            if s.now < 40.0:
                s.schedule(1.0, feed)

        sim.schedule(0.5, feed)
        sim.run(until=10.0)
        fleet.crash("edge0")
        sim.run(until=15.0)
        dropped_during_outage = flow.tuples_dropped
        assert dropped_during_outage > 0
        # Losing edge0 severed both the aggregate host AND the cloud
        # uplink: move the whole tail of the pipeline into the island
        # (aggregate to d0.1, sink to d0.0) and processing resumes.
        flow.migrate_operator("agg", "d0.1")
        flow.migrate_operator("sink", "d0.0")
        assert flow.placement_of("agg") == "d0.1"
        results_before = len(sink.results)
        sim.run(until=40.0)
        assert len(sink.results) > results_before

    def test_window_state_survives_migration(self, pipeline_rig):
        sim, network, fleet, sites, metrics = pipeline_rig
        flow, sink = build_pipeline(sim, network, fleet, metrics, window=100.0)
        for value in (10.0, 20.0):
            flow.ingest("src", StreamTuple(value, sim.now))
        sim.run(until=5.0)
        flow.migrate_operator("agg", "d0.1")
        for value in (30.0, 40.0):
            flow.ingest("src", StreamTuple(value, sim.now))
        sim.run(until=120.0)   # epoch closes the window
        assert len(sink.results) == 1
        assert sink.results[0].value == pytest.approx(25.0)   # mean of all four

    def test_duplicate_operator_raises(self, pipeline_rig):
        sim, network, fleet, sites, metrics = pipeline_rig
        flow = Dataflow("f", sim, network, fleet)
        flow.add_operator(SourceOperator("src"), "edge0")
        with pytest.raises(ValueError):
            flow.add_operator(SourceOperator("src"), "edge0")

    def test_unknown_upstream_or_host_raises(self, pipeline_rig):
        sim, network, fleet, sites, metrics = pipeline_rig
        flow = Dataflow("f", sim, network, fleet)
        with pytest.raises(KeyError):
            flow.add_operator(SourceOperator("src"), "ghost-host")
        flow.add_operator(SourceOperator("src"), "edge0")
        with pytest.raises(KeyError):
            flow.add_operator(SinkOperator("sink"), "edge0", upstream="ghost")

    def test_branching_dataflow(self, pipeline_rig):
        """One source feeding two sinks through different filters."""
        sim, network, fleet, sites, metrics = pipeline_rig
        flow = Dataflow("branch", sim, network, fleet)
        high_sink = SinkOperator("high_sink")
        low_sink = SinkOperator("low_sink")
        flow.add_operator(SourceOperator("src"), "edge0")
        flow.add_operator(_Filter("high", lambda v: v >= 50), "edge0",
                          upstream="src")
        flow.add_operator(_Filter("low", lambda v: v < 50), "edge0",
                          upstream="src")
        flow.add_operator(high_sink, "cloud", upstream="high")
        flow.add_operator(low_sink, "edge0", upstream="low")
        flow.start()
        for value in (10, 60, 30, 90):
            flow.ingest("src", StreamTuple(value, sim.now))
        sim.run(until=5.0)
        assert sorted(t.value for t in high_sink.results) == [60, 90]
        assert sorted(t.value for t in low_sink.results) == [10, 30]
        # low branch stayed host-local; high branch crossed the network.
        assert flow.tuples_local > 0 and flow.tuples_shipped > 0

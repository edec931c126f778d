"""Unit tests for links, topology, transport and partitions."""

import random

import pytest

from repro.network.link import LINK_PROFILES, LatencyModel, Link, LinkProfile
from repro.network.partition import PartitionManager
from repro.network.topology import (
    Topology,
    build_edge_cloud_topology,
    build_mesh_topology,
)
from repro.network.transport import Network


class TestLinkProfile:
    def test_invalid_profiles_raise(self):
        with pytest.raises(ValueError):
            LinkProfile("x", base_latency=-1.0)
        with pytest.raises(ValueError):
            LinkProfile("x", base_latency=0.01, loss_rate=1.5)
        with pytest.raises(ValueError):
            LinkProfile("x", base_latency=0.01, bandwidth=0)
        with pytest.raises(ValueError):
            LinkProfile("x", base_latency=0.01, jitter=0.02)

    def test_builtin_profiles_ordered_by_latency(self):
        assert LINK_PROFILES["local"].base_latency < LINK_PROFILES["lan"].base_latency
        assert LINK_PROFILES["lan"].base_latency < LINK_PROFILES["wan"].base_latency

    def test_latency_model_within_jitter_bounds(self):
        profile = LinkProfile("t", base_latency=0.010, jitter=0.002)
        model = LatencyModel(profile, random.Random(1))
        for _ in range(200):
            latency = model.sample()
            assert 0.008 <= latency <= 0.012

    def test_serialization_delay_added(self):
        profile = LinkProfile("t", base_latency=0.0, bandwidth=1000.0)
        model = LatencyModel(profile, random.Random(1))
        assert model.sample(size_bytes=500) == pytest.approx(0.5)

    def test_degradation_multiplies_latency(self):
        profile = LinkProfile("t", base_latency=0.010)
        model = LatencyModel(profile, random.Random(1))
        model.degradation = 10.0
        assert model.sample() == pytest.approx(0.1)

    def test_loss_rate_statistics(self):
        profile = LinkProfile("t", base_latency=0.01, loss_rate=0.3)
        model = LatencyModel(profile, random.Random(7))
        losses = sum(model.sample() is None for _ in range(5000))
        assert 0.25 < losses / 5000 < 0.35


class TestLink:
    def test_self_link_raises(self):
        with pytest.raises(ValueError):
            Link("a", "a", LINK_PROFILES["lan"], random.Random(1))

    def test_other_endpoint(self):
        link = Link("a", "b", LINK_PROFILES["lan"], random.Random(1))
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(ValueError):
            link.other("c")

    def test_degradation_below_one_raises(self):
        link = Link("a", "b", LINK_PROFILES["lan"], random.Random(1))
        with pytest.raises(ValueError):
            link.set_degradation(0.5)

    def test_key_is_order_independent(self):
        a = Link("x", "y", LINK_PROFILES["lan"], random.Random(1))
        b = Link("y", "x", LINK_PROFILES["lan"], random.Random(1))
        assert a.key() == b.key()


class TestTopology:
    def test_route_prefers_low_latency(self):
        topo = Topology(rng=random.Random(1))
        topo.add_link("a", "b", profile="wan")
        topo.add_link("a", "c", profile="lan")
        topo.add_link("c", "b", profile="lan")
        assert topo.route("a", "b") == ["a", "c", "b"]

    def test_route_avoids_down_links(self):
        topo = Topology(rng=random.Random(1))
        topo.add_link("a", "c", profile="lan")
        topo.add_link("c", "b", profile="lan")
        topo.add_link("a", "b", profile="wan")
        topo.link_between("a", "c").set_up(False)
        assert topo.route("a", "b") == ["a", "b"]

    def test_unreachable_returns_none(self):
        topo = Topology(rng=random.Random(1))
        topo.add_node("a")
        topo.add_node("b")
        assert topo.route("a", "b") is None
        assert not topo.reachable("a", "b")

    def test_route_to_self(self):
        topo = Topology(rng=random.Random(1))
        topo.add_node("a")
        assert topo.route("a", "a") == ["a"]

    def test_unknown_profile_raises(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_link("a", "b", profile="warp")

    def test_components_reflect_partitions(self):
        topo = build_mesh_topology(["a", "b", "c"], rng=random.Random(1))
        assert len(topo.components()) == 1
        for neighbor in ("b", "c"):
            topo.link_between("a", neighbor).set_up(False)
        components = topo.components()
        assert {"a"} in components

    def test_expected_latency_sums_path(self):
        topo = Topology(rng=random.Random(1))
        topo.add_link("a", "b", profile="lan")
        topo.add_link("b", "c", profile="lan")
        expected = 2 * LINK_PROFILES["lan"].base_latency
        assert topo.expected_latency("a", "c") == pytest.approx(expected)

    def test_remove_node_cleans_links(self):
        topo = Topology(rng=random.Random(1))
        topo.add_link("l1", "hub", profile="lan")
        topo.add_link("l2", "hub", profile="lan")
        topo.remove_node("hub")
        assert not topo.has_node("hub")
        assert all(link.key() != "hub--l1" for link in topo.links)

    def test_edge_cloud_builder_shape(self):
        topo, sites = build_edge_cloud_topology(3, 2, rng=random.Random(1))
        assert set(sites) == {"edge0", "edge1", "edge2"}
        assert all(len(devices) == 2 for devices in sites.values())
        # Edge mesh ring exists: edge0-edge1 without going through cloud.
        topo.link_between("edge0", "cloud").set_up(False)
        topo.link_between("edge1", "cloud").set_up(False)
        assert topo.reachable("edge0", "edge1")

    def test_device_latency_edge_vs_cloud(self):
        """The Fig. 1 claim: edge-local paths are an order of magnitude
        faster than cloud round trips."""
        topo, sites = build_edge_cloud_topology(2, 2, rng=random.Random(1))
        device = sites["edge0"][0]
        edge_latency = topo.expected_latency(device, "edge0")
        cloud_latency = topo.expected_latency(device, "cloud")
        assert cloud_latency > 5 * edge_latency


class TestTransport:
    def test_delivery_to_registered_handler(self, sim, rngs):
        topo = build_mesh_topology(["a", "b"], rng=rngs.stream("net"))
        network = Network(sim, topo)
        got = []
        network.register("b", "ping", lambda m: got.append(m.payload))
        network.send("a", "b", "ping", payload=123)
        sim.run()
        assert got == [123]
        assert network.stats.delivered == 1

    def test_latency_applied(self, sim, rngs):
        topo = Topology(rng=rngs.stream("net"))
        topo.add_link("a", "b", profile="wan")
        network = Network(sim, topo)
        arrival = []
        network.register("b", "ping", lambda m: arrival.append(sim.now))
        network.send("a", "b", "ping")
        sim.run()
        assert arrival[0] >= 0.04  # wan base 60ms - 20ms jitter

    def test_unreachable_drop_counted(self, sim, rngs):
        topo = Topology(rng=rngs.stream("net"))
        topo.add_node("a")
        topo.add_node("b")
        network = Network(sim, topo)
        network.send("a", "b", "ping")
        sim.run()
        assert network.stats.dropped_unreachable == 1
        assert network.stats.delivered == 0

    def test_down_destination_drops(self, sim, rngs):
        topo = build_mesh_topology(["a", "b"], rng=rngs.stream("net"))
        network = Network(sim, topo)
        network.register("b", "ping", lambda m: pytest.fail("should not deliver"))
        network.set_node_up("b", False)
        network.send("a", "b", "ping")
        sim.run()
        assert network.stats.dropped_unreachable == 1

    def test_crash_while_in_flight_drops(self, sim, rngs):
        topo = Topology(rng=rngs.stream("net"))
        topo.add_link("a", "b", profile="wan")
        network = Network(sim, topo)
        network.register("b", "ping", lambda m: pytest.fail("should not deliver"))
        network.send("a", "b", "ping")
        sim.schedule(0.0001, lambda s: network.set_node_up("b", False))
        sim.run()
        assert network.stats.dropped_unreachable == 1

    def test_down_relay_black_holes(self, sim, rngs):
        topo = Topology(rng=rngs.stream("net"))
        topo.add_link("a", "relay", profile="lan")
        topo.add_link("relay", "b", profile="lan")
        network = Network(sim, topo)
        network.register("b", "ping", lambda m: pytest.fail("should not deliver"))
        network.set_node_up("relay", False)
        network.send("a", "b", "ping")
        sim.run()
        assert network.stats.dropped_unreachable == 1

    def test_default_handler_catches_unknown_kinds(self, sim, rngs):
        topo = build_mesh_topology(["a", "b"], rng=rngs.stream("net"))
        network = Network(sim, topo)
        got = []
        network.register_default("b", lambda m: got.append(m.kind))
        network.send("a", "b", "anything")
        sim.run()
        assert got == ["anything"]

    def test_broadcast_excludes_self(self, sim, rngs):
        topo = build_mesh_topology(["a", "b", "c"], rng=rngs.stream("net"))
        network = Network(sim, topo)
        messages = network.broadcast("a", ["a", "b", "c"], "hi")
        assert len(messages) == 2


class TestPartitionManager:
    def test_isolate_and_heal(self, sim, rngs, trace):
        topo = build_mesh_topology(["a", "b", "c"], rng=rngs.stream("net"))
        manager = PartitionManager(sim, topo, trace=trace)
        name = manager.isolate_node("a")
        assert not topo.reachable("a", "b")
        assert topo.reachable("b", "c")
        manager.heal(name)
        assert topo.reachable("a", "b")
        assert trace.count(name="partition-start") == 1
        assert trace.count(name="partition-heal") == 1

    def test_cut_between_groups(self, sim, rngs):
        topo = build_mesh_topology(["a", "b", "c", "d"], rng=rngs.stream("net"))
        manager = PartitionManager(sim, topo)
        manager.cut_between({"a", "b"}, {"c", "d"})
        assert topo.reachable("a", "b")
        assert topo.reachable("c", "d")
        assert not topo.reachable("a", "c")

    def test_overlapping_groups_raise(self, sim, rngs):
        topo = build_mesh_topology(["a", "b"], rng=rngs.stream("net"))
        manager = PartitionManager(sim, topo)
        with pytest.raises(ValueError):
            manager.cut_between({"a"}, {"a", "b"})

    def test_duplicate_partition_name_raises(self, sim, rngs):
        topo = build_mesh_topology(["a", "b", "c"], rng=rngs.stream("net"))
        manager = PartitionManager(sim, topo)
        manager.isolate_node("a", name="p")
        with pytest.raises(ValueError):
            manager.isolate_node("b", name="p")

    def test_heal_unknown_raises(self, sim, rngs):
        topo = build_mesh_topology(["a", "b"], rng=rngs.stream("net"))
        manager = PartitionManager(sim, topo)
        with pytest.raises(KeyError):
            manager.heal("nope")

    def test_scheduled_outage_window(self, sim, rngs):
        topo = build_mesh_topology(["a", "b"], rng=rngs.stream("net"))
        manager = PartitionManager(sim, topo)
        manager.schedule_outage(5.0, 10.0, "a")
        sim.run(until=4.0)
        assert topo.reachable("a", "b")
        sim.run(until=6.0)
        assert not topo.reachable("a", "b")
        sim.run(until=16.0)
        assert topo.reachable("a", "b")

    def test_heal_all(self, sim, rngs):
        topo = build_mesh_topology(["a", "b", "c"], rng=rngs.stream("net"))
        manager = PartitionManager(sim, topo)
        names = [manager.isolate_node("a"), manager.isolate_node("b")]
        for name in names:
            manager.heal(name)
        assert not any(manager.is_active(name) for name in names)
        assert topo.reachable("a", "b")

"""Coverage of smaller public API surfaces not exercised elsewhere."""

import pytest

from repro.adaptation.actions import (
    MigrateServiceAction,
    NoopAction,
    RebootDeviceAction,
    RestartServiceAction,
)
from repro.adaptation.knowledge import Issue, KnowledgeBase
from repro.coordination.gossip import GossipNode
from repro.coordination.raft import RaftCluster
from repro.data.quorum import QuorumClient, QuorumReplica
from repro.data.sync import ReplicaStore, SyncProtocol
from repro.data.crdt import GCounter
from repro.devices.base import Device, DeviceClass
from repro.devices.fleet import DeviceFleet
from repro.modeling.goals import Goal
from repro.modeling.space import build_city_space
from repro.network.partition import PartitionManager
from repro.network.topology import build_mesh_topology
from repro.network.transport import Network


class TestActionDescriptions:
    def test_describe_strings(self):
        assert "restart" in RestartServiceAction(target="d", service="s").describe()
        migrate = MigrateServiceAction(target="a", service="s", destination="b")
        assert "'a'" in migrate.describe() and "'b'" in migrate.describe()
        assert "reboot" in RebootDeviceAction(target="d").describe()
        assert "why" in NoopAction(target="d", reason="why").describe()


class TestKnowledgeCloseIssue:
    def test_close_issue_object(self):
        kb = KnowledgeBase(["d1"])
        issue = Issue(kind="k", subject="d1", detected_at=0.0, service="s")
        kb.open_issue(issue)
        kb.close_issue(issue)
        assert kb.open_issues() == []


class TestGossipPeerManagement:
    def test_add_and_remove_peer(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        gossip = GossipNode(sim, network, "n1", ["n1"], rngs.stream("g"))
        gossip.add_peer("n2")
        gossip.add_peer("n2")          # idempotent
        gossip.add_peer("n1")          # self ignored
        assert gossip.peers == ["n2"]
        gossip.remove_peer("n2")
        gossip.remove_peer("n2")       # idempotent
        assert gossip.peers == []

    def test_added_peer_receives_state(self, sim, mesh5, rngs):
        # Neither node knows the other: no exchange happens at all.
        nodes, _, network = mesh5
        a = GossipNode(sim, network, "n1", ["n1"], rngs.stream("a"), period=0.5)
        b = GossipNode(sim, network, "n2", ["n2"], rngs.stream("b"), period=0.5)
        a.start()
        b.start()
        a.set("k", "v")
        sim.run(until=5.0)
        assert b.get("k") is None
        a.add_peer("n2")               # a now gossips toward b
        sim.run(until=10.0)
        assert b.get("k") == "v"


class TestRaftCommittedCommands:
    def test_committed_prefix_exposed(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        cluster = RaftCluster(sim, network, nodes, rngs.stream("raft"))
        cluster.start()
        sim.run(until=10.0)
        cluster.propose("a")
        cluster.propose("b")
        sim.run(until=15.0)
        leader = cluster.leader()
        assert leader.committed_commands() == ["a", "b"]


class TestQuorumReadAvailability:
    def test_read_availability_tracks_failures(self, sim, mesh5, rngs, trace):
        nodes, topology, network = mesh5
        for node in nodes[:3]:
            QuorumReplica(sim, network, node)
        client = QuorumClient(sim, network, "n4", nodes[:3], 2, 2, timeout=1.0)
        assert client.read_availability == 1.0
        client.read("k")
        sim.run(until=2.0)
        assert client.read_availability == 1.0
        partitions = PartitionManager(sim, topology, trace=trace)
        partitions.isolate_node("n1")
        partitions.isolate_node("n2")
        client.read("k")
        sim.run(until=4.0)
        assert client.read_availability == 0.5


class TestSyncNow:
    def test_immediate_targeted_exchange(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        a, b = ReplicaStore("n1"), ReplicaStore("n2")
        a.register("c", GCounter("n1"))
        b.register("c", GCounter("n2"))
        # No periodic start: only the explicit sync_now moves data.
        protocol_a = SyncProtocol(sim, network, a, ["n2"], rngs.stream("a"),
                                  period=1000.0)
        SyncProtocol(sim, network, b, ["n1"], rngs.stream("b"), period=1000.0)
        a.get("c").increment(3)
        protocol_a.sync_now("n2")
        sim.run(until=1.0)
        assert b.get("c").value == 3


class TestPartitionConvenience:
    def test_disconnect_cloud_and_is_active(self, sim, rngs):
        topology = build_mesh_topology(["cloud", "e1", "e2"],
                                       rng=rngs.stream("net"))
        manager = PartitionManager(sim, topology)
        name = manager.disconnect_cloud("cloud")
        assert manager.is_active(name)
        assert not topology.reachable("cloud", "e1")
        manager.heal(name)
        assert not manager.is_active(name)


class TestSpaceAccessors:
    def test_has_place_and_parent(self):
        city = build_city_space(2, 1)
        assert city.has_place("district0")
        assert not city.has_place("atlantis")
        assert city.parent_of("district0") == "city"
        assert city.parent_of("city") is None


class TestTransportUnregister:
    def test_unregistered_node_drops(self, sim, mesh5):
        nodes, _, network = mesh5
        got = []
        network.register("n2", "ping", lambda m: got.append(m))
        network.unregister_node("n2")
        network.send("n1", "n2", "ping")
        sim.run(until=1.0)
        assert got == []
        assert network.stats.dropped_unreachable == 1


class TestFleetDeviceIds:
    def test_sorted_ids(self, sim):
        fleet = DeviceFleet(sim)
        fleet.add(Device("zeta", DeviceClass.GATEWAY))
        fleet.add(Device("alpha", DeviceClass.GATEWAY))
        assert fleet.device_ids == ["alpha", "zeta"]


class TestGoalIsLeaf:
    def test_leaf_and_refined(self):
        goal = Goal("g")
        assert goal.is_leaf
        goal.children = ["a"]
        assert not goal.is_leaf

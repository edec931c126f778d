"""Unit tests for gossip, bully election, Raft and the service registry."""

import pytest

from repro.coordination.election import BullyElection
from repro.coordination.gossip import GossipNode, GossipValue
from repro.coordination.raft import RaftCluster, RaftNode, RaftRole
from repro.coordination.registry import ServiceRecord, ServiceRegistry
from repro.network.partition import PartitionManager


@pytest.fixture
def gossip_cluster(sim, mesh5, rngs):
    nodes, _, network = mesh5
    cluster = {
        node: GossipNode(sim, network, node, nodes, rngs.stream(f"g:{node}"),
                         period=0.5)
        for node in nodes
    }
    for g in cluster.values():
        g.start()
    return cluster, network


class TestGossip:
    def test_value_spreads_to_all(self, sim, gossip_cluster):
        cluster, _ = gossip_cluster
        cluster["n1"].set("config", "v1")
        sim.run(until=10.0)
        assert all(g.get("config") == "v1" for g in cluster.values())

    def test_newer_version_wins(self, sim, gossip_cluster):
        cluster, _ = gossip_cluster
        cluster["n1"].set("key", "old")
        sim.run(until=10.0)
        cluster["n1"].set("key", "new")
        sim.run(until=20.0)
        assert all(g.get("key") == "new" for g in cluster.values())

    def test_concurrent_writes_converge_deterministically(self, sim, gossip_cluster):
        cluster, _ = gossip_cluster
        cluster["n1"].set("key", "from-n1")
        cluster["n5"].set("key", "from-n5")   # same version 1; owner n5 > n1
        sim.run(until=15.0)
        values = {g.get("key") for g in cluster.values()}
        assert values == {"from-n5"}

    def test_update_callback(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        seen = []
        receiver = GossipNode(sim, network, "n1", nodes, rngs.stream("g:n1"),
                              on_update=lambda k, v: seen.append((k, v.value)))
        sender = GossipNode(sim, network, "n2", nodes, rngs.stream("g:n2"))
        receiver.start()
        sender.start()
        sender.set("x", 42)
        sim.run(until=10.0)
        assert ("x", 42) in seen

    def test_partitioned_node_catches_up(self, sim, gossip_cluster, trace):
        cluster, network = gossip_cluster
        partitions = PartitionManager(sim, network.topology, trace=trace)
        partitions.schedule_outage(1.0, 10.0, "n3")
        sim.schedule(5.0, lambda s: cluster["n1"].set("during", "partition"))
        sim.run(until=8.0)
        assert cluster["n3"].get("during") is None
        sim.run(until=25.0)
        assert cluster["n3"].get("during") == "partition"

    def test_dominates_ordering(self):
        low = GossipValue("a", 1, "n1")
        high = GossipValue("b", 2, "n1")
        assert high.dominates(low) and not low.dominates(high)
        tie_a = GossipValue("a", 1, "n1")
        tie_b = GossipValue("b", 1, "n2")
        assert tie_b.dominates(tie_a)

    def test_invalid_fanout(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        with pytest.raises(ValueError):
            GossipNode(sim, network, "n1", nodes, rngs.stream("x"), fanout=0)


class TestBullyElection:
    def _elections(self, sim, mesh5):
        nodes, _, network = mesh5
        return {
            node: BullyElection(sim, network, node, nodes)
            for node in nodes
        }, network

    def test_highest_id_wins(self, sim, mesh5):
        elections, _ = self._elections(sim, mesh5)
        elections["n1"].start_election()
        sim.run(until=10.0)
        assert all(e.leader == "n5" for e in elections.values())
        assert elections["n5"].is_leader

    def test_leader_crash_reelection(self, sim, mesh5):
        elections, network = self._elections(sim, mesh5)
        elections["n1"].start_election()
        sim.run(until=10.0)
        network.set_node_up("n5", False)
        elections["n2"].start_election()
        sim.run(until=20.0)
        live = [e for n, e in elections.items() if n != "n5"]
        assert all(e.leader == "n4" for e in live)

    def test_down_node_does_not_campaign(self, sim, mesh5):
        elections, network = self._elections(sim, mesh5)
        network.set_node_up("n1", False)
        elections["n1"].start_election()
        sim.run(until=5.0)
        assert elections["n1"].leader is None

    def test_on_leader_callback(self, sim, mesh5):
        nodes, _, network = mesh5
        seen = []
        elections = {
            node: BullyElection(sim, network, node, nodes,
                                on_leader=lambda l, n=node: seen.append((n, l)))
            for node in nodes
        }
        elections["n3"].start_election()
        sim.run(until=10.0)
        assert ("n1", "n5") in seen


class TestRaft:
    def _cluster(self, sim, mesh5, rngs, nodes=None):
        all_nodes, _, network = mesh5
        nodes = nodes or all_nodes
        cluster = RaftCluster(sim, network, nodes, rngs.stream("raft"))
        cluster.start()
        return cluster, network

    def test_single_leader_elected(self, sim, mesh5, rngs):
        cluster, _ = self._cluster(sim, mesh5, rngs)
        sim.run(until=10.0)
        leaders = [n for n in cluster.nodes.values() if n.is_leader]
        assert len(leaders) == 1

    def test_commands_replicate_to_all(self, sim, mesh5, rngs):
        cluster, _ = self._cluster(sim, mesh5, rngs)
        sim.run(until=10.0)
        for i in range(10):
            assert cluster.propose(f"cmd{i}")
            sim.run(until=sim.now + 1.0)
        sim.run(until=sim.now + 5.0)
        assert cluster.state_machine_consistent()
        assert all(len(applied) == 10 for applied in cluster.applied.values())

    def test_leader_crash_new_leader_and_progress(self, sim, mesh5, rngs):
        cluster, network = self._cluster(sim, mesh5, rngs)
        sim.run(until=10.0)
        old_leader = cluster.leader().node_id
        cluster.propose("before-crash")
        sim.run(until=sim.now + 2.0)
        network.set_node_up(old_leader, False)
        sim.run(until=sim.now + 15.0)
        new_leader = cluster.leader()
        assert new_leader is not None and new_leader.node_id != old_leader
        assert cluster.propose("after-crash")
        sim.run(until=sim.now + 5.0)
        assert cluster.state_machine_consistent()
        live_applied = [cluster.applied[n] for n in cluster.nodes if n != old_leader]
        assert all("after-crash" in applied for applied in live_applied)

    def test_minority_partition_no_commit(self, sim, mesh5, rngs, trace):
        cluster, network = self._cluster(sim, mesh5, rngs)
        sim.run(until=10.0)
        leader = cluster.leader()
        # Partition the leader alone: it cannot commit new entries.
        partitions = PartitionManager(sim, network.topology, trace=trace)
        partitions.isolate_node(leader.node_id)
        before = leader.commit_index
        leader.propose("doomed")
        sim.run(until=sim.now + 10.0)
        assert leader.commit_index == before
        # The majority side elects a fresh leader and can commit.
        majority_leader = max(
            (n for n in cluster.nodes.values()
             if n.node_id != leader.node_id and n.is_leader),
            key=lambda n: n.current_term, default=None,
        )
        assert majority_leader is not None
        majority_leader.propose("survives")
        sim.run(until=sim.now + 5.0)
        assert "survives" in cluster.applied[majority_leader.node_id]
        assert "doomed" not in cluster.applied[majority_leader.node_id]

    def test_partition_heals_consistently(self, sim, mesh5, rngs, trace):
        cluster, network = self._cluster(sim, mesh5, rngs)
        sim.run(until=10.0)
        leader = cluster.leader()
        partitions = PartitionManager(sim, network.topology, trace=trace)
        name = partitions.isolate_node(leader.node_id)
        leader.propose("uncommitted-minority")
        sim.run(until=sim.now + 10.0)
        new_leader = cluster.leader()
        new_leader.propose("majority-entry")
        sim.run(until=sim.now + 5.0)
        partitions.heal(name)
        sim.run(until=sim.now + 10.0)
        # The old leader's uncommitted entry is overwritten; logs agree.
        assert cluster.state_machine_consistent()
        assert "uncommitted-minority" not in cluster.applied[leader.node_id]
        assert "majority-entry" in cluster.applied[leader.node_id]

    def test_propose_on_follower_rejected(self, sim, mesh5, rngs):
        cluster, _ = self._cluster(sim, mesh5, rngs)
        sim.run(until=10.0)
        follower = next(n for n in cluster.nodes.values() if not n.is_leader)
        assert follower.propose("nope") is None

    def test_election_timeout_validation(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        with pytest.raises(ValueError):
            RaftNode(sim, network, "n1", nodes, rngs.stream("r"),
                     heartbeat_interval=1.0, election_timeout=(1.5, 3.0))


class TestRegistry:
    def test_advertise_and_lookup_across_nodes(self, sim, gossip_cluster):
        cluster, _ = gossip_cluster
        registries = {n: ServiceRegistry(g) for n, g in cluster.items()}
        registries["n1"].advertise(ServiceRecord("db", "n1"))
        registries["n2"].advertise(ServiceRecord("db", "n2"))
        sim.run(until=10.0)
        instances = registries["n5"].instances("db")
        assert [r.device_id for r in instances] == ["n1", "n2"]
        assert registries["n5"].lookup("db").device_id == "n1"

    def test_withdraw_hides_instance(self, sim, gossip_cluster):
        cluster, _ = gossip_cluster
        registries = {n: ServiceRegistry(g) for n, g in cluster.items()}
        registries["n1"].advertise(ServiceRecord("db", "n1"))
        sim.run(until=10.0)
        registries["n1"].withdraw("db", "n1")
        sim.run(until=20.0)
        assert registries["n5"].lookup("db") is None
        assert len(registries["n5"].instances("db", healthy_only=False)) == 1

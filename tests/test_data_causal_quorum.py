"""Tests for the quorum KV store."""

import pytest

from repro.data.quorum import QuorumClient, QuorumReplica, Versioned
from repro.network.partition import PartitionManager
from repro.network.topology import build_mesh_topology


@pytest.fixture
def quorum_rig(sim, mesh5):
    nodes, topology, network = mesh5
    replicas = {n: QuorumReplica(sim, network, n) for n in nodes[:3]}
    client = QuorumClient(sim, network, "n4", ["n1", "n2", "n3"],
                          write_quorum=2, read_quorum=2, timeout=1.0)
    return client, replicas, network, topology


class TestQuorumStore:
    def test_write_then_read_latest(self, sim, quorum_rig):
        client, replicas, _, _ = quorum_rig
        outcomes = []
        client.write("k", "v1", callback=lambda ok: outcomes.append(ok))
        sim.run(until=2.0)
        client.write("k", "v2", callback=lambda ok: outcomes.append(ok))
        sim.run(until=4.0)
        reads = []
        client.read("k", callback=lambda ok, v: reads.append((ok, v)))
        sim.run(until=6.0)
        assert outcomes == [True, True]
        assert reads == [(True, "v2")]
        assert client.write_availability == 1.0

    def test_read_missing_key(self, sim, quorum_rig):
        client, _, _, _ = quorum_rig
        reads = []
        client.read("ghost", callback=lambda ok, v: reads.append((ok, v)))
        sim.run(until=2.0)
        assert reads == [(True, None)]

    def test_write_fails_without_quorum(self, sim, quorum_rig, trace):
        client, _, network, topology = quorum_rig
        partitions = PartitionManager(sim, topology, trace=trace)
        partitions.isolate_node("n1")
        partitions.isolate_node("n2")   # only n3 remains reachable
        outcomes = []
        client.write("k", "v", callback=lambda ok: outcomes.append(ok))
        sim.run(until=3.0)
        assert outcomes == [False]
        assert client.failed_writes == 1
        assert client.write_availability == 0.0

    def test_quorum_survives_minority_failure(self, sim, quorum_rig, trace):
        client, _, network, topology = quorum_rig
        PartitionManager(sim, topology, trace=trace).isolate_node("n1")
        outcomes = []
        client.write("k", "v", callback=lambda ok: outcomes.append(ok))
        sim.run(until=3.0)
        assert outcomes == [True]   # 2 of 3 replicas suffice

    def test_read_sees_latest_despite_stale_replica(self, sim, quorum_rig, trace):
        """R + W > N: a replica that missed the last write cannot hide it."""
        client, replicas, network, topology = quorum_rig
        partitions = PartitionManager(sim, topology, trace=trace)
        name = partitions.isolate_node("n3")
        client.write("k", "fresh")
        sim.run(until=2.0)
        partitions.heal(name)    # n3 back, holding no value for k
        reads = []
        client.read("k", callback=lambda ok, v: reads.append((ok, v)))
        sim.run(until=4.0)
        assert reads and reads[0][1] == "fresh"

    def test_invalid_quorum_raises(self, sim, mesh5):
        nodes, _, network = mesh5
        with pytest.raises(ValueError):
            QuorumClient(sim, network, "n4", ["n1", "n2"], write_quorum=3,
                         read_quorum=1)

    def test_versioned_stamp_ordering(self):
        older = Versioned("a", 1, "x")
        newer = Versioned("b", 2, "a")
        assert newer.stamp() > older.stamp()

"""Unit tests for failure detectors and SWIM membership."""

import pytest

from repro.coordination.failure_detector import (
    HeartbeatFailureDetector,
    PhiAccrualFailureDetector,
)
from repro.coordination.membership import MemberState, MembershipProtocol


def _suspects(detector, peer):
    return bool(detector._suspected.get(peer))


def _alive_peers(detector):
    return [p for p in detector.peers if not _suspects(detector, p)]


class TestHeartbeatDetector:
    def _pair(self, sim, mesh5):
        nodes, _, network = mesh5
        events = []
        detectors = {
            node: HeartbeatFailureDetector(
                sim, network, node, nodes, period=0.5, timeout=2.0,
                on_suspect=lambda peer, n=node: events.append(("suspect", n, peer)),
                on_alive=lambda peer, n=node: events.append(("alive", n, peer)),
            )
            for node in nodes
        }
        return detectors, events, network

    def test_no_suspicion_in_healthy_cluster(self, sim, mesh5):
        detectors, events, _ = self._pair(sim, mesh5)
        for detector in detectors.values():
            detector.start()
        sim.run(until=20.0)
        assert events == []
        assert _alive_peers(detectors["n1"]) == ["n2", "n3", "n4", "n5"]

    def test_crashed_node_suspected(self, sim, mesh5):
        detectors, events, network = self._pair(sim, mesh5)
        for detector in detectors.values():
            detector.start()
        sim.schedule(5.0, lambda s: network.set_node_up("n3", False))
        sim.run(until=15.0)
        suspecters = {n for kind, n, peer in events if kind == "suspect" and peer == "n3"}
        assert suspecters == {"n1", "n2", "n4", "n5"}
        assert _suspects(detectors["n1"], "n3")

    def test_recovered_node_unsuspected(self, sim, mesh5):
        detectors, events, network = self._pair(sim, mesh5)
        for detector in detectors.values():
            detector.start()
        sim.schedule(5.0, lambda s: network.set_node_up("n3", False))
        sim.schedule(12.0, lambda s: network.set_node_up("n3", True))
        sim.run(until=25.0)
        assert not _suspects(detectors["n1"], "n3")
        assert any(kind == "alive" and peer == "n3" for kind, n, peer in events)

    def test_timeout_must_exceed_period(self, sim, mesh5):
        nodes, _, network = mesh5
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(sim, network, "n1", nodes,
                                     period=1.0, timeout=0.5)


class TestPhiAccrualDetector:
    def test_phi_grows_with_silence(self, sim, mesh5):
        nodes, _, network = mesh5
        detectors = {
            node: PhiAccrualFailureDetector(sim, network, node, nodes, period=0.5)
            for node in nodes
        }
        for detector in detectors.values():
            detector.start()
        sim.run(until=10.0)
        phi_alive = detectors["n1"].phi("n2")
        network.set_node_up("n2", False)
        sim.run(until=20.0)
        phi_dead = detectors["n1"].phi("n2")
        assert phi_dead > phi_alive
        assert phi_dead > 8.0

    def test_suspect_callback_fires(self, sim, mesh5):
        nodes, _, network = mesh5
        suspected = []
        detectors = {
            node: PhiAccrualFailureDetector(
                sim, network, node, nodes, period=0.5, threshold=8.0,
                on_suspect=lambda peer, n=node: suspected.append((n, peer)),
            )
            for node in nodes
        }
        for detector in detectors.values():
            detector.start()
        sim.schedule(10.0, lambda s: network.set_node_up("n5", False))
        sim.run(until=30.0)
        assert ("n1", "n5") in suspected
        assert _suspects(detectors["n1"], "n5")
        assert "n5" not in _alive_peers(detectors["n1"])

    def test_no_history_is_not_suspicious(self, sim, mesh5):
        nodes, _, network = mesh5
        detector = PhiAccrualFailureDetector(sim, network, "n1", nodes)
        assert detector.phi("n2") == 0.0

    def test_recovery_clears_suspicion(self, sim, mesh5):
        nodes, _, network = mesh5
        detectors = {
            node: PhiAccrualFailureDetector(sim, network, node, nodes, period=0.5)
            for node in nodes
        }
        for detector in detectors.values():
            detector.start()
        sim.schedule(10.0, lambda s: network.set_node_up("n5", False))
        sim.schedule(25.0, lambda s: network.set_node_up("n5", True))
        sim.run(until=35.0)
        assert not _suspects(detectors["n1"], "n5")


class TestMembership:
    def _cluster(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        members = {
            node: MembershipProtocol(sim, network, node, nodes,
                                     rngs.stream(f"swim:{node}"))
            for node in nodes
        }
        for protocol in members.values():
            protocol.start()
        return members, network

    def test_stable_cluster_stays_alive(self, sim, mesh5, rngs):
        members, _ = self._cluster(sim, mesh5, rngs)
        sim.run(until=30.0)
        for protocol in members.values():
            assert protocol.alive_members() == ["n1", "n2", "n3", "n4", "n5"]

    def test_crashed_member_declared_dead_everywhere(self, sim, mesh5, rngs):
        members, network = self._cluster(sim, mesh5, rngs)
        sim.run(until=5.0)
        network.set_node_up("n2", False)
        sim.run(until=40.0)
        for node, protocol in members.items():
            if node != "n2":
                assert protocol.state_of("n2") == MemberState.DEAD, node

    def test_changes_reported_via_callback(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        changes = []
        protocol = MembershipProtocol(
            sim, network, "n1", nodes, rngs.stream("swim:n1"),
            on_change=lambda node, state: changes.append((node, state)),
        )
        others = {
            node: MembershipProtocol(sim, network, node, nodes,
                                     rngs.stream(f"swim:{node}"))
            for node in nodes if node != "n1"
        }
        protocol.start()
        for p in others.values():
            p.start()
        sim.run(until=5.0)
        network.set_node_up("n3", False)
        sim.run(until=40.0)
        assert (("n3", MemberState.SUSPECT) in changes
                or ("n3", MemberState.DEAD) in changes)

    def test_recovered_member_rejoins_alive(self, sim, mesh5, rngs):
        members, network = self._cluster(sim, mesh5, rngs)
        sim.run(until=5.0)
        network.set_node_up("n2", False)
        sim.run(until=20.0)
        network.set_node_up("n2", True)
        sim.run(until=80.0)
        alive_views = [p.state_of("n2") == MemberState.ALIVE for n, p in members.items() if n != "n2"]
        # Refutation via incarnation bump: the cluster re-admits n2.
        assert all(alive_views)

    def test_considers_alive_unknown_node(self, sim, mesh5, rngs):
        members, _ = self._cluster(sim, mesh5, rngs)
        assert members["n1"].state_of("ghost") is None
        assert members["n1"].state_of("ghost") is None

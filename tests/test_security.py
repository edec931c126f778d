"""Unit and acceptance tests for the security plane (repro.security).

Covers the layers bottom-up: HMAC auth and key rotation, trust scoring,
transport interceptors and quarantine ACLs, attack behaviors, the
compromise faults, the MAPE intrusion-response path, per-source
observability, and the three canonical adversary scenarios (naive fails,
defended holds, resume is byte-identical).
"""

import json

import pytest

from repro.core.system import IoTSystem
from repro.faults.models import AdversarialEnvironmentFault, NodeCompromiseFault
from repro.security.adversary import (
    Adversary,
    AttackBehavior,
    FloodBehavior,
    GossipEquivocateBehavior,
    SybilJoinBehavior,
    VoteEquivocateBehavior,
)
from repro.security.auth import KeyChain, MessageAuthenticator
from repro.security.plane import SecurityPlane
from repro.security.trust import EVIDENCE_PENALTIES, FloodSentry, TrustRegistry


@pytest.fixture
def system():
    return IoTSystem.with_edge_cloud_landscape(3, 1, seed=7)


@pytest.fixture
def plane(system):
    return SecurityPlane(system)


def _deliveries(system, node, kind):
    """Register a recording handler; returns the list of seen payloads."""
    seen = []
    system.network.register(node, kind, lambda m: seen.append(m.payload))
    return seen


class _Tamper(AttackBehavior):
    """Garbles every outbound payload below the signing layer."""

    def outbound(self, message):
        message.payload = {"tampered-by": self.node}
        self.tampered += 1


class TestKeyChain:
    def test_issue_and_rotate_change_keys(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        first = chain.issue("a")
        assert chain.key_of("a") == first
        rotated = chain.rotate("a")
        assert rotated != first
        assert chain.key_of("a") == rotated

    def test_rotate_all_excludes(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        for node in ("a", "b", "c"):
            chain.issue(node)
        before = chain.key_of("c")
        assert chain.rotate_all(exclude=("c",)) == 2
        assert chain.key_of("c") == before

    def test_revoke_forgets_identity(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        chain.issue("a")
        chain.revoke("a")
        assert chain.key_of("a") is None
        assert not chain.known("a")
        assert chain.rotate("a") is None


class TestMessageAuthenticator:
    def _message(self, system, payload):
        from repro.network.transport import Message

        return Message(src="edge0", dst="edge1", kind="gossip.push",
                       payload=payload, size_bytes=64, sent_at=0.0)

    def test_sign_then_verify(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        chain.issue("edge0")
        auth = MessageAuthenticator(chain)
        message = self._message(system, {"v": 1})
        auth.signer(message)
        assert message.auth is not None
        assert auth.verify(message)
        assert auth.signed == auth.verified == 1

    def test_tampered_payload_rejected(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        chain.issue("edge0")
        auth = MessageAuthenticator(chain)
        message = self._message(system, {"v": 1})
        auth.signer(message)
        message.payload = {"v": 2}
        assert not auth.verify(message)
        assert auth.rejected == 1

    def test_unsigned_protected_message_rejected(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        chain.issue("edge0")
        auth = MessageAuthenticator(chain)
        assert not auth.verify(self._message(system, {"v": 1}))

    def test_unprotected_kind_passes_unsigned(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        chain.issue("edge0")
        auth = MessageAuthenticator(chain, protected_kinds=("raft.",))
        message = self._message(system, {"v": 1})
        auth.signer(message)
        assert message.auth is None
        assert auth.verify(message)

    def test_rotation_invalidates_old_tags(self, system):
        chain = KeyChain(system.rngs.stream("k"))
        chain.issue("edge0")
        auth = MessageAuthenticator(chain)
        message = self._message(system, {"v": 1})
        auth.signer(message)
        chain.rotate("edge0")
        assert not auth.verify(message)


class TestTrustRegistry:
    def test_evidence_decays_score(self, system):
        trust = TrustRegistry(system)
        score = trust.record("a", "b", "digest-mismatch")
        assert score == pytest.approx(1.0 - EVIDENCE_PENALTIES["digest-mismatch"])
        assert trust.aggregate("b") == pytest.approx(score)

    def test_scores_are_per_observer(self, system):
        trust = TrustRegistry(system)
        trust.record("a", "b", "equivocation")
        assert trust.score("a", "b") < 1.0
        assert trust.score("c", "b") == 1.0
        # Aggregate is the most-alarmed vantage.
        assert trust.aggregate("b") == trust.score("a", "b")

    def test_threshold_latches_and_pushes_fact(self, system):
        class Knowledge:
            facts = {}

        trust = TrustRegistry(system, threshold=0.45)
        trust.attach(Knowledge)
        for _ in range(3):
            trust.record("a", "b", "equivocation")
        assert "b" in trust.flagged
        facts = Knowledge.facts["intrusion"]
        assert facts and facts[0]["subject"] == "b"
        # Latched: more evidence does not re-notify.
        trust.record("a", "b", "equivocation")
        assert len(Knowledge.facts["intrusion"]) == 1

    def test_indirect_only_adopts_worse_news(self, system):
        trust = TrustRegistry(system)
        trust.record_indirect("a", "b", 0.2)
        worse = trust.score("a", "b")
        assert worse < 1.0
        trust.record_indirect("a", "b", 0.9)   # slander-laundering attempt
        assert trust.score("a", "b") == worse

    def test_unknown_evidence_kind_rejected(self, system):
        trust = TrustRegistry(system)
        with pytest.raises(KeyError):
            trust.record("a", "b", "not-a-kind")


class TestTransportSecurityHooks:
    def test_interceptors_default_off(self, system):
        """An unwired system's transport has no security hooks installed."""
        assert system.network._interceptors == []
        assert system.network.verifier is None
        assert not system.network.quarantined_nodes

    def test_interceptor_rewrites_and_its_return_value_is_ignored(self, system):
        """Interceptors only mutate: a returned value neither drops nor
        delays the message."""
        seen = _deliveries(system, "edge1", "x")

        def interceptor(message):
            message.payload = {"rewritten": True}
            return "drop"

        system.network.add_interceptor(interceptor)
        system.network.send("edge0", "edge1", "x", payload={})
        system.sim.run(until=5.0)
        assert seen == [{"rewritten": True}]
        assert system.network.stats.dropped_intercepted == 0

    def test_quarantine_drops_both_directions(self, system):
        seen = _deliveries(system, "edge1", "x")
        system.network.quarantine("edge0")
        system.network.send("edge0", "edge1", "x", payload={})
        system.network.send("edge1", "edge0", "x", payload={})
        system.sim.run(until=2.0)
        assert seen == []
        assert system.network.stats.dropped_quarantined == 2

    def test_verifier_rejection_counts_auth_drop(self, system):
        seen = _deliveries(system, "edge1", "x")
        system.network.verifier = lambda message: False
        system.network.send("edge0", "edge1", "x", payload={})
        system.sim.run(until=2.0)
        assert seen == []
        assert system.network.stats.dropped_auth == 1

    def test_per_source_counters(self, system):
        _deliveries(system, "edge1", "x")
        system.network.send("edge0", "edge1", "x", payload={}, size_bytes=100)
        system.network.send("edge0", "edge1", "x", payload={}, size_bytes=50)
        system.network.send("edge2", "edge1", "x", payload={}, size_bytes=10)
        system.sim.run(until=2.0)
        per_source = system.network.stats.per_source
        assert per_source["edge0"] == [2, 150]
        assert per_source["edge2"] == [1, 10]


class TestSecurityPlane:
    def test_registered_in_sim_context(self, system, plane):
        assert system.sim.context["security"] is plane

    def test_auth_end_to_end_tamper_detected(self, system, plane):
        plane.enable_auth(["edge0", "edge1", "edge2"])
        seen = _deliveries(system, "edge1", "gossip.push")
        plane.adversary.compromise("edge0", [_Tamper()])
        system.network.send("edge0", "edge1", "gossip.push", payload={"v": 1})
        system.sim.run(until=2.0)
        assert seen == []
        assert system.network.stats.dropped_auth == 1
        assert plane.trust.score("edge1", "edge0") < 1.0
        assert plane.trust.evidence_counts["digest-mismatch"] == 1

    def test_honest_traffic_passes_auth(self, system, plane):
        plane.enable_auth(["edge0", "edge1", "edge2"])
        seen = _deliveries(system, "edge1", "gossip.push")
        system.network.send("edge0", "edge1", "gossip.push", payload={"v": 1})
        system.sim.run(until=2.0)
        assert seen == [{"v": 1}]

    def test_quarantine_node_is_idempotent(self, system, plane):
        assert plane.quarantine_node("edge0")
        assert not plane.quarantine_node("edge0")
        assert plane.quarantined == ["edge0"]
        assert system.network.is_quarantined("edge0")

    def test_rotate_keys_revokes_compromised(self, system, plane):
        plane.enable_auth(["edge0", "edge1", "edge2"])
        rotated = plane.rotate_keys(revoke="edge0")
        assert rotated == 2
        assert not plane.keychain.known("edge0")
        assert plane.key_rotations == 1

    def test_kpis_shape(self, system, plane):
        plane.enable_auth(["edge0", "edge1"])
        plane.adversary.compromise("edge0", [AttackBehavior()])
        kpis = plane.kpis(10.0)
        assert kpis["compromised"] == ["edge0"]
        for key in ("quarantined", "distrusted", "trust", "key_rotations",
                    "dropped_auth", "dropped_quarantined"):
            assert key in kpis


class TestAttackBehaviors:
    def test_equivocator_tells_each_peer_a_newer_story(self, system, plane):
        seen1 = _deliveries(system, "edge1", "gossip.push")
        seen2 = _deliveries(system, "edge2", "gossip.push")
        behavior = GossipEquivocateBehavior(key="cfg")
        plane.adversary.compromise("edge0", [behavior])
        payload = {"from": "edge0", "state": [("cfg", "honest", 1, "edge0")]}
        system.network.send("edge0", "edge1", "gossip.push", payload=payload)
        system.network.send("edge0", "edge2", "gossip.push", payload=payload)
        system.sim.run(until=2.0)
        (k1, v1, ver1, owner1), = seen1[0]["state"]
        (k2, v2, ver2, owner2), = seen2[0]["state"]
        assert k1 == k2 == "cfg" and owner1 == owner2 == "edge0"
        assert v1 != v2            # different story per destination
        assert ver1 != ver2        # each rewrite dominates the last
        assert behavior.tampered == 2

    def test_payload_replacement_not_mutation(self, system, plane):
        """Honest copies of a shared payload must survive tampering."""
        _deliveries(system, "edge1", "gossip.push")
        plane.adversary.compromise("edge0", [GossipEquivocateBehavior("cfg")])
        shared = {"from": "edge0", "state": [("cfg", "honest", 1, "edge0")]}
        system.network.send("edge0", "edge1", "gossip.push", payload=shared)
        system.sim.run(until=2.0)
        assert shared["state"] == [("cfg", "honest", 1, "edge0")]

    def test_vote_equivocator_grants_everything(self, system, plane):
        seen = _deliveries(system, "edge1", "raft.vote_reply")
        plane.adversary.compromise("edge0", [VoteEquivocateBehavior()])
        system.network.send("edge0", "edge1", "raft.vote_reply",
                            payload={"term": 3, "granted": False})
        system.sim.run(until=2.0)
        assert seen == [{"term": 3, "granted": True}]

    def test_flood_generates_requests_until_released(self, system, plane):
        from repro.traffic.request import REQUEST_KIND

        seen = _deliveries(system, "edge1", REQUEST_KIND)
        plane.adversary.compromise(
            "edge0", [FloodBehavior(target="edge1", rate=100.0)])
        system.sim.run(until=2.0)
        flooded = len(seen)
        assert flooded == pytest.approx(200, abs=30)
        plane.adversary.release("edge0")
        system.sim.run(until=4.0)
        assert len(seen) - flooded <= 12   # only in-flight stragglers

    def test_sybil_behavior_forges_swim_pings(self, system, plane):
        seen = _deliveries(system, "edge1", "swim.ping")
        plane.adversary.compromise(
            "edge0", [SybilJoinBehavior(targets=["edge1"], per_tick=2)])
        system.sim.run(until=2.1)
        assert seen
        names = {name for m in seen for name, _, _ in m["updates"]}
        assert all(name.startswith("sybil-edge0-") for name in names)
        assert all(m["seq"] < 0 for m in seen)

    def test_adversary_release_and_reporting(self, system, plane):
        plane.adversary.compromise("edge0", [AttackBehavior()])
        assert plane.adversary.compromised_nodes == ["edge0"]
        plane.adversary.release("edge0")
        assert plane.adversary.compromised_nodes == []
        assert not plane.adversary.is_compromised("edge0")


class TestCompromiseFaults:
    def test_fault_requires_security_plane(self, system):
        system.injector.inject_at(1.0, NodeCompromiseFault(
            name="c", device_id="edge0", behaviors=[AttackBehavior()]))
        with pytest.raises(RuntimeError, match="SecurityPlane"):
            system.run(until=2.0)

    def test_fault_compromises_and_reverts(self, system, plane):
        fault = NodeCompromiseFault(
            name="c", device_id="edge0", behaviors=[AttackBehavior()],
            duration=2.0)
        system.injector.inject_at(1.0, fault)
        system.run(until=2.0)
        assert plane.adversary.is_compromised("edge0")
        assert not system.fleet.get("edge0").environment_trusted
        system.run(until=4.0)
        assert not plane.adversary.is_compromised("edge0")
        assert system.fleet.get("edge0").environment_trusted

    def test_adversarial_environment_registers_with_plane(self, system, plane):
        system.injector.inject_at(1.0, AdversarialEnvironmentFault(
            name="e", device_id="edge0"))
        system.run(until=2.0)
        assert plane.trust.registered == {"edge0": "environment-untrusted"}
        score = plane.trust.score("environment", "edge0")
        assert score == pytest.approx(
            1.0 - EVIDENCE_PENALTIES["environment-untrusted"])
        # Reduced standing, but not distrusted outright.
        assert "edge0" not in plane.trust.flagged

    def test_adversarial_environment_without_plane_still_works(self, system):
        system.injector.inject_at(1.0, AdversarialEnvironmentFault(
            name="e", device_id="edge0"))
        system.run(until=2.0)
        assert not system.fleet.get("edge0").environment_trusted


class TestFloodSentry:
    def test_flags_only_sources_over_threshold(self, system, plane):
        _deliveries(system, "edge1", "x")

        def chatter(sim):
            for _ in range(20):
                system.network.send("edge0", "edge1", "x", payload={})
            system.network.send("edge2", "edge1", "x", payload={})
            sim.schedule(0.1, chatter)

        system.sim.schedule(0.1, chatter)
        sentry = FloodSentry(system, plane.trust, observer="edge1",
                             period=0.5, rate_threshold=100.0)
        sentry.start()
        system.sim.run(until=3.0)
        assert plane.trust.score("edge1", "edge0") < plane.trust.threshold
        assert plane.trust.score("edge1", "edge2") == 1.0
        assert "edge0" in plane.trust.flagged


class TestIntrusionResponsePath:
    def test_trust_collapse_drives_quarantine(self, system, plane):
        """Evidence -> intrusion fact -> analyzer -> planner -> executor."""
        from repro.adaptation import (
            Executor,
            IntrusionAnalyzer,
            MapeLoop,
            RuleBasedPlanner,
        )

        loop = MapeLoop(system.sim, system.network, system.fleet, "edge0",
                        ["edge0", "edge1", "edge2"],
                        analyzers=[IntrusionAnalyzer()],
                        planner=RuleBasedPlanner(),
                        executor=Executor(system.sim, system.network,
                                          system.fleet, "edge0",
                                          system.rngs.stream("exec"),
                                          trace=system.trace),
                        period=1.0, metrics=system.metrics,
                        trace=system.trace)
        plane.trust.attach(loop.knowledge)
        loop.start()
        for _ in range(3):
            plane.trust.record("edge1", "edge2", "equivocation")
        system.run(until=3.0)
        assert plane.quarantined == ["edge2"]
        assert system.network.is_quarantined("edge2")
        assert plane.key_rotations == 1


class TestSecurityObservability:
    def test_kpi_report_carries_security_section(self, system, plane):
        plane.enable_auth(["edge0", "edge1"])
        plane.quarantine_node("edge2")
        report = system.kpi_report()
        assert report.security is not None
        assert report.security["quarantined"] == ["edge2"]
        assert "security" in report.to_dict()

    def test_kpi_report_without_plane_has_no_security(self):
        fresh = IoTSystem.with_edge_cloud_landscape(2, 1, seed=3)
        report = fresh.kpi_report()
        assert report.security is None

    def test_prometheus_per_source_counters(self, system):
        from repro.observability.export import prometheus_text

        _deliveries(system, "edge1", "x")
        system.network.send("edge0", "edge1", "x", payload={}, size_bytes=64)
        system.sim.run(until=2.0)
        text = prometheus_text(system.metrics,
                               per_source=system.network.stats.per_source)
        assert 'repro_network_source_messages_total{src="edge0"} 1' in text
        assert 'repro_network_source_bytes_total{src="edge0"} 64' in text

    def test_html_report_renders_security_and_sources(self, system, plane):
        from repro.observability.export import render_html_report

        plane.quarantine_node("edge2")
        _deliveries(system, "edge1", "x")
        system.network.send("edge0", "edge1", "x", payload={}, size_bytes=64)
        system.sim.run(until=2.0)
        html = render_html_report(
            "t", system.kpi_report(),
            per_source=system.network.stats.per_source)
        assert "Messages by source" in html
        assert "Security" in html
        assert "edge2" in html

    def test_trust_time_series_recorded(self, system, plane):
        plane.trust.record("edge0", "edge1", "equivocation")
        series = system.metrics.series("security.trust.edge1")
        assert len(series) == 1


class TestScenarioGates:
    """The naive variant must demonstrably fail; the defended one holds."""

    @staticmethod
    def _results(name, variants):
        from repro.scenarios import ScenarioSpec, gated_run

        return [gated_run(ScenarioSpec(name, params={"variant": v}))[1]
                for v in variants]

    def test_byzantine_gossip_gate(self):
        clean, naive, defended = self._results(
            "security-byzantine-gossip", ("clean", "naive", "defended"))
        assert clean["converged"]
        assert not naive["converged"]
        assert len(naive["honest_values"]) > 1      # split-brain
        assert defended["converged"]
        assert defended["converged_at"] <= 2.0 * clean["converged_at"]
        assert naive["attacker"] in defended["quarantined"]
        assert defended["security"]["dropped_auth"] > 0

    def test_raft_equivocation_gate(self):
        naive, defended = self._results(
            "security-raft-equivocation", ("naive", "defended"))
        assert naive["safety_violated"]
        assert naive["double_wins"]
        assert not defended["safety_violated"]
        assert defended["leader_elected"]
        assert set(defended["quarantined"]) == set(defended["attackers"])

    def test_sybil_flood_gate(self):
        clean, naive, defended = self._results(
            "security-sybil-flood", ("clean", "naive", "defended"))
        assert naive["goodput"] < 0.5 * clean["goodput"]
        assert naive["sybil_count"] > 0
        assert defended["goodput"] >= 0.9 * clean["goodput"]
        assert defended["sybil_count"] == 0
        assert naive["attacker"] in defended["quarantined"]

    def test_unknown_variant_rejected(self):
        from repro.scenarios import ScenarioSpec, prepare

        for name in ("security-byzantine-gossip",
                     "security-raft-equivocation", "security-sybil-flood"):
            with pytest.raises(ValueError, match="unknown variant 'bogus'"):
                prepare(ScenarioSpec(name, params={"variant": "bogus"}))


class TestScenarioResume:
    @pytest.mark.parametrize("scenario,at", [
        ("security-byzantine-gossip", 6.0),
        ("security-raft-equivocation", 4.0),
        ("security-sybil-flood", 8.0),
    ])
    def test_resume_is_byte_identical(self, tmp_path, scenario, at):
        from repro.persistence import (
            ScenarioSpec,
            resume_run,
            run_scenario,
            run_to_checkpoint,
        )

        spec = ScenarioSpec(name=scenario)
        reference = run_scenario(
            spec, journal_path=str(tmp_path / "ref.jsonl"))
        run_to_checkpoint(spec, str(tmp_path / "i"), at=at)
        resumed = resume_run(directory=str(tmp_path / "i"))
        assert resumed.final_digest == reference.final_digest
        with open(tmp_path / "ref.jsonl") as fh_a, \
                open(resumed.journal_path) as fh_b:
            assert fh_b.read() == fh_a.read()

    def test_security_scenarios_registered(self):
        from repro.persistence import scenario_names

        names = scenario_names()
        for expected in ("security-byzantine-gossip",
                         "security-raft-equivocation",
                         "security-sybil-flood"):
            assert expected in names


class TestCli:
    def test_security_verb_gates_pass(self, capsys):
        from repro.cli import main

        assert main(["security", "raft-equivocation", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
        titles = [t["title"] for t in payload["tables"]]
        assert any("raft equivocation" in t for t in titles)

    def test_security_verb_rejects_foreign_scenario(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["security", "overload"])

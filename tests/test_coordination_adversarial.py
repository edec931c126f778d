"""Coordination protocols under adversarial inputs.

SWIM refutation and incarnation discipline against forged piggybacks,
the trust-gated update filter, and Raft's quorum-intersection safety
argument -- both as an exhaustive combinatorial property and as
simulated runs with compromised voters.
"""

import itertools

import pytest

from repro.coordination.membership import MemberState, MembershipProtocol
from repro.coordination.raft import RaftNode, RaftRole


@pytest.fixture
def swim_cluster(sim, mesh5, rngs):
    nodes, _, network = mesh5

    def build(**kwargs):
        cluster = {
            node: MembershipProtocol(sim, network, node, nodes,
                                     rngs.stream(f"m:{node}"),
                                     probe_period=1.0, **kwargs)
            for node in nodes
        }
        for protocol in cluster.values():
            protocol.start()
        return cluster

    return build, nodes, network


def _forge(network, src, dst, updates, seq=-1):
    """Send one crafted swim.ping carrying forged piggyback updates."""
    network.send(src, dst, "swim.ping",
                 payload={"seq": seq, "from": src, "updates": updates})


class TestSwimRefutation:
    def test_false_death_rumor_is_refuted(self, sim, swim_cluster):
        """A forged DEAD rumor about a live node is beaten back by the
        victim's higher-incarnation refutation."""
        build, nodes, network = swim_cluster
        cluster = build()
        sim.run(until=5.0)
        _forge(network, "n5", "n1",
               [("n2", MemberState.DEAD.value, 0)])
        sim.run(until=20.0)
        # n2 refuted with incarnation > 0; every view returns to ALIVE.
        assert cluster["n2"].incarnation > 0
        for node in nodes:
            assert cluster[node].considers_alive("n2")

    def test_refutation_charges_the_carrier(self, sim, swim_cluster):
        build, nodes, network = swim_cluster
        evidence = []
        cluster = build(
            evidence=lambda subject, kind: evidence.append((subject, kind)))
        sim.run(until=5.0)
        _forge(network, "n5", "n2",
               [("n2", MemberState.SUSPECT.value, 0)])
        sim.run(until=10.0)
        assert ("n5", "refuted-piggyback") in evidence

    def test_repeated_rumors_do_not_stick(self, sim, swim_cluster):
        """An adversary spamming suspicion rumors cannot keep a live,
        refuting node out of the membership."""
        build, nodes, network = swim_cluster
        cluster = build()

        def spam(s):
            inc = cluster["n2"].incarnation
            for dst in ("n1", "n3", "n4"):
                _forge(network, "n5", dst,
                       [("n2", MemberState.SUSPECT.value, inc)])
            if s.now < 15.0:
                s.schedule(1.0, spam)

        sim.schedule(2.0, spam)
        sim.run(until=30.0)
        for node in nodes:
            assert cluster[node].considers_alive("n2")


class TestSwimUpdateFilter:
    def test_naive_cluster_adopts_forged_join(self, sim, swim_cluster):
        build, nodes, network = swim_cluster
        cluster = build()
        sim.run(until=2.0)
        _forge(network, "n5", "n1", [("sybil-0", "alive", 1)])
        sim.run(until=4.0)
        assert "sybil-0" in cluster["n1"].members()

    def test_filter_rejects_unknown_identity(self, sim, swim_cluster):
        build, nodes, network = swim_cluster
        known = set(nodes)
        rejected = []

        def update_filter(src, node, state, incarnation):
            if node in known:
                return True
            rejected.append((src, node))
            return False

        cluster = build(update_filter=update_filter)
        sim.run(until=2.0)
        _forge(network, "n5", "n1", [("sybil-0", "alive", 1)])
        sim.run(until=10.0)
        assert "sybil-0" not in cluster["n1"].members()
        assert ("n5", "sybil-0") in rejected
        # Honest membership is intact despite the filter.
        assert cluster["n1"].alive_members() == sorted(nodes)

    def test_impossible_incarnation_jump_rejected(self, sim, swim_cluster):
        build, nodes, network = swim_cluster
        evidence = []
        cluster = build(
            max_incarnation_jump=8,
            evidence=lambda subject, kind: evidence.append((subject, kind)))
        sim.run(until=2.0)
        # Forged DEAD at an absurd incarnation: a real node's incarnation
        # advances by one per refutation, so +1000 is a forged counter.
        _forge(network, "n5", "n1", [("n3", MemberState.DEAD.value, 1000)])
        sim.run(until=4.0)
        assert ("n5", "impossible-incarnation") in evidence
        assert cluster["n1"].considers_alive("n3")

    def test_plausible_incarnation_still_accepted(self, sim, mesh5, rngs):
        """A small (legitimate) incarnation advance passes the jump guard.

        The protocol is deliberately not started: no probes run, so the
        applied rumor cannot be immediately overwritten by a live ack.
        """
        nodes, _, network = mesh5
        protocol = MembershipProtocol(sim, network, "n1", nodes,
                                      rngs.stream("m:n1"),
                                      max_incarnation_jump=8)
        _forge(network, "n4", "n1", [("n3", MemberState.SUSPECT.value, 2)])
        sim.run(until=1.0)
        assert protocol.state_of("n3") == MemberState.SUSPECT


class TestRaftQuorumIntersection:
    """The combinatorial core of leader safety, checked exhaustively."""

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_any_two_quorums_intersect(self, n):
        nodes = list(range(n))
        quorum = n // 2 + 1
        for q1 in itertools.combinations(nodes, quorum):
            for q2 in itertools.combinations(nodes, quorum):
                assert set(q1) & set(q2)

    @pytest.mark.parametrize("n,f", [(5, 2), (7, 3)])
    def test_honest_single_votes_cannot_grant_two_quorums(self, n, f):
        """With liar votes discarded (authenticated replies) and every
        honest node granting at most one vote per term, no assignment of
        honest votes yields two same-term quorums -- exhaustively, for
        every candidate pair and every honest-vote assignment."""
        nodes = list(range(n))
        liars = set(nodes[-f:])
        honest = [v for v in nodes if v not in liars]
        quorum = n // 2 + 1
        for a, b in itertools.combinations(honest, 2):
            voters = [v for v in honest if v not in (a, b)]
            # Each honest non-candidate votes for a, for b, or abstains.
            for assignment in itertools.product((a, b, None),
                                                repeat=len(voters)):
                votes_a = 1 + sum(1 for v in assignment if v == a)
                votes_b = 1 + sum(1 for v in assignment if v == b)
                assert not (votes_a >= quorum and votes_b >= quorum)

    @pytest.mark.parametrize("n,f", [(5, 2), (7, 3)])
    def test_forged_votes_break_intersection(self, n, f):
        """The attack the scenario stages: liars voting for everyone give
        two candidates disjoint honest support plus the same f forged
        votes -- both reach quorum.  This is why replies must be
        authenticated, not why quorums are too small."""
        quorum = n // 2 + 1
        votes_a = 1 + f          # self + every liar
        votes_b = 1 + f
        honest_spare = n - f - 2  # honest non-candidates
        votes_a += (honest_spare + 1) // 2
        votes_b += honest_spare // 2
        assert votes_a >= quorum and votes_b >= quorum

    def test_won_terms_unique_without_adversary(self, sim, mesh5, rngs):
        """Simulated safety: across an honest run, each term is won by at
        most one node (leader-safety invariant on real message flow)."""
        nodes, _, network = mesh5
        cluster = {
            node: RaftNode(sim, network, node, nodes,
                           rngs.stream(f"r:{node}"),
                           heartbeat_interval=0.3,
                           election_timeout=(0.8, 1.1))
            for node in nodes
        }
        for raft in cluster.values():
            raft.start()
        # Force churn: crash whichever node currently leads, twice.
        def crash_leader(s):
            leaders = [n for n in nodes if cluster[n].role == RaftRole.LEADER]
            if leaders:
                network.set_node_up(leaders[0], False)

        sim.schedule(5.0, crash_leader)
        sim.schedule(12.0, crash_leader)
        sim.run(until=25.0)
        winners = {}
        for node in nodes:
            for term in cluster[node].won_terms:
                winners.setdefault(term, []).append(node)
        assert winners   # elections actually happened
        assert all(len(v) == 1 for v in winners.values())

    @pytest.mark.parametrize("seed", [41, 101, 202])
    def test_defended_scenario_safe_across_seeds(self, seed):
        """The defended raft-equivocation run never double-elects, at the
        canonical seed and off-canonical ones."""
        from repro.scenarios import ScenarioSpec, gated_run

        _, result = gated_run(ScenarioSpec("security-raft-equivocation",
                                           seed=seed,
                                           params={"variant": "defended"}))
        assert not result["safety_violated"]

"""The security plane: one facade wiring auth, trust and the adversary.

Lives at ``sim.context["security"]`` (mirroring the traffic registry) so
faults and the MAPE executor can reach it without import cycles.  The
plane owns:

* the :class:`~repro.security.auth.KeyChain` and the transport
  signer/verifier pair (:meth:`enable_auth`),
* the :class:`~repro.security.trust.TrustRegistry` (evidence in,
  intrusion facts out),
* the :class:`~repro.security.adversary.Adversary` controller that
  :class:`~repro.faults.models.NodeCompromiseFault` drives,
* the intrusion-response verbs the executor calls:
  :meth:`quarantine_node`, :meth:`evict_member`, :meth:`rotate_keys`.

Coordination components opt in via :meth:`attach_gossip` /
:meth:`attach_membership`, which is how eviction reaches peer lists and
membership tables.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.security.adversary import Adversary
from repro.security.auth import KeyChain, MessageAuthenticator
from repro.security.trust import TrustRegistry

#: ``sim.context`` key, mirroring the traffic registry's convention.
SECURITY_CONTEXT_KEY = "security"


class SecurityPlane:
    """Per-system security facade (auth + trust + adversary + response)."""

    def __init__(self, system: Any, threshold: float = 0.45) -> None:
        self.system = system
        self.keychain = KeyChain(system.rngs.stream("security:keys"))
        self.trust = TrustRegistry(system, threshold=threshold)
        self.adversary = Adversary(system)
        self.adversary.plane = self
        self.authenticator: Optional[MessageAuthenticator] = None
        self.quarantined: List[str] = []
        self.key_rotations = 0
        self._gossips: Dict[str, Any] = {}
        self._memberships: Dict[str, Any] = {}
        system.sim.context[SECURITY_CONTEXT_KEY] = self

    # -- wiring ------------------------------------------------------------- #
    def enable_auth(self, nodes: Iterable[str],
                    protected_kinds: Optional[Iterable[str]] = None) -> None:
        """Issue keys and install the signer/verifier on the transport.

        Must be called before any compromise so the signer interceptor
        precedes attack behaviors in the chain.
        """
        for node in sorted(nodes):
            self.keychain.issue(node)
        self.authenticator = MessageAuthenticator(
            self.keychain, protected_kinds=protected_kinds)
        network = self.system.network
        network.add_interceptor(self.authenticator.signer)
        network.verifier = self._verify

    def attach_gossip(self, gossip_node: Any, share_trust: bool = False) -> None:
        self._gossips[gossip_node.node_id] = gossip_node
        if share_trust:
            self.trust.bind_gossip(gossip_node.node_id, gossip_node)

    def attach_membership(self, protocol: Any) -> None:
        self._memberships[protocol.node_id] = protocol

    def _verify(self, message) -> bool:
        authenticator = self.authenticator
        if authenticator is None:
            return True
        if authenticator.verify(message):
            return True
        # The receiving vantage charges the claimed sender: either the
        # sender tampered below its signing layer, or someone is forging
        # its identity -- both warrant distrust of traffic "from" it.
        self.trust.record(message.dst, message.src, "digest-mismatch",
                          detail=message.kind)
        return False

    # -- intrusion response (executor verbs) -------------------------------- #
    def quarantine_node(self, node: str) -> bool:
        """Transport ACL: drop everything from/to ``node``."""
        network = self.system.network
        if network.is_quarantined(node):
            return False
        network.quarantine(node)
        self.quarantined.append(node)
        sim = self.system.sim
        if self.system.trace is not None:
            self.system.trace.emit(sim.now, "security", "quarantined",
                                   subject=node)
        if self.system.metrics is not None:
            self.system.metrics.increment("security.quarantined")
        return True

    def evict_member(self, node: str) -> bool:
        """Remove ``node`` from gossip peer lists and membership tables."""
        evicted = False
        for gossip in sorted(self._gossips):
            if node in self._gossips[gossip].peers:
                self._gossips[gossip].remove_peer(node)
                evicted = True
        for member in sorted(self._memberships):
            protocol = self._memberships[member]
            if protocol.node_id != node and protocol.evict(node):
                evicted = True
        if evicted and self.system.trace is not None:
            self.system.trace.emit(self.system.sim.now, "security", "evicted",
                                   subject=node)
        return evicted

    def rotate_keys(self, revoke: Optional[str] = None) -> int:
        """Rotate every key except ``revoke``'s, which is revoked outright."""
        if revoke is not None:
            self.keychain.revoke(revoke)
        rotated = self.keychain.rotate_all(
            exclude=(revoke,) if revoke else ())
        self.key_rotations += 1
        if self.system.trace is not None:
            self.system.trace.emit(self.system.sim.now, "security",
                                   "keys-rotated", subject=revoke,
                                   rotated=rotated)
        return rotated

    # -- reporting ----------------------------------------------------------- #
    def kpis(self, horizon: float) -> Dict[str, Any]:
        trust_scores = {}
        for node in set(self.adversary.compromised_nodes) \
                | set(self.trust.flagged) | set(self.trust.registered):
            trust_scores[node] = round(self.trust.aggregate(node), 6)
        stats = self.system.network.stats
        return {
            "compromised": self.adversary.compromised_nodes,
            "quarantined": sorted(self.quarantined),
            "distrusted": self.trust.flagged,
            "registered": self.trust.registered,
            "evidence": dict(sorted(self.trust.evidence_counts.items())),
            "trust": dict(sorted(trust_scores.items())),
            "key_rotations": self.key_rotations,
            "dropped_auth": stats.dropped_auth,
            "dropped_quarantined": stats.dropped_quarantined,
            "dropped_intercepted": stats.dropped_intercepted,
        }

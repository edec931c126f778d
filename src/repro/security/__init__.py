"""Active-adversary plane: attack behaviors, trust, and intrusion response.

The paper names adversarial environments as a first-class disruption
vector, with the top maturity level (ML4) requiring that a system
*detect and adapt to* untrusted participants.  This package turns
compromised devices into behaving attackers and gives the rest of the
stack the machinery to survive them:

* :mod:`repro.security.auth` -- per-node keys and HMAC message
  authentication over the deterministic payload encoding, installed as a
  transport interceptor/verifier pair so tampering is *detectable*.
* :mod:`repro.security.adversary` -- the :class:`Adversary` controller
  and per-node :class:`AttackBehavior`\\ s (equivocation, flooding,
  sybil joins) installed as send-side
  transport interceptors *after* the signer, modeling a compromise of
  the node's network stack below its signing layer.
* :mod:`repro.security.trust` -- deterministic per-observer reputation
  scoring from direct and gossiped indirect evidence, plus a
  :class:`FloodSentry` rate monitor over the transport's per-source
  counters.
* :mod:`repro.security.plane` -- the :class:`SecurityPlane` facade that
  wires all of the above into one system and exposes quarantine /
  eviction / key-rotation for the MAPE executor.
* :mod:`repro.security.scenarios` -- the three attack scenarios
  (byzantine gossip, sybil flood, raft equivocation) with naive and
  defended configurations and resilience gates.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "KeyChain": "auth",
    "MessageAuthenticator": "auth",
    "Adversary": "adversary",
    "AttackBehavior": "adversary",
    "FloodBehavior": "adversary",
    "GossipEquivocateBehavior": "adversary",
    "SybilJoinBehavior": "adversary",
    "VoteEquivocateBehavior": "adversary",
    "SECURITY_CONTEXT_KEY": "plane",
    "SecurityPlane": "plane",
    "EVIDENCE_PENALTIES": "trust",
    "FloodSentry": "trust",
    "TrustRegistry": "trust",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

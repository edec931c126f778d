"""Decentralized coordination (paper §V, Fig. 3).

"For resilient IoT, coordination presupposes a general absence of
centralized control, instead leveraging cooperation between software
components, in a peer-to-peer fashion."  This package provides the
distributed-systems mechanisms §V.B says must be adopted:

* failure detection -- heartbeat and phi-accrual detectors
  (:mod:`repro.coordination.failure_detector`);
* membership -- SWIM-style dissemination of join/leave/suspect
  (:mod:`repro.coordination.membership`);
* epidemic state dissemination -- push-pull gossip
  (:mod:`repro.coordination.gossip`);
* leader election -- bully algorithm (:mod:`repro.coordination.election`);
* consensus -- Raft with leader election, log replication and commit
  (:mod:`repro.coordination.raft`);
* service registry -- replicated, gossip-backed service discovery
  (:mod:`repro.coordination.registry`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "HeartbeatFailureDetector": "failure_detector",
    "PhiAccrualFailureDetector": "failure_detector",
    "MemberState": "membership",
    "MembershipProtocol": "membership",
    "GossipNode": "gossip",
    "GossipValue": "gossip",
    "BullyElection": "election",
    "RaftNode": "raft",
    "RaftRole": "raft",
    "RaftCluster": "raft",
    "ServiceRegistry": "registry",
    "ServiceRecord": "registry",
    "LeaseKeeper": "lease",
    "LeaseManager": "lease",
    "LeaseState": "lease",
    "start_lease_keeper": "lease",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

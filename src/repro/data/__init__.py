"""Inter-IoT data flows (paper §VI, Fig. 4).

Data in resilient IoT "flows from device to device in a bidirectional
manner, and among different data consumers and producers", traversing
"computational resources of diverse administrative domains and different
levels of trust".  This package provides:

* data items with provenance/lineage (:mod:`repro.data.item`,
  :mod:`repro.data.lineage`) -- "methodologically follow the data lineage
  within IoT";
* conflict-free replicated data types (:mod:`repro.data.crdt`) -- the
  decentralized synchronization substrate (no coordinator needed to merge);
* an anti-entropy replica synchronizer (:mod:`repro.data.sync`);
* data freshness, the operational proxy for the timeliness and
  availability Fig. 4 highlights (:mod:`repro.data.quality`).

Privacy -- the third Fig. 4 dimension -- is enforced by
:mod:`repro.governance` policies hooked into the synchronizer.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DataItem": "item",
    "DataSensitivity": "item",
    "LineageEvent": "lineage",
    "LineageTracker": "lineage",
    "Crdt": "crdt",
    "GCounter": "crdt",
    "GSet": "crdt",
    "LWWMap": "crdt",
    "LWWRegister": "crdt",
    "ORSet": "crdt",
    "PNCounter": "crdt",
    "ReplicaStore": "sync",
    "SyncProtocol": "sync",
    "DataQualityMonitor": "quality",
    "QuorumClient": "quorum",
    "QuorumReplica": "quorum",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

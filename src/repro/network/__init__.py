"""Simulated network substrate.

Models the communication fabric of Figure 1's landscape: device-to-gateway
wireless links, gateway/edge LAN links, and edge/cloud WAN links, each with
its own latency, jitter, bandwidth and loss characteristics.  Partitions --
the paper's "connectivity to cloud control structures may not be
persistent" -- are first-class (:class:`~repro.network.partition.PartitionManager`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "LatencyModel": "link",
    "Link": "link",
    "LinkProfile": "link",
    "LINK_PROFILES": "link",
    "Topology": "topology",
    "Message": "transport",
    "Network": "transport",
    "NetworkStats": "transport",
    "PartitionManager": "partition",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

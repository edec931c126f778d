"""Decentralized service registry.

Service discovery without a central directory: each node advertises the
services it hosts into a :class:`~repro.coordination.gossip.GossipNode`;
lookups are answered from the local (eventually consistent) view.  This is
the "some shared services exist, services are partly managed" ML3 step
made concrete, and the substrate the orchestrator uses to find capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.coordination.gossip import GossipNode


@dataclass(frozen=True)
class ServiceRecord:
    """An advertisement: service instance hosted on a device."""

    service_name: str
    device_id: str
    healthy: bool = True
    version: str = "1.0.0"

    def key(self) -> str:
        return f"svc/{self.service_name}@{self.device_id}"


class ServiceRegistry:
    """A node-local registry view backed by gossip dissemination."""

    def __init__(self, gossip: GossipNode) -> None:
        self.gossip = gossip

    @property
    def node_id(self) -> str:
        return self.gossip.node_id

    # -- advertisement -------------------------------------------------------- #
    def advertise(self, record: ServiceRecord) -> None:
        """Publish (or refresh) a service instance advertisement."""
        self.gossip.set(record.key(), _encode(record))

    def withdraw(self, service_name: str, device_id: str) -> None:
        """Mark an instance unhealthy (tombstone-style: entry remains,
        flagged down, so the update still dominates older 'healthy' ones)."""
        record = ServiceRecord(service_name=service_name, device_id=device_id,
                               healthy=False)
        self.gossip.set(record.key(), _encode(record))

    # -- lookup ------------------------------------------------------------- #
    def instances(self, service_name: str, healthy_only: bool = True) -> List[ServiceRecord]:
        """All known instances of a service, from the local gossip view."""
        prefix = f"svc/{service_name}@"
        out = []
        for key in self.gossip.keys:
            if key.startswith(prefix):
                record = _decode(self.gossip.get(key))
                if record is not None and (record.healthy or not healthy_only):
                    out.append(record)
        return sorted(out, key=lambda r: r.device_id)

    def lookup(self, service_name: str) -> Optional[ServiceRecord]:
        """A healthy instance of the service (deterministic pick), or None."""
        instances = self.instances(service_name)
        return instances[0] if instances else None


def _encode(record: ServiceRecord) -> dict:
    return {
        "service_name": record.service_name,
        "device_id": record.device_id,
        "healthy": record.healthy,
        "version": record.version,
    }


def _decode(value: object) -> Optional[ServiceRecord]:
    if not isinstance(value, dict):
        return None
    return ServiceRecord(
        service_name=value["service_name"],
        device_id=value["device_id"],
        healthy=bool(value.get("healthy", True)),
        version=value.get("version", "1.0.0"),
    )

"""Mobility workload: vehicles roaming between edge sites and domains.

Vehicles periodically hand over between edge sites (locality change) and
occasionally cross administrative borders (domain transfer, the §I
disruption).  Exercises: dynamic topology rewiring, governed domain
transfer with data sanitation, and continuity of telemetry across
handovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.system import IoTSystem
from repro.data.item import DataItem, DataSensitivity
from repro.data.lineage import LineageTracker
from repro.devices.base import Device, DeviceClass
from repro.governance.domains import (
    CCPA,
    GDPR,
    AdministrativeDomain,
    DomainRegistry,
    TrustLevel,
)
from repro.governance.policy import PolicyEngine
from repro.governance.transfer import DomainTransferProtocol


@dataclass
class MobilityStats:
    telemetry_sent: int = 0
    telemetry_received: int = 0
    handovers: int = 0
    border_crossings: int = 0
    items_sanitized: int = 0


class MobilityWorkload:
    """Vehicles handing over between edge sites across two domains."""

    def __init__(
        self,
        n_vehicles: int = 4,
        n_sites: int = 3,
        seed: int = 31,
        telemetry_period: float = 1.0,
        handover_period: float = 10.0,
    ) -> None:
        if n_sites < 2:
            raise ValueError("mobility needs at least two sites")
        self.n_vehicles = n_vehicles
        self.n_sites = n_sites
        self.telemetry_period = telemetry_period
        self.handover_period = handover_period
        self.system = IoTSystem.with_edge_cloud_landscape(
            n_sites, 1, seed=seed, device_class=DeviceClass.GATEWAY,
            domain_per_site=False,
        )
        self.lineage = LineageTracker()
        self.stats = MobilityStats()
        self._rng = self.system.rngs.stream("mobility")
        self._vehicle_site: Dict[str, int] = {}
        self._site_domain = {
            s: ("euroland" if s < (n_sites + 1) // 2 else "otherland")
            for s in range(n_sites)
        }
        self._build_governance()
        self._spawn_vehicles()

    # -- governance ------------------------------------------------------------- #
    def _build_governance(self) -> None:
        registry = DomainRegistry()
        registry.add(AdministrativeDomain("euroland", GDPR, TrustLevel.TRUSTED))
        registry.add(AdministrativeDomain("otherland", CCPA, TrustLevel.PARTNER))
        registry.set_mutual_trust("euroland", "otherland", TrustLevel.PARTNER)
        self.domains = registry
        # The lookups close over the fleet, not over this workload, which
        # holds the engine: that would be a reference cycle.
        fleet = self.system.fleet
        self.policy_engine = PolicyEngine(
            registry,
            min_trust=TrustLevel.PARTNER,
            device_domain=lambda d: fleet.get(d).domain,
            environment_trusted=lambda d: fleet.get(d).environment_trusted,
        )
        self.transfer_protocol = DomainTransferProtocol(
            self.system.sim, self.system.fleet, self.policy_engine,
            lineage=self.lineage, trace=self.system.trace,
        )

    # -- vehicles -------------------------------------------------------------- #
    def _spawn_vehicles(self) -> None:
        for index in range(self.n_vehicles):
            vehicle_id = f"vehicle{index}"
            site = index % self.n_sites
            self._vehicle_site[vehicle_id] = site
            edge = f"edge{site}"
            self.system.topology.add_link(vehicle_id, edge, profile="cellular")
            self.system.fleet.add(Device(
                vehicle_id, DeviceClass.MOBILE,
                domain=self._site_domain[site], location=f"site{site}",
            ))
            self._start_telemetry(vehicle_id)
            self._start_roaming(vehicle_id)
        for site in range(self.n_sites):
            self._register_edge(site)

    def _register_edge(self, site: int) -> None:
        edge = f"edge{site}"

        def handle(message) -> None:
            if self.system.fleet.get(edge).up:
                self.stats.telemetry_received += 1

        self.system.network.register(edge, "telemetry", handle)

    def _start_telemetry(self, vehicle_id: str) -> None:
        sim = self.system.sim
        offset = self._rng.uniform(0.0, self.telemetry_period)

        def tick(s) -> None:
            device = self.system.fleet.get(vehicle_id)
            if device.up:
                site = self._vehicle_site[vehicle_id]
                item = DataItem(
                    key=f"trip:{vehicle_id}", value={"speed": self._rng.uniform(0, 130)},
                    producer=vehicle_id, domain=device.domain, created_at=s.now,
                    sensitivity=DataSensitivity.PERSONAL, subject=vehicle_id,
                )
                self.lineage.record_created(item, s.now, vehicle_id)
                self.transfer_protocol.register_resident_data(vehicle_id, item)
                self.system.network.send(
                    vehicle_id, f"edge{site}", "telemetry",
                    payload={"vehicle": vehicle_id, "t": s.now}, size_bytes=96,
                )
                self.stats.telemetry_sent += 1
            s.schedule(self.telemetry_period, tick, label=f"telemetry:{vehicle_id}")

        sim.schedule(offset, tick, label=f"telemetry:{vehicle_id}")

    def _start_roaming(self, vehicle_id: str) -> None:
        sim = self.system.sim
        offset = self._rng.uniform(0.0, self.handover_period)

        def roam(s) -> None:
            device = self.system.fleet.get(vehicle_id)
            if device.up:
                self._handover(vehicle_id)
            s.schedule(self.handover_period, roam, label=f"roam:{vehicle_id}")

        sim.schedule(offset + self.handover_period, roam, label=f"roam:{vehicle_id}")

    def _handover(self, vehicle_id: str) -> None:
        old_site = self._vehicle_site[vehicle_id]
        new_site = (old_site + 1) % self.n_sites
        old_edge, new_edge = f"edge{old_site}", f"edge{new_site}"
        # Rewire connectivity.
        link = self.system.topology.link_between(vehicle_id, old_edge)
        if link is not None:
            link.set_up(False)
        if self.system.topology.link_between(vehicle_id, new_edge) is None:
            self.system.topology.add_link(vehicle_id, new_edge, profile="cellular")
        else:
            self.system.topology.link_between(vehicle_id, new_edge).set_up(True)
        self._vehicle_site[vehicle_id] = new_site
        device = self.system.fleet.get(vehicle_id)
        device.location = f"site{new_site}"
        self.stats.handovers += 1
        self.system.trace.emit(
            self.system.sim.now, "mobility", "handover", subject=vehicle_id,
            src=old_edge, dst=new_edge,
        )
        # Border crossing: governed domain transfer sanitizes resident data.
        old_domain = self._site_domain[old_site]
        new_domain = self._site_domain[new_site]
        if old_domain != new_domain:
            counters = self.transfer_protocol.transfer(vehicle_id, new_domain)
            self.stats.border_crossings += 1
            self.stats.items_sanitized += counters["anonymized"] + counters["purged"]

    def run(self, horizon: float) -> MobilityStats:
        self.system.run(until=horizon)
        return self.stats

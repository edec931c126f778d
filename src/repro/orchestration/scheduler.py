"""The deviceless scheduler.

The developer-facing surface of ML4's service vector: submit a service
spec plus intent (who its clients are, what constraints apply) and the
scheduler owns placement, deployment, registry advertisement, and
failure-driven re-placement.  "Eliminating the need for manual service
management" (§III.B) is exactly this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.coordination.registry import ServiceRecord, ServiceRegistry
from repro.devices.fleet import DeviceFleet
from repro.devices.software import Service, ServiceState
from repro.network.topology import Topology
from repro.orchestration.placement import (
    PlacementConstraints,
    PlacementDecision,
    PlacementError,
    best_fit_placement,
    latency_aware_placement,
)
from repro.simulation.kernel import Simulator
from repro.simulation.trace import TraceLog


@dataclass
class Deployment:
    """Bookkeeping for one scheduled service."""

    service: Service
    device_id: str
    constraints: PlacementConstraints
    clients: List[str] = field(default_factory=list)
    replacements: int = 0


class DevicelessScheduler:
    """Places, tracks and re-places services across a fleet."""

    def __init__(
        self,
        sim: Simulator,
        fleet: DeviceFleet,
        topology: Topology,
        registry: Optional[ServiceRegistry] = None,
        candidate_tiers: Sequence[str] = ("edge", "gateway", "cloud"),
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.topology = topology
        self.registry = registry
        self.candidate_tiers = tuple(candidate_tiers)
        self.trace = trace
        self._deployments: Dict[str, Deployment] = {}
        self.reschedules = 0

    # -- submission ------------------------------------------------------------#
    def submit(
        self,
        service: Service,
        clients: Optional[List[str]] = None,
        constraints: PlacementConstraints = PlacementConstraints(),
    ) -> PlacementDecision:
        """Schedule a service: latency-aware when clients are given,
        best-fit otherwise.  Deploys onto the chosen device."""
        if service.name in self._deployments:
            raise ValueError(f"service {service.name!r} already scheduled")
        candidates = self._candidates()
        if clients:
            decision = latency_aware_placement(
                service, candidates, self.topology, clients, constraints
            )
        else:
            decision = best_fit_placement(service, candidates, constraints)
        self._deploy(service, decision.device_id)
        self._deployments[service.name] = Deployment(
            service=service, device_id=decision.device_id,
            constraints=constraints, clients=list(clients or ()),
        )
        return decision

    def _candidates(self):
        return [
            d for d in self.fleet.devices
            if d.device_class.value in self.candidate_tiers
        ]

    def _deploy(self, service: Service, device_id: str) -> None:
        device = self.fleet.get(device_id)
        device.host(service)
        if self.registry is not None:
            self.registry.advertise(ServiceRecord(
                service_name=service.name, device_id=device_id,
                version=service.version,
            ))
        if self.trace is not None:
            self.trace.emit(self.sim.now, "orchestration", "deployed",
                            subject=service.name, device=device_id)

    # -- introspection ------------------------------------------------------- #
    def placement_of(self, service_name: str) -> Optional[str]:
        deployment = self._deployments.get(service_name)
        return deployment.device_id if deployment else None

    def healthy(self, service_name: str) -> bool:
        """Is the service deployed on an up device and running?"""
        deployment = self._deployments.get(service_name)
        if deployment is None:
            return False
        try:
            device = self.fleet.get(deployment.device_id)
        except KeyError:
            return False
        if not device.up:
            return False
        service = device.stack.service(service_name)
        return service is not None and service.state == ServiceState.RUNNING

    # -- failure-driven rescheduling --------------------------------------------#
    def reconcile(self) -> List[PlacementDecision]:
        """Re-place every unhealthy service; call from a MAPE loop or a
        periodic tick.  Returns the decisions made."""
        decisions = []
        for name in sorted(self._deployments):
            if self.healthy(name):
                continue
            decision = self._replace(name)
            if decision is not None:
                decisions.append(decision)
        return decisions

    def _replace(self, service_name: str) -> Optional[PlacementDecision]:
        deployment = self._deployments[service_name]
        old_device_id = deployment.device_id
        # Retrieve (or reconstruct) the service object.
        service = deployment.service
        try:
            old_device = self.fleet.get(old_device_id)
            if old_device.hosts(service_name):
                service = old_device.evict(service_name)
        except KeyError:
            pass
        candidates = [
            d for d in self._candidates() if d.device_id != old_device_id
        ]
        try:
            if deployment.clients:
                decision = latency_aware_placement(
                    service, candidates, self.topology,
                    deployment.clients, deployment.constraints,
                )
            else:
                decision = best_fit_placement(service, candidates, deployment.constraints)
        except PlacementError:
            # Nowhere to go: leave it where it was (still unhealthy) so a
            # later reconcile can retry when capacity returns.
            try:
                old_device = self.fleet.get(old_device_id)
                if not old_device.hosts(service_name) and old_device.can_host(service):
                    old_device.host(service)
            except KeyError:
                pass
            return None
        if self.registry is not None:
            self.registry.withdraw(service_name, old_device_id)
        self._deploy(service, decision.device_id)
        deployment.device_id = decision.device_id
        deployment.replacements += 1
        self.reschedules += 1
        return decision

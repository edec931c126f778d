"""Service placement solvers.

Placement is where "novel (resource) features ... such as device location
and IoT cloud resources' heterogeneity" (§III.A) become decisions.  Two
solvers, both deterministic:

* :func:`best_fit_placement` -- minimize leftover capacity (consolidation);
* :func:`latency_aware_placement` -- minimize expected latency to a set of
  client devices, subject to fit (the edge-vs-cloud tradeoff quantified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.devices.base import Device
from repro.devices.software import Service
from repro.network.topology import Topology


class PlacementError(RuntimeError):
    """No feasible placement exists for the request."""


@dataclass(frozen=True)
class PlacementConstraints:
    """Optional restrictions on where a service may run.

    ``allowed_domains``/``allowed_locations`` empty means unconstrained;
    ``required_tier`` restricts by device class name (e.g. {"edge",
    "gateway"}); ``anti_affinity`` lists services that must not share a
    host (replica spreading).
    """

    allowed_domains: frozenset = frozenset()
    allowed_locations: frozenset = frozenset()
    required_tiers: frozenset = frozenset()
    anti_affinity: frozenset = frozenset()


@dataclass(frozen=True)
class PlacementDecision:
    service_name: str
    device_id: str
    score: float
    detail: str = ""


def _admissible(device: Device, service: Service,
                constraints: PlacementConstraints) -> bool:
    if not device.up:
        return False
    if constraints.allowed_domains and device.domain not in constraints.allowed_domains:
        return False
    if constraints.allowed_locations and device.location not in constraints.allowed_locations:
        return False
    if constraints.required_tiers and device.device_class.value not in constraints.required_tiers:
        return False
    for rival in constraints.anti_affinity:
        if device.hosts(rival):
            return False
    return device.can_host(service)


def best_fit_placement(
    service: Service,
    candidates: Sequence[Device],
    constraints: PlacementConstraints = PlacementConstraints(),
) -> PlacementDecision:
    """Place on the admissible device with least leftover CPU after fit."""
    best: Optional[Tuple[float, str]] = None
    for device in candidates:
        if not _admissible(device, service, constraints):
            continue
        leftover = device.resources.available("cpu") - service.cpu
        key = (leftover, device.device_id)
        if best is None or key < best:
            best = key
    if best is None:
        raise PlacementError(
            f"no admissible host for service {service.name!r} among "
            f"{len(candidates)} candidates"
        )
    return PlacementDecision(service.name, best[1], score=best[0],
                             detail="best-fit by leftover cpu")


def latency_aware_placement(
    service: Service,
    candidates: Sequence[Device],
    topology: Topology,
    clients: Sequence[str],
    constraints: PlacementConstraints = PlacementConstraints(),
) -> PlacementDecision:
    """Place minimizing mean expected latency to ``clients``.

    Unreachable clients contribute a large penalty rather than excluding
    the host outright, so a partially partitioned system still gets the
    least-bad placement.
    """
    unreachable_penalty = 10.0  # seconds; dwarfs any real path latency
    best: Optional[Tuple[float, str]] = None
    for device in candidates:
        if not _admissible(device, service, constraints):
            continue
        total = 0.0
        for client in clients:
            latency = topology.expected_latency(device.device_id, client)
            total += latency if latency is not None else unreachable_penalty
        mean = total / len(clients) if clients else 0.0
        key = (mean, device.device_id)
        if best is None or key < best:
            best = key
    if best is None:
        raise PlacementError(
            f"no admissible host for service {service.name!r}"
        )
    return PlacementDecision(service.name, best[1], score=best[0],
                             detail="latency-aware placement")


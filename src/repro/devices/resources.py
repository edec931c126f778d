"""Device resources: compute, memory, storage, and energy.

Resource constraints are a core premise of the paper ("resource-constrained
devices" appears in the abstract and throughout): edge placement decisions
(:mod:`repro.orchestration`) and the argument that computationally intensive
analysis cannot run on end-devices (§VII.B) are only meaningful if devices
have bounded, heterogeneous capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class ResourceSpec:
    """Static capacity of a device class.

    Units are abstract but consistent across the codebase: ``cpu`` in
    millicores (1000 = one core), ``memory``/``storage`` in MB, ``energy``
    in joule-equivalents (None means mains-powered).
    """

    cpu: float
    memory: float
    storage: float
    energy_capacity: Optional[float] = None

    def __post_init__(self) -> None:
        for field_name in ("cpu", "memory", "storage"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.energy_capacity is not None and self.energy_capacity <= 0:
            raise ValueError("energy_capacity must be positive or None")


class InsufficientResources(RuntimeError):
    """Raised when an allocation would exceed remaining capacity."""


class ResourcePool:
    """Tracks allocations against a :class:`ResourceSpec`.

    Allocations are named so that service placement can be undone exactly
    (service migration releases precisely what the service held).
    """

    def __init__(self, spec: ResourceSpec) -> None:
        self.spec = spec
        self._allocations: Dict[str, Dict[str, float]] = {}

    # -- accounting -------------------------------------------------------- #
    def used(self, resource: str) -> float:
        return sum(alloc.get(resource, 0.0) for alloc in self._allocations.values())

    def available(self, resource: str) -> float:
        capacity = getattr(self.spec, resource)
        return capacity - self.used(resource)

    def can_fit(self, cpu: float = 0.0, memory: float = 0.0, storage: float = 0.0) -> bool:
        return (
            self.available("cpu") >= cpu
            and self.available("memory") >= memory
            and self.available("storage") >= storage
        )

    def allocate(
        self, name: str, cpu: float = 0.0, memory: float = 0.0, storage: float = 0.0
    ) -> None:
        """Reserve resources under ``name``; atomic (all or nothing)."""
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists")
        if cpu < 0 or memory < 0 or storage < 0:
            raise ValueError("allocation amounts must be non-negative")
        if not self.can_fit(cpu=cpu, memory=memory, storage=storage):
            raise InsufficientResources(
                f"cannot fit ({cpu} cpu, {memory} mem, {storage} sto); "
                f"free=({self.available('cpu')}, {self.available('memory')}, "
                f"{self.available('storage')})"
            )
        self._allocations[name] = {"cpu": cpu, "memory": memory, "storage": storage}

    def release(self, name: str) -> None:
        if name not in self._allocations:
            raise KeyError(f"no allocation {name!r}")
        del self._allocations[name]

    def holds(self, name: str) -> bool:
        return name in self._allocations


class Battery:
    """Energy store with linear drain; None capacity means mains power.

    The fault model "battery depletion" (:mod:`repro.faults`) drives this:
    a device whose battery empties goes down until recharged.
    """

    def __init__(self, capacity: Optional[float]) -> None:
        self.capacity = capacity
        self.level = capacity if capacity is not None else None

    @property
    def mains_powered(self) -> bool:
        return self.capacity is None

    @property
    def depleted(self) -> bool:
        return self.level is not None and self.level <= 0.0

    @property
    def fraction(self) -> float:
        if self.mains_powered:
            return 1.0
        return max(0.0, self.level / self.capacity)

    def drain(self, amount: float) -> bool:
        """Consume energy; returns False if the battery just depleted."""
        if amount < 0:
            raise ValueError("drain amount must be non-negative")
        if self.mains_powered:
            return True
        self.level = max(0.0, self.level - amount)
        return not self.depleted

    def recharge(self, amount: Optional[float] = None) -> None:
        """Recharge by ``amount``, or to full if omitted."""
        if self.mains_powered:
            return
        if amount is None:
            self.level = self.capacity
        else:
            if amount < 0:
                raise ValueError("recharge amount must be non-negative")
            self.level = min(self.capacity, self.level + amount)

"""Software stacks and services hosted on devices.

Models the paper's observation that components "host software stacks of
varying complexity", are "developed and maintained by different teams",
and expose functionality "through software services" (§I, §II).  A
:class:`SoftwareStack` is a named runtime (language/framework/version)
hosting :class:`Service` instances; heterogeneity is captured by the stack
descriptor and constrains which services a device can host.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


class ServiceState(enum.Enum):
    """Lifecycle of a deployed service instance."""

    STARTING = "starting"
    RUNNING = "running"
    DEGRADED = "degraded"
    FAILED = "failed"
    STOPPED = "stopped"


@dataclass
class Service:
    """A deployable software service (or deviceless function).

    Attributes
    ----------
    name:
        Unique service name (e.g. ``"traffic-analytics"``).
    runtime:
        Required runtime identifier; deployment fails on stacks that do not
        provide it (heterogeneity constraint).
    cpu / memory / storage:
        Resource demand, in :class:`~repro.devices.resources.ResourceSpec`
        units.
    version:
        Semantic-ish version string; vendors update independently (§IV.B).
    requires:
        Capability names for dependency wiring in orchestration.
    """

    name: str
    runtime: str = "python"
    cpu: float = 50.0
    memory: float = 32.0
    storage: float = 8.0
    version: str = "1.0.0"
    requires: Set[str] = field(default_factory=set)
    state: ServiceState = ServiceState.STOPPED

    def demand(self) -> Dict[str, float]:
        return {"cpu": self.cpu, "memory": self.memory, "storage": self.storage}


class SoftwareStack:
    """A device's software runtime environment.

    ``runtimes`` is the set of runtime identifiers the stack can execute;
    a bare-metal microcontroller stack might only provide ``{"c"}`` while a
    cloudlet provides ``{"python", "jvm", "container"}``.
    """

    def __init__(
        self,
        name: str,
        runtimes: Optional[Set[str]] = None,
        max_services: Optional[int] = None,
    ) -> None:
        self.name = name
        self.runtimes: Set[str] = set(runtimes) if runtimes else {"python"}
        self.max_services = max_services
        self._services: Dict[str, Service] = {}

    # -- capability checks -------------------------------------------------- #
    def supports(self, service: Service) -> bool:
        if service.runtime not in self.runtimes:
            return False
        if self.max_services is not None and len(self._services) >= self.max_services:
            return service.name in self._services
        return True

    # -- lifecycle ------------------------------------------------------------ #
    def deploy(self, service: Service) -> None:
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already deployed on {self.name!r}")
        if service.runtime not in self.runtimes:
            raise ValueError(
                f"stack {self.name!r} lacks runtime {service.runtime!r} "
                f"for service {service.name!r}"
            )
        if self.max_services is not None and len(self._services) >= self.max_services:
            raise ValueError(f"stack {self.name!r} at max_services={self.max_services}")
        service.state = ServiceState.STARTING
        self._services[service.name] = service

    def start(self, name: str) -> None:
        self._require(name).state = ServiceState.RUNNING

    def mark_failed(self, name: str) -> None:
        self._require(name).state = ServiceState.FAILED

    def undeploy(self, name: str) -> Service:
        service = self._require(name)
        service.state = ServiceState.STOPPED
        del self._services[name]
        return service

    def _require(self, name: str) -> Service:
        service = self._services.get(name)
        if service is None:
            raise KeyError(f"no service {name!r} on stack {self.name!r}")
        return service

    # -- queries ----------------------------------------------------------- #
    def service(self, name: str) -> Optional[Service]:
        return self._services.get(name)

    def has_service(self, name: str) -> bool:
        return name in self._services

    @property
    def services(self) -> List[Service]:
        return [self._services[k] for k in sorted(self._services)]


#: Stack presets matching the device spectrum of §I.
STACK_PRESETS: Dict[str, Dict] = {
    "bare": {"runtimes": {"c"}, "max_services": 1},
    "micro": {"runtimes": {"c", "micropython"}, "max_services": 2},
    "mobile": {"runtimes": {"python", "android"}, "max_services": 8},
    "gateway": {"runtimes": {"python", "c", "container"}, "max_services": 16},
    "edge": {"runtimes": {"python", "jvm", "container"}, "max_services": 64},
    "cloud": {"runtimes": {"python", "jvm", "container", "serverless"}, "max_services": None},
}


def make_stack(preset: str, name: Optional[str] = None) -> SoftwareStack:
    """Instantiate a stack from a named preset."""
    if preset not in STACK_PRESETS:
        raise ValueError(f"unknown stack preset {preset!r}")
    params = STACK_PRESETS[preset]
    return SoftwareStack(
        name or preset,
        runtimes=set(params["runtimes"]),
        max_services=params["max_services"],
    )

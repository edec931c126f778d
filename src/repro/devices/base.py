"""The base device model.

A :class:`Device` binds together the concepts the paper identifies as
defining IoT entities: a network identity, a device class on the
microcontroller-to-cloud spectrum, bounded resources, a heterogeneous
software stack, an administrative domain, and a physical locality.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.devices.resources import Battery, ResourcePool, ResourceSpec
from repro.devices.software import Service, SoftwareStack, make_stack


class DeviceClass(enum.Enum):
    """The device spectrum of §I: sensors/actuators to clouds."""

    SENSOR = "sensor"
    ACTUATOR = "actuator"
    MOBILE = "mobile"
    GATEWAY = "gateway"
    EDGE = "edge"          # cloudlets, micro-clouds -- "edge components" (§I)
    CLOUD = "cloud"


#: Per-class resource capacities and stack presets.  Magnitudes follow the
#: paper's spectrum: sensors are three to five orders of magnitude smaller
#: than cloud nodes.
DEVICE_CLASS_SPECS: Dict[DeviceClass, Dict] = {
    DeviceClass.SENSOR: {
        "spec": ResourceSpec(cpu=10.0, memory=0.25, storage=1.0, energy_capacity=1000.0),
        "stack": "bare",
    },
    DeviceClass.ACTUATOR: {
        "spec": ResourceSpec(cpu=10.0, memory=0.25, storage=1.0, energy_capacity=1000.0),
        "stack": "bare",
    },
    DeviceClass.MOBILE: {
        "spec": ResourceSpec(cpu=2000.0, memory=4096.0, storage=65536.0, energy_capacity=15000.0),
        "stack": "mobile",
    },
    DeviceClass.GATEWAY: {
        "spec": ResourceSpec(cpu=1000.0, memory=1024.0, storage=16384.0, energy_capacity=None),
        "stack": "gateway",
    },
    DeviceClass.EDGE: {
        "spec": ResourceSpec(cpu=8000.0, memory=16384.0, storage=524288.0, energy_capacity=None),
        "stack": "edge",
    },
    DeviceClass.CLOUD: {
        "spec": ResourceSpec(cpu=128000.0, memory=1048576.0, storage=16777216.0,
                             energy_capacity=None),
        "stack": "cloud",
    },
}


class Device:
    """A software-hosting IoT entity.

    Parameters
    ----------
    device_id:
        Unique id; doubles as the network endpoint name.
    device_class:
        Position on the device spectrum; fixes default resources and stack.
    domain:
        Administrative domain id (see :mod:`repro.governance`).
    location:
        Physical locality label (site / locale), the paper's "locality as a
        key contextual characteristic".
    """

    def __init__(
        self,
        device_id: str,
        device_class: DeviceClass,
        domain: str = "default",
        location: str = "site0",
        spec: Optional[ResourceSpec] = None,
        stack: Optional[SoftwareStack] = None,
    ) -> None:
        class_defaults = DEVICE_CLASS_SPECS[device_class]
        self.device_id = device_id
        self.device_class = device_class
        self.domain = domain
        self.location = location
        self.resources = ResourcePool(spec or class_defaults["spec"])
        self.stack = stack or make_stack(class_defaults["stack"], name=f"{device_id}-stack")
        self.battery = Battery(self.resources.spec.energy_capacity)
        self._up = True
        # Trust of the *circumstances* the device currently finds itself in
        # ("the current circumstances a device is found in may be
        # untrusted", §I); governance consults this.
        self.environment_trusted = True

    # -- liveness ----------------------------------------------------------- #
    @property
    def up(self) -> bool:
        return self._up and not self.battery.depleted

    def crash(self) -> None:
        self._up = False

    def recover(self) -> None:
        if self.battery.depleted:
            self.battery.recharge()
        self._up = True

    # -- service hosting ---------------------------------------------------- #
    def can_host(self, service: Service) -> bool:
        """True if stack runtime and free resources both admit ``service``."""
        if not self.stack.supports(service):
            return False
        if self.stack.has_service(service.name):
            return False
        return self.resources.can_fit(**service.demand())

    def host(self, service: Service) -> None:
        """Deploy and start a service, reserving its resources atomically."""
        if not self.stack.supports(service):
            raise ValueError(
                f"device {self.device_id!r} stack cannot run {service.name!r} "
                f"(runtime {service.runtime!r})"
            )
        self.resources.allocate(f"svc:{service.name}", **service.demand())
        try:
            self.stack.deploy(service)
        except Exception:
            self.resources.release(f"svc:{service.name}")
            raise
        self.stack.start(service.name)

    def evict(self, service_name: str) -> Service:
        """Stop a service and release its resources."""
        service = self.stack.undeploy(service_name)
        self.resources.release(f"svc:{service_name}")
        return service

    def hosts(self, service_name: str) -> bool:
        return self.stack.has_service(service_name)

    # -- misc ---------------------------------------------------------------- #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return (
            f"Device({self.device_id!r}, {self.device_class.value}, "
            f"domain={self.domain!r}, {state})"
        )

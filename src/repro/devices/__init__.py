"""Device models for the IoT landscape of Figure 1.

The paper's device spectrum runs "from microcontrollers to mobile phones
and micro-clouds" (§I).  Every device here is a software-hosting entity
with explicit, heterogeneous resources (:class:`~repro.devices.resources.ResourcePool`)
and a software stack (:class:`~repro.devices.software.SoftwareStack`) --
the paper's observation that "IoT is increasingly made up of software" is
the modeling premise.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Battery": "resources",
    "ResourcePool": "resources",
    "ResourceSpec": "resources",
    "Service": "software",
    "ServiceState": "software",
    "SoftwareStack": "software",
    "Device": "base",
    "DeviceClass": "base",
    "DEVICE_CLASS_SPECS": "base",
    "DeviceFleet": "fleet",
    "Actuator": "sensor",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

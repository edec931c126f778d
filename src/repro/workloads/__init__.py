"""Workload generators for the application domains the paper motivates.

"Providing solutions for smart cities, healthcare, energy, and mobility"
(abstract).  Each builder returns a wired :class:`~repro.core.system.IoTSystem`
plus domain objects (services, policies, requirements) that examples and
benchmarks drive.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SmartCityWorkload": "smart_city",
    "HealthcareWorkload": "healthcare",
    "EnergyGridWorkload": "energy",
    "MobilityWorkload": "mobility",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

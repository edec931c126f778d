"""Deviceless service orchestration (paper §III.B, Table 2 row 2).

ML4's service vector: "Deviceless -- business logic fully managed and
abstracted from the infrastructure capabilities."  Developers submit
:class:`~repro.devices.software.Service` specs with constraints; the
orchestrator decides placement (latency-, resource- and locality-aware),
deploys, and -- paired with a MAPE loop -- re-places on failure.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PlacementConstraints": "placement",
    "PlacementDecision": "placement",
    "PlacementError": "placement",
    "best_fit_placement": "placement",
    "latency_aware_placement": "placement",
    "DevicelessScheduler": "scheduler",
    "Deployment": "scheduler",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

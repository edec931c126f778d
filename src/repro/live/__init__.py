"""Live-service mode: the resilience stack as an operable control plane.

Everything else in the repo is batch -- prepare a scenario, drain the
event queue, exit.  :mod:`repro.live` runs the same scenarios as
long-lived services: the kernel paced against the wall clock, telemetry
served over HTTP, checkpoints taken on a wall-clock cadence for
restart-without-loss, and reconfiguration hot-loaded without stopping.
``python -m repro live <scenario>`` is the entry point.

The whole subsystem preserves the persistence plane's determinism
contract: pacing and serving are telemetry-only (a paced run's journal
is byte-identical to the batch reference), and hot-loads pin themselves
to fired-count barriers so resumed and replayed runs reproduce them
exactly.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PacingStats": "pacing",
    "RealTimeExecutor": "pacing",
    "LiveLoadError": "reconfigure",
    "PAYLOAD_KINDS": "reconfigure",
    "apply_payload": "reconfigure",
    "register_live_loads": "reconfigure",
    "validate_payload": "reconfigure",
    "TelemetryServer": "server",
    "health_snapshot": "status",
    "status_snapshot": "status",
    "CHECKPOINT_EVERY_S": "supervisor",
    "LiveService": "supervisor",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Fault injection and disruption scheduling.

The paper defines disruption as "an adverse change to system stability ...
external to the system (i.e. due to the environment) or internal to the
system (i.e. due to a fault)" (§I).  This package implements every
disruption class the paper names:

* internal faults -> crash / crash-recovery / service failure
  (:class:`~repro.faults.models.CrashFault`, ...)
* non-persistent cloud connectivity -> partitions and latency spikes
* transfer of administrative domains -> :class:`~repro.faults.models.DomainTransferFault`
* untrusted circumstances -> :class:`~repro.faults.models.AdversarialEnvironmentFault`
* active compromise -> :class:`~repro.faults.models.NodeCompromiseFault`
  (the device runs attack behaviors from :mod:`repro.security`)
* resource constraints -> battery depletion

Disruptions are either scheduled explicitly (:class:`~repro.faults.schedule.DisruptionSchedule`)
for reproducible experiment scripts, or drawn from a seeded stochastic
generator (:class:`~repro.faults.schedule.RandomDisruptionGenerator`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdversarialEnvironmentFault": "models",
    "BatteryDepletionFault": "models",
    "CrashFault": "models",
    "CrashRecoveryFault": "models",
    "DomainTransferFault": "models",
    "Fault": "models",
    "LatencySpikeFault": "models",
    "LinkFailureFault": "models",
    "NodeCompromiseFault": "models",
    "PartitionFault": "models",
    "ServiceFailureFault": "models",
    "FaultInjector": "injector",
    "DisruptionSchedule": "schedule",
    "RandomDisruptionGenerator": "schedule",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

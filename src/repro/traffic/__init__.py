"""Request serving, load generation at scale, and client-side resilience.

The paper's vision is systems that keep *delivering service to users*
under disruption (§II-§IV); this package adds the missing serving layer:

* :mod:`~repro.traffic.loadgen` -- open-loop (Poisson/deterministic)
  generators, plus :class:`ClientCohort`, which
  represents thousands-to-millions of users as weighted batched arrivals
  so kernel event counts scale with aggregate rate, not population.
* :mod:`~repro.traffic.server` -- bounded-queue servers on devices,
  cloudlets or the cloud, with configurable concurrency, service-time
  distributions, admission control and backpressure signals MAPE loops
  can act on.
* :mod:`~repro.traffic.patterns` -- deadline/timeout, retry with
  jittered exponential backoff under a retry budget, hedged requests and
  a three-state circuit breaker: the client-side mechanism families of
  the resilience-survey taxonomy.
* :mod:`~repro.traffic.scenarios` -- the canonical ``overload`` and
  ``retry-storm`` experiments, registered with the persistence scenario
  registry and exposed through ``python -m repro traffic``.

Everything draws randomness from named :class:`~repro.simulation.rng.RngRegistry`
streams, so traffic runs are deterministic, checkpointable and
bit-identical on resume.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdmissionPolicy": "admission",
    "QueueLengthAdmission": "admission",
    "TrafficClient": "client",
    "ClientCohort": "loadgen",
    "OpenLoopGenerator": "loadgen",
    "cohort_batching": "loadgen",
    "CircuitBreaker": "patterns",
    "HedgePolicy": "patterns",
    "RetryBudget": "patterns",
    "RetryPolicy": "patterns",
    "REQUEST_KIND": "request",
    "Request": "request",
    "Server": "server",
    "ServiceModel": "server",
    "TrafficRegistry": "stats",
    "TrafficStats": "stats",
    "windowed_rate": "stats",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

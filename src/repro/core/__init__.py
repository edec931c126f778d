"""The resilience framework: the paper's primary contribution made executable.

Resilience is "the persistence of reliable requirements satisfaction when
facing change" (§I).  Accordingly this package provides:

* :mod:`repro.core.system` -- the :class:`IoTSystem` facade bundling the
  substrate (simulator, network, fleet, faults, trace, metrics);
* :mod:`repro.core.requirements` -- quantifiable requirement types
  (availability, latency, freshness, privacy, coverage, control);
* :mod:`repro.core.resilience` -- the resilience metric: per-requirement
  satisfaction signals evaluated inside and outside disruption windows,
  recovery times, and an aggregate score;
* :mod:`repro.core.vectors` -- the five disruption vectors and four
  maturity levels of Tables 1-2, as data;
* :mod:`repro.core.maturity` -- runnable ML1-ML4 system archetypes over a
  common workload (the executable form of Tables 1-2);
* :mod:`repro.core.assessment` -- report construction and rendering.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "IoTSystem": "system",
    "AvailabilityRequirement": "requirements",
    "ControlAvailabilityRequirement": "requirements",
    "CoverageRequirement": "requirements",
    "FreshnessRequirement": "requirements",
    "LatencyRequirement": "requirements",
    "PrivacyRequirement": "requirements",
    "Requirement": "requirements",
    "RequirementAssessment": "resilience",
    "ResilienceAnalyzer": "resilience",
    "ResilienceReport": "resilience",
    "DISRUPTION_VECTORS": "vectors",
    "MATURITY_TABLE": "vectors",
    "DisruptionVector": "vectors",
    "MaturityLevel": "vectors",
    "MaturityScenario": "maturity",
    "ScenarioParams": "maturity",
    "run_maturity_comparison": "maturity",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Deterministic discrete-event simulation substrate.

This package provides the execution foundation that every other subsystem
in :mod:`repro` builds on.  The paper's experiments require observing IoT
systems *over time while disruption unfolds*; since no physical testbed is
available, we substitute a deterministic discrete-event simulator (see
DESIGN.md, section 1).

The main entry points are:

* :class:`~repro.simulation.kernel.Simulator` -- the event loop and clock.
* :class:`~repro.simulation.rng.RngRegistry` -- named, independently seeded
  random streams so that adding randomness to one subsystem never perturbs
  another.
* :class:`~repro.simulation.metrics.MetricsRecorder` -- time-series metric
  capture used by the resilience assessment in :mod:`repro.core`.
* :class:`~repro.simulation.trace.TraceLog` -- structured event trace that
  runtime monitors (:mod:`repro.modeling`) consume.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Event": "kernel",
    "Simulator": "kernel",
    "SimulationError": "kernel",
    "RngRegistry": "rng",
    "MetricsRecorder": "metrics",
    "TimeSeries": "metrics",
    "TraceEvent": "trace",
    "TraceLog": "trace",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
